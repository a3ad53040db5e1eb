"""Command-line entry point.

Commands: synth-data, train, eval, infer, flops, params, rf.
Configuration is a flat JSON document (versioned with a "version" key,
unknown keys rejected); command-line flags override file values. Exit
codes: 0 success, 2 configuration/validation error, 3 numerical abort,
4 I/O failure or a malformed image or checkpoint file. Commands run with
numpy's floating-point warnings off: a non-finite value is reported once,
by the check that finds it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import analysis, data_io
from . import engine as E
from .model import ModelConfig, build_model, preset_config
from .training import NumericalAbort, TrainConfig, evaluate, train_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


_MODEL_DEFAULTS = {f.name: f.default for f in fields(ModelConfig)} | {"preset": ""}
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}
_SPEC_DEFAULTS = {f.name: f.default for f in fields(data_io.SynthSpec)}
# JSON types a field accepts, by the type of its default; a bool is no int
_JSON_TYPES = {int: int, float: (int, float), str: str}


def _section(where, doc, defaults):
    """Copy of a JSON object whose keys and value types match `defaults`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        want = type(defaults[key])
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[want]):
            raise ConfigError(
                f"{where}: {key} must be a JSON {want.__name__}, got {value!r}")
    return dict(doc)


def load_config(path, overrides=None):
    """Parse and validate a run configuration JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(doc) - {"version", "model", "train"}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"{path}: config version must be {CONFIG_VERSION}, got {doc.get('version')!r}"
        )

    model_doc = _section(f"{path} model", doc.get("model", {}), _MODEL_DEFAULTS)
    train_doc = _section(f"{path} train", doc.get("train", {}), _TRAIN_DEFAULTS)

    for key, value in (overrides or {}).items():
        section, _, field = key.partition(".")
        if section == "model":
            model_doc[field] = value
        else:
            train_doc[field] = value

    try:
        preset = model_doc.pop("preset", None)
        if preset is not None:
            model_cfg = preset_config(preset, **model_doc)
        else:
            model_cfg = ModelConfig(**model_doc)
        model_cfg.validate()
        train_cfg = TrainConfig(**train_doc)
        train_cfg.validate()
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err
    return model_cfg, train_cfg


def _model_overrides(args):
    overrides = {}
    if getattr(args, "ppm", None):
        overrides["model.ppm"] = args.ppm
    if getattr(args, "fixed_gate", None) is not None:
        overrides["model.fixed_gate"] = args.fixed_gate
    if getattr(args, "seed", None) is not None:
        overrides["train.seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        overrides["train.epochs"] = args.epochs
    return overrides


def _build_from_args(args):
    model_cfg, train_cfg = load_config(args.config, _model_overrides(args))
    return build_model(model_cfg, train_cfg.seed), model_cfg, train_cfg


def cmd_synth_data(args):
    spec_doc = {}
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{args.spec}: invalid JSON ({err})") from err
        spec_doc = _section(args.spec, doc, _SPEC_DEFAULTS)
    # explicit flags override the spec file, which overrides SynthSpec's defaults
    flags = dict(
        seed=args.seed, count=args.count, height=args.height, width=args.width,
        class_count=args.classes, density=args.density, min_shape=args.min_shape,
    )
    spec_doc.update((key, value) for key, value in flags.items() if value is not None)
    try:
        spec = data_io.SynthSpec(**spec_doc)
        spec.validate()
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err
    samples = data_io.synth_dataset(spec)
    data_io.write_dataset(samples, args.out, spec)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _split_dataset(samples, val_count):
    if val_count < 0:
        raise ConfigError(f"--val-count must be >= 0, got {val_count}")
    if val_count >= len(samples):
        raise ConfigError(
            f"val_count {val_count} leaves no training data "
            f"(dataset holds {len(samples)})"
        )
    if val_count:
        return samples[:-val_count], samples[-val_count:]
    return samples, []


def cmd_train(args):
    model, model_cfg, train_cfg = _build_from_args(args)
    if not os.path.isdir(args.data):
        raise ConfigError(f"dataset directory {args.data!r} does not exist")
    samples, _ = data_io.load_dataset(args.data)
    train_set, val_set = _split_dataset(samples, args.val_count)
    history = train_model(model, train_set, val_set, train_cfg,
                          out_dir=args.out, log=print)
    print(f"final miou={history[-1]['miou']:.6f}")
    return EXIT_OK


def cmd_eval(args):
    model, model_cfg, train_cfg = _build_from_args(args)
    data_io.load_into_model(model, args.ckpt)
    samples, _ = data_io.load_dataset(args.data)
    per_class, mean = evaluate(model, samples, model_cfg.class_count,
                               batch_size=args.batch)
    print(f"samples {len(samples)}")
    print("class  iou")
    for idx, iou in enumerate(per_class):
        text = "absent" if np.isnan(iou) else f"{iou:.6f}"
        print(f"{idx:5d}  {text}")
    print(f"miou {mean:.6f}")
    return EXIT_OK


def cmd_infer(args):
    model, model_cfg, _ = _build_from_args(args)
    data_io.load_into_model(model, args.ckpt)
    image = data_io.read_ppm(args.image)
    with E.no_grad():
        out = model(E.Tensor(image[None]), "eval")
    labels = out.seg_logits.data.argmax(axis=1)[0]
    if args.overlay is not None:
        rendered = data_io.render_overlay(image, labels, args.overlay)
    else:
        rendered = data_io.colorize(labels)
    data_io.write_ppm(args.out, rendered)
    print(f"wrote {args.out}")
    return EXIT_OK


def _print_report(report, fmt):
    if fmt == "csv":
        sys.stdout.write(analysis.report_csv(report))
    else:
        print(analysis.report_table(report))


def cmd_flops(args):
    model, _, _ = _build_from_args(args)
    shape = (1, 3, args.size, args.size)
    report = analysis.count_flops(model, shape)
    _print_report(report, args.format)
    print(f"total_flops {report.total_flops}")
    return EXIT_OK


def cmd_params(args):
    model, _, _ = _build_from_args(args)
    print(f"params {analysis.count_params(model)}")
    return EXIT_OK


def cmd_rf(args):
    model, _, _ = _build_from_args(args)
    table = analysis.rf_table(model)
    if args.format == "csv":
        print("path,rf_h,rf_w")
        for name, (rh, rw) in table.items():
            print(f"{name},{rh},{rw}")
    else:
        for name, (rh, rw) in table.items():
            print(f"{name}: {rh} x {rw}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lka-seg",
        description="Bilateral large-kernel-attention segmentation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--spec", help="JSON file with dataset fields; flags override")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--min-shape", type=int)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--val-count", type=int, default=16)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--ppm", choices=("dappm", "dlkppm"))
    p.add_argument("--fixed-gate", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-class IoU of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--ppm", choices=("dappm", "dlkppm"))
    p.add_argument("--fixed-gate", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="segment one PPM image")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overlay", type=float, default=None)
    p.add_argument("--ppm", choices=("dappm", "dlkppm"))
    p.add_argument("--fixed-gate", type=float)
    p.set_defaults(func=cmd_infer)

    for name, func in (("flops", cmd_flops), ("params", cmd_params), ("rf", cmd_rf)):
        p = sub.add_parser(name, help=f"report {name}")
        p.add_argument("--config", required=True)
        if name != "params":
            p.add_argument("--format", choices=("table", "csv"), default="table")
        p.add_argument("--ppm", choices=("dappm", "dlkppm"))
        if name == "flops":
            p.add_argument("--size", type=int, default=64)
        p.set_defaults(func=func)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Op outputs may overflow until a boundary check names the op, so
        # numpy's floating-point warnings would only precede that message.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, data_io.FileFormatError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

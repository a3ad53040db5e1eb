"""Command-line entry point.

Commands: synth-data, train, eval, infer, flops, params, rf.
Model and training values come from a flat JSON config document
(versioned with a "version" key, unknown keys rejected) and from nowhere
else; `synth-data` takes its dataset fields from flags alone. Exit
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
from .training import IGNORE_INDEX, NumericalAbort, TrainConfig, evaluate, train_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


_MODEL_DEFAULTS = {f.name: f.default for f in fields(ModelConfig)} | {"preset": ""}
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}
# JSON types a field accepts, by the type of its default; a bool is no int
_JSON_TYPES = {int: int, float: (int, float), str: str}


def _section(where, doc, defaults):
    """Copy of a JSON object whose keys and value types match `defaults`;
    an int given for a float field is converted to a float."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, value in doc.items():
        want = type(defaults[key])
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[want]):
            raise ConfigError(
                f"{where}: {key} must be a JSON {want.__name__}, got {value!r}")
        try:
            out[key] = want(value)
        except OverflowError as err:
            raise ConfigError(f"{where}: {key} is out of float range") from err
    return out


def _read_json(path):
    """The JSON document in `path`; `ConfigError` naming the file if it
    does not decode."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text ({err})") from err
        except ValueError as err:   # a decode error, or an int too long to convert
            raise ConfigError(f"{path}: invalid JSON ({err})") from err
        except RecursionError as err:
            raise ConfigError(f"{path}: invalid JSON (nested too deeply)") from err


def load_config(path):
    """Parse and validate a run configuration JSON file."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(doc) - {"version", "model", "train"}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    version = doc.get("version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(
            f"{path}: config version must be the integer {CONFIG_VERSION}, "
            f"got {version!r}")

    model_doc = _section(f"{path} model", doc.get("model", {}), _MODEL_DEFAULTS)
    train_doc = _section(f"{path} train", doc.get("train", {}), _TRAIN_DEFAULTS)
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


def _build_from_args(args):
    model_cfg, train_cfg = load_config(args.config)
    return build_model(model_cfg, train_cfg.seed), model_cfg, train_cfg


def _load_samples(data_dir, class_count):
    """The samples of a dataset directory, which must exist, with every
    label below `class_count` or the ignore label."""
    if not os.path.isdir(data_dir):
        raise ConfigError(f"dataset directory {data_dir!r} does not exist")
    return data_io.load_dataset(data_dir, class_count, IGNORE_INDEX)[0]


def cmd_synth_data(args):
    spec = data_io.SynthSpec(
        seed=args.seed, count=args.count, height=args.height, width=args.width,
        class_count=args.classes, density=args.density, min_shape=args.min_shape,
    )
    try:
        spec.validate()
    except ValueError as err:
        raise ConfigError(str(err)) from err
    samples = data_io.synth_dataset(spec)
    data_io.write_dataset(samples, args.out, spec)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _split_dataset(samples, val_count):
    if val_count >= len(samples):
        raise ConfigError(
            f"val_count {val_count} leaves no training data "
            f"(dataset holds {len(samples)})"
        )
    if val_count:
        return samples[:-val_count], samples[-val_count:]
    return samples, []


def cmd_train(args):
    # flags first: a bad one must not wait on, or hide behind, file I/O
    if args.val_count < 0:
        raise ConfigError(f"--val-count must be >= 0, got {args.val_count}")
    model, model_cfg, train_cfg = _build_from_args(args)
    samples = _load_samples(args.data, model_cfg.class_count)
    train_set, val_set = _split_dataset(samples, args.val_count)
    history = train_model(model, train_set, val_set, train_cfg,
                          out_dir=args.out, log=print)
    print(f"final miou={history[-1]['miou']:.6f}")
    return EXIT_OK


def cmd_eval(args):
    model, model_cfg, _ = _build_from_args(args)
    data_io.load_into_model(model, args.ckpt)
    samples = _load_samples(args.data, model_cfg.class_count)
    per_class, mean = evaluate(model, samples, model_cfg.class_count)
    print(f"samples {len(samples)}")
    print("class  iou")
    for idx, iou in enumerate(per_class):
        text = "absent" if np.isnan(iou) else f"{iou:.6f}"
        print(f"{idx:5d}  {text}")
    print(f"miou {mean:.6f}")
    return EXIT_OK


def cmd_infer(args):
    if args.overlay is not None and not 0.0 <= args.overlay <= 1.0:
        raise ConfigError(f"--overlay must be in [0, 1], got {args.overlay}")
    model_cfg, train_cfg = load_config(args.config)
    if model_cfg.class_count > len(data_io.PALETTE):
        raise ConfigError(
            f"{args.config}: class_count {model_cfg.class_count} exceeds the "
            f"{len(data_io.PALETTE)} colours of the output palette")
    model = build_model(model_cfg, train_cfg.seed)
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
    if args.size < 1 or args.size % 64:
        raise ConfigError(
            f"--size must be positive and divisible by 64, got {args.size}")
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
    table = analysis.rf_table()
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

    spec = data_io.SynthSpec()   # the dataset flags' defaults
    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--count", type=int, default=spec.count)
    p.add_argument("--height", type=int, default=spec.height)
    p.add_argument("--width", type=int, default=spec.width)
    p.add_argument("--classes", type=int, default=spec.class_count)
    p.add_argument("--density", type=float, default=spec.density)
    p.add_argument("--min-shape", type=int, default=spec.min_shape)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--val-count", type=int, default=16)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-class IoU of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="segment one PPM image")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overlay", type=float, default=None)
    p.set_defaults(func=cmd_infer)

    for name, func in (("flops", cmd_flops), ("params", cmd_params), ("rf", cmd_rf)):
        p = sub.add_parser(name, help=f"report {name}")
        if name != "rf":   # the RF paths are fixed chains, the same for any model
            p.add_argument("--config", required=True)
        if name != "params":
            p.add_argument("--format", choices=("table", "csv"), default="table")
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

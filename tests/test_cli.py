"""Command-line surface: flags, exit codes, determinism, file outputs."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lka_seg
from lka_seg.cli import main
from lka_seg.data_io import load_into_model, save_checkpoint
from lka_seg.model import ModelConfig, build_model
from helpers import set_first_offset

TOY_CONFIG = {
    "version": 1,
    "model": {"preset": "toy", "class_count": 5},
    "train": {"epochs": 2, "batch_size": 4, "base_lr": 0.05, "seed": 0},
}

TINY_CONFIG = {
    "version": 1,
    "model": {"class_count": 3, "stem_width": 4, "low_width": 4, "mid_width": 6,
              "high_width": 8, "blocks_per_stage": 1, "fuse_width": 6,
              "head_width": 6},
    "train": {"epochs": 1, "batch_size": 4, "base_lr": 0.05, "seed": 0},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, **env):
    """`lka-seg args` in a fresh interpreter, with `env` added to the
    environment; returns the completed process (text stdout and stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lka_seg.__file__)))
    return subprocess.run([sys.executable, "-m", "lka_seg.cli", *args],
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=600)


def overflow_config(tmp_path):
    """TINY_CONFIG with one step per epoch (6 training scenes of 8 at
    --val-count 2) whose update overflows the weights: the step's own loss
    and gradients are finite, the epoch's validation is not."""
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["train"].update(batch_size=8, base_lr=1e300)
    return write_config(tmp_path, doc, "overflow.json")


def synth(tmp_path, out="data", count=8, classes=3, extra=()):
    rc = main(["synth-data", "--out", str(tmp_path / out), "--seed", "5",
               "--count", str(count), "--classes", str(classes), *extra])
    assert rc == 0
    return str(tmp_path / out)


class TestSynthData:
    def test_default_count_is_64(self, tmp_path, capsys):
        assert main(["synth-data", "--out", str(tmp_path / "d")]) == 0
        files = os.listdir(tmp_path / "d")
        assert sum(f.startswith("img_") for f in files) == 64
        assert sum(f.startswith("lbl_") for f in files) == 64

    def test_repeated_run_identical_bytes(self, tmp_path):
        a = synth(tmp_path, "a")
        b = synth(tmp_path, "b")
        for name in sorted(os.listdir(a)):
            assert (open(os.path.join(a, name), "rb").read()
                    == open(os.path.join(b, name), "rb").read()), name

    def test_invalid_class_count_exits_2(self, tmp_path, capsys):
        rc = main(["synth-data", "--out", str(tmp_path / "d"), "--classes", "1"])
        assert rc == 2
        assert "class_count" in capsys.readouterr().err

    @pytest.mark.parametrize("height,width", [("128", "64"), ("256", "64")])
    def test_non_square_scenes(self, tmp_path, height, width):
        from lka_seg.data_io import load_dataset
        out = synth(tmp_path, count=16, extra=("--height", height, "--width", width))
        samples, _ = load_dataset(out)
        assert samples[0].labels.shape == (int(height), int(width))

    @pytest.mark.parametrize("flags,field", [
        (("--density", "inf"), "density"),
        (("--density", "nan"), "density"),
        (("--height", "0"), "height"),
        (("--width", "-64"), "width"),
        (("--min-shape", "40"), "min_shape"),
        (("--density", "1e6"), "density"),
        (("--seed", "-1"), "seed"),
    ])
    def test_unpaintable_spec_exits_2_naming_field(self, tmp_path, capsys,
                                                   flags, field):
        rc = main(["synth-data", "--out", str(tmp_path / "d"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err, err
        assert not (tmp_path / "d").exists()

    def test_boundary_radius_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth-data", "--out", str(tmp_path / "d"),
                  "--boundary-radius", "2"])
        assert exc.value.code == 2
        assert "--boundary-radius" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_tiny_train_writes_outputs(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = str(tmp_path / "run")
        rc = main(["train", "--config", cfg, "--data", data, "--out", out,
                   "--val-count", "2"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "epoch=0 loss=" in stdout and "miou=" in stdout and "lr=" in stdout
        for name in ("metrics.csv", "best.ckpt", "last.ckpt"):
            assert os.path.exists(os.path.join(out, name)), name
        header = open(os.path.join(out, "metrics.csv")).readline().strip()
        assert header == "epoch,loss,miou,lr"

    def test_missing_dataset_dir_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        rc = main(["train", "--config", cfg, "--data", str(tmp_path / "none"),
                   "--out", str(tmp_path / "run")])
        assert rc == 2

    def test_seed_repeat_identical_metrics(self, tmp_path):
        data = synth(tmp_path, count=8, classes=3)
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["train"]["seed"] = 9
        cfg = write_config(tmp_path, doc)
        outs = []
        for run in ("r1", "r2"):
            out = str(tmp_path / run)
            assert main(["train", "--config", cfg, "--data", data, "--out", out,
                         "--val-count", "2"]) == 0
            outs.append(out)
        for name in ("metrics.csv", "last.ckpt", "best.ckpt"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name

    def test_label_outside_classes_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=5)
        cfg = write_config(tmp_path, TINY_CONFIG)  # 3 classes
        rc = main(["train", "--config", cfg, "--data", data,
                   "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(r"lbl_\d{5}\.pgm: label [34] at row \d+, column \d+ "
                         r"outside \[0, 3\)", err), err
        assert "np.int64" not in err
        assert not (tmp_path / "run").exists()

    def test_truncated_image_exits_4_naming_file(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        image = os.path.join(data, "img_00000.ppm")
        os.truncate(image, os.path.getsize(image) // 2)
        cfg = write_config(tmp_path, TINY_CONFIG)
        rc = main(["train", "--config", cfg, "--data", data,
                   "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert rc == 4
        assert f"io error: {image}: truncated payload" in capsys.readouterr().err

    @pytest.mark.parametrize("name,message", [
        ("img_00002.ppm", "image is 128x128, but 64x64 in img_00000.ppm"),
        ("lbl_00001.pgm", "label map is 128x128, but its image is 64x64"),
    ])
    def test_mixed_sizes_exit_2_naming_file(self, tmp_path, capsys, name,
                                            message):
        data = synth(tmp_path, count=8, classes=3)
        big = synth(tmp_path, out="big", count=8, classes=3,
                    extra=("--height", "128", "--width", "128"))
        shutil.copy(os.path.join(big, name), os.path.join(data, name))
        cfg = write_config(tmp_path, TINY_CONFIG)
        rc = main(["train", "--config", cfg, "--data", data,
                   "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert rc == 2
        assert f"{os.path.join(data, name)}: {message}" in capsys.readouterr().err

    def test_checkpoint_write_failure_exits_4(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "run"
        (out / "last.ckpt").mkdir(parents=True)
        (out / "last.ckpt" / "keep").write_text("x")
        rc = main(["train", "--config", cfg, "--data", data, "--out", str(out),
                   "--val-count", "2"])
        assert rc == 4
        assert "io error" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # the other keys name removed knobs
        for section, key, value in ((None, "optimizer", "adam"),
                                    (None, "seed", 3),
                                    ("train", "scale_augment", True),
                                    ("model", "boundary_head", False),
                                    ("model", "aux_head", False),
                                    ("model", "cffn_ratio", 3),
                                    ("model", "ppm_hidden", 4),
                                    ("model", "ppm_out", 8),
                                    ("train", "momentum", 0.9),
                                    ("train", "weight_decay", 1e-4),
                                    ("train", "poly_power", 0.9),
                                    ("train", "ohem_threshold", 0.7),
                                    ("train", "ohem_min_kept_frac", 0.0625),
                                    ("train", "aux_weight", 0.4),
                                    ("train", "boundary_weight", 1.0),
                                    ("train", "ignore_index", 255),
                                    ("train", "val_batch", 8),
                                    ("train", "crop", 0),
                                    ("train", "flip", True)):
            doc = json.loads(json.dumps(TINY_CONFIG))
            (doc[section] if section else doc)[key] = value
            cfg = write_config(tmp_path, doc)
            rc = main(["train", "--config", cfg, "--data", str(tmp_path),
                       "--out", str(tmp_path / "run")])
            assert rc == 2, key
            err = capsys.readouterr().err
            assert "unknown keys" in err and key in err

    @pytest.mark.parametrize("section, value, named", [
        ("model", [1], "model"),
        ("model", 5, "model"),
        ("train", None, "train"),
        ("train", {"epochs": 1.5}, "epochs"),
        ("train", {"epochs": True}, "epochs"),
        ("train", {"batch_size": "4"}, "batch_size"),
        ("train", {"base_lr": "0.1"}, "base_lr"),
        ("model", {"ppm": 1}, "ppm"),
        ("model", {"preset": None}, "preset"),
    ])
    def test_config_value_type_exits_2(self, tmp_path, capsys, section, value,
                                       named):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc[section] = value
        cfg = write_config(tmp_path, doc)
        rc = main(["train", "--config", cfg, "--data", str(tmp_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["NaN", "1e400", "-Infinity"])
    def test_non_finite_base_lr_exits_2(self, tmp_path, capsys, text):
        # Python's JSON reader takes NaN and Infinity, and 1e400 reads as inf
        data = synth(tmp_path, count=8, classes=3)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_CONFIG).replace('"base_lr": 0.05',
                                                       f'"base_lr": {text}'))
        rc = main(["train", "--config", str(cfg), "--data", data,
                   "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert rc == 2
        assert "base_lr must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field", ["fuse_width", "head_width"])
    def test_negative_width_exits_2_naming_field(self, tmp_path, capsys, field):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["model"][field] = -3
        assert main(["params", "--config", write_config(tmp_path, doc)]) == 2
        assert f"{field} must be >= 1, got -3" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_op_overflow_exits_3_naming_op_and_module(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["train"]["base_lr"] = 1e300
        rc = main(["train", "--config", write_config(tmp_path, doc), "--data",
                   data, "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert rc == 3
        assert re.search(r"numerical abort: .* traced to \w+ at [\w.]+, the first "
                         r"op to output a non-finite value",
                         capsys.readouterr().err)

    def test_validation_overflow_exits_3_with_the_message_alone(self, tmp_path):
        # op outputs may overflow before a boundary check names the op;
        # numpy's warnings about them are not printed
        data = synth(tmp_path, count=8, classes=3)
        proc = run_cli(["train", "--config", overflow_config(tmp_path), "--data",
                        data, "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        assert re.match(r"numerical abort: non-finite value in the validation "
                        r"after epoch 0: non-finite model output, traced to \w+ "
                        r"at [\w.]+", lines[0]), lines

    def test_pinned_blas_runs_are_byte_identical(self, tmp_path):
        # the determinism precondition: with one BLAS thread, two processes
        # training the same config write the same bytes
        data = synth(tmp_path, count=8, classes=3)
        cfg = write_config(tmp_path, TINY_CONFIG)
        outs = [str(tmp_path / run) for run in ("r1", "r2")]
        for out in outs:
            proc = run_cli(["train", "--config", cfg, "--data", data, "--out",
                            out, "--val-count", "2"], OPENBLAS_NUM_THREADS="1")
            assert proc.returncode == 0, proc.stderr
        for name in ("metrics.csv", "best.ckpt", "last.ckpt"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name

    def test_float_field_takes_int(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["train"]["base_lr"] = 1
        doc["model"]["fixed_gate"] = 0.5
        assert main(["params", "--config", write_config(tmp_path, doc)]) == 0

    def test_manifest_without_count_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        manifest = os.path.join(data, "manifest.txt")
        lines = open(manifest).read().splitlines()
        open(manifest, "w").write(
            "\n".join(ln for ln in lines if not ln.startswith("count=")))
        cfg = write_config(tmp_path, TINY_CONFIG)
        rc = main(["train", "--config", cfg, "--data", data,
                   "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert rc == 2
        assert "manifest.txt: missing key 'count'" in capsys.readouterr().err

    def test_manifest_not_ascii_exits_2_naming_file(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        manifest = os.path.join(data, "manifest.txt")
        with open(manifest, "ab") as fh:
            fh.write(b"note=\xff\n")
        cfg = write_config(tmp_path, TINY_CONFIG)
        rc = main(["train", "--config", cfg, "--data", data,
                   "--out", str(tmp_path / "run"), "--val-count", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{manifest}: not ASCII text" in err, err
        assert not (tmp_path / "run").exists()

    def test_config_not_utf8_exits_2_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(TINY_CONFIG).encode()[:-1] + b', "x": "\xff"}')
        rc = main(["params", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: not UTF-8 text"), err

    @pytest.mark.parametrize("text", ['{"version": 1, "model": {', "[" * 200_000],
                             ids=["--config-truncated", "--config-deep"])
    def test_undecodable_json_exits_2_naming_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert main(["train", "--config", str(bad), "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == 2
        assert f"config error: {bad}: invalid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["-1", "-8"])
    def test_negative_val_count_exits_2(self, tmp_path, capsys, count):
        data = synth(tmp_path, count=8, classes=3)
        cfg = write_config(tmp_path, TINY_CONFIG)
        rc = main(["train", "--config", cfg, "--data", data,
                   "--out", str(tmp_path / "run"), "--val-count", count])
        assert rc == 2
        assert "--val-count must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, text, fault", [
        ("version", "true", "config version must be the integer 1, got True"),
        ("version", "1.0", "config version must be the integer 1, got 1.0"),
        ("base_lr", "1" + "0" * 400, "train: base_lr is out of float range"),
        ("seed", "-1", "seed must be >= 0, got -1"),
        ("seed", "1" * 5001, "invalid JSON (Exceeds the limit"),
    ], ids=["version-true", "version-float", "base-lr-int-overflow",
            "seed-negative", "seed-5001-digits"])
    def test_config_number_fault_exits_2_naming_it(self, tmp_path, capsys,
                                                  field, text, fault):
        doc = json.loads(json.dumps(TINY_CONFIG))
        section = doc if field == "version" else doc["train"]
        section[field] = "@"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc).replace('"@"', text))
        assert main(["params", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"config error: {cfg}" in captured.err and fault in captured.err
        assert captured.out == ""

    def test_wrong_version_exits_2(self, tmp_path, capsys):
        doc = dict(TINY_CONFIG)
        doc["version"] = 2
        cfg = write_config(tmp_path, doc)
        rc = main(["train", "--config", cfg, "--data", str(tmp_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 2


class TestEvalInfer:
    @pytest.fixture
    def trained(self, tmp_path):
        data = synth(tmp_path, count=8, classes=3)
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--data", data, "--out", out,
                     "--val-count", "2"]) == 0
        return data, cfg, os.path.join(out, "best.ckpt")

    def test_eval_prints_per_class_table(self, trained, capsys):
        data, cfg, ckpt = trained
        rc = main(["eval", "--config", cfg, "--ckpt", ckpt, "--data", data])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "samples 8"
        assert "class  iou" in out and "miou" in out

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", "c.json", "--ckpt", "c.ckpt", "--data", "d",
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_eval_on_count_below_one_exits_2(self, trained, capsys):
        data, cfg, ckpt = trained
        manifest = os.path.join(data, "manifest.txt")
        lines = [ln for ln in open(manifest).read().splitlines()
                 if not ln.startswith("count=")]
        open(manifest, "w").write("\n".join(lines + ["count=-3"]) + "\n")
        rc = main(["eval", "--config", cfg, "--ckpt", ckpt, "--data", data])
        assert rc == 2
        assert "manifest.txt: count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, fault", [
        (["train", "--val-count", "-1"], "--val-count must be >= 0, got -1"),
        (["infer", "--overlay", "1.5"], "--overlay must be in [0, 1], got 1.5"),
        (["infer", "--overlay", "-0.1"], "--overlay must be in [0, 1], got -0.1"),
        (["infer", "--overlay", "nan"], "--overlay must be in [0, 1], got nan"),
        (["flops", "--size", "0"], "--size must be positive and divisible by 64, got 0"),
        (["flops", "--size", "65"],
         "--size must be positive and divisible by 64, got 65"),
    ], ids=["val-count", "overlay-high", "overlay-neg", "overlay-nan", "size-0",
            "size-65"])
    def test_bad_flag_exits_2_before_any_file_is_read(self, tmp_path, capsys,
                                                      argv, fault):
        # every path is missing: a flag checked after the first read would
        # exit 4 for the file instead
        missing = str(tmp_path / "missing")
        paths = {"train": ["--data", missing, "--out", str(tmp_path / "run")],
                 "eval": ["--ckpt", missing, "--data", missing],
                 "infer": ["--ckpt", missing, "--image", missing,
                           "--out", str(tmp_path / "seg.ppm")],
                 "flops": []}[argv[0]]
        rc = main([argv[0], "--config", missing, *paths, *argv[1:]])
        assert rc == 2
        assert f"config error: {fault}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_eval_missing_dataset_dir_exits_2(self, trained, tmp_path, capsys):
        _, cfg, ckpt = trained
        missing = str(tmp_path / "none")
        assert main(["eval", "--config", cfg, "--ckpt", ckpt, "--data", missing]) == 2
        captured = capsys.readouterr()
        assert f"config error: dataset directory {missing!r} does not exist" in captured.err
        assert captured.out == ""

    def test_infer_class_count_beyond_palette_exits_2_before_any_file_is_read(
            self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["model"]["class_count"] = 17
        cfg = write_config(tmp_path, doc)
        missing = str(tmp_path / "missing")
        dest = tmp_path / "seg.ppm"
        rc = main(["infer", "--config", cfg, "--ckpt", missing, "--image", missing,
                   "--out", str(dest)])
        assert rc == 2
        assert (f"config error: {cfg}: class_count 17 exceeds the 16 colours"
                in capsys.readouterr().err)
        assert not dest.exists()

    def test_infer_writes_ppm(self, trained, tmp_path, capsys):
        data, cfg, ckpt = trained
        image = os.path.join(data, "img_00000.ppm")
        dest = str(tmp_path / "seg.ppm")
        rc = main(["infer", "--config", cfg, "--ckpt", ckpt, "--image", image,
                   "--out", dest, "--overlay", "0.4"])
        assert rc == 0
        from lka_seg.data_io import read_ppm
        assert read_ppm(dest).shape == (3, 64, 64)

    def test_infer_bad_image_magic_exits_4_naming_file(self, trained, tmp_path,
                                                       capsys):
        data, cfg, ckpt = trained
        image = tmp_path / "bad.ppm"
        image.write_bytes(b"P5" + (Path(data) / "img_00000.ppm").read_bytes()[2:])
        dest = tmp_path / "seg.ppm"
        rc = main(["infer", "--config", cfg, "--ckpt", ckpt, "--image", str(image),
                   "--out", str(dest)])
        assert rc == 4
        assert (f"io error: {image}: bad magic b'P5', expected b'P6'"
                in capsys.readouterr().err)
        assert not dest.exists()

    def test_corrupt_checkpoint_exits_4(self, trained, tmp_path, capsys):
        data, cfg, ckpt = trained
        blob = bytearray(open(ckpt, "rb").read())
        blob[-10] ^= 0xFF
        bad = str(tmp_path / "bad.ckpt")
        open(bad, "wb").write(bytes(blob))
        rc = main(["eval", "--config", cfg, "--ckpt", bad, "--data", data])
        assert rc == 4

    @pytest.mark.parametrize("offset", [1, 10**9])
    def test_bad_manifest_offset_exits_4(self, trained, tmp_path, capsys,
                                         offset):
        data, cfg, ckpt = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(set_first_offset(open(ckpt, "rb").read(), offset))
        rc = main(["eval", "--config", cfg, "--ckpt", str(bad), "--data", data])
        assert rc == 4
        assert "offset" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_overflowing_weights_exit_2_naming_op_and_module(self, trained,
                                                             tmp_path, capsys):
        data, cfg, ckpt = trained
        model = build_model(ModelConfig(**TINY_CONFIG["model"]))
        load_into_model(model, ckpt)
        conv = model.low_stage1[0].body[0]
        conv.weight.data = conv.weight.data * 1e300   # finite, so it loads
        bad = str(tmp_path / "scaled.ckpt")
        save_checkpoint(model, bad)
        rc = main(["eval", "--config", cfg, "--ckpt", bad, "--data", data])
        assert rc == 2
        assert re.search(r"error: non-finite model output, traced to \w+ at "
                         r"[\w.]+, the first op", capsys.readouterr().err)

    def test_non_finite_checkpoint_exits_4_naming_entry(self, trained, tmp_path,
                                                        capsys):
        data, cfg, ckpt = trained
        model = build_model(ModelConfig(**TINY_CONFIG["model"]))
        load_into_model(model, ckpt)
        model.low_stage1[0].body[0].weight.data[0, 0, 0, 0] = np.nan
        bad = str(tmp_path / "nan.ckpt")
        save_checkpoint(model, bad)
        rc = main(["eval", "--config", cfg, "--ckpt", bad, "--data", data])
        assert rc == 4
        assert ("entry 'low_stage1.0.body.0.weight' holds a non-finite value"
                in capsys.readouterr().err)

    def test_eval_overflow_stderr_is_the_message_alone(self, trained, tmp_path):
        # numpy's overflow warnings would print before the message
        data, cfg, ckpt = trained
        model = build_model(ModelConfig(**TINY_CONFIG["model"]))
        load_into_model(model, ckpt)
        conv = model.low_stage1[0].body[0]
        conv.weight.data = conv.weight.data * 1e300
        bad = str(tmp_path / "scaled.ckpt")
        save_checkpoint(model, bad)
        proc = run_cli(["eval", "--config", cfg, "--ckpt", bad, "--data", data])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: non-finite model output"), lines

    def test_missing_checkpoint_exits_4(self, trained, capsys):
        data, cfg, _ = trained
        rc = main(["eval", "--config", cfg, "--ckpt", "/nonexistent.ckpt",
                   "--data", data])
        assert rc == 4


class TestAnalysisCommands:
    def test_rf_reports_35(self, capsys):
        assert main(["rf"]) == 0
        out = capsys.readouterr().out
        assert "lka_large: 35 x 35" in out

    def test_rf_csv_format(self, capsys):
        assert main(["rf", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "path,rf_h,rf_w" in out and "lka_large,35,35" in out

    def test_params_has_no_format_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["params", "--config", cfg, "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_rf_has_no_ppm_flag(self, capsys):
        # the RF paths are fixed chains, the same for either pyramid
        with pytest.raises(SystemExit) as exc:
            main(["rf", "--ppm", "dappm"])
        assert exc.value.code == 2
        assert "--ppm" in capsys.readouterr().err

    def test_flops_total_matches_meter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        assert main(["flops", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        total = int(out.strip().splitlines()[-1].split()[-1])

        import lka_seg.engine as E
        from lka_seg.model import build_model, preset_config
        model = build_model(preset_config("toy", class_count=5), seed=0)
        x = E.Tensor(np.random.default_rng(0).uniform(size=(1, 3, 64, 64)))
        with E.no_grad(), E.flop_meter() as meter:
            model(x, "eval")
        assert total == meter.total

    @pytest.mark.parametrize("fmt", [(), ("--format", "csv")])
    def test_flops_rows_are_layers_then_totals(self, tmp_path, capsys, fmt):
        # receptive fields are `rf`'s report alone
        cfg = write_config(tmp_path, TOY_CONFIG)
        assert main(["flops", "--config", cfg, *fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("total") and lines[-1].startswith("total_flops ")
        assert not any("rf" in ln.split(",")[0] or "receptive" in ln for ln in lines)

    @pytest.mark.parametrize("size", ["0", "-64", "96"])
    def test_flops_size_not_positive_multiple_of_64_exits_2(self, tmp_path,
                                                            capsys, size):
        cfg = write_config(tmp_path, TOY_CONFIG)
        assert main(["flops", "--config", cfg, "--size", size]) == 2
        captured = capsys.readouterr()
        assert "positive and divisible by 64" in captured.err
        assert "total_flops" not in captured.out

    def test_params_matches_checkpoint_scalars(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--data", data, "--out", out,
                     "--val-count", "2"]) == 0
        capsys.readouterr()
        assert main(["params", "--config", cfg]) == 0
        reported = int(capsys.readouterr().out.split()[-1])
        from lka_seg.data_io import checkpoint_scalar_count
        assert reported == checkpoint_scalar_count(os.path.join(out, "last.ckpt"))

    def test_fixed_gate_flag_trains(self, tmp_path, capsys):
        # the fixed-gate ablation is the config's `fixed_gate` value
        data = synth(tmp_path, count=8, classes=3)
        doc = json.loads(json.dumps(TINY_CONFIG))
        for gate, name, code in ((0.5, "ok", 0), (1.5, "bad", 2)):
            doc["model"]["fixed_gate"] = gate
            cfg = write_config(tmp_path, doc, f"{name}.json")
            rc = main(["train", "--config", cfg, "--data", data,
                       "--out", str(tmp_path / name), "--val-count", "2"])
            assert rc == code, gate
        err = capsys.readouterr().err
        assert f"config error: {cfg}: fixed_gate must lie in (0, 1), got 1.5" in err

    def test_ppm_toggle_changes_model(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TOY_CONFIG))
        assert main(["params", "--config", write_config(tmp_path, doc)]) == 0
        base = int(capsys.readouterr().out.split()[-1])
        doc["model"]["ppm"] = "dappm"
        assert main(["params", "--config", write_config(tmp_path, doc)]) == 0
        ablated = int(capsys.readouterr().out.split()[-1])
        assert ablated < base  # the plain pyramid drops the gate convolutions


@pytest.mark.parametrize("command, option", [
    ("synth-data", "--spec"),
    ("train", "--seed"), ("train", "--epochs"), ("train", "--ppm"),
    ("train", "--fixed-gate"),
    ("eval", "--batch"), ("eval", "--ppm"), ("eval", "--fixed-gate"),
    ("infer", "--ppm"), ("infer", "--fixed-gate"),
    ("flops", "--ppm"), ("params", "--ppm"),
    ("rf", "--config"),
])
def test_removed_option_exits_2_naming_it(tmp_path, monkeypatch, capsys, command,
                                         option):
    # model and training values come from the config alone, dataset fields
    # from synth-data's flags alone
    required = {"synth-data": ["--out", "d"],
                "train": ["--config", "c.json", "--data", "d", "--out", "r"],
                "eval": ["--config", "c.json", "--ckpt", "c.ckpt", "--data", "d"],
                "infer": ["--config", "c.json", "--ckpt", "c.ckpt", "--image", "i.ppm",
                          "--out", "o.ppm"],
                "flops": ["--config", "c.json"], "params": ["--config", "c.json"],
                "rf": []}[command]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *required, option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _dataset_fault(tmp_path, fault):
    """A 3-class dataset, config and checkpoint for `eval`, with one fault;
    returns the argv."""
    data = synth(tmp_path, count=4, classes=5 if fault == "label" else 3)
    cfg = write_config(tmp_path, TINY_CONFIG)
    ckpt = str(tmp_path / "model.ckpt")
    model_doc = dict(TINY_CONFIG["model"])
    if fault == "shape":
        model_doc["class_count"] = 4
    save_checkpoint(build_model(ModelConfig(**model_doc)), ckpt)
    if fault in ("manifest.txt", "img_00003.ppm", "lbl_00002.pgm"):
        os.remove(os.path.join(data, fault))
    elif fault == "version":
        blob = bytearray(Path(ckpt).read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        Path(ckpt).write_bytes(bytes(blob))
    elif fault == "config":
        cfg = str(tmp_path / "missing.json")
    return ["eval", "--config", cfg, "--ckpt", ckpt, "--data", data]


@pytest.mark.parametrize("fault, code, message", [
    ("manifest.txt", 4, "manifest.txt"),
    ("img_00003.ppm", 4, "img_00003.ppm"),
    ("lbl_00002.pgm", 4, "lbl_00002.pgm"),
    ("label", 2, "outside [0, 3) and not the ignore label 255"),
    ("version", 4, "model.ckpt: version 2, expected 1"),
    ("shape", 4, "shape mismatch for"),
    ("config", 4, "missing.json"),
], ids=["no-manifest", "no-image", "no-label-map", "label-range",
        "checkpoint-version", "checkpoint-shape", "no-config"])
def test_exit_code_table_rows(tmp_path, capsys, fault, code, message):
    # the rows of README's exit-code table that no other test runs
    argv = _dataset_fault(tmp_path, fault)
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == code
    assert message in captured.err, captured.err
    prefix = {2: "error: ", 4: "io error: "}[code]
    assert captured.err.startswith(prefix) and captured.out == ""

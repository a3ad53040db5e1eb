"""Command-line surface: flags, exit codes, determinism, file outputs."""

import json
import os

import numpy as np
import pytest

from lka_seg.cli import main
from helpers import set_first_offset

TOY_CONFIG = {
    "version": 1,
    "model": {"preset": "toy", "class_count": 5},
    "train": {"epochs": 2, "batch_size": 4, "base_lr": 0.05, "seed": 0},
}

TINY_CONFIG = {
    "version": 1,
    "model": {"class_count": 3, "stem_width": 4, "low_width": 4, "mid_width": 6,
              "high_width": 8, "blocks_per_stage": 1, "ppm_hidden": 4,
              "ppm_out": 8, "fuse_width": 6, "head_width": 6},
    "train": {"epochs": 1, "batch_size": 4, "base_lr": 0.05, "seed": 0},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_spec_file_with_flag_override(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 5, "count": 4, "class_count": 3}))
        a = str(tmp_path / "a")
        assert main(["synth-data", "--out", a, "--spec", str(spec_path)]) == 0
        assert sum(f.startswith("img_") for f in os.listdir(a)) == 4
        b = str(tmp_path / "b")
        assert main(["synth-data", "--out", b, "--spec", str(spec_path),
                     "--count", "6"]) == 0
        assert sum(f.startswith("img_") for f in os.listdir(b)) == 6

    def test_spec_file_unknown_key_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"shapes": 9}))
        rc = main(["synth-data", "--out", str(tmp_path / "d"),
                   "--spec", str(spec_path)])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err


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
        cfg = write_config(tmp_path, TINY_CONFIG)
        outs = []
        for run in ("r1", "r2"):
            out = str(tmp_path / run)
            assert main(["train", "--config", cfg, "--data", data, "--out", out,
                         "--val-count", "2", "--seed", "9"]) == 0
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
        assert "outside [0, 3)" in capsys.readouterr().err

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
        doc = dict(TINY_CONFIG)
        doc["optimizer"] = "adam"
        cfg = write_config(tmp_path, doc)
        rc = main(["train", "--config", cfg, "--data", str(tmp_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err

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
        rc = main(["eval", "--config", cfg, "--ckpt", ckpt, "--data", data,
                   "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "class  iou" in out and "miou" in out
        assert "threads 2" in out

    def test_infer_writes_ppm(self, trained, tmp_path, capsys):
        data, cfg, ckpt = trained
        image = os.path.join(data, "img_00000.ppm")
        dest = str(tmp_path / "seg.ppm")
        rc = main(["infer", "--config", cfg, "--ckpt", ckpt, "--image", image,
                   "--out", dest, "--overlay", "0.4"])
        assert rc == 0
        from lka_seg.data_io import read_ppm
        assert read_ppm(dest).shape == (3, 64, 64)

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

    def test_missing_checkpoint_exits_4(self, trained, capsys):
        data, cfg, _ = trained
        rc = main(["eval", "--config", cfg, "--ckpt", "/nonexistent.ckpt",
                   "--data", data])
        assert rc == 4


class TestAnalysisCommands:
    def test_rf_reports_35(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        assert main(["rf", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "lka_large: 35 x 35" in out

    def test_rf_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        assert main(["rf", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "path,rf_h,rf_w" in out and "lka_large,35,35" in out

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

    def test_bench_reports_thread_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TOY_CONFIG,
                                          model={"preset": "toy",
                                                 "class_count": 2,
                                                 "blocks_per_stage": 1}))
        assert main(["bench", "--config", cfg, "--iters", "1", "--warmup", "0",
                     "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "threads 2" in out and "fps" in out

    def test_fixed_gate_flag_trains(self, tmp_path, capsys):
        data = synth(tmp_path, count=8, classes=3)
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = str(tmp_path / "run")
        rc = main(["train", "--config", cfg, "--data", data, "--out", out,
                   "--val-count", "2", "--fixed-gate", "0.5"])
        assert rc == 0
        rc = main(["train", "--config", cfg, "--data", data,
                   "--out", str(tmp_path / "bad"), "--val-count", "2",
                   "--fixed-gate", "1.5"])
        assert rc == 2  # sigma outside (0, 1)

    def test_ppm_toggle_changes_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        assert main(["params", "--config", cfg]) == 0
        base = int(capsys.readouterr().out.split()[-1])
        assert main(["params", "--config", cfg, "--ppm", "dappm"]) == 0
        ablated = int(capsys.readouterr().out.split()[-1])
        assert ablated < base  # the plain pyramid drops the gate convolutions

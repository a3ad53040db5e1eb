"""Synthetic data determinism, boundary masks, Netpbm and checkpoint formats."""

import hashlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from lka_seg.analysis import count_params
from lka_seg.data_io import (
    PALETTE,
    CheckpointCrcError,
    CheckpointError,
    CheckpointManifestError,
    CheckpointVersionError,
    SynthSpec,
    checkpoint_scalar_count,
    colorize,
    load_checkpoint,
    load_dataset,
    load_into_model,
    read_pgm,
    read_ppm,
    render_overlay,
    save_checkpoint,
    synth_dataset,
    write_dataset,
    write_pgm,
    write_ppm,
)
from lka_seg.model import ModelConfig, build_model
from lka_seg.training import boundary_target_at_scale
from helpers import set_first_offset


SMALL_MODEL = ModelConfig(class_count=2, stem_width=4, low_width=4, mid_width=4,
                          high_width=8, blocks_per_stage=1, fuse_width=4,
                          head_width=4)


class TestSynthDataset:
    def test_deterministic(self):
        spec = SynthSpec(seed=3, count=4)
        a = synth_dataset(spec)
        b = synth_dataset(spec)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.labels, sb.labels)

    def test_labels_in_range_and_images_in_unit_interval(self):
        for s in synth_dataset(SynthSpec(seed=1, count=6, class_count=4)):
            assert s.labels.min() >= 0 and s.labels.max() < 4
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_every_class_occupied(self):
        data = synth_dataset(SynthSpec(seed=0, count=16, class_count=7))
        hist = np.zeros(7, dtype=int)
        for s in data:
            hist += np.bincount(s.labels.ravel(), minlength=7)
        assert (hist > 0).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="class_count"):
            SynthSpec(class_count=1)
        SynthSpec(class_count=len(PALETTE))
        with pytest.raises(ValueError, match=rf"class_count must be in \[2, {len(PALETTE)}\]"):
            SynthSpec(class_count=len(PALETTE) + 1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SynthSpec(seed=-1)
        with pytest.raises(ValueError, match="divisible"):
            SynthSpec(height=60)
        with pytest.raises(ValueError, match="count"):
            SynthSpec(count=0)
        SynthSpec(count=1, density=64)
        for density in (64.5, 1e6):
            with pytest.raises(ValueError, match=r"density must be finite and in \(0, 64\]"):
                SynthSpec(count=1, density=density)

    @pytest.mark.parametrize("height,width", [(64, 64), (128, 64), (256, 64),
                                              (64, 192), (192, 128)])
    def test_smallest_and_largest_shapes_paint(self, height, width):
        # top // 2 is the largest circle radius, int(0.3 * min(height, width))
        top = 2 * int(0.3 * min(height, width)) + 1
        with pytest.raises(ValueError, match=f"min_shape must be <= {top}"):
            SynthSpec(height=height, width=width, min_shape=top + 1)
        for seed in range(4):
            for min_shape, density in ((4, 3.0), (top, 1.0)):
                spec = SynthSpec(seed=seed, count=16, height=height, width=width,
                                 density=density, min_shape=min_shape)
                data = synth_dataset(spec)
                assert data[0].labels.shape == (height, width)

    @pytest.mark.parametrize("fields,digest", [
        # criterion 7's scenes at 64 and at 256, and the benchmark's probe
        (dict(seed=7, count=80, density=0.5, min_shape=28),
         "9e153b0fa6e1fb7e9fba9406df3ae9d65a43df86816c4b9d522b5c3580003f21"),
        (dict(seed=7, count=16, height=256, width=256, density=0.5, min_shape=28),
         "e27310be9b5a5c03441e26168e711551b9c02df7591b9c943736e675a9468834"),
        (dict(seed=1234, count=1, density=0.5, min_shape=28),
         "38bcbefd8897f15037d03b8c48e431e3bcc535dc62edfd0e5a432413b9a90ea0"),
        (dict(seed=3, count=4),
         "447cb6c8968f9eea6bde7205614b053e821a76f66e3db8696948f6a4cda0d897"),
        (dict(seed=0, count=6, height=128, width=128, class_count=7,
              density=2.0, min_shape=12),
         "25f9e4fbe1cbd44180d46b9b38da7cc4146db871a942242e64398138dd6b701b"),
    ])
    def test_square_scenes_keep_their_bytes(self, fields, digest):
        h = hashlib.sha256()
        for s in synth_dataset(SynthSpec(**fields)):
            h.update(s.image.tobytes())
            h.update(s.labels.tobytes())
        assert h.hexdigest() == digest

    def test_palette_distinct(self):
        assert len({tuple(c) for c in np.round(PALETTE, 6)}) == len(PALETTE)


class TestBoundaryMask:
    # at factor 1 each pixel is its own tile
    @staticmethod
    def mask(labels):
        return boundary_target_at_scale(labels[None], 1)[0, 0]

    def test_uniform_labels_no_boundary(self):
        assert self.mask(np.zeros((8, 8), int)).sum() == 0

    def test_vertical_split_radius_one(self):
        labels = np.zeros((6, 8), int)
        labels[:, 4:] = 1
        expected = np.zeros((6, 8))
        expected[:, 3:5] = 1
        np.testing.assert_array_equal(self.mask(labels), expected)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=(16, 16))
        perm = np.array([2, 0, 3, 1])
        np.testing.assert_array_equal(self.mask(labels), self.mask(perm[labels]))

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=(12, 9))
        np.testing.assert_array_equal(self.mask(labels).T, self.mask(labels.T))


class TestNetpbm:
    def test_ppm_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(3, 5, 7), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, raw / 255.0)
        first = path.read_bytes()
        write_ppm(path, read_ppm(path))
        assert path.read_bytes() == first

    def test_one_pixel_white_file_bytes(self, tmp_path):
        path = tmp_path / "white.ppm"
        write_ppm(path, np.ones((3, 1, 1)))
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_write_onto_directory_raises_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.mkdir()
        with pytest.raises(OSError):
            write_ppm(path, np.ones((3, 1, 1)))
        assert path.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.ppm"]

    def test_pgm_preserves_every_level(self, tmp_path):
        labels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        path = tmp_path / "lbl.pgm"
        write_pgm(path, labels)
        np.testing.assert_array_equal(read_pgm(path), labels)

    def test_header_with_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# more\n255\n" + bytes(6))
        img = read_ppm(path)
        assert img.shape == (3, 1, 2)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n\xff\xff\xff")
        with pytest.raises(ValueError, match="magic"):
            read_ppm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ValueError, match="maxval"):
            read_ppm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\xff")
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n255\nab")
        with pytest.raises(ValueError, match="trailing"):
            read_pgm(path)

    def test_dataset_directory_round_trip(self, tmp_path):
        spec = SynthSpec(seed=2, count=3)
        samples = synth_dataset(spec)
        write_dataset(samples, tmp_path / "d", spec)
        loaded, manifest = load_dataset(tmp_path / "d")
        assert manifest["class_count"] == "5"
        assert len(loaded) == 3
        for a, b in zip(samples, loaded):
            np.testing.assert_array_equal(a.labels, b.labels)
            assert np.abs(a.image - b.image).max() <= 0.5 / 255.0

    def test_manifest_holds_count_and_spec_only(self, tmp_path):
        spec = SynthSpec(seed=2, count=2)
        write_dataset(synth_dataset(spec), tmp_path / "d", spec)
        keys = [ln.partition("=")[0]
                for ln in (tmp_path / "d" / "manifest.txt").read_text().splitlines()]
        assert keys == ["count", "seed", "height", "width", "class_count",
                        "density", "min_shape"]

    def test_older_manifest_key_still_loads(self, tmp_path):
        # datasets written before the key was dropped carry boundary_radius=2
        spec = SynthSpec(seed=2, count=2)
        write_dataset(synth_dataset(spec), tmp_path / "d", spec)
        fresh, _ = load_dataset(tmp_path / "d")
        path = tmp_path / "d" / "manifest.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + ["boundary_radius=2"] + lines[1:]) + "\n")
        older, manifest = load_dataset(tmp_path / "d")
        assert manifest["boundary_radius"] == "2"
        for a, b in zip(fresh, older):
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("key, value", [
        ("count", None), ("count", "3.0"), ("count", "three"),
        ("count", "0"), ("count", "-3"),
    ])
    def test_bad_manifest_integer_names_file_and_key(self, tmp_path, key,
                                                     value):
        spec = SynthSpec(seed=2, count=2)
        write_dataset(synth_dataset(spec), tmp_path / "d", spec)
        path = tmp_path / "d" / "manifest.txt"
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith(key + "=")]
        if value is not None:
            lines.append(f"{key}={value}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"manifest.txt: .*{key}"):
            load_dataset(tmp_path / "d")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(SMALL_MODEL, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        entries = load_checkpoint(path)
        for name, p in model.named_parameters():
            arr, trainable = entries[name]
            assert trainable
            np.testing.assert_array_equal(arr, p.data, err_msg=name)
        other = build_model(SMALL_MODEL, seed=9)
        load_into_model(other, path)
        for (name, pa), (_, pb) in zip(model.named_parameters(),
                                       other.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
        for (name, ba), (_, bb) in zip(model.named_buffers(),
                                       other.named_buffers()):
            np.testing.assert_array_equal(ba, bb, err_msg=name)

    def test_save_load_stable_bytes(self, tmp_path):
        model = build_model(SMALL_MODEL, seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_are_pinned(self, tmp_path):
        # the file format byte for byte, running statistics included: a
        # rewrite of the writer must keep every one
        model = build_model(SMALL_MODEL, seed=4)
        for i, (_, buf) in enumerate(model.named_buffers()):
            buf += 0.25 * i
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "848fc28875b2c50e5a67f9725902a19b0729bea79dff2231ad3eaaa82fcf2cc3")

    def test_corrupted_payload_fails_crc(self, tmp_path):
        model = build_model(SMALL_MODEL, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCrcError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = build_model(SMALL_MODEL, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset", [1, 10**9])
    def test_bad_entry_offset_rejected(self, tmp_path, offset):
        model = build_model(SMALL_MODEL, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(set_first_offset(path.read_bytes(), offset))
        with pytest.raises(CheckpointManifestError, match="offset"):
            load_checkpoint(path)

    @staticmethod
    def _stub(tmp_path, entries):
        """Checkpoint of a stand-in model holding `entries` (name, array)."""
        model = SimpleNamespace(
            named_parameters=lambda: [(n, SimpleNamespace(data=a))
                                      for n, a in entries],
            named_buffers=lambda: [])
        path = tmp_path / "stub.ckpt"
        save_checkpoint(model, path)
        return path

    def test_duplicate_entry_rejected(self, tmp_path):
        path = self._stub(tmp_path, [("w", np.zeros(2)), ("w", np.ones(2))])
        with pytest.raises(CheckpointManifestError, match="duplicate entry 'w'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dim, match", [(1, "cover 8 of 16"),
                                            (3, "runs past")])
    def test_entry_sizes_must_tile_payload(self, tmp_path, dim, match):
        path = self._stub(tmp_path, [("w", np.arange(2.0))])
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 12 + 2 + 1 + 2, dim)  # w's only extent
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointManifestError, match=match):
            load_checkpoint(path)

    def test_entry_name_not_utf8(self, tmp_path):
        path = self._stub(tmp_path, [("w", np.zeros(2))])
        blob = bytearray(path.read_bytes())
        blob[12 + 2] = 0xFF  # the name "w"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointManifestError, match="not UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_by_name(self, tmp_path, bad):
        b = np.arange(6.0)
        b[4] = bad
        path = self._stub(tmp_path, [("a", np.ones(3)), ("b", b), ("c", np.ones(2))])
        with pytest.raises(CheckpointError, match="entry 'b' holds a non-finite value"):
            load_checkpoint(path)

    @pytest.mark.parametrize("saved_as, loaded_as", [("parameter", "buffer"),
                                                     ("buffer", "parameter")])
    def test_trainable_flag_must_match(self, tmp_path, saved_as, loaded_as):
        def stub(kind):
            param = [("w", SimpleNamespace(data=np.ones(2)))] if kind == "parameter" else []
            buf = [("w", np.ones(2))] if kind == "buffer" else []
            return SimpleNamespace(named_parameters=lambda: param,
                                   named_buffers=lambda: buf)
        path = tmp_path / "w.ckpt"
        save_checkpoint(stub(saved_as), path)
        with pytest.raises(CheckpointManifestError,
                           match=f"trainable flag mismatch for 'w'.*a {loaded_as}"):
            load_into_model(stub(loaded_as), path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"LKAS\x01")
        with pytest.raises(CheckpointError, match="truncated header"):
            load_checkpoint(path)

    def test_manifest_mismatch_names_entry(self, tmp_path):
        model = build_model(SMALL_MODEL, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        bigger = build_model(ModelConfig(class_count=3, stem_width=4, low_width=4,
                                         mid_width=4, high_width=8,
                                         blocks_per_stage=1, fuse_width=4,
                                         head_width=4),
                             seed=0)
        with pytest.raises(CheckpointManifestError, match="shape mismatch"):
            load_into_model(bigger, path)

    def test_missing_and_extra_entries_rejected(self, tmp_path):
        import dataclasses
        full = build_model(SMALL_MODEL, seed=4)
        slim = build_model(dataclasses.replace(SMALL_MODEL, ppm="dappm"),
                           seed=4)
        full_path, slim_path = tmp_path / "full.ckpt", tmp_path / "slim.ckpt"
        save_checkpoint(full, full_path)
        save_checkpoint(slim, slim_path)
        with pytest.raises(CheckpointManifestError, match="unknown entry"):
            load_into_model(slim, full_path)
        with pytest.raises(CheckpointManifestError, match="missing entry"):
            load_into_model(full, slim_path)

    def test_scalar_count_matches_count_params(self, tmp_path):
        model = build_model(SMALL_MODEL, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert checkpoint_scalar_count(path) == count_params(model)
        # the norm statistics are saved too, and not counted
        assert any(not trainable for _, trainable in load_checkpoint(path).values())


class TestRendering:
    def test_alpha_zero_keeps_image(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(3, 4, 4))
        labels = rng.integers(0, 3, size=(4, 4))
        np.testing.assert_array_equal(render_overlay(img, labels, 0.0), img)

    def test_alpha_one_is_pure_colorized(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(3, 4, 4))
        labels = rng.integers(0, 3, size=(4, 4))
        np.testing.assert_array_equal(render_overlay(img, labels, 1.0),
                                      colorize(labels))

    def test_distinct_classes_distinct_colors(self):
        labels = np.array([[0, 1], [2, 3]])
        img = colorize(labels)
        colors = {tuple(img[:, y, x]) for y in range(2) for x in range(2)}
        assert len(colors) == 4

    def test_palette_overflow_rejected(self):
        with pytest.raises(ValueError, match="palette"):
            colorize(np.array([[99]]))

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            render_overlay(np.zeros((3, 2, 2)), np.zeros((2, 2), int), 1.5)

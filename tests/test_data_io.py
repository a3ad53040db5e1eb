"""Synthetic data determinism, boundary masks, Netpbm and checkpoint formats."""

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
    boundary_from_labels,
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
from helpers import set_first_offset


SMALL_MODEL = ModelConfig(class_count=2, stem_width=4, low_width=4, mid_width=4,
                          high_width=8, blocks_per_stage=1, ppm_hidden=4,
                          ppm_out=8, fuse_width=4, head_width=4)


class TestSynthDataset:
    def test_deterministic(self):
        spec = SynthSpec(seed=3, count=4)
        a = synth_dataset(spec)
        b = synth_dataset(spec)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.labels, sb.labels)
            np.testing.assert_array_equal(sa.boundary, sb.boundary)

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
            SynthSpec(class_count=1).validate()
        with pytest.raises(ValueError, match="divisible"):
            SynthSpec(height=60).validate()
        with pytest.raises(ValueError, match="count"):
            SynthSpec(count=0).validate()

    def test_palette_distinct(self):
        assert len({tuple(c) for c in np.round(PALETTE, 6)}) == len(PALETTE)


class TestBoundaryMask:
    def test_uniform_labels_no_boundary(self):
        assert boundary_from_labels(np.zeros((8, 8), int), 2).sum() == 0

    def test_vertical_split_radius_one(self):
        labels = np.zeros((6, 8), int)
        labels[:, 4:] = 1
        mask = boundary_from_labels(labels, 1)
        expected = np.zeros((6, 8), np.uint8)
        expected[:, 3:5] = 1
        np.testing.assert_array_equal(mask, expected)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=(16, 16))
        perm = np.array([2, 0, 3, 1])
        np.testing.assert_array_equal(boundary_from_labels(labels, 2),
                                      boundary_from_labels(perm[labels], 2))

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=(12, 9))
        np.testing.assert_array_equal(boundary_from_labels(labels, 2).T,
                                      boundary_from_labels(labels.T, 2))

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            boundary_from_labels(np.zeros((4, 4), int), 0)

    def test_ignore_index_not_boundary(self):
        labels = np.zeros((4, 4), int)
        labels[:, 2:] = 9
        mask = boundary_from_labels(labels, 1, ignore_index=9)
        assert mask.sum() == 0


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
            np.testing.assert_array_equal(a.boundary, b.boundary)
            assert np.abs(a.image - b.image).max() <= 0.5 / 255.0


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
                                         blocks_per_stage=1, ppm_hidden=4,
                                         ppm_out=8, fuse_width=4, head_width=4),
                             seed=0)
        with pytest.raises(CheckpointManifestError, match="shape mismatch"):
            load_into_model(bigger, path)

    def test_missing_and_extra_entries_rejected(self, tmp_path):
        import dataclasses
        full = build_model(SMALL_MODEL, seed=4)
        slim = build_model(dataclasses.replace(SMALL_MODEL, boundary_head=False),
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
        assert checkpoint_scalar_count(path, trainable_only=False) > count_params(model)


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

"""Parsers against hostile bytes: Netpbm images, checkpoint headers, run
configs and dataset manifests.

Each property holds for every input: the parser returns exactly what the
bytes describe, or it raises its typed error: a `ValueError` for images,
a `CheckpointError` (exit 4 on the command line) for checkpoints, a
`ConfigError` (exit 2) for configs. A manifest loads, or the command
exits 2 or 4 as README's exit-code table says. Hypothesis runs
derandomized with a bounded example count, so every run tries the same
inputs.
"""

import contextlib
import io
import json
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from lka_seg.cli import ConfigError, load_config, main
from lka_seg.data_io import (
    CheckpointError,
    SynthSpec,
    load_into_model,
    read_pgm,
    read_ppm,
    save_checkpoint,
    synth_dataset,
    write_dataset,
)
from lka_seg.model import ModelConfig, build_model
from lka_seg.nn import BatchNorm2d, Conv2d, Sequential
from lka_seg.training import TrainConfig

FUZZ = settings(derandomize=True, max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# an independent reading of the header: magic, then three decimal fields,
# each preceded by any run of whitespace and comments, then one whitespace
_SEP = rb"(?:\s|#[^\n]*\n)*"
_HEADER = re.compile(rb"(P[56])" + (_SEP + rb"(\d+)(?!\d)") * 3 + rb"\s", re.DOTALL)

_space = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c",
                          b"# c\n", b"#\n", b""])


@st.composite
def netpbm_bytes(draw):
    """A well-formed P5 or P6 file, or one with a single fault of one kind."""
    fault = draw(st.sampled_from(["none", "magic", "maxval", "empty", "size",
                                  "separator", "overwrite"]))
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    depth = 3 if magic == b"P6" else 1
    if fault == "magic":
        magic = draw(st.sampled_from([b"P4", b"P3", b"Q6", b"p5", b"P"]))
    w = draw(st.integers(1, 5))
    h = draw(st.integers(1, 5))
    if fault == "empty":
        w, h = draw(st.sampled_from([(0, h), (w, 0), (0, 0)]))
    maxval = 255
    if fault == "maxval":
        maxval = draw(st.sampled_from([0, 1, 254, 256, 65535]))
    header = magic
    for value in (w, h, maxval):
        header += draw(_space) + draw(_space) + str(value).encode()
    last = b"" if fault == "separator" else draw(st.sampled_from([b"\n", b" ", b"\t"]))
    size = w * h * depth
    if fault == "size":
        size += draw(st.sampled_from([-2, -1, 1, 2]))
    raw = bytearray(header + last + draw(st.binary(min_size=max(size, 0),
                                                   max_size=max(size, 0))))
    if fault == "overwrite":
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw)


def _expected(raw, magic):
    """(shape, payload) when `raw` is a valid file, else None."""
    m = _HEADER.match(raw)
    if m is None or m.group(1) != magic:
        return None
    w, h, maxval = (int(g) for g in m.groups()[1:])
    depth = 3 if magic == b"P6" else 1
    payload = raw[m.end():]
    if maxval != 255 or w < 1 or h < 1 or len(payload) != w * h * depth:
        return None
    return ((3, h, w) if depth == 3 else (h, w)), payload


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.pnm"


@pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
@FUZZ
@given(raw=st.one_of(netpbm_bytes(), st.binary(max_size=40)))
def test_netpbm_reads_the_header_shape_or_raises(scratch, reader, magic, raw):
    scratch.write_bytes(raw)
    expected = _expected(raw, magic)
    if expected is None:
        with pytest.raises(ValueError):
            reader(scratch)
        return
    shape, payload = expected
    out = reader(scratch)
    assert out.shape == shape
    flat = np.frombuffer(payload, np.uint8)
    if magic == b"P6":
        got = np.round(out * 255.0).transpose(1, 2, 0).ravel()
        np.testing.assert_array_equal(got, flat)
    else:
        np.testing.assert_array_equal(out.ravel(), flat)


def _small_model(seed):
    rng = np.random.default_rng(seed)
    model = Sequential(Conv2d(2, 3, 3, rng, padding=1), BatchNorm2d(3))
    for _, buf in model.named_buffers():
        buf[...] = rng.normal(size=buf.shape) ** 2
    return model


def _state(model):
    return ([p.data.tobytes() for _, p in model.named_parameters()]
            + [b.tobytes() for _, b in model.named_buffers()])


def _payload_start(blob):
    pos = 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        ndim = blob[pos + 2 + nlen + 1]
        pos += 2 + nlen + 2 + 4 * ndim + 8
    return pos + 8  # the payload length field ends the manifest


def test_every_header_and_manifest_bit_flip_refuses_or_loads_exactly(tmp_path):
    saved = _small_model(1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(saved, path)
    blob = path.read_bytes()
    expected = _state(saved)
    refused = loaded = 0
    for pos in range(_payload_start(blob)):
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(blob)
            bad[pos] ^= mask
            path.write_bytes(bytes(bad))
            target = _small_model(2)
            try:
                load_into_model(target, path)
            except CheckpointError:
                refused += 1
                continue
            assert _state(target) == expected, (pos, mask)
            loaded += 1
    # only the spare bits of a trainable flag leave the meaning unchanged
    assert loaded and refused > 10 * loaded


# JSON values, including ones on either side of each field's range and type
_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from([0, 1, -1, 2, 17, 1.0, 0.5, 1.5, 10**400, -10**400, "toy",
                     "small", "dappm", "dlkppm", ""]))
_json = st.recursive(
    _json_leaf, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                        st.dictionaries(st.text(max_size=4), inner,
                                                        max_size=3)),
    max_leaves=8)


def _section(names):
    return st.one_of(st.dictionaries(st.sampled_from(names + ["bogus"]), _json_leaf,
                                     max_size=5), _json)


_config_doc = st.fixed_dictionaries({}, optional={
    "version": st.one_of(st.just(1), _json_leaf),
    "model": _section([f.name for f in fields(ModelConfig)] + ["preset"]),
    "train": _section([f.name for f in fields(TrainConfig)]),
    "seed": _json_leaf,
})


@FUZZ
@given(raw=st.one_of(_config_doc.map(lambda d: json.dumps(d).encode()),
                     _json.map(lambda d: json.dumps(d).encode()),
                     st.binary(max_size=40)))
def test_config_loads_or_raises_config_error(scratch, raw):
    scratch.write_bytes(raw)
    try:
        model_cfg, train_cfg = load_config(scratch)
    except ConfigError as err:
        assert str(err).startswith(str(scratch))
        return
    assert type(json.loads(raw)["version"]) is int
    for cfg in (model_cfg, train_cfg):
        for f in fields(cfg):
            assert type(getattr(cfg, f.name)) is type(f.default), f.name


# manifest lines: a `count` line and others, with keys that `write_dataset`
# writes and near misses, and values on either side of `count`'s range and
# syntax
_manifest_value = st.sampled_from(["1", "2", "0", "-1", "01", "+1", " 1 ", "1_0", "1.0",
                                   "1e0", "one", "", "0x1", "9" * 4301, "99999999999"])
_count_line = st.tuples(st.sampled_from(["count", " count", "count\t", "COUNT"]),
                        st.sampled_from(["=", " = ", "==", ""]), _manifest_value)
_other_line = st.tuples(st.sampled_from(["seed", "height", "class_count", "", "bogus",
                                         "count"]), st.just("="), _manifest_value)
_manifest_bytes = st.one_of(
    st.builds(lambda before, line, after, sep: sep.join(
                  "".join(t).encode() for t in before + [line] + after),
              st.lists(_other_line, max_size=2), _count_line,
              st.lists(_other_line, max_size=2),
              st.sampled_from([b"\n", b"\r\n", b"\r", b"\x0b", b"\x1c", b"\t"])),
    st.binary(max_size=40),
    st.builds(lambda tail: b"count=1\n" + tail, st.binary(max_size=8)),
)


@pytest.fixture(scope="module")
def one_sample(tmp_path_factory):
    """`eval` arguments over a dataset of one valid sample; the manifest is
    the dataset's `manifest.txt`."""
    root = tmp_path_factory.mktemp("manifest")
    spec = SynthSpec(count=1, class_count=3)
    write_dataset(synth_dataset(spec), root / "data", spec)
    model = {"class_count": 3, "stem_width": 4, "low_width": 4, "mid_width": 6,
             "high_width": 8, "blocks_per_stage": 1}
    (root / "config.json").write_text(json.dumps({"version": 1, "model": model}))
    save_checkpoint(build_model(ModelConfig(**model)), root / "model.ckpt")
    argv = ["eval", "--config", str(root / "config.json"),
            "--ckpt", str(root / "model.ckpt"), "--data", str(root / "data")]
    return argv, root / "data" / "manifest.txt"


@FUZZ
@given(raw=_manifest_bytes)
def test_manifest_loads_or_exits_as_the_table_says(one_sample, raw):
    argv, manifest = one_sample
    manifest.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)   # an uncaught exception fails the test
    message = err.getvalue()
    if rc == 0:
        # it loaded: one sample, so its count read as 1
        assert "samples 1\n" in out.getvalue() and message == ""
    elif rc == 4:
        # a count above 1 names the first image that is not there
        assert message.startswith("io error: ") and "img_00001.ppm" in message
    else:
        # not ASCII, or no count that is an integer >= 1
        assert rc == 2 and message.startswith("error: "), (rc, message)
        assert f"{manifest}: " in message

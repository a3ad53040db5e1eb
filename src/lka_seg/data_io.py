"""Synthetic scenes, Netpbm files, dataset directories, and checkpoints.

The synthetic generator paints overlapping axis-aligned rectangles,
circles and 2-pixel-wide strips over a background class, gives every
class a distinct base color from a fixed palette, and adds seeded
Gaussian pixel noise. Strips are drawn last so thin structures survive
overlap; they are what stresses the detail branch and the edge head. A
sample is an image and its labels; the training loop derives the edge
head's target from the labels.

File formats are chosen for bit-exactness: binary PPM (P6) / PGM (P5)
images with maxval 255, and a little-endian binary checkpoint with the
magic "LKAS", a named manifest, a float64 payload and a trailing CRC32.
All writes go through a temp file plus rename; a failed write or rename
removes its temp file before the error propagates.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"LKAS"
CHECKPOINT_VERSION = 1

# a scene paints 2 * density rectangles and circles and density strips;
# 64 paints a 256x256 scene in tens of milliseconds
MAX_DENSITY = 64

# 16 visually distinct base colors (background first)
PALETTE = np.array([
    [0.12, 0.12, 0.12],
    [0.85, 0.15, 0.15],
    [0.15, 0.75, 0.20],
    [0.20, 0.30, 0.90],
    [0.92, 0.85, 0.15],
    [0.80, 0.20, 0.80],
    [0.15, 0.80, 0.80],
    [0.95, 0.55, 0.10],
    [0.55, 0.35, 0.15],
    [0.55, 0.85, 0.35],
    [0.35, 0.15, 0.60],
    [0.90, 0.60, 0.70],
    [0.45, 0.60, 0.85],
    [0.65, 0.65, 0.10],
    [0.10, 0.45, 0.30],
    [0.75, 0.75, 0.75],
])


class FileFormatError(ValueError):
    """A file's bytes do not parse (a malformed image or checkpoint)."""


class CheckpointError(FileFormatError):
    """Malformed checkpoint container."""


class CheckpointVersionError(CheckpointError):
    """Unsupported checkpoint format version."""


class CheckpointCrcError(CheckpointError):
    """Payload failed its CRC32 check."""


class CheckpointManifestError(CheckpointError):
    """Checkpoint entries are malformed or do not match the target model."""


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one deterministic synthetic dataset."""

    seed: int = 0
    count: int = 64
    height: int = 64
    width: int = 64
    class_count: int = 5
    density: float = 1.0
    min_shape: int = 10

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not (2 <= self.class_count <= len(PALETTE)):
            raise ValueError(
                f"class_count must be in [2, {len(PALETTE)}], got {self.class_count}"
            )
        if min(self.height, self.width) < 64 or self.height % 64 or self.width % 64:
            raise ValueError(
                f"height/width must be >= 64 and divisible by 64, got "
                f"{self.height}x{self.width}"
            )
        if not (math.isfinite(self.density) and 0 < self.density <= MAX_DENSITY):
            raise ValueError(f"density must be finite and in (0, {MAX_DENSITY}], "
                             f"got {self.density}")
        if self.min_shape < 4:
            raise ValueError(f"min_shape must be >= 4, got {self.min_shape}")
        # the smallest circle radius, min_shape // 2, may not pass the largest
        top = 2 * int(0.3 * min(self.height, self.width)) + 1
        if self.min_shape > top:
            raise ValueError(
                f"min_shape must be <= {top} at {self.height}x{self.width}, "
                f"got {self.min_shape}"
            )


@dataclass
class SegBatch:
    """One sample: image in [0, 1] and integer labels."""

    image: np.ndarray    # (3, h, w) float64
    labels: np.ndarray   # (h, w) int32


def _paint_scene(rng, spec, class_offset=0):
    """Rectangles and circles, then 2-pixel strips on top.

    Classes rotate round-robin (offset by the scene index) so every class
    collects a comparable mix of shape kinds across a dataset.
    """
    h, w, k = spec.height, spec.width, spec.class_count
    m = min(h, w)
    labels = np.zeros((h, w), dtype=np.int32)
    yy, xx = np.mgrid[0:h, 0:w]
    lo = spec.min_shape
    slot = class_offset

    def next_class():
        nonlocal slot
        cls = 1 + slot % (k - 1)
        slot += 1
        return cls

    for _ in range(max(1, round(2 * spec.density))):
        rh = int(rng.integers(lo, max(lo + 1, int(h * 0.6)) + 1))
        rw = int(rng.integers(lo, max(lo + 1, int(w * 0.6)) + 1))
        y0 = int(rng.integers(0, h - rh + 1))
        x0 = int(rng.integers(0, w - rw + 1))
        labels[y0:y0 + rh, x0:x0 + rw] = next_class()

    for _ in range(max(1, round(2 * spec.density))):
        r = int(rng.integers(max(3, lo // 2), max(4, int(m * 0.3)) + 1))
        cy = int(rng.integers(r, h - r + 1))
        cx = int(rng.integers(r, w - r + 1))
        disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        labels[disc] = next_class()

    for _ in range(max(1, round(spec.density))):
        cls = next_class()
        length = int(rng.integers(m // 4, m // 2 + 1))
        if rng.integers(2) == 0:
            y0 = int(rng.integers(0, h - 2 + 1))
            x0 = int(rng.integers(0, w - length + 1))
            labels[y0:y0 + 2, x0:x0 + length] = cls
        else:
            y0 = int(rng.integers(0, h - length + 1))
            x0 = int(rng.integers(0, w - 2 + 1))
            labels[y0:y0 + length, x0:x0 + 2] = cls
    return labels


def synth_dataset(spec: SynthSpec):
    """Deterministic list of samples; identical spec, identical bytes."""
    spec.validate()
    children = np.random.SeedSequence(spec.seed).spawn(spec.count)
    out = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        labels = _paint_scene(rng, spec, class_offset=i)
        base = PALETTE[labels].transpose(2, 0, 1)
        noisy = base + rng.normal(0.0, 0.05, size=base.shape)
        image = np.clip(noisy, 0.0, 1.0)
        out.append(SegBatch(image=image, labels=labels))
    return out


# ---------------------------------------------------------------------------
# Netpbm (binary PPM P6 / PGM P5, maxval 255)
# ---------------------------------------------------------------------------


def _atomic_write(path, payload):
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):   # the write's own error is raised
            os.remove(tmp)
        raise


def _parse_netpbm(raw, magic, path):
    """(width, height, flat bytes) of a binary Netpbm file's `raw` bytes;
    bytes that do not parse raise `FileFormatError` naming `path`."""
    if raw[:2] != magic:
        raise FileFormatError(f"{path}: bad magic {raw[:2]!r}, expected {magic!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(raw):
            raise FileFormatError(f"{path}: truncated header")
        ch = raw[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                raise FileFormatError(f"{path}: unterminated comment")
            pos = nl + 1
        elif ch.isdigit():
            end = pos
            while end < len(raw) and raw[end:end + 1].isdigit():
                end += 1
            fields.append(int(raw[pos:end]))
            pos = end
        else:
            raise FileFormatError(f"{path}: unexpected header byte {ch!r}")
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise FileFormatError(f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise FileFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise FileFormatError(f"{path}: bad dimensions {width}x{height}")
    depth = 3 if magic == b"P6" else 1
    expect = width * height * depth
    payload = raw[pos:]
    if len(payload) < expect:
        raise FileFormatError(
            f"{path}: truncated payload ({len(payload)} of {expect} bytes)"
        )
    if len(payload) > expect:
        raise FileFormatError(f"{path}: {len(payload) - expect} trailing bytes")
    return width, height, np.frombuffer(payload, dtype=np.uint8)


def write_ppm(path, image):
    """(3, h, w) floats in [0, 1] -> binary P6; round half up to bytes."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"image must be (3, h, w), got {img.shape}")
    bytes_ = np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)
    h, w = img.shape[1:]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    _atomic_write(path, header + bytes_.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    """Binary P6 -> (3, h, w) floats in [0, 1] (value / 255)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    w, h, flat = _parse_netpbm(raw, b"P6", path)
    return flat.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def write_pgm(path, gray):
    """(h, w) integer array (labels) -> binary P5, value = gray level."""
    arr = np.asarray(gray)
    if arr.ndim != 2:
        raise ValueError(f"gray map must be 2-D, got {arr.shape}")
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("gray values must fit in [0, 255]")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _atomic_write(path, header + arr.astype(np.uint8).tobytes())


def read_pgm(path):
    """Binary P5 -> (h, w) uint8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    w, h, flat = _parse_netpbm(raw, b"P5", path)
    return flat.reshape(h, w).copy()


# ---------------------------------------------------------------------------
# dataset directory layout: img_%05d.ppm / lbl_%05d.pgm + manifest.txt
# ---------------------------------------------------------------------------


def write_dataset(samples, out_dir, spec=None):
    os.makedirs(out_dir, exist_ok=True)
    for i, s in enumerate(samples):
        write_ppm(os.path.join(out_dir, f"img_{i:05d}.ppm"), s.image)
        write_pgm(os.path.join(out_dir, f"lbl_{i:05d}.pgm"), s.labels)
    lines = [f"count={len(samples)}"]
    if spec is not None:
        lines += [
            f"seed={spec.seed}",
            f"height={spec.height}",
            f"width={spec.width}",
            f"class_count={spec.class_count}",
            f"density={spec.density}",
            f"min_shape={spec.min_shape}",
        ]
    _atomic_write(os.path.join(out_dir, "manifest.txt"),
                  ("\n".join(lines) + "\n").encode("ascii"))


def read_manifest(data_dir):
    path = os.path.join(data_dir, "manifest.txt")
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not ASCII text ({err})") from err
    manifest = {}
    for line in lines:
        line = line.strip()
        if line:
            key, _, value = line.partition("=")
            manifest[key] = value
    return manifest


def _manifest_int(manifest, data_dir, key):
    """`key` of the manifest as an integer >= 1."""
    path = os.path.join(data_dir, "manifest.txt")
    if key not in manifest:
        raise ValueError(f"{path}: missing key {key!r}")
    try:
        value = int(manifest[key])
    except ValueError:
        raise ValueError(
            f"{path}: {key} must be an integer, got {manifest[key]!r}") from None
    if value < 1:
        raise ValueError(f"{path}: {key} must be >= 1, got {value}")
    return value


def load_dataset(data_dir, class_count=None, ignore_index=None):
    """Read a dataset directory back into samples.

    The manifest must hold a `count` entry that is an integer >= 1;
    otherwise a `ValueError` names the file and the key. Its other keys
    (the spec fields `write_dataset` records, and any key an older writer
    added) are informational and returned as read.

    Every image must have the first image's size, and every label map its
    image's size; otherwise a `ValueError` names the file and both sizes.
    Given `class_count`, every label must be below it or be `ignore_index`;
    otherwise a `ValueError` names the label map, the first such label and
    its row and column.
    """
    manifest = read_manifest(data_dir)
    count = _manifest_int(manifest, data_dir, "count")
    samples = []
    for i in range(count):
        image_path = os.path.join(data_dir, f"img_{i:05d}.ppm")
        label_path = os.path.join(data_dir, f"lbl_{i:05d}.pgm")
        image = read_ppm(image_path)
        labels = read_pgm(label_path).astype(np.int32)
        size = image.shape[1:]
        if samples and size != samples[0].image.shape[1:]:
            raise ValueError(f"{image_path}: image is {_hw(size)}, but "
                             f"{_hw(samples[0].image.shape[1:])} in img_00000.ppm")
        if labels.shape != size:
            raise ValueError(f"{label_path}: label map is {_hw(labels.shape)}, "
                             f"but its image is {_hw(size)}")
        if class_count is not None:
            bad = (labels >= class_count) & (labels != ignore_index)
            if bad.any():
                y, x = (int(v) for v in np.argwhere(bad)[0])
                raise ValueError(
                    f"{label_path}: label {labels[y, x]} at row {y}, column {x} "
                    f"outside [0, {class_count}) and not the ignore label "
                    f"{ignore_index}")
        samples.append(SegBatch(image=image, labels=labels))
    return samples, manifest


def _hw(shape):
    return f"{shape[0]}x{shape[1]}"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _model_entries(model):
    """(name, array, trainable) triples: parameters, then norm statistics."""
    for name, p in model.named_parameters():
        yield name, p.data, True
    for name, b in model.named_buffers():
        yield name, b, False


def save_checkpoint(model, path):
    """Serialize the parameter tree (plus running stats) bit-exactly.

    The file is joined in one copy; the CRC runs over the entries as they
    are appended. Returns the bytes written.
    """
    manifest = bytearray()
    arrays = []
    crc = 0
    offset = 0
    for name, arr, trainable in _model_entries(model):
        nameb = name.encode("utf-8")
        manifest += struct.pack("<H", len(nameb)) + nameb
        manifest += struct.pack("<BB", int(trainable), arr.ndim)
        manifest += struct.pack(f"<{arr.ndim}I", *arr.shape)
        manifest += struct.pack("<Q", offset)
        data = np.ascontiguousarray(arr, dtype="<f8")
        crc = zlib.crc32(data, crc)
        arrays.append(data)
        offset += arr.size
    head = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(arrays))
    blob = b"".join([head, manifest, struct.pack("<Q", 8 * offset),
                     *arrays, struct.pack("<I", crc)])
    _atomic_write(path, blob)
    return blob


def load_checkpoint(path):
    """Parse a checkpoint; returns {name: (array, trainable)} in file order.

    Entries must have unique names and tile the payload exactly, each
    starting where the previous one ends, as `save_checkpoint` writes
    them; anything else raises `CheckpointManifestError`. A payload holding
    NaN or Inf raises `CheckpointError` naming the first such entry.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    try:
        version, count = struct.unpack_from("<II", raw, 4)
    except struct.error as err:
        raise CheckpointError(f"{path}: truncated header") from err
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: version {version}, expected {CHECKPOINT_VERSION}"
        )
    pos = 12
    entries = []
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            try:
                name = raw[pos:pos + nlen].decode("utf-8")
            except UnicodeDecodeError as err:
                raise CheckpointManifestError(
                    f"{path}: entry name at byte {pos} is not UTF-8") from err
            pos += nlen
            trainable, ndim = struct.unpack_from("<BB", raw, pos)
            pos += 2
            shape = struct.unpack_from(f"<{ndim}I", raw, pos)
            pos += 4 * ndim
            (offset,) = struct.unpack_from("<Q", raw, pos)
            pos += 8
            entries.append((name, shape, bool(trainable), offset))
        (payload_len,) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        payload = raw[pos:pos + payload_len]
        if len(payload) != payload_len:
            raise CheckpointError(f"{path}: truncated payload")
        (crc,) = struct.unpack_from("<I", raw, pos + payload_len)
    except struct.error as err:
        raise CheckpointError(f"{path}: truncated manifest") from err
    if zlib.crc32(payload) != crc:
        raise CheckpointCrcError(f"{path}: payload CRC mismatch")
    out = {}
    end = 0  # in float64s
    for name, shape, trainable, offset in entries:
        if name in out:
            raise CheckpointManifestError(f"{path}: duplicate entry {name!r}")
        if offset != end:
            raise CheckpointManifestError(
                f"{path}: entry {name!r} at offset {offset}, expected {end}")
        end += math.prod(shape)
        if 8 * end > payload_len:
            raise CheckpointManifestError(
                f"{path}: entry {name!r} runs past the {payload_len}-byte payload")
        arr = np.frombuffer(payload, dtype="<f8", count=end - offset,
                            offset=offset * 8).reshape(shape)
        out[name] = (arr.astype(np.float64), trainable)
    if 8 * end != payload_len:
        raise CheckpointManifestError(
            f"{path}: entries cover {8 * end} of {payload_len} payload bytes")
    finite = np.isfinite(np.frombuffer(payload, dtype="<f8"))
    if not finite.all():
        first = int(finite.argmin())
        name = next(name for name, shape, _, offset in entries
                    if first < offset + math.prod(shape))
        raise CheckpointError(f"{path}: entry {name!r} holds a non-finite value")
    return out


def checkpoint_scalar_count(path, trainable_only=True):
    """Number of scalars in a checkpoint's (trainable) manifest entries."""
    entries = load_checkpoint(path)
    return sum(arr.size for arr, trainable in entries.values()
               if trainable or not trainable_only)


def load_into_model(model, path):
    """Restore parameters and norm statistics; refuses any mismatch."""
    entries = load_checkpoint(path)
    seen = set()
    for name, arr, trainable in _model_entries(model):
        if name not in entries:
            raise CheckpointManifestError(f"checkpoint is missing entry {name!r}")
        value, stored_trainable = entries[name]
        if stored_trainable != trainable:
            kind = "parameter" if trainable else "buffer"
            raise CheckpointManifestError(
                f"trainable flag mismatch for {name!r}: the model's entry is a {kind}")
        if value.shape != arr.shape:
            raise CheckpointManifestError(
                f"shape mismatch for {name!r}: checkpoint {value.shape}, "
                f"model {arr.shape}"
            )
        seen.add(name)
    extra = [n for n in entries if n not in seen]
    if extra:
        raise CheckpointManifestError(f"checkpoint has unknown entry {extra[0]!r}")
    for name, p in model.named_parameters():
        p.data = entries[name][0].copy()
        p.grad = None
    for name, buf in model.named_buffers():
        buf[...] = entries[name][0]
    return model


# ---------------------------------------------------------------------------
# label rendering
# ---------------------------------------------------------------------------


def colorize(labels):
    """Deterministic class -> RGB map: (h, w) labels -> (3, h, w) floats."""
    lab = np.asarray(labels)
    k = int(lab.max()) + 1 if lab.size else 0
    if k > len(PALETTE):
        raise ValueError(f"{k} classes exceed palette size {len(PALETTE)}")
    return PALETTE[lab].transpose(2, 0, 1).astype(np.float64)


def render_overlay(image, labels, alpha):
    """(1 - alpha) * image + alpha * colorized labels."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return (1.0 - alpha) * np.asarray(image) + alpha * colorize(labels)

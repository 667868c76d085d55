"""Dataset ingestion: NPY arrays, YOLO labels, normalization and padding.

Samples are pre-aligned five-channel arrays stored as NPY v1.0 files
(H x W x 5, channels 0-2 RGB, 3 thermal, 4 event) with per-image YOLO
label files (``class cx cy w h`` in normalized center coordinates) and a
JSON manifest carrying day/night flags.
"""

from __future__ import annotations

import json
import math
import os
import tokenize
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .errors import FormatError, ValidationError

# the most pixels one frame may hold, checked before anything is allocated:
# 31x the default 320x416 padded frame, room for a 1280x720 event sensor,
# and 168 MB as a five-channel float64 frame
MAX_FRAME_PIXELS = 2**22
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
# how far a normalized box may reach past the image edge: rounding slack
_BOX_TOL = 1e-6

# ImageNet RGB statistics for inputs in [0, 1]
IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)


# ---------------------------------------------------------------------------
# file readers: every read of an outside file goes through one of these

_SUPPORTED_KINDS = {("f", 4), ("f", 8), ("i", 1), ("i", 2), ("i", 4), ("i", 8), ("u", 1)}


def write_npy(path, arr):
    """Write an array as a C-order NPY v1.0 file in the array's own byte order."""
    arr = np.ascontiguousarray(arr)
    if (arr.dtype.kind, arr.dtype.itemsize) not in _SUPPORTED_KINDS:
        raise FormatError(f"unsupported dtype {arr.dtype} for NPY output")
    with open(path, "wb") as f:
        npy_format.write_array(f, arr, version=(1, 0), allow_pickle=False)


def read_npy(path, check_shape=None):
    """Read an NPY v1.x file (C-order, either endianness) to a native array.
    Before anything is allocated, the header's shape goes to
    ``check_shape``, if given, and its claimed data size is checked against
    the file."""
    with open(path, "rb") as f:
        try:
            major, _minor = npy_format.read_magic(f)
            if major != 1:
                raise FormatError(f"{path}: unsupported NPY version {major}.x")
            shape, fortran, dtype = npy_format.read_array_header_1_0(f)
        # numpy's header parser also lets through TypeError (an unhashable key),
        # IndexError (a short descr tuple) and, from its Python 2 fallback,
        # SyntaxError and tokenize.TokenError
        except (ValueError, TypeError, IndexError, SyntaxError, tokenize.TokenError) as e:
            raise FormatError(f"{path}: {e}") from e
        if fortran:
            raise FormatError(f"{path}: fortran-order arrays are not supported")
        if (dtype.kind, dtype.itemsize) not in _SUPPORTED_KINDS:
            raise FormatError(f"{path}: unsupported dtype descr {dtype.str!r}")
        if any(isinstance(d, bool) or d < 0 for d in shape):
            raise FormatError(f"{path}: bad shape {shape}")
        if check_shape is not None:
            check_shape(shape)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > os.fstat(f.fileno()).st_size - f.tell():
            raise FormatError(f"{path}: truncated data section")
        arr = np.empty(shape, dtype)
        if f.readinto(memoryview(arr.reshape(-1)).cast("B")) != nbytes:
            raise FormatError(f"{path}: truncated data section")
        return arr if dtype.isnative else arr.byteswap(inplace=True).view(dtype.newbyteorder("="))


def text_lines(path):
    """Yield ("path:line", stripped text) for each non-blank line of a UTF-8
    text file.  Lines end at ``\n`` (a ``\r\n`` ending is stripped with the
    rest of the edge whitespace); a lone ``\r`` does not split a line.  Each
    line is decoded on its own, so a byte that is not UTF-8 is a FormatError
    naming its line."""
    with open(path, "rb") as f:
        for i, raw in enumerate(f, start=1):
            where = f"{path}:{i}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise FormatError(f"{where}: not UTF-8 text: {e.reason}") from e
            if line:
                yield where, line


def read_json(path):
    """Parse a UTF-8 JSON file; a malformed one is a FormatError naming
    ``path`` and, where known, the line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}: malformed JSON: {e.msg}") from e
    except RecursionError as e:
        raise FormatError(f"{path}: JSON nested too deeply") from e


def is_int64(v):
    """Whether ``v`` is an integer within the int64 range, the one rule for
    an outside integer: an integral float counts as one, a boolean, a
    string or any other type does not."""
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        v = int(v)
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and INT64_MIN <= v <= INT64_MAX


def exact_int64(name, values):
    """``values`` as int64, or :class:`ValidationError` naming the first
    entry of ``name`` that ``is_int64`` refuses, so nothing is truncated or
    wrapped.  An int64 array is returned as it is, without a pass over it."""
    a = np.asarray(values)
    if a.dtype == np.int64:
        return a
    if a.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # a sequence mixing floats with ints beyond 2**53 was rounded
        a = np.array(values, object)
    if a.dtype.kind == "O":
        ok = np.frompyfunc(is_int64, 1, 1)(a).astype(bool)
    elif a.dtype.kind == "f":
        ok = (a == np.trunc(a)) & (a >= INT64_MIN) & (a < 2.0**63)
    elif a.dtype.kind in "iu":
        ok = a <= INT64_MAX
    else:
        ok = np.zeros(a.shape, bool)
    if not ok.all():
        i = int(np.argmin(ok.reshape(-1)))
        raise ValidationError(f"{name}[{i}] = {a.item(i)!r} is not an integer within the int64 range")
    return a.astype(np.int64)


# ---------------------------------------------------------------------------
# frames and labels


@dataclass
class GroundTruthBox:
    """YOLO-style box: normalized center coordinates in [0, 1]."""

    class_id: int
    cx: float
    cy: float
    w: float
    h: float

    def to_pixels(self, height, width):
        """Return (x1, y1, x2, y2) in pixel units."""
        return (
            (self.cx - self.w / 2) * width,
            (self.cy - self.h / 2) * height,
            (self.cx + self.w / 2) * width,
            (self.cy + self.h / 2) * height,
        )


@dataclass
class TriModalFrame:
    """One aligned five-channel sample with its ground-truth boxes."""

    pixels: np.ndarray  # (1, 5, H, W) float32
    boxes: list

    @property
    def height(self):
        return self.pixels.shape[2]

    @property
    def width(self):
        return self.pixels.shape[3]


def parse_labels(path):
    """Parse a YOLO label file; malformed lines are reported by number."""
    boxes = []
    for where, line in text_lines(path):
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(f"{where}: expected 5 fields, got {len(parts)}")
        try:
            cls = int(parts[0])
            cx, cy, w, h = (float(v) for v in parts[1:])
        except ValueError as e:
            raise FormatError(f"{where}: non-numeric field") from e
        box = GroundTruthBox(cls, cx, cy, w, h)
        _validate_box(box, where)
        boxes.append(box)
    return boxes


def _validate_box(box, where):
    if not (0.0 < box.w <= 1.0 + _BOX_TOL and 0.0 < box.h <= 1.0 + _BOX_TOL):
        raise ValidationError(f"{where}: box size ({box.w}, {box.h}) outside (0, 1]")
    if not (0.0 - _BOX_TOL <= box.cx <= 1.0 + _BOX_TOL and 0.0 - _BOX_TOL <= box.cy <= 1.0 + _BOX_TOL):
        raise ValidationError(f"{where}: box center ({box.cx}, {box.cy}) outside [0, 1]")
    for edge, v in (
        ("left", box.cx - box.w / 2),
        ("right", box.cx + box.w / 2),
        ("top", box.cy - box.h / 2),
        ("bottom", box.cy + box.h / 2),
    ):
        if v < -_BOX_TOL or v > 1.0 + _BOX_TOL:
            raise ValidationError(f"{where}: box {edge} edge at {v:.4f} leaves the image")


def load_frame(array_path, label_path):
    """Load a five-channel NPY sample plus its YOLO labels.  The header's
    shape is checked, the pixel bound included, before the data is read."""
    def check(shape):
        if len(shape) != 3:
            raise FormatError(f"{array_path}: expected rank-3 H x W x 5 array, got rank {len(shape)}")
        if shape[2] != 5:
            raise FormatError(f"{array_path}: expected 5 channels, got {shape[2]}")
        if shape[0] * shape[1] > MAX_FRAME_PIXELS:
            raise ValidationError(f"{array_path}: frame {shape[0]}x{shape[1]} = {shape[0] * shape[1]} pixels, "
                                  f"above the bound of {MAX_FRAME_PIXELS}")

    arr = read_npy(array_path, check)
    pixels = np.ascontiguousarray(arr.transpose(2, 0, 1)[None], dtype=np.float32)
    boxes = parse_labels(label_path) if label_path is not None else []
    return TriModalFrame(pixels=pixels, boxes=boxes)


# ---------------------------------------------------------------------------
# normalization


@dataclass
class NormStats:
    """Per-channel affine normalization statistics for the 5 channels."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, np.float64).reshape(5)
        self.std = np.asarray(self.std, np.float64).reshape(5)
        if np.any(self.std <= 0):
            bad = int(np.argmax(self.std <= 0))
            raise ValidationError(f"channel {bad} std must be > 0, got {self.std[bad]}")


def default_stats():
    """ImageNet RGB statistics for inputs in [0, 1], plus fixed thermal and
    event statistics."""
    return NormStats([*IMAGENET_MEAN, 0.5, 0.0], [*IMAGENET_STD, 0.25, 0.5])


def normalize(frame, stats):
    """Apply (x - mean) / std per channel in float64, rounded to float32;
    accepts a frame or a raw (B, 5, H, W) tensor.  Each channel passes
    through one reused float64 buffer."""
    pixels = frame.pixels if isinstance(frame, TriModalFrame) else frame
    out = np.empty(pixels.shape, np.float32)
    buf = np.empty(out[:, 0].shape, np.float64)
    for c in range(5):
        np.subtract(pixels[:, c], stats.mean[c], out=buf, dtype=np.float64)
        np.divide(buf, stats.std[c], out=out[:, c], dtype=np.float64)
    return out


def denormalize(tensor, stats):
    m = stats.mean.reshape(1, 5, 1, 1)
    s = stats.std.reshape(1, 5, 1, 1)
    return (tensor.astype(np.float64) * s + m).astype(np.float32)


# ---------------------------------------------------------------------------
# padding


def pad_to_stride(x, stride=32):
    """Zero-pad bottom/right so H and W become multiples of ``stride``.

    Returns (padded, (H, W)) with the original size kept for box bookkeeping.
    """
    h, w = x.shape[2], x.shape[3]
    if h < 1 or w < 1:
        raise ValidationError(f"degenerate spatial size {h}x{w}")
    ph = (stride - h % stride) % stride
    pw = (stride - w % stride) % stride
    if ph == 0 and pw == 0:
        return x, (h, w)
    return np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw))), (h, w)


# ---------------------------------------------------------------------------
# manifest


@dataclass
class ManifestEntry:
    image: str
    labels: str
    day_night: str  # "day" | "night"


@dataclass
class DatasetManifest:
    entries: list

    def counts(self):
        day = sum(1 for e in self.entries if e.day_night == "day")
        return {"day": day, "night": len(self.entries) - day}


def load_manifest(path, check_files=True):
    """Load a JSON manifest of {image, labels, day_night} records."""
    records = read_json(path)
    if not isinstance(records, list):
        raise FormatError(f"{path}: manifest must be a JSON list")
    base = Path(path).parent
    entries = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise FormatError(f"{path}: record {i} is not a JSON object, got {type(rec).__name__}")
        for name in ("image", "labels", "day_night"):
            if name not in rec:
                raise FormatError(f"{path}: record {i} missing field {name!r}")
            if not isinstance(rec[name], str):
                raise FormatError(f"{path}: record {i} field {name!r} is not a string, got {rec[name]!r}")
        img, lbl, flag = str(base / rec["image"]), str(base / rec["labels"]), rec["day_night"]
        if flag not in ("day", "night"):
            raise ValidationError(f"{path}: record {i} day_night flag {flag!r} invalid")
        if check_files:
            for p in (img, lbl):
                if not Path(p).is_file():
                    raise ValidationError(f"{path}: record {i} references missing file {p}")
        entries.append(ManifestEntry(img, lbl, flag))
    return DatasetManifest(entries)


def save_manifest(path, manifest):
    base = Path(path).parent
    records = [
        {
            "image": str(Path(e.image).relative_to(base)) if Path(e.image).is_absolute() else e.image,
            "labels": str(Path(e.labels).relative_to(base)) if Path(e.labels).is_absolute() else e.labels,
            "day_night": e.day_night,
        }
        for e in manifest.entries
    ]
    with open(path, "w") as f:
        json.dump(records, f, indent=1)

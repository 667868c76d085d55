"""Dataset ingestion: NPY arrays, YOLO labels, normalization and padding.

Samples are pre-aligned five-channel arrays stored as NPY v1.0 files
(H x W x 5, channels 0-2 RGB, 3 thermal, 4 event) with per-image YOLO
label files (``class cx cy w h`` in normalized center coordinates) and a
JSON manifest carrying day/night flags.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .errors import ConfigError, FormatError, ValidationError

log = logging.getLogger(__name__)

STD_EPS = 1e-6

# the most pixels one frame may hold, checked before anything is allocated:
# 31x the default 320x416 padded frame, room for a 1280x720 event sensor,
# and 168 MB as a five-channel float64 frame
MAX_FRAME_PIXELS = 2**22

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


def read_npy(path):
    """Read an NPY v1.x file (C-order, either endianness) to a native array,
    checking the header's claimed data size against the file before allocating."""
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
    meta: dict = field(default_factory=dict)

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


def _validate_box(box, where, tol=1e-6):
    if not (0.0 < box.w <= 1.0 + tol and 0.0 < box.h <= 1.0 + tol):
        raise ValidationError(f"{where}: box size ({box.w}, {box.h}) outside (0, 1]")
    if not (0.0 - tol <= box.cx <= 1.0 + tol and 0.0 - tol <= box.cy <= 1.0 + tol):
        raise ValidationError(f"{where}: box center ({box.cx}, {box.cy}) outside [0, 1]")
    for edge, v in (
        ("left", box.cx - box.w / 2),
        ("right", box.cx + box.w / 2),
        ("top", box.cy - box.h / 2),
        ("bottom", box.cy + box.h / 2),
    ):
        if v < -tol or v > 1.0 + tol:
            raise ValidationError(f"{where}: box {edge} edge at {v:.4f} leaves the image")


def load_frame(array_path, label_path, meta=None):
    """Load a five-channel NPY sample plus its YOLO labels."""
    arr = read_npy(array_path)
    if arr.ndim != 3:
        raise FormatError(f"{array_path}: expected rank-3 H x W x 5 array, got rank {arr.ndim}")
    if arr.shape[2] != 5:
        raise FormatError(f"{array_path}: expected 5 channels, got {arr.shape[2]}")
    pixels = np.ascontiguousarray(arr.transpose(2, 0, 1)[None], dtype=np.float32)
    boxes = parse_labels(label_path) if label_path is not None else []
    return TriModalFrame(pixels=pixels, boxes=boxes, meta=dict(meta or {}))


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


def default_stats(pixel_range=1.0, thermal=(0.5, 0.25), event=(0.0, 0.5)):
    """ImageNet RGB statistics scaled to the stored pixel range, plus
    caller-supplied thermal/event statistics."""
    mean = [m * pixel_range for m in IMAGENET_MEAN] + [thermal[0], event[0]]
    std = [s * pixel_range for s in IMAGENET_STD] + [thermal[1], event[1]]
    return NormStats(mean, std)


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


def compute_stats(manifest, channels=(3, 4), pixel_range=1.0):
    """Streaming per-channel mean/std over a split's pixels.

    Channels not listed keep the ImageNet defaults (scaled by pixel_range).
    Constant channels get their std clamped to ``STD_EPS`` instead of failing.
    """
    if not manifest.entries:
        raise ValidationError("cannot compute statistics over an empty manifest")
    stats = default_stats(pixel_range=pixel_range)
    mean, std = stats.mean.copy(), stats.std.copy()
    n = 0
    tot = np.zeros(len(channels))
    tot2 = np.zeros(len(channels))
    for entry in manifest.entries:
        frame = load_frame(entry.image, None)
        for j, c in enumerate(channels):
            ch = frame.pixels[0, c].astype(np.float64)
            tot[j] += ch.sum()
            tot2[j] += (ch * ch).sum()
        n += frame.height * frame.width
    for j, c in enumerate(channels):
        mu = tot[j] / n
        var = max(tot2[j] / n - mu * mu, 0.0)
        mean[c] = mu
        std[c] = max(np.sqrt(var), STD_EPS)
    return NormStats(mean, std)


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

    def __len__(self):
        return len(self.entries)

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
        try:
            img = str(base / rec["image"])
            lbl = str(base / rec["labels"])
            flag = rec["day_night"]
        except (TypeError, KeyError) as e:
            raise FormatError(f"{path}: record {i} missing field {e}") from e
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


def filter_split(manifest, selector):
    """Subset a manifest by illumination flag: all, day, or night."""
    if selector not in ("all", "day", "night"):
        raise ConfigError(f"selector must be all/day/night, got {selector!r}")
    if selector == "all":
        return DatasetManifest(list(manifest.entries))
    kept = [e for e in manifest.entries if e.day_night == selector]
    if not kept:
        log.warning("filter_split(%s) produced an empty manifest", selector)
    return DatasetManifest(kept)

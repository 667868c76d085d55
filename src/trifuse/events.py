"""Event-camera stream handling and frame binning.

An event stream is a time-ordered list of (t, x, y, polarity) tuples from a
contrast sensor.  Frames are produced by counting signed polarities inside a
fixed temporal window centered on a target timestamp and normalizing the
result to [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MAX_FRAME_PIXELS, text_lines
from .errors import ConfigError, FormatError, ValidationError

# 30 FPS frame interval
DEFAULT_WINDOW_S = 1.0 / 30.0
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


@dataclass
class EventStream:
    """Sorted polarity events with the emitting sensor's resolution.

    t is in microseconds (int64), x is the column, y the row, p in {+1, -1}.
    Every component must hold integers within the int64 range; any other
    value is a :class:`ValidationError`, never truncated or wrapped.  So is
    a ``sensor_size`` that is not two positive integers, or that holds more
    than ``MAX_FRAME_PIXELS`` pixels.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    sensor_size: tuple  # (H, W)

    def __post_init__(self):
        if len(self.sensor_size) != 2 or not all(
                isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0 for v in self.sensor_size):
            raise ValidationError(f"sensor_size must be two positive integers (H, W), got {self.sensor_size!r}")
        h, w = map(int, self.sensor_size)  # a numpy integer product could wrap
        if h * w > MAX_FRAME_PIXELS:
            raise ValidationError(f"sensor_size {h}x{w} = {h * w} pixels, above the bound of {MAX_FRAME_PIXELS}")
        self.t, self.x, self.y, self.p = (
            _exact_int64(name, getattr(self, name)) for name in ("t", "x", "y", "p")
        )
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise ValidationError("event component arrays have unequal lengths")
        # compared, not differenced: a difference can overflow int64
        down = self.t[1:] < self.t[:-1]
        if down.any():
            raise ValidationError(f"timestamps decrease at event index {int(down.argmax()) + 1}")
        if n:
            if self.x.min() < 0 or self.x.max() >= w:
                raise ValidationError(f"x coordinate outside [0, {w})")
            if self.y.min() < 0 or self.y.max() >= h:
                raise ValidationError(f"y coordinate outside [0, {h})")
            if not ((self.p == 1) | (self.p == -1)).all():
                raise ValidationError("polarity values must be +1 or -1")

    def __len__(self):
        return len(self.t)


def _exact_int64(name, values):
    """``values`` as int64, or :class:`ValidationError` naming the first
    entry that is not an integer within the int64 range, so nothing is
    truncated or wrapped.  As for JSONL class ids, an integral float counts
    as an integer; a boolean or a string does not.  An int64 array is
    returned as it is, without a pass over it."""
    a = np.asarray(values)
    if a.dtype == np.int64:
        return a
    if a.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # a sequence mixing floats with ints beyond 2**53 was rounded
        a = np.array(values, object)
    if a.dtype.kind == "O":
        ok = np.frompyfunc(_is_int64, 1, 1)(a).astype(bool)
    elif a.dtype.kind == "f":
        ok = (a == np.trunc(a)) & (a >= INT64_MIN) & (a < 2.0**63)
    elif a.dtype.kind in "iu":
        ok = a <= INT64_MAX
    else:
        ok = np.zeros(a.shape, bool)
    if not ok.all():
        i = int(np.argmin(ok.reshape(-1)))
        raise ValidationError(f"event {name}[{i}] = {a.item(i)!r} is not an integer within the int64 range")
    return a.astype(np.int64)


def _is_int64(v):
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        v = int(v)
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and INT64_MIN <= v <= INT64_MAX


def bin_events(stream, center_t, delta_t=DEFAULT_WINDOW_S):
    """Accumulate one event frame around ``center_t`` (seconds).

    The window edges center_t - delta_t/2 and center_t + delta_t/2 are
    rounded to the nearest whole microsecond, lo_us and hi_us, and events
    with t in [lo_us, hi_us) contribute their polarity to the pixel count
    (#ON - #OFF); a binary search on the sorted timestamps finds them.  The
    count map is then scaled by its max absolute value into [-1, 1]; an
    empty window yields a zero frame.
    """
    if not 0 < delta_t < math.inf:
        raise ConfigError(f"delta_t must be positive and finite, got {delta_t}")
    if not math.isfinite(center_t):
        raise ConfigError(f"center_t must be finite, got {center_t}")
    h, w = stream.sensor_size
    frame = np.zeros((h, w), np.float64)
    lo_us = round((center_t - delta_t / 2.0) * 1e6)
    hi_us = round((center_t + delta_t / 2.0) * 1e6)
    lo, hi = np.searchsorted(stream.t, [lo_us, hi_us])
    np.add.at(frame, (stream.y[lo:hi], stream.x[lo:hi]), stream.p[lo:hi])
    peak = np.abs(frame).max()
    if peak > 0:
        frame /= peak
    return frame.astype(np.float32)


def read_event_file(path):
    """Parse a whitespace text file of ``t_us x y polarity`` lines, each
    field an integer within the int64 range."""
    t, x, y, p = [], [], [], []
    for where, line in text_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValidationError(f"{where}: expected 4 fields, got {len(parts)}")
        try:
            fields = [int(v) for v in parts]
        except ValueError as e:
            raise FormatError(f"{where}: non-numeric field") from e
        if min(fields) < INT64_MIN or max(fields) > INT64_MAX:
            raise FormatError(f"{where}: field outside the int64 range")
        for column, v in zip((t, x, y, p), fields):
            column.append(v)
    return t, x, y, p

"""Top-down feature pyramid neck.

Converts the four stage features into a fixed five-level, 256-wide pyramid
at strides {4, 8, 16, 32, 64}.  The pyramid shape depends only on the input
size, never on the fusion mechanism or placement, so any detector head sees
an identical interface across every ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensors import conv, conv_specs

PYRAMID_WIDTH = 256


@dataclass
class Pyramid:
    levels: list  # five (B, 256, H_i, W_i) maps, at strides 4-64

    def shapes(self):
        return [lvl.shape for lvl in self.levels]


def _lateral_specs(stage_widths, k):
    return conv_specs(f"fpn.lat{k}", stage_widths[k - 1], PYRAMID_WIDTH, 1)


def _smooth_specs(k):
    return conv_specs(f"fpn.out{k}", PYRAMID_WIDTH, PYRAMID_WIDTH, 3)


def fpn_param_specs(stage_widths):
    return [s for k in range(1, 5) for s in _lateral_specs(stage_widths, k) + _smooth_specs(k)]


def _add_upsampled(lat, top):
    """``lat += top`` upsampled 2x by nearest neighbour and cropped to
    ``lat``'s size, in place in float32.  Each of the four strided views
    of ``lat`` takes the rows and columns of ``top`` it covers, so an odd
    last row or column reads the last row or column of ``top``.

    A float32 sum of two float32 values is their exact sum rounded once;
    float64 has more than 2 * 24 + 2 mantissa bits, so adding in float64
    and rounding to float32 gives the same bits (Figueroa, "When is double
    rounding innocuous?", SIGNUM 1995)."""
    for dy in (0, 1):
        for dx in (0, 1):
            dst = lat[:, :, dy::2, dx::2]
            dst += top[:, :, : dst.shape[2], : dst.shape[3]]
    return lat


def fpn_parts(stage_widths):
    """The top-down FPN as its parts, in order, as ``(name, specs, part)``
    triples, one per lateral: ``specs`` declares every parameter the part
    reads.  Part 4 projects the stage-4 feature; part k (k = 3, 2, 1)
    projects stage k's, merges the coarser merged map into it and smooths
    level k + 1; the last part also smooths level 1 and pools level 5.
    ``part(state, params)`` maps the four stage features, then each state,
    ``(features not yet read, merged map, smoothed levels)``, to the next,
    and the last state to the :class:`Pyramid`.  A part builds its state
    anew and never writes to the one it is given."""
    def lateral(feature, params):
        return conv(feature.map, params, f"fpn.lat{feature.stage}")

    def smooth(k, m, params):
        return conv(m, params, f"fpn.out{k}", stride=1, pad=1)

    def level4(features, params):
        *rest, f4 = features
        return rest, lateral(f4, params), []

    def merge(k):
        def run(state, params):
            (*rest, f), top, levels = state
            merged = _add_upsampled(lateral(f, params), top)
            levels = [smooth(k + 1, top, params), *levels]
            if k > 1:
                return rest, merged, levels
            levels = [smooth(1, merged, params), *levels]
            return Pyramid(levels + [np.ascontiguousarray(levels[3][:, :, ::2, ::2])])

        specs = _lateral_specs(stage_widths, k) + _smooth_specs(k + 1)
        return f"fpn.level{k}", specs + (_smooth_specs(1) if k == 1 else []), run

    return [("fpn.level4", _lateral_specs(stage_widths, 4), level4), *map(merge, (3, 2, 1))]


def fpn(features, params):
    """Standard top-down FPN over the four stage features: the parts of
    :func:`fpn_parts` in turn.

    Laterals are 1x1 projections to 256 channels, merged top-down with
    nearest-neighbor upsampling and a 3x3 smoothing conv per level; the
    fifth level is a stride-2 max pool (kernel 1) of level four's output.
    Each merge adds the coarser merged map into the lateral in place, and
    a merged map is dropped once its smoothing conv and the next merge
    have read it.
    """
    if len(features) != 4:
        raise ShapeError(f"fpn expects 4 stage features, got {len(features)}")
    for f, stride in zip(features, (4, 8, 16, 32)):
        if f.stride != stride:
            raise ShapeError(f"stage {f.stage} has stride {f.stride}, expected {stride}")
    state = features
    for _, _, part in fpn_parts([f.width for f in features]):
        state = part(state, params)
    return state

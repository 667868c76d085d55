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
PYRAMID_STRIDES = (4, 8, 16, 32, 64)

# detector-interface constants, attached as metadata only
ANCHOR_SIZES = (32, 64, 128, 256, 512)
ANCHOR_RATIOS = (0.5, 1.0, 2.0)


@dataclass
class Pyramid:
    levels: list  # five (B, 256, H_i, W_i) maps
    strides: tuple = PYRAMID_STRIDES
    anchor_sizes: tuple = ANCHOR_SIZES
    anchor_ratios: tuple = ANCHOR_RATIOS

    def shapes(self):
        return [lvl.shape for lvl in self.levels]


def fpn_param_specs(stage_widths, p="fpn"):
    specs = []
    for i, c in enumerate(stage_widths, start=1):
        specs += conv_specs(f"{p}.lat{i}", c, PYRAMID_WIDTH, 1)
        specs += conv_specs(f"{p}.out{i}", PYRAMID_WIDTH, PYRAMID_WIDTH, 3)
    return specs


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


def fpn(features, params, p="fpn"):
    """Standard top-down FPN over the four stage features.

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

    def lateral(f):
        return conv(f.map, params, f"{p}.lat{f.stage}")

    def smooth(stage, m):
        return conv(m, params, f"{p}.out{stage}", stride=1, pad=1)

    outs = [None] * 4
    top = lateral(features[3])
    for i in (2, 1, 0):
        merged = _add_upsampled(lateral(features[i]), top)
        outs[i + 1] = smooth(i + 2, top)
        top = merged
    outs[0] = smooth(1, top)
    outs.append(np.ascontiguousarray(outs[3][:, :, ::2, ::2]))
    return Pyramid(levels=outs)

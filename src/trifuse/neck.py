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
from .tensors import ParamSpec, conv2d

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
        specs += [
            ParamSpec(f"{p}.lat{i}.w", (PYRAMID_WIDTH, c, 1, 1), "weight"),
            ParamSpec(f"{p}.lat{i}.b", (PYRAMID_WIDTH,), "bias"),
            ParamSpec(f"{p}.out{i}.w", (PYRAMID_WIDTH, PYRAMID_WIDTH, 3, 3), "weight"),
            ParamSpec(f"{p}.out{i}.b", (PYRAMID_WIDTH,), "bias"),
        ]
    return specs


def _upsample2_nearest(x, target_hw):
    up = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
    th, tw = target_hw
    return up[:, :, :th, :tw]


def fpn(features, params, p="fpn"):
    """Standard top-down FPN over the four stage features.

    Laterals are 1x1 projections to 256 channels, merged top-down with
    nearest-neighbor upsampling and a 3x3 smoothing conv per level; the
    fifth level is a stride-2 max pool (kernel 1) of level four's output.
    """
    if len(features) != 4:
        raise ShapeError(f"fpn expects 4 stage features, got {len(features)}")
    for f, stride in zip(features, (4, 8, 16, 32)):
        if f.stride != stride:
            raise ShapeError(f"stage {f.stage} has stride {f.stride}, expected {stride}")

    laterals = [
        conv2d(f.map, params[f"{p}.lat{f.stage}.w"], params[f"{p}.lat{f.stage}.b"])
        for f in features
    ]
    merged = [None] * 4
    merged[3] = laterals[3]
    for i in (2, 1, 0):
        up = _upsample2_nearest(merged[i + 1], laterals[i].shape[2:])
        merged[i] = (laterals[i].astype(np.float64) + up.astype(np.float64)).astype(np.float32)
    outs = [
        conv2d(m, params[f"{p}.out{i + 1}.w"], params[f"{p}.out{i + 1}.b"], stride=1, pad=1)
        for i, m in enumerate(merged)
    ]
    outs.append(np.ascontiguousarray(outs[3][:, :, ::2, ::2]))
    return Pyramid(levels=outs)

"""Stage-wise fusion operators.

Every mechanism maps two (B, C, H, W) streams to one fused (B, C, H, W)
map, so any of them can be plugged at any backbone stage without touching
the neck or head:

* ``mage_bite`` - gated cross-residual exchange followed by bidirectional
  token cross-attention and a depthwise/pointwise merge (the baseline).
* ``mage_only`` - gated exchange then a minimal 1x1 2C->C merge.
* ``bite_only`` - token exchange applied directly to the raw streams.
* ``cssa``      - threshold-based channel switching plus a learned spatial
  blend.
* ``gaff``      - squeeze-excitation recalibration, directional guidance
  maps with residual injection, then a direct or bottlenecked merge.
* ``none``      - no fusion (streams forwarded independently).

Layers are named under the block's prefix, as ``fuse.s3.mage.ch.fc1``;
``tensors`` names and reads each layer's parameters, all but CSSA's 3-tap
channel-score conv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensors import (ParamSpec, attention, conv, conv_specs, dense, dense_specs, gelu, global_avg_pool,
                      global_max_pool, relu, sigmoid, to_map, to_tokens)

GAFF_SE_RATIOS = (4, 8)
GAFF_GUIDANCE = ("shared", "separate")
GAFF_MERGES = ("direct", "bottleneck")


@dataclass(frozen=True)
class FusionConfig:
    """Mechanism choice, placement stages and mechanism hyperparameters."""

    mechanism: str = "mage_bite"
    stages: frozenset = frozenset({1, 2, 3, 4})
    tau: float = 0.5  # cssa channel-switch threshold
    se_ratio: int = 4  # gaff squeeze-excitation reduction
    guidance: str = "separate"  # gaff: shared | separate guidance heads
    merge: str = "direct"  # gaff: direct | bottleneck 2C->C merge

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"unknown fusion mechanism {self.mechanism!r}")
        stages = frozenset(self.stages)
        if not stages <= {1, 2, 3, 4}:
            raise ConfigError(f"fusion stages {sorted(stages)} not within 1..4")
        if self.mechanism == "none":
            stages = frozenset()
        object.__setattr__(self, "stages", stages)
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau}")
        if self.se_ratio not in GAFF_SE_RATIOS:
            raise ConfigError(f"se_ratio must be one of {GAFF_SE_RATIOS}, got {self.se_ratio}")
        if self.guidance not in GAFF_GUIDANCE:
            raise ConfigError(f"guidance must be shared/separate, got {self.guidance!r}")
        if self.merge not in GAFF_MERGES:
            raise ConfigError(f"merge must be direct/bottleneck, got {self.merge!r}")

    def block_settings(self):
        """The values of the fields the mechanism's fusion block reads."""
        return tuple(getattr(self, name) for name in FUSIONS[self.mechanism][0])


@dataclass
class GatePack:
    """Channel gates (B, C, 1, 1) and spatial gates (B, 1, H, W), all in [0, 1]."""

    ch_b_to_a: np.ndarray
    ch_a_to_b: np.ndarray
    sp_b_to_a: np.ndarray
    sp_a_to_b: np.ndarray


def _check_pair(xa, xb):
    if xa.shape != xb.shape:
        raise ShapeError(f"stream shapes differ: {xa.shape} vs {xb.shape}")
    if xa.ndim != 4:
        raise ShapeError(f"streams must be rank-4 maps, got rank {xa.ndim}")


def _hidden(c):
    return max(c // 4, 1)


# ---------------------------------------------------------------------------
# MAGE: modality-aware gated exchange


def mage_specs(c, p):
    h = _hidden(2 * c)
    return (dense_specs(f"{p}.mage.ch.fc1", 2 * c, h) + dense_specs(f"{p}.mage.ch.to_a", h, c)
            + dense_specs(f"{p}.mage.ch.to_b", h, c) + dense_specs(f"{p}.mage.sp.fc1", 2 * c, h)
            + dense_specs(f"{p}.mage.sp.out", h, 2))


def mage(xa, xb, params, p, force_spatial=None, force_channel=None):
    """Cross-modal channel + spatial gating on the joint descriptor.

    Returns the rectified pair plus the gates.  Gates scale only the
    cross-stream residual, so the identity path is untouched; forcing the
    gates to 0 therefore returns the inputs unchanged.

    ``force_spatial`` / ``force_channel`` clamp the respective gates to a
    constant, used by diagnostics and the identity checks.
    """
    _check_pair(xa, xb)
    b, c, h, w = xa.shape
    z = np.concatenate([xa, xb], axis=1)

    if force_channel is None:
        trunk_avg = gelu(dense(global_avg_pool(z), params, f"{p}.mage.ch.fc1"))
        trunk_max = gelu(dense(global_max_pool(z), params, f"{p}.mage.ch.fc1"))
        summary = trunk_avg.astype(np.float64) + trunk_max.astype(np.float64)
        ch_b_to_a = sigmoid(dense(summary, params, f"{p}.mage.ch.to_a")).reshape(b, c, 1, 1)
        ch_a_to_b = sigmoid(dense(summary, params, f"{p}.mage.ch.to_b")).reshape(b, c, 1, 1)
    else:
        ch_b_to_a = np.full((b, c, 1, 1), force_channel, np.float32)
        ch_a_to_b = ch_b_to_a.copy()

    if force_spatial is None:
        tz = to_tokens(z)
        hid = gelu(dense(tz, params, f"{p}.mage.sp.fc1"))
        masks = sigmoid(dense(hid, params, f"{p}.mage.sp.out"))
        sp_b_to_a = masks[:, :, 0].reshape(b, 1, h, w)
        sp_a_to_b = masks[:, :, 1].reshape(b, 1, h, w)
    else:
        sp_b_to_a = np.full((b, 1, h, w), force_spatial, np.float32)
        sp_a_to_b = sp_b_to_a.copy()

    gates = GatePack(ch_b_to_a, ch_a_to_b, sp_b_to_a, sp_a_to_b)
    if force_spatial == 0.0 or force_channel == 0.0:
        # zero gates kill the cross residual; skip the add for bitwise identity
        return xa.copy(), xb.copy(), gates

    xa_hat = (
        xa.astype(np.float64)
        + sp_b_to_a.astype(np.float64) * (ch_b_to_a.astype(np.float64) * xb.astype(np.float64))
    ).astype(np.float32)
    xb_hat = (
        xb.astype(np.float64)
        + sp_a_to_b.astype(np.float64) * (ch_a_to_b.astype(np.float64) * xa.astype(np.float64))
    ).astype(np.float32)
    return xa_hat, xb_hat, gates


# ---------------------------------------------------------------------------
# BiTE: bidirectional token exchange


def bite_specs(c, p):
    specs = [s for st in "ab" for proj in "qkv" for s in dense_specs(f"{p}.bite.{st}.{proj}", c, c)]
    return specs + conv_specs(f"{p}.bite.dw", 1, 2 * c, 3) + dense_specs(f"{p}.bite.proj", 2 * c, c)


def bite(xa, xb, params, p):
    """Symmetric residual cross-attention between the two token streams,
    then depthwise 3x3 + 1x1 merge back to width C (single head, d_k = C)."""
    _check_pair(xa, xb)
    _, c, h, w = xa.shape
    ta, tb = to_tokens(xa), to_tokens(xb)
    scale = 1.0 / np.sqrt(c)

    def proj(t, s, n):
        return dense(t, params, f"{p}.bite.{s}.{n}")

    # the two updated streams side by side, each stored as its attention
    # returns.  A direction's queries, keys and values are projected just
    # before its attention and dropped after it, and each stream's tokens
    # after their last reader
    zt = np.empty((*ta.shape[:2], 2 * c), np.result_type(ta, np.float32))
    np.add(ta, attention(proj(ta, "a", "q"), proj(tb, "b", "k"), proj(tb, "b", "v"), scale), out=zt[..., :c])
    qb, ka, va = proj(tb, "b", "q"), proj(ta, "a", "k"), proj(ta, "a", "v")
    del ta
    np.add(tb, attention(qb, ka, va, scale), out=zt[..., c:])
    del tb, qb, ka, va

    # tokens viewed as a map, as in backbone.mix_ffn: no copy either side
    z = zt.transpose(0, 2, 1).reshape(-1, 2 * c, h, w)
    z = conv(z, params, f"{p}.bite.dw", stride=1, pad=1, groups=2 * c)
    return to_map(dense(to_tokens(z), params, f"{p}.bite.proj"), h, w)


# ---------------------------------------------------------------------------
# composed baseline variants


def mage_bite(xa, xb, params, p, diag=None):
    ra, rb, gates = mage(xa, xb, params, p)
    if diag is not None:
        _gate_diag(diag, gates)
    return bite(ra, rb, params, p)


def mage_only_specs(c, p):
    return mage_specs(c, p) + dense_specs(f"{p}.monly.merge", 2 * c, c)


def mage_only(xa, xb, params, p, diag=None):
    ra, rb, gates = mage(xa, xb, params, p)
    if diag is not None:
        _gate_diag(diag, gates)
    _, _, h, w = xa.shape
    z = to_tokens(np.concatenate([ra, rb], axis=1))
    return to_map(dense(z, params, f"{p}.monly.merge"), h, w)


# ---------------------------------------------------------------------------
# CSSA: channel switching + spatial attention


def cssa_specs(c, p):
    # each stream's channel score is a 3-tap 1-D conv over pooled channels
    specs = []
    for s in ("a", "b"):
        specs.append(ParamSpec(f"{p}.cssa.{s}.score.w", (3,), "weight"))
        specs.append(ParamSpec(f"{p}.cssa.{s}.score.b", (1,), "bias"))
    h = _hidden(2 * c)
    return specs + dense_specs(f"{p}.cssa.sp.fc1", 2 * c, h) + dense_specs(f"{p}.cssa.sp.out", h, 1)


def channel_scores(x, params, p, s):
    """Per-channel saliency: sigmoid of a k=3 1D conv over pooled channels."""
    pooled = global_avg_pool(x).astype(np.float64)  # (B, C)
    k = params[f"{p}.cssa.{s}.score.w"].astype(np.float64)
    bias = float(params[f"{p}.cssa.{s}.score.b"][0])
    padded = np.pad(pooled, ((0, 0), (1, 1)))
    return sigmoid(padded[:, :-2] * k[0] + padded[:, 1:-1] * k[1] + padded[:, 2:] * k[2] + bias)


def cssa_switch(xa, xb, score_a, score_b, tau):
    """Replace channels whose score falls below tau by the same-index
    channel of the other stream."""
    swap_a = (score_a < tau)[:, :, None, None]
    swap_b = (score_b < tau)[:, :, None, None]
    return np.where(swap_a, xb, xa), np.where(swap_b, xa, xb), swap_a, swap_b


def cssa(xa, xb, params, p, tau=0.5, diag=None):
    _check_pair(xa, xb)
    _, _, h, w = xa.shape
    score_a = channel_scores(xa, params, p, "a")
    score_b = channel_scores(xb, params, p, "b")
    sw_a, sw_b, swap_a, swap_b = cssa_switch(xa, xb, score_a, score_b, tau)

    z = to_tokens(np.concatenate([sw_a, sw_b], axis=1))
    hid = gelu(dense(z, params, f"{p}.cssa.sp.fc1"))
    m = sigmoid(dense(hid, params, f"{p}.cssa.sp.out"))
    m = m.reshape(xa.shape[0], 1, h, w).astype(np.float64)

    if diag is not None:
        diag.setdefault("swap_fraction", []).append(
            float((swap_a.mean() + swap_b.mean()) / 2.0)
        )
        diag.setdefault("spatial_mask_mean", []).append(float(m.mean()))
    return (m * sw_a.astype(np.float64) + (1.0 - m) * sw_b.astype(np.float64)).astype(np.float32)


# ---------------------------------------------------------------------------
# GAFF: guided attentive feature fusion


def _guide_name(p, source, guidance):
    """The layer that maps stream ``source`` to its guidance map."""
    return f"{p}.gaff.guide" if guidance == "shared" else f"{p}.gaff.guide_{source}"


def gaff_specs(c, p, se_ratio=4, guidance="separate", merge="direct"):
    if c % se_ratio != 0:
        raise ConfigError(f"width {c} not divisible by se_ratio {se_ratio}")
    r = c // se_ratio
    specs = []
    for s in ("a", "b"):
        specs += dense_specs(f"{p}.gaff.{s}.se.fc1", c, r) + dense_specs(f"{p}.gaff.{s}.se.fc2", r, c)
    for s in ("a",) if guidance == "shared" else ("a", "b"):
        specs += dense_specs(_guide_name(p, s, guidance), c, 1)
    if merge == "direct":
        return specs + dense_specs(f"{p}.gaff.merge", 2 * c, c)
    return specs + dense_specs(f"{p}.gaff.merge.fc1", 2 * c, c // 2) + dense_specs(f"{p}.gaff.merge.fc2", c // 2, c)


def _se(x, params, p, s):
    hid = relu(dense(global_avg_pool(x), params, f"{p}.gaff.{s}.se.fc1"))
    exc = sigmoid(dense(hid, params, f"{p}.gaff.{s}.se.fc2"))
    return (exc[:, :, None, None].astype(np.float64) * x.astype(np.float64)).astype(np.float32), exc


def _guide(x, params, p, source, guidance):
    b, _, h, w = x.shape
    g = sigmoid(dense(to_tokens(x), params, _guide_name(p, source, guidance)))
    return g.reshape(b, 1, h, w)


def gaff(xa, xb, params, p, se_ratio=4, guidance="separate", merge="direct", diag=None):
    _check_pair(xa, xb)
    _, c, h, w = xa.shape
    if c % se_ratio != 0:
        raise ConfigError(f"width {c} not divisible by se_ratio {se_ratio}")
    ra, exc_a = _se(xa, params, p, "a")
    rb, exc_b = _se(xb, params, p, "b")
    g_b_to_a = _guide(rb, params, p, "b", guidance)
    g_a_to_b = _guide(ra, params, p, "a", guidance)
    ua = (ra.astype(np.float64) + g_b_to_a.astype(np.float64) * rb.astype(np.float64)).astype(np.float32)
    ub = (rb.astype(np.float64) + g_a_to_b.astype(np.float64) * ra.astype(np.float64)).astype(np.float32)

    if diag is not None:
        diag.setdefault("se_mean", []).append(float((exc_a.mean() + exc_b.mean()) / 2.0))
        diag.setdefault("guidance_mean", []).append(float((g_b_to_a.mean() + g_a_to_b.mean()) / 2.0))

    z = to_tokens(np.concatenate([ua, ub], axis=1))
    if merge == "direct":
        out = dense(z, params, f"{p}.gaff.merge")
    else:
        out = dense(relu(dense(z, params, f"{p}.gaff.merge.fc1")), params, f"{p}.gaff.merge.fc2")
    return to_map(out, h, w)


# ---------------------------------------------------------------------------
# dispatch


def _gate_diag(diag, gates):
    diag.setdefault("channel_gate_mean", []).append(
        float((gates.ch_b_to_a.mean() + gates.ch_a_to_b.mean()) / 2.0)
    )
    diag.setdefault("spatial_gate_mean", []).append(
        float((gates.sp_b_to_a.mean() + gates.sp_a_to_b.mean()) / 2.0)
    )


# mechanism -> (the FusionConfig fields its block reads, specs(c, p, *fields),
# apply(xa, xb, params, p, diag, *fields)); apply is None for a mechanism
# without a fusion block.  A block sees only the fields listed, so two
# configs that agree on them and the mechanism compute the same block.
# Every name is looked up when called, so wrapping a module function takes
# effect here.
FUSIONS = {
    "mage_bite": ((), lambda c, p: mage_specs(c, p) + bite_specs(c, p),
                  lambda xa, xb, params, p, diag: mage_bite(xa, xb, params, p, diag)),
    "mage_only": ((), lambda c, p: mage_only_specs(c, p),
                  lambda xa, xb, params, p, diag: mage_only(xa, xb, params, p, diag)),
    "bite_only": ((), lambda c, p: bite_specs(c, p),
                  lambda xa, xb, params, p, diag: bite(xa, xb, params, p)),
    "cssa": (("tau",), lambda c, p, tau: cssa_specs(c, p),
             lambda xa, xb, params, p, diag, tau: cssa(xa, xb, params, p, tau, diag)),
    "gaff": (("se_ratio", "guidance", "merge"), lambda c, p, *fields: gaff_specs(c, p, *fields),
             lambda xa, xb, params, p, diag, *fields: gaff(xa, xb, params, p, *fields, diag)),
    "none": ((), lambda c, p: [], None),
}
MECHANISMS = tuple(FUSIONS)


def fusion_param_specs(cfg, c, p):
    """Parameter declarations for one fusion block of width ``c``."""
    return FUSIONS[cfg.mechanism][1](c, p, *cfg.block_settings())


def apply_fusion(cfg, xa, xb, params, p, diag=None):
    """Run the configured mechanism on one stage's stream pair."""
    apply = FUSIONS[cfg.mechanism][2]
    if apply is None:
        raise ConfigError(f"mechanism {cfg.mechanism!r} has no fusion block")
    return apply(xa, xb, params, p, diag, *cfg.block_settings())

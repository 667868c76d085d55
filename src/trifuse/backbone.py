"""Dual-stream four-stage hierarchical transformer encoder.

Each stream runs an identical Mix-Transformer-style encoder with its own
weights: overlapping patch embeddings (7x7/s4 then 3x3/s2), pre-norm
blocks with spatial-reduction attention and a depthwise-conv feed-forward.
At stages selected by the fusion config, the two stream outputs are
replaced by a single fused map that also feeds both next-stage streams;
unselected stages emit the element-wise mean of the streams for the neck
while the streams keep propagating separately.

Layers are named ``<stream>.s<stage>.embed``, ``….blk<j>.attn.q`` and so
on; ``tensors`` names and reads each layer's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .fusion import apply_fusion, fusion_param_specs
from .tensors import (attention, conv, conv_specs, dense, dense_specs, gelu, norm, norm_specs, param_count,
                      to_map, to_tokens)

STAGE_STRIDES = (4, 8, 16, 32)
HEADS = (1, 2, 5, 8)
SR_RATIOS = (8, 4, 2, 1)
FFN_EXPANSION = 4

VARIANTS = {
    "B0": ((32, 64, 160, 256), (2, 2, 2, 2)),
    "B1": ((64, 128, 320, 512), (2, 2, 2, 2)),
    "B2": ((64, 128, 320, 512), (3, 4, 6, 3)),
    "B3": ((64, 128, 320, 512), (3, 4, 18, 3)),
    "B4": ((64, 128, 320, 512), (3, 8, 27, 3)),
}

# (stream A, stream B) input channels of each modality subset; the input
# holds RGB in channels 0-2, thermal in 3 and event in 4.  RGB always feeds
# stream A; for Thermal+Event, thermal is stream A and event stream B
STREAM_SLICES = {
    "RTE": (slice(0, 3), slice(3, 5)),
    "RT": (slice(0, 3), slice(3, 4)),
    "RE": (slice(0, 3), slice(4, 5)),
    "TE": (slice(3, 4), slice(4, 5)),
}
MODALITY_SETS = tuple(STREAM_SLICES)


@dataclass(frozen=True)
class BackboneConfig:
    variant: str
    widths: tuple
    depths: tuple
    heads: tuple = HEADS
    sr_ratios: tuple = SR_RATIOS
    expansion: int = FFN_EXPANSION

    def __post_init__(self):
        for name, v in (("widths", self.widths), ("depths", self.depths),
                        ("heads", self.heads), ("sr_ratios", self.sr_ratios)):
            if len(v) != 4:
                raise ConfigError(f"{name} must have 4 entries, got {len(v)}")
        for c, h in zip(self.widths, self.heads):
            if c % h:
                raise ConfigError(f"width {c} not divisible by heads {h}")

    @classmethod
    def variant_config(cls, variant):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown backbone variant {variant!r} (use B0..B4)")
        widths, depths = VARIANTS[variant]
        return cls(variant=variant, widths=widths, depths=depths)


@dataclass
class StageFeature:
    """One stage's (B, C, H, W) output map and its fusion diagnostics.  Its
    stride is ``STAGE_STRIDES[stage - 1]`` and its width ``map.shape[1]``."""

    map: np.ndarray
    stage: int
    diagnostics: dict = field(default_factory=dict)


def normalize_modalities(modalities):
    mods = "".join(m for m in "RTE" if m in set(modalities.upper()))
    if mods not in MODALITY_SETS:
        raise ConfigError(
            f"modalities {modalities!r} invalid: a dual-stream model needs one of {MODALITY_SETS}"
        )
    return mods


def stream_channels(modalities):
    """(stream A channels, stream B channels) for a modality subset."""
    return tuple(sl.stop - sl.start for sl in STREAM_SLICES[normalize_modalities(modalities)])


def split_streams(x, modalities="RTE"):
    """The (stream A, stream B) inputs of a (B, 5, H, W) input: the views
    ``x[:, sl]`` over the modality subset's ``STREAM_SLICES``, not copies."""
    if x.ndim != 4 or x.shape[1] != 5:
        raise ShapeError(f"expected (B, 5, H, W) input, got shape {x.shape}")
    return tuple(x[:, sl] for sl in STREAM_SLICES[normalize_modalities(modalities)])


# ---------------------------------------------------------------------------
# parameter layout


def _embed_geometry(stage):
    # stage 1: 7x7 stride 4 pad 3; stages 2-4: 3x3 stride 2 pad 1
    return (7, 4, 3) if stage == 1 else (3, 2, 1)


def backbone_param_specs(cfg, fusion, modalities="RTE"):
    """Full dual-stream parameter layout including fusion blocks."""
    specs = []
    for stream, in_ch in zip("ab", stream_channels(modalities)):
        for stage in range(1, 5):
            specs += [s for _, part_specs, _ in stage_parts(stage, cfg, stream, in_ch) for s in part_specs]
            in_ch = cfg.widths[stage - 1]
    for stage in range(1, 5):
        specs += merge_part(stage, cfg, fusion)[1]
    return specs


def count_params(cfg, fusion, modalities="RTE", neck_specs=None):
    """Exact trainable-scalar count; never materializes the arrays."""
    specs = backbone_param_specs(cfg, fusion, modalities)
    if neck_specs is not None:
        specs = specs + list(neck_specs)
    return param_count(specs)


# ---------------------------------------------------------------------------
# forward pieces


def patch_embed(x, stage, params, p):
    """Overlapping strided conv embedding followed by token layer norm."""
    k, stride, pad = _embed_geometry(stage)
    z = conv(x, params, f"{p}.s{stage}.embed", stride=stride, pad=pad)
    _, _, h, w = z.shape
    t = norm(to_tokens(z), params, f"{p}.s{stage}.embed.norm")
    return t, h, w


def sra_attention(t, h, w, heads, sr, params, q):
    """Pre-norm spatial-reduction attention block half, residual included.

    With sr == 1 this is plain multi-head self-attention; otherwise keys and
    values come from an sr x sr strided conv of the (normed) token map,
    ceil-padded so any spatial size is accepted.
    """
    b, n, c = t.shape
    if n != h * w:
        raise ShapeError(f"token count {n} != {h}x{w}")
    tn = norm(t, params, f"{q}.norm1")
    query = dense(tn, params, f"{q}.attn.q")
    if sr > 1:
        m = to_map(tn, h, w)
        # ceil-mode: pad bottom/right so sr divides both dims
        ph = (sr - h % sr) % sr
        pw = (sr - w % sr) % sr
        if ph or pw:
            m = np.pad(m, ((0, 0), (0, 0), (0, ph), (0, pw)))
        red = conv(m, params, f"{q}.attn.sr", stride=sr, pad=0)
        kv_t = norm(to_tokens(red), params, f"{q}.attn.sr_norm")
    else:
        kv_t = tn
    key = dense(kv_t, params, f"{q}.attn.k")
    val = dense(kv_t, params, f"{q}.attn.v")

    d = c // heads

    def split_heads(x):
        # (b, n, heads * d) -> (b * heads, n, d): heads ride the batch axis
        return x.reshape(b, -1, heads, d).transpose(0, 2, 1, 3).reshape(b * heads, -1, d)

    att = attention(split_heads(query), split_heads(key), split_heads(val), 1.0 / np.sqrt(d))
    merged = att.reshape(b, heads, n, d).transpose(0, 2, 1, 3).reshape(b, n, c)
    out = dense(merged, params, f"{q}.attn.proj")
    return t + out


def mix_ffn(t, h, w, expansion, params, q):
    """Pre-norm FFN with a depthwise 3x3 conv between the linears, residual
    included."""
    b, n, c = t.shape
    tn = norm(t, params, f"{q}.norm2")
    hid = dense(tn, params, f"{q}.ffn.fc1")
    # the token matrix viewed as a map: the depthwise conv reads it and
    # writes its result channels-last, so neither side copies.  Each
    # token-sized buffer is dropped after its last reader
    m = hid.transpose(0, 2, 1).reshape(b, -1, h, w)
    del tn, hid
    m = conv(m, params, f"{q}.ffn.dw", stride=1, pad=1, groups=expansion * c)
    hid = gelu(to_tokens(m))
    del m
    out = dense(hid, params, f"{q}.ffn.fc2")
    return t + out


def stage_parts(stage, cfg, p, in_ch):
    """One stream's stage as its parts, in order: the patch embed, each block
    (attention, then Mix-FFN) and the final norm, as ``(name, specs, part)``
    triples.  ``specs`` declares every parameter the part reads, for a stage
    input of ``in_ch`` channels.  ``part(x, params)`` maps the stage input to
    tokens ``(t, h, w)``, tokens to tokens, and the last tokens to the
    stage's map."""
    i, prefix = stage - 1, f"{p}.s{stage}"
    c, sr, e = cfg.widths[i], cfg.sr_ratios[i], cfg.expansion

    def embed(x, params):
        return patch_embed(x, stage, params, p)

    def block(q):
        specs = norm_specs(f"{q}.norm1", c)
        for proj in ("q", "k", "v", "proj"):
            specs += dense_specs(f"{q}.attn.{proj}", c, c)
        specs += (norm_specs(f"{q}.norm2", c) + dense_specs(f"{q}.ffn.fc1", c, e * c)
                  + conv_specs(f"{q}.ffn.dw", 1, e * c, 3) + dense_specs(f"{q}.ffn.fc2", e * c, c))
        if sr > 1:
            specs += conv_specs(f"{q}.attn.sr", c, c, sr) + norm_specs(f"{q}.attn.sr_norm", c)

        def run(thw, params):
            t, h, w = thw
            t = sra_attention(t, h, w, cfg.heads[i], sr, params, q)
            return mix_ffn(t, h, w, e, params, q), h, w
        return q, specs, run

    def final(thw, params):
        t, h, w = thw
        return to_map(norm(t, params, f"{prefix}.norm"), h, w)

    embed_specs = (conv_specs(f"{prefix}.embed", in_ch, c, _embed_geometry(stage)[0])
                   + norm_specs(f"{prefix}.embed.norm", c))
    return [(f"{prefix}.embed", embed_specs, embed), *(block(f"{prefix}.blk{j}") for j in range(cfg.depths[i])),
            (f"{prefix}.norm", norm_specs(f"{prefix}.norm", c), final)]


def encode_stage(x, stage, cfg, params, p):
    """Run one stream through one stage: embed, blocks, final norm, to map."""
    for _, _, part in stage_parts(stage, cfg, p, x.shape[1]):
        x = part(x, params)
    return x


def forward_single(x, cfg, params, p="a"):
    """Single-stream encoder pass; returns the four per-stage maps."""
    feats = []
    cur = x
    for stage in range(1, 5):
        cur = encode_stage(cur, stage, cfg, params, p)
        feats.append(StageFeature(cur, stage))
    return feats


def merge_part(stage, cfg, fusion):
    """One stage's merge as a ``(name, specs, part)`` triple, like
    ``stage_parts``: ``part(encoded, params)`` maps the two streams' stage
    maps to the stage's StageFeature and the next stage's two inputs.

    At a fused stage the feature is the fusion output, with the block's
    diagnostics, and it feeds both next-stage streams.  At an unfused stage
    ``specs`` is empty, the feature is the streams' element-wise mean
    (parameter-free, keeping the neck interface fixed) and the streams
    continue apart.  ``apply_fusion`` is looked up as the part runs, so
    wrapping it takes effect here.
    """
    name, c = f"fuse.s{stage}", cfg.widths[stage - 1]
    fused = stage in fusion.stages

    def part(encoded, params):
        fa, fb = encoded
        if fused:
            out, diagnostics = apply_fusion(fusion, fa, fb, params, name)
            return StageFeature(out, stage, diagnostics), (out, out)
        out = ((fa.astype(np.float64) + fb.astype(np.float64)) / 2.0).astype(np.float32)
        return StageFeature(out, stage), encoded

    return name, fusion_param_specs(fusion, c, name) if fused else [], part


def forward_dual(x, cfg, fusion, params, modalities="RTE"):
    """Dual-stream pass: stage by stage, each stream through
    ``encode_stage``, then the stage's ``merge_part``; the four StageFeatures."""
    streams, feats = split_streams(x, modalities), []
    for stage in range(1, 5):
        encoded = [encode_stage(s, stage, cfg, params, p) for s, p in zip(streams, "ab")]
        feat, streams = merge_part(stage, cfg, fusion)[2](encoded, params)
        feats.append(feat)
    return feats

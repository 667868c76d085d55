"""Deterministic dense-tensor kernels.

All feature maps are plain ``numpy`` arrays: maps are float32 with shape
(B, C, H, W), token matrices are float32 with shape (B, N, C) where
N = H * W.  Buffers stay 32-bit; reductions, matmuls and normalizations
accumulate in float64 so results compare against brute-force oracles
within 1e-6.  Everything here is a pure function of its inputs, so
repeated calls are bitwise identical.

Temporaries are bounded, and a float64 result is rounded to float32 as it
is stored, with any bias added in that same pass.  :func:`attention` holds
one float64 score block of ``chunk`` x Nk per batch entry (``chunk`` = 128
query rows by default) and divides each block by its row sums straight
into the float32 output.  :func:`conv2d` computes two groupings, dense
(groups 1) and depthwise (groups == Cin, with Cout == Cin or Cin == 1),
and raises :class:`~trifuse.errors.ShapeError` for any other before it
allocates.  Its dense path pads only the input rows a band reads, builds its float64 im2col columns in bands of
output rows of at most 16 MB each, and rounds each band's product into
its slice of the float32 output as it stores it; the depthwise path works
channels-last beside its padded input, in bands of output rows with a
float64 accumulator of at most 512 KB unless one output row alone needs
more.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

from .errors import ConfigError, ShapeError

DTYPE = np.float32
# size of one band of dense-conv im2col columns.  BLAS re-packs the weight
# matrix for every band; with the FPN's 4.7 MB 3x3 weights, 4 MB bands ran
# slower than one whole-map im2col and 16 MB bands faster
_COL_BAND_BYTES = 16 << 20
# size of one band of the depthwise conv's float64 accumulator.  With its
# float32 products and input rows a band stays inside a 2 MB L2; on such a
# core, bands from 64 KB to 4 MB timed the same, so the size mainly bounds
# the memory the conv holds beyond its input and output
_DW_BAND_BYTES = 512 << 10


def _as_f32(x):
    x = np.asarray(x)
    return x if x.dtype == DTYPE else x.astype(DTYPE)


# ---------------------------------------------------------------------------
# map <-> token reshapes


def to_tokens(x):
    """(B, C, H, W) map -> (B, N, C) token matrix, N = H*W row-major."""
    if x.ndim != 4:
        raise ShapeError(f"expected rank-4 map, got rank {x.ndim}")
    b, c, h, w = x.shape
    return np.ascontiguousarray(x.reshape(b, c, h * w).transpose(0, 2, 1))


def to_map(t, h, w):
    """(B, N, C) tokens -> (B, C, H, W) map; inverse of :func:`to_tokens`."""
    if t.ndim != 3:
        raise ShapeError(f"expected rank-3 token matrix, got rank {t.ndim}")
    b, n, c = t.shape
    if n != h * w:
        raise ShapeError(f"token count {n} != H*W = {h}*{w}")
    return np.ascontiguousarray(t.transpose(0, 2, 1).reshape(b, c, h, w))


# ---------------------------------------------------------------------------
# core kernels


def conv2d(x, w, b=None, stride=1, pad=0, groups=1):
    """Direct 2-D convolution (cross-correlation) on a (B, C, H, W) map.

    ``w`` has shape (Cout, Cin/groups, kh, kw).  Output spatial size is
    floor((H + 2*pad - k) / stride) + 1.  Two groupings are computed: dense
    (groups == 1) and depthwise (groups == Cin, with Cout == Cin or
    Cin == 1); any other grouping, a channel multiplier included, is a
    :class:`ShapeError`.  Depthwise convs work channels-last and return a
    (B, C, H, W) view of channels-last memory, so a token matrix viewed as a
    map goes in and comes back out through :func:`to_tokens` without a
    copy.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got rank {x.ndim}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d weight must be rank 4, got rank {w.ndim}")
    bsz, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    depthwise = groups == cin and (cout == cin or cin == 1)
    if groups != 1 and not depthwise:
        raise ShapeError(
            f"conv2d is dense (groups 1) or depthwise (groups == Cin, Cout == Cin or Cin == 1): "
            f"got groups {groups} with Cin {cin}, Cout {cout}"
        )
    if cin_g != cin // groups:
        raise ShapeError(
            f"weight expects {cin_g} channels per group, input provides {cin // groups}"
        )
    if pad < 0:
        raise ShapeError(f"negative padding {pad}")
    if h + 2 * pad < kh or wid + 2 * pad < kw:
        raise ShapeError(
            f"spatial size {h}x{wid} (+pad {pad}) smaller than kernel {kh}x{kw}"
        )
    if b is not None:
        b = np.asarray(b)
        if b.shape != (cout,):
            raise ShapeError(f"bias shape {b.shape} != ({cout},)")
        b = b.astype(np.float64)

    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    if depthwise:
        return _depthwise(x, w, b, stride, pad, ho, wo)

    # dense: stack the kernel taps for a band of output rows, contract it in
    # one float64 matmul and round the band into its slice of the output.  A
    # band's columns take at most _COL_BAND_BYTES unless one output row alone
    # needs more, and only the input rows a band reads are padded
    res = np.empty((bsz, cout, ho * wo), DTYPE)
    b = None if b is None else b.reshape(cout, 1)
    kdim = kh * kw * cin
    wmat = w.transpose(0, 2, 3, 1).astype(np.float64, order="C").reshape(cout, kdim)
    rows = max(1, _COL_BAND_BYTES // (bsz * kdim * wo * 8))
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        lo, hi = r0 * stride - pad, (r1 - 1) * stride + kh - pad
        xb = x[:, :, max(lo, 0) : hi]
        if pad:
            xb = np.pad(xb, ((0, 0), (0, 0), (max(-lo, 0), max(hi - h, 0)), (pad, pad)))
        cols = np.empty((bsz, kh, kw, cin, r1 - r0, wo), np.float64)
        for dy in range(kh):
            for dx in range(kw):
                cols[:, dy, dx] = xb[:, :, dy : dy + (r1 - r0) * stride : stride, dx : dx + wo * stride : stride]
        _round_into(res[:, :, r0 * wo : r1 * wo], np.matmul(wmat, cols.reshape(bsz, kdim, (r1 - r0) * wo)), b)
        del xb, cols  # before the next band's are allocated
    return res.reshape(bsz, cout, ho, wo)


def _depthwise(x, w, b, stride, pad, ho, wo):
    """Depthwise conv, channels-last, in row bands of one cache-sized float64
    accumulator.  Each tap's product, in the input dtype, is added in
    float64 in (dy, dx) order and the float64 bias last, as the tap loop
    over (B, C, H, W) maps did, so the result is bitwise the same."""
    bsz = x.shape[0]
    # one input channel broadcasts against every output channel's taps
    cout, _, kh, kw = w.shape
    # a token matrix viewed as a map is contiguous in this order
    xl = x.transpose(0, 2, 3, 1)
    xp = np.pad(xl, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else np.ascontiguousarray(xl)
    taps = w[:, 0].transpose(1, 2, 0)  # (kh, kw, Cout)
    out = np.empty((bsz, ho, wo, cout), DTYPE)
    rows = max(1, _DW_BAND_BYTES // (wo * cout * 8))
    acc = np.empty((min(rows, ho), wo, cout), np.float64)
    prod = np.empty(acc.shape, np.result_type(x, w))
    for n in range(bsz):
        for r0 in range(0, ho, rows):
            r1 = min(r0 + rows, ho)
            a, p = acc[: r1 - r0], prod[: r1 - r0]
            a.fill(0.0)  # as the tap loop did: -0.0 products sum to +0.0
            for dy in range(kh):
                for dx in range(kw):
                    src = xp[n, dy + r0 * stride : dy + r1 * stride : stride, dx : dx + wo * stride : stride]
                    np.multiply(src, taps[dy, dx], out=p)
                    a += p
            _round_into(out[n, r0:r1], a, b)
    return out.transpose(0, 3, 1, 2)


def _round_into(out, acc, b=None):
    """Store float64 ``acc + b`` into float32 ``out``: the bias add and the
    rounding are one pass, bitwise ``(acc + b).astype(float32)``."""
    if b is None:
        np.copyto(out, acc, casting="unsafe")
    else:
        np.add(acc, b, out=out, casting="unsafe")
    return out


def layer_norm(t, gamma, beta, eps=1e-6):
    """Per-token layer norm over the last axis with affine scale/shift."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    t = np.asarray(t)
    # moments accumulate in float64; the per-element normalization stays 32-bit
    mean = t.mean(axis=-1, keepdims=True, dtype=np.float64)
    # the variance about that mean, squared, summed and divided as np.var does
    dev = t - mean
    np.square(dev, out=dev)
    var = dev.sum(axis=-1, keepdims=True) / t.shape[-1]
    inv = (1.0 / np.sqrt(var + eps)).astype(DTYPE)
    out = t.astype(DTYPE)
    out -= mean.astype(DTYPE)
    out *= inv
    out *= _as_f32(gamma)
    out += _as_f32(beta)
    return out


def sigmoid(x):
    x = np.asarray(x)
    if x.dtype == DTYPE:  # elementwise, no accumulation: stay 32-bit
        return expit(x)
    return expit(x.astype(np.float64)).astype(DTYPE)


def gelu(x):
    """Exact (erf) GELU, ``0.5 * x * (1 + erf(x / sqrt(2)))``, in two
    buffers the size of ``x``: erf in place on the scaled input, then the
    1 added and the product with ``0.5 * x`` taken in place.  A float32
    input stays 32-bit; any other is evaluated in float64 and rounded."""
    x = np.asarray(x)
    if x.dtype == DTYPE:  # elementwise, no accumulation: stay 32-bit
        out = np.multiply(x, DTYPE(0.7071067811865476), out=np.empty_like(x))
    else:
        x = np.asarray(x, np.float64)
        out = np.divide(x, np.sqrt(2.0), out=np.empty_like(x))
    erf(out, out=out)
    out += 1.0
    out *= np.multiply(x, 0.5)
    return out if out.dtype == DTYPE else out.astype(DTYPE)


def relu(x):
    return np.maximum(np.asarray(x, DTYPE), DTYPE(0))


def global_avg_pool(x):
    """(B, C, H, W) -> (B, C) spatial mean."""
    if x.ndim != 4:
        raise ShapeError(f"expected rank-4 map, got rank {x.ndim}")
    return np.asarray(x, np.float64).mean(axis=(2, 3)).astype(DTYPE)


def global_max_pool(x):
    """(B, C, H, W) -> (B, C) spatial max."""
    if x.ndim != 4:
        raise ShapeError(f"expected rank-4 map, got rank {x.ndim}")
    return np.asarray(x).max(axis=(2, 3)).astype(DTYPE)


def linear(t, w, b=None):
    """Token-wise affine map: (..., Cin) @ (Cin, Cout) + b."""
    out = np.matmul(np.asarray(t, np.float64), np.asarray(w, np.float64))
    b64 = None if b is None else np.asarray(b, np.float64)
    return _round_into(np.empty(out.shape, DTYPE), out, b64)


def attention(q, k, v, scale, chunk=128):
    """Scaled dot-product attention, exact in float64, over query blocks.

    q: (B, Nq, d), k: (B, Nk, d), v: (B, Nk, dv) -> (B, Nq, dv) float32.
    Queries are taken ``chunk`` rows at a time and scaled by ``scale`` as
    they are widened to float64, so the only large temporary is one float64
    score block of B x chunk x Nk (8.5 MB for the 8,320-key stage-1 BiTE
    call); K^T and V are held in float64, V with a ones column appended.
    Each block is shifted by its row max before ``exp``; its product with
    that V is the (chunk x dv) unnormalised output plus, in the last column,
    each row's sum, and dividing one by the other writes the block straight
    into the float32 output: the same softmax without a pass over the block
    for the scale or the sums, and no float64 buffer the size of the output.
    """
    kt = np.ascontiguousarray(np.asarray(k, np.float64).transpose(0, 2, 1))
    v = np.asarray(v)
    bsz, nk, dv = v.shape
    v1 = np.empty((bsz, nk, dv + 1), np.float64)
    v1[..., :dv] = v
    v1[..., dv] = 1.0
    q = np.asarray(q)
    nq = q.shape[1]
    out = np.empty((bsz, nq, dv), DTYPE)
    block = np.empty((bsz, min(chunk, nq), nk), np.float64)
    for lo in range(0, nq, chunk):
        hi = min(lo + chunk, nq)
        scores = block[:, : hi - lo]
        np.matmul(np.multiply(q[:, lo:hi], scale, dtype=np.float64), kt, out=scores)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        pv = np.matmul(scores, v1)
        np.divide(pv[..., :dv], pv[..., dv:], out=out[:, lo:hi], casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# parameter store


@dataclass(frozen=True)
class ParamSpec:
    """Declares one named parameter: shape plus initialization kind."""

    name: str
    shape: tuple
    kind: str  # weight | bias | scale

    @property
    def size(self):
        return int(np.prod(self.shape)) if self.shape else 1


class ParamStore:
    """Immutable mapping of parameter name -> float32 array.

    Initialization is seeded per-parameter from (seed, crc32(name)), so the
    values of any given parameter do not depend on declaration order and two
    stores built from the same (specs, seed) are bitwise identical.
    """

    def __init__(self, arrays):
        self._arrays = dict(arrays)
        for a in self._arrays.values():
            a.setflags(write=False)

    def __getitem__(self, name):
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def __contains__(self, name):
        return name in self._arrays

    def __len__(self):
        return len(self._arrays)

    def names(self):
        return sorted(self._arrays)

    def total_size(self):
        return sum(a.size for a in self._arrays.values())


def trunc_normal(rng, shape, std=0.02, bound=2.0):
    """Normal(0, std) resampled until all draws fall inside +-bound*std.

    Each round redraws the entries still out of bound, in C order, and
    re-tests only those: an entry in bound never changes.
    """
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > bound)
    for _ in range(64):
        if not bad.size:
            break
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > bound]
    return np.multiply(out, std, out=np.empty(out.shape, DTYPE), casting="unsafe")


def init_params(specs, seed):
    """Materialize a :class:`ParamStore` from a list of :class:`ParamSpec`."""
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate parameter names: {dup}")
    arrays = {}
    for s in specs:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(s.name.encode())])
        if s.kind == "weight":
            arrays[s.name] = trunc_normal(rng, s.shape)
        elif s.kind == "bias":
            arrays[s.name] = np.zeros(s.shape, DTYPE)
        elif s.kind == "scale":
            arrays[s.name] = np.ones(s.shape, DTYPE)
        else:
            raise ConfigError(f"unknown parameter kind {s.kind!r} for {s.name!r}")
    return ParamStore(arrays)


def param_count(specs):
    """Total scalar count of a spec list, without allocating anything."""
    return sum(s.size for s in specs)

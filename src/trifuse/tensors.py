"""Deterministic dense-tensor kernels.

All feature maps are plain ``numpy`` arrays: maps are float32 with shape
(B, C, H, W), token matrices are float32 with shape (B, N, C) where
N = H * W.  Buffers stay 32-bit; reductions, matmuls and normalizations
accumulate in float64 so results compare against brute-force oracles
within 1e-6.  Everything here is a pure function of its inputs, so
repeated calls are bitwise identical.

Temporaries are bounded: float64 is held in cache-sized tiles and bands,
and a float64 result is rounded to float32 as it is stored, with any bias
added in that same pass.  :func:`attention` takes 128 query rows at a
time against 2,048 keys at a time, so its one score tile (2 MB at batch 1)
stays in L2 through ``exp`` and the PV GEMM; the softmax shift comes out
of the QK GEMM itself, and each block is divided by its row sums straight
into the float32 output.  :func:`linear` widens and multiplies its rows
1,024 at a time into reused float64 buffers.  :func:`conv2d` computes two
groupings, dense (groups 1) and depthwise (groups == Cin, with
Cout == Cin or Cin == 1), and raises :class:`~trifuse.errors.ShapeError`
for any other before it allocates.  Both paths pad only the input rows a
band of output rows reads, so neither copies its whole input.  The dense
path builds its float64 im2col columns in bands whose columns and product
take at most 4 MB each, rounding each band's product into its slice of
the float32 output; the depthwise path works channels-last, in bands with
a float64 accumulator of at most 512 KB unless one output row alone needs
more.

:func:`gelu` and :func:`sigmoid` take ``erf`` and ``expit`` from
``scipy.special``, imported on their first call, so a process that runs
no forward (``synth``, ``eval``, ``bin-events``) never loads scipy.
:func:`gelu` holds one buffer the size of its input and one band.

One rule names every layer's parameters: a dense layer is ``<layer>.w``
of shape (Cin, Cout) plus ``<layer>.b``, a conv ``<layer>.w`` of (Cout,
Cin/groups, k, k) plus ``<layer>.b``, a layer norm ``<layer>.g`` (a
"scale") plus ``<layer>.b``.  ``dense_specs``, ``conv_specs`` and
``norm_specs`` declare a layer; ``dense``, ``conv`` and ``norm`` run it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

DTYPE = np.float32
# size of one band of dense-conv im2col columns, and of its float64
# product (a 1x1 conv widening 64 to 256 channels has a product 4x its
# columns).  BLAS re-packs the weight matrix for every band; with the FPN's
# 4.7 MB 3x3 weights, the stride-4 smoothing conv (80 x 104) took a median
# 234 ms with 8 MB bands, 243-248 ms with 4 MB and 267-270 ms with 2 MB
# (2-vCPU Xeon, one BLAS thread).  4 MB bands take 4 MB off the FPN's last
# part, which sets the grid's peak
_COL_BAND_BYTES = 4 << 20
# size of one band of the depthwise conv's float64 accumulator.  With its
# float32 products and input rows a band stays inside a 2 MB L2; on such a
# core, bands from 64 KB to 4 MB timed the same, so the size mainly bounds
# the memory the conv holds beyond its input and output
_DW_BAND_BYTES = 512 << 10
# rows of one band of linear's float64 input and product.  The 130- and
# 520-token layers of stages 3-4 stay one GEMM: banding them ran 0-10% slower
_LINEAR_BAND_ROWS = 1024
# keys per score tile in attention: a 128-query block of 2,048 float64
# scores is 2 MB, one L2, so exp and the PV GEMM read it from cache
_KEY_TILE = 2048
# a query block with a row whose exp-weights, shifted by its bound, sum
# below this is computed again, each row shifted by its max.  Above it a
# row's largest weight is a normal float64 for any key count below 1e10
_MIN_ROW_SUM = 1e-290
# values per band of gelu's 0.5 * x factor: 256 KB of float32, in cache
# while it multiplies into the output
_GELU_BAND = 1 << 16
# float64 draws per band of trunc_normal's first draw: 512 KB, in cache
# while it is scaled, rounded into the float32 output and tested
_DRAW_BAND = 1 << 16
# the standard deviation of every initial weight
_INIT_STD = 0.02


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
    # band's columns and its float64 product each take at most
    # _COL_BAND_BYTES unless one output row alone needs more, and only the
    # input rows a band reads are padded
    res = np.empty((bsz, cout, ho * wo), DTYPE)
    b = None if b is None else b.reshape(cout, 1)
    kdim = kh * kw * cin
    wmat = w.transpose(0, 2, 3, 1).astype(np.float64, order="C").reshape(cout, kdim)
    rows = max(1, _COL_BAND_BYTES // (bsz * max(kdim, cout) * wo * 8))
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
    accumulator; each band copies the input rows it reads into one reused
    zero-padded buffer.  Each tap's product, in the input dtype, is added
    in float64 in (dy, dx) order and the float64 bias last, as the tap loop
    over (B, C, H, W) maps did, so the result is bitwise the same."""
    bsz = x.shape[0]
    # one input channel broadcasts against every output channel's taps
    cout, _, kh, kw = w.shape
    h, wid = x.shape[2:]
    # a token matrix viewed as a map is contiguous in this order
    xl = x.transpose(0, 2, 3, 1)
    taps = w[:, 0].transpose(1, 2, 0)  # (kh, kw, Cout)
    out = np.empty((bsz, ho, wo, cout), DTYPE)
    rows = max(1, _DW_BAND_BYTES // (wo * cout * 8))
    acc = np.empty((min(rows, ho), wo, cout), np.float64)
    prod = np.empty(acc.shape, np.result_type(x, w))
    # the padded input rows of one band; its pad columns stay zero
    xp = np.zeros(((acc.shape[0] - 1) * stride + kh, wid + 2 * pad, x.shape[1]), x.dtype)
    for n in range(bsz):
        for r0 in range(0, ho, rows):
            r1 = min(r0 + rows, ho)
            lo, hi = r0 * stride - pad, (r1 - 1) * stride + kh - pad
            top, bottom = max(-lo, 0), max(hi - h, 0)
            xb, a, p = xp[: hi - lo], acc[: r1 - r0], prod[: r1 - r0]
            xb[:top] = 0.0
            xb[hi - lo - bottom :] = 0.0
            xb[top : hi - lo - bottom, pad : pad + wid] = xl[n, lo + top : hi - bottom]
            a.fill(0.0)  # as the tap loop did: -0.0 products sum to +0.0
            for dy in range(kh):
                for dx in range(kw):
                    src = xb[dy : dy + (r1 - r0) * stride : stride, dx : dx + wo * stride : stride]
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
    from scipy.special import expit

    x = np.asarray(x)
    if x.dtype == DTYPE:  # elementwise, no accumulation: stay 32-bit
        return expit(x)
    return expit(x.astype(np.float64)).astype(DTYPE)


def gelu(x):
    """Exact (erf) GELU, ``0.5 * x * (1 + erf(x / sqrt(2)))``, in float32,
    in one buffer the size of ``x`` and one band: erf in place on the
    scaled input, the 1 added in place, then ``0.5 * x`` taken
    ``_GELU_BAND`` values at a time and multiplied in.  A contiguous
    float32 input is read in place; any other is first rounded to float32."""
    from scipy.special import erf

    x = _as_f32(x)
    out = np.multiply(x, DTYPE(0.7071067811865476), out=np.empty(x.shape, DTYPE))
    erf(out, out=out)
    out += 1.0
    flat, xs = out.reshape(-1), x.reshape(-1)
    half = np.empty(min(_GELU_BAND, flat.size), DTYPE)
    for r0 in range(0, flat.size, _GELU_BAND):
        h = half[: min(_GELU_BAND, flat.size - r0)]
        flat[r0 : r0 + h.size] *= np.multiply(xs[r0 : r0 + h.size], 0.5, out=h)
    return out


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
    """Token-wise affine map: (..., Cin) @ (Cin, Cout) + b.

    The rows, all leading axes flattened, are widened to float64 and
    multiplied ``_LINEAR_BAND_ROWS`` at a time in two reused float64
    buffers (one GEMM when they are fewer), and each band's product is
    rounded, bias included, straight into its rows of the float32 output.
    Per row this is the one-shot float64 GEMM, so the result is bitwise the
    same.
    """
    t = np.asarray(t)
    w = np.asarray(w, np.float64)
    b = None if b is None else np.asarray(b, np.float64)
    n = math.prod(t.shape[:-1])
    rows = t.reshape(n, t.shape[-1])
    out = np.empty((n, w.shape[-1]), DTYPE)
    step = max(1, min(n, _LINEAR_BAND_ROWS))
    band = np.empty((step, rows.shape[1]), np.float64)
    prod = np.empty((step, w.shape[-1]), np.float64)
    for r0 in range(0, n, step):
        x, y = band[: min(step, n - r0)], prod[: min(step, n - r0)]
        np.copyto(x, rows[r0 : r0 + x.shape[0]])
        _round_into(out[r0 : r0 + x.shape[0]], np.matmul(x, w, out=y), b)
    return out.reshape(t.shape[:-1] + (w.shape[-1],))


def attention(q, k, v, scale, chunk=128):
    """Scaled dot-product attention, exact in float64, over query blocks
    and key tiles.

    q: (B, Nq, d), k: (B, Nk, d), v: (B, Nk, dv) -> (B, Nq, dv) float32.
    Queries are taken ``chunk`` rows at a time, keys ``_KEY_TILE`` at a
    time, so the only score buffer is one float64 tile of B x chunk x
    _KEY_TILE (2 MB at batch 1), which stays in cache through ``exp`` and
    the PV GEMM; K^T and V are held in float64.  Each scaled query row
    carries one more column, ``-bound`` with bound = |q_i| max_j |k_j|
    (Cauchy-Schwarz, so no score exceeds it), and K^T one more row of
    ones: the QK GEMM returns scores already shifted, and no pass over them
    looks for a row max.  V carries a ones column, so the PV GEMM summed
    over the tiles is the unnormalised output plus each row's sum, and
    dividing one by the other writes the block straight into the float32
    output.  If a row's sum falls below ``_MIN_ROW_SUM`` (its scores all
    lie far below its bound, so its weights underflow), the block is
    computed again with each row shifted by its max instead.
    """
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    bsz, nk, dv = v.shape
    nq, d = q.shape[1:]
    kt = np.empty((bsz, d + 1, nk), np.float64)
    kt[:, :d] = k.transpose(0, 2, 1)
    kt[:, d] = 1.0
    kmax = np.sqrt(np.einsum("bdn,bdn->bn", kt[:, :d], kt[:, :d]).max(axis=-1, initial=0.0))
    v1 = np.empty((bsz, nk, dv + 1), np.float64)
    v1[..., :dv] = v
    v1[..., dv] = 1.0
    out = np.empty((bsz, nq, dv), DTYPE)
    rows = min(chunk, nq)
    qs = np.empty((bsz, rows, d + 1), np.float64)
    tile = np.empty((bsz, rows, min(_KEY_TILE, nk)), np.float64)
    acc = np.empty((bsz, rows, dv + 1), np.float64)
    for lo in range(0, nq, chunk):
        hi = min(lo + chunk, nq)
        qb, a = qs[:, : hi - lo], acc[:, : hi - lo]
        np.multiply(q[:, lo:hi], scale, out=qb[..., :d], dtype=np.float64)
        qb[..., d] = np.sqrt(np.einsum("bnd,bnd->bn", qb[..., :d], qb[..., :d])) * -kmax[:, None]
        _weighted_sum(qb, kt, v1, tile, a)
        if (a[..., dv] < _MIN_ROW_SUM).any():
            qb[..., d] = 0.0
            qb[..., d] = -np.max([s.max(axis=-1) for _, s in _score_tiles(qb, kt, tile)], axis=0)
            _weighted_sum(qb, kt, v1, tile, a)
        np.divide(a[..., :dv], a[..., dv:], out=out[:, lo:hi], casting="unsafe")
    return out


def _score_tiles(qb, kt, tile):
    """Yield (k0, qb @ kt[..., k0:k0 + n]) for each key tile, each product
    stored in the ``tile`` buffer."""
    step = tile.shape[-1]
    for k0 in range(0, kt.shape[-1], step):
        s = tile[:, : qb.shape[1], : min(step, kt.shape[-1] - k0)]
        yield k0, np.matmul(qb, kt[..., k0 : k0 + s.shape[-1]], out=s)


def _weighted_sum(qb, kt, v1, tile, acc):
    """acc = exp(qb @ kt) @ v1, summed over the key tiles."""
    for k0, s in _score_tiles(qb, kt, tile):
        np.exp(s, out=s)
        vt = v1[:, k0 : k0 + s.shape[-1]]
        if k0 == 0:
            np.matmul(s, vt, out=acc)
        else:
            acc += np.matmul(s, vt)


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


def dense_specs(name, cin, cout):
    return [ParamSpec(f"{name}.w", (cin, cout), "weight"), ParamSpec(f"{name}.b", (cout,), "bias")]


def conv_specs(name, cin, cout, k):
    # cin counts the input channels of one group: 1 for a depthwise conv
    return [ParamSpec(f"{name}.w", (cout, cin, k, k), "weight"), ParamSpec(f"{name}.b", (cout,), "bias")]


def norm_specs(name, c):
    return [ParamSpec(f"{name}.g", (c,), "scale"), ParamSpec(f"{name}.b", (c,), "bias")]


# the layers' forwards look their kernel up in this module's globals at
# call time, so a wrapped kernel sees every layer's call


def dense(t, params, name):
    return linear(t, params[f"{name}.w"], params[f"{name}.b"])


def conv(x, params, name, stride=1, pad=0, groups=1):
    return conv2d(x, params[f"{name}.w"], params[f"{name}.b"], stride=stride, pad=pad, groups=groups)


def norm(t, params, name):
    return layer_norm(t, params[f"{name}.g"], params[f"{name}.b"])


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

    def __len__(self):
        return len(self._arrays)

    def names(self):
        return sorted(self._arrays)


def trunc_normal(rng, shape, bound=2.0):
    """Normal(0, ``_INIT_STD``) resampled until all draws fall inside
    +-bound standard deviations.

    The first draw fills one reused float64 band of ``_DRAW_BAND`` values
    at a time, rounded times ``_INIT_STD`` into the float32 output, and
    notes the entries out of bound.  Each round then redraws the entries
    still out of bound, in C order, and re-tests only those: an entry in
    bound never changes.  The draws are the same, in the same order, as one
    ``standard_normal(shape)`` followed by the rounds.
    """
    out = np.empty(shape, DTYPE)
    flat = out.reshape(-1)
    band = np.empty(min(_DRAW_BAND, flat.size))
    bad = [np.empty(0, np.intp)]
    for r0 in range(0, flat.size, _DRAW_BAND):
        x = band[: min(_DRAW_BAND, flat.size - r0)]
        rng.standard_normal(out=x)
        np.multiply(x, _INIT_STD, out=flat[r0 : r0 + x.size], casting="unsafe")
        bad.append(np.flatnonzero(np.abs(x) > bound) + r0)
    bad = np.concatenate(bad)
    vals = np.empty(bad.size)
    left = np.arange(bad.size)
    for _ in range(64):
        if not left.size:
            break
        vals[left] = rng.standard_normal(left.size)
        left = left[np.abs(vals[left]) > bound]
    flat[bad] = vals * _INIT_STD
    return out


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

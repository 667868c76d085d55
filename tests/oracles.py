"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's vectorized code paths: direct loops
and textbook formulas only, so they stay independent of what they check.
"""

import numpy as np
from scipy.special import erf


def conv2d_loops(x, w, b=None, stride=1, pad=0, groups=1):
    """Six-loop direct convolution in float64."""
    bsz, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    cg, og = cin // groups, cout // groups
    for n in range(bsz):
        for o in range(cout):
            g = o // og
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin_g):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[n, g * cg + c, i * stride + ky, j * stride + kx]
                                    * float(w[o, c, ky, kx])
                                )
                    out[n, o, i, j] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def depthwise_nchw_taps(x, w, b=None, stride=1, pad=0):
    """Depthwise conv as a tap loop over (B, C, H, W) maps: each tap's
    product in the input dtype, added in float64 in (dy, dx) order, the
    float64 bias last, then one rounding to float32."""
    x = np.asarray(x)
    bsz, _, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((bsz, cout, ho, wo), np.float64)
    for dy in range(kh):
        for dx in range(kw):
            tap = xp[:, :, dy : dy + ho * stride : stride, dx : dx + wo * stride : stride]
            out += tap * w[:, 0, dy, dx][None, :, None, None]
    if b is not None:
        out += b.astype(np.float64).reshape(1, cout, 1, 1)
    return out.astype(np.float32)


def linear_add_then_cast(t, w, b=None):
    """Token-wise affine map: float64 product, bias added in place, then a
    separate rounding pass to float32."""
    out = np.matmul(np.asarray(t, np.float64), np.asarray(w, np.float64))
    if b is not None:
        out += np.asarray(b, np.float64)
    return out.astype(np.float32)


def layer_norm_var_pass(t, gamma, beta, eps):
    """Layer norm with float64 moments from ``mean`` and a separate ``var``
    call, then the float32 normalisation and affine as new arrays."""
    mean = t.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = t.var(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32)
    out = (t.astype(np.float32) - mean.astype(np.float32)) * inv
    return (out * gamma.astype(np.float32) + beta.astype(np.float32)).astype(np.float32)


def attention_naive(q, k, v, scale):
    """Full O(N^2) attention without chunking; float64 throughout."""
    q = np.asarray(q, np.float64)
    k = np.asarray(k, np.float64)
    v = np.asarray(v, np.float64)
    out = np.zeros((q.shape[0], q.shape[1], v.shape[2]))
    for n in range(q.shape[0]):
        scores = q[n] @ k[n].T * scale
        for i in range(scores.shape[0]):
            row = scores[i] - scores[i].max()
            e = np.exp(row)
            out[n, i] = (e / e.sum()) @ v[n]
    return out


def layer_norm_two_pass(t, gamma, beta, eps):
    """Two-pass mean/variance normalization in float64."""
    t = np.asarray(t, np.float64)
    out = np.zeros_like(t)
    flat = t.reshape(-1, t.shape[-1])
    res = np.zeros_like(flat)
    for i, row in enumerate(flat):
        mu = row.sum() / len(row)
        var = ((row - mu) ** 2).sum() / len(row)
        res[i] = (row - mu) / np.sqrt(var + eps) * gamma + beta
    return res.reshape(t.shape)


def bin_events_loops(t_us, x, y, p, sensor_size, center_t, delta_t):
    """Per-pixel counting oracle for event binning: each window edge is
    rounded to a whole microsecond and every event compared in integers."""
    h, w = sensor_size
    counts = np.zeros((h, w))
    lo_us = round((center_t - delta_t / 2.0) * 1e6)
    hi_us = round((center_t + delta_t / 2.0) * 1e6)
    for i in range(len(t_us)):
        if lo_us <= int(t_us[i]) < hi_us:
            counts[y[i], x[i]] += p[i]
    peak = np.abs(counts).max()
    return counts / peak if peak > 0 else counts


def iou_direct(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter) if inter > 0 else 0.0


def average_precision_staircase(dets, gts, thresh):
    """Independent AP: explicit greedy matching then a literal walk of the
    101 recall points over the precision staircase."""
    n_gt = len(gts)
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    matched = set()
    flags = []
    for i in order:
        d = dets[i]
        best_j, best_v = None, -1.0
        for j, g in enumerate(gts):
            if j in matched or g.image_id != d.image_id:
                continue
            v = iou_direct(d.box, g.box)
            if v >= thresh and v > best_v:
                best_j, best_v = j, v
        if best_j is not None:
            matched.add(best_j)
            flags.append(1)
        else:
            flags.append(0)
    if not flags:
        return 0.0
    precisions, recalls = [], []
    tp = fp = 0
    for f in flags:
        tp += f
        fp += 1 - f
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)
    total = 0.0
    for ri in range(101):
        r = ri / 100.0
        best = 0.0
        for pr, rc in zip(precisions, recalls):
            if rc >= r - 1e-12 and pr > best:
                best = pr
        total += best
    return total / 101.0


def trunc_normal_full_retest(rng, shape, std=0.02, bound=2.0):
    """Truncated normal that re-tests the whole array after every redraw."""
    out = rng.standard_normal(shape)
    for _ in range(64):
        bad = np.abs(out) > bound
        if not bad.any():
            break
        out[bad] = rng.standard_normal(int(bad.sum()))
    return (out * std).astype(np.float32)


def greedy_match_loop(dets, gts, thresholds):
    """The greedy matcher one detection at a time: per (image, class) group
    one IoU matrix, then each detection in descending score (stable on
    ties) takes, per threshold, the highest-IoU free ground truth at or
    above it, the lowest index on ties.  Returns the order and the
    (threshold, detection) true-positive flags."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    groups = {}
    for j, g in enumerate(gts):
        groups.setdefault((g.image_id, g.class_id), ([], []))[1].append(j)
    for i in order:
        group = groups.get((dets[i].image_id, dets[i].class_id))
        if group is not None:
            group[0].append(i)
    thr = np.asarray(thresholds, np.float64)[:, None]
    rows = np.arange(len(thr))
    tp = np.zeros((len(thr), len(dets)), bool)
    for det_idx, gt_idx in groups.values():
        if not det_idx:
            continue
        a = np.array([dets[i].box for i in det_idx], np.float64)
        b = np.array([gts[j].box for j in gt_idx], np.float64)
        iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
        ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
        inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
        area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
        area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        ious = np.where((iw <= 0) | (ih <= 0), 0.0, inter / (area_a[:, None] + area_b[None, :] - inter))
        free = np.ones((len(thr), len(gt_idx)), bool)
        for i, row in zip(det_idx, ious):
            ok = free & (row >= thr)
            best = np.where(ok, row, -1.0).argmax(axis=1)
            hit = ok[rows, best]
            free[rows[hit], best[hit]] = False
            tp[:, i] = hit
    return order, tp


def ap_running_sum(tp_flags, n_gt, recall_points):
    """101-point interpolated AP with the recall points looked up one at a
    time and added to a running total."""
    if not len(tp_flags):
        return 0.0
    flags = tp_flags.astype(np.float64)
    tp = np.cumsum(flags)
    fp = np.cumsum(1.0 - flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for r in recall_points:
        idx = np.searchsorted(recall, r, side="left")
        ap += env[idx] if idx < len(env) else 0.0
    return float(ap / len(recall_points))


def gelu_expression(x):
    """GELU as one numpy expression: float32 input evaluated in float32,
    any other in float64, then rounded to float32."""
    x = np.asarray(x)
    if x.dtype == np.float32:
        return (np.float32(0.5) * x * (np.float32(1.0) + erf(x * np.float32(0.7071067811865476)))).astype(np.float32)
    x64 = x.astype(np.float64)
    return (0.5 * x64 * (1.0 + erf(x64 / np.sqrt(2.0)))).astype(np.float32)


def fpn_merge_float64(lat, top):
    """FPN top-down merge: the coarser map upsampled 2x by ``np.repeat``,
    cropped to the lateral's size, added in float64 and rounded to float32."""
    up = np.repeat(np.repeat(top, 2, axis=2), 2, axis=3)[:, :, : lat.shape[2], : lat.shape[3]]
    return (lat.astype(np.float64) + up.astype(np.float64)).astype(np.float32)

"""Reference results the benchmark checks trifuse's outputs against.

The evaluation reference is an independent re-implementation of the
documented semantics, written with plain numpy and none of trifuse's
code.  Forward and grid outputs are too costly to recompute another way, so
they are checked against checksums and values shipped in ``refs/`` (made by
``make_refs.py`` on a commit known to be right).
"""

from __future__ import annotations

import hashlib

import numpy as np

SAMPLES_PER_MAP = 32
ORACLE_TOL = 1e-6
COCO_THRESHOLDS = tuple(np.round(0.5 + 0.05 * np.arange(10), 2))

# default normalisation: ImageNet RGB in [0, 1], thermal (0.5, 0.25), event (0, 0.5)
NORM_MEAN = np.array([0.485, 0.456, 0.406, 0.5, 0.0]).reshape(1, 5, 1, 1)
NORM_STD = np.array([0.229, 0.224, 0.225, 0.25, 0.5]).reshape(1, 5, 1, 1)


def digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# forward checksums


def sample_positions(shape, n=SAMPLES_PER_MAP):
    """Fixed flat indices sampled from a map of ``shape``."""
    size = int(np.prod(shape))
    rng = np.random.default_rng([0xC4EC, *shape])
    return np.sort(rng.choice(size, size=min(n, size), replace=False))


def map_summary(m):
    """Shape, float64 sum, L1 norm, max |x| and values at fixed positions."""
    m64 = np.asarray(m, np.float64)
    return {
        "shape": list(m.shape),
        "sum": float(m64.sum()),
        "l1": float(np.abs(m64).sum()),
        "maxabs": float(np.abs(m64).max()),
        "samples": m64.ravel()[sample_positions(m.shape)].tolist(),
    }


def compare_summary(got, ref, label):
    """Problems found comparing a map summary with its reference, within the
    1e-6 oracle tolerance scaled to the map's magnitude."""
    if got["shape"] != ref["shape"]:
        return [f"{label}: shape {got['shape']} != {ref['shape']}"]
    problems = []
    if not np.isfinite(got["l1"]):
        problems.append(f"{label}: non-finite values")
    if abs(got["sum"] - ref["sum"]) > ORACLE_TOL * ref["l1"]:
        problems.append(f"{label}: sum {got['sum']!r} != {ref['sum']!r}")
    tol = ORACLE_TOL * max(ref["maxabs"], 1e-30)
    worst = float(np.max(np.abs(np.subtract(got["samples"], ref["samples"]))))
    if worst > tol:
        problems.append(f"{label}: sampled value off by {worst:.3g} > {tol:.3g}")
    return problems


# ---------------------------------------------------------------------------
# event stream


def make_event_stream(seed, n_events, span_us, sensor_size):
    """Sorted integer-µs timestamps, pixel coordinates and polarities."""
    rng = np.random.default_rng([0xE7E7, seed])
    h, w = sensor_size
    t = np.sort(rng.integers(0, span_us, n_events))
    return t, rng.integers(0, w, n_events), rng.integers(0, h, n_events), rng.choice([-1, 1], n_events)


# ---------------------------------------------------------------------------
# dense detection set and staircase AP


def make_detection_set(seed, n_images, n_gt=16, n_det=64, size=(640, 512)):
    """Per image: ``n_gt`` boxes, a jittered copy of each as a detection,
    then distractors (second copies of some boxes and random boxes).
    Boxes are (x1, y1, x2, y2) float arrays; scores are distinct."""
    rng = np.random.default_rng([0xA9, seed])
    w, h = size
    images = []
    for _ in range(n_images):
        wh = rng.uniform(16, 128, (n_gt, 2))
        xy = rng.uniform(0, 1, (n_gt, 2)) * (np.array([w, h]) - wh)
        gts = np.concatenate([xy, xy + wh], 1)
        n_dup = (n_det - n_gt) // 3
        src = np.concatenate([gts, gts[rng.integers(0, n_gt, n_dup)]])
        jit = src + rng.normal(0, 1, src.shape) * np.repeat(src[:, 2:] - src[:, :2], 2, 1) * 0.08
        rwh = rng.uniform(16, 128, (n_det - len(src), 2))
        rxy = rng.uniform(0, 1, (len(rwh), 2)) * (np.array([w, h]) - rwh)
        dets = np.concatenate([jit, np.concatenate([rxy, rxy + rwh], 1)])
        dets[:, 2:] = np.maximum(dets[:, 2:], dets[:, :2] + 1.0)
        scores = np.concatenate([rng.uniform(0.3, 1.0, n_gt), rng.uniform(0.0, 0.9, n_det - n_gt)])
        images.append((gts, dets, scores))
    return images


def iou_matrix(d, g):
    iw = np.minimum(d[:, None, 2], g[None, :, 2]) - np.maximum(d[:, None, 0], g[None, :, 0])
    ih = np.minimum(d[:, None, 3], g[None, :, 3]) - np.maximum(d[:, None, 1], g[None, :, 1])
    inter = iw * ih
    area = lambda b: (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area(d)[:, None] + area(g)[None, :] - inter
    return np.where((iw > 0) & (ih > 0), inter / union, 0.0)


def staircase_ap(images, thresh):
    """COCO 101-point AP with greedy score-ordered matching (stable on ties,
    first ground truth on IoU ties).  Returns (AP, true positives)."""
    ious = [iou_matrix(d, g) for g, d, _ in images]
    owner = np.concatenate([np.full(len(s), i) for i, (_, _, s) in enumerate(images)])
    local = np.concatenate([np.arange(len(s)) for _, _, s in images])
    scores = np.concatenate([s for _, _, s in images])
    taken = [np.zeros(len(g), bool) for g, _, _ in images]
    tp = np.zeros(len(scores))
    for rank, i in enumerate(np.argsort(-scores, kind="stable")):
        row = np.where(taken[owner[i]], -1.0, ious[owner[i]][local[i]])
        j = int(np.argmax(row))
        if row[j] >= thresh:
            taken[owner[i]][j] = True
            tp[rank] = 1.0
    n_gt = sum(len(g) for g, _, _ in images)
    ctp = np.cumsum(tp)
    recall = ctp / n_gt
    precision = ctp / np.arange(1, len(tp) + 1)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        reach = precision[recall >= r]
        ap += reach.max() if len(reach) else 0.0
    return ap / 101, int(ctp[-1])

"""Detection metrics: IoU and per-class COCO-style AP / mAP from one
greedy matcher.

Average precision uses the COCO convention.  One greedy score-ordered
matcher pairs each detection with at most one ground-truth box of the same
image and class.  Precision is 101-point interpolated, AP is averaged over
the classes that have ground truth, and mAP over IoU thresholds
0.50:0.05:0.95.  Sorting is stable, so results are reproducible
bit-for-bit.

The matcher works on whole arrays: one pass takes the IoU of every
same-(image, class) pair, and the groups then walk their detections in
score order in lockstep, one step per rank at every threshold at once,
which is the per-detection greedy loop's result bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import is_int64, text_lines
from .errors import FormatError, ValidationError

COCO_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
_PAIR_BLOCK = 8192  # same-group pairs per IoU block in the matcher


def _check_box(box, image_id):
    if not all(math.isfinite(v) for v in box):
        raise ValidationError(f"non-finite box {box} on image {image_id}")
    x1, y1, x2, y2 = box
    if not (x2 > x1 and y2 > y1):
        raise ValidationError(f"degenerate box {box} on image {image_id}")


@dataclass
class Detection:
    image_id: str
    box: tuple  # (x1, y1, x2, y2) pixels
    score: float
    class_id: int = 0

    def __post_init__(self):
        _check_box(self.box, self.image_id)
        if not math.isfinite(self.score):
            raise ValidationError(f"non-finite score {self.score} on image {self.image_id}")


@dataclass
class GroundTruth:
    image_id: str
    box: tuple
    class_id: int = 0

    def __post_init__(self):
        _check_box(self.box, self.image_id)


@dataclass
class EvalReport:
    mean_ap: float
    ap50: float
    per_threshold: dict  # iou threshold -> AP
    counts_at_50: dict  # {"tp": ..., "fp": ..., "fn": ...}
    degenerate: bool = False  # true when there were no gts and no detections

    def to_dict(self):
        return {
            "mAP": self.mean_ap,
            "mAP50": self.ap50,
            "per_threshold": {f"{t:.2f}": v for t, v in self.per_threshold.items()},
            "counts_at_50": self.counts_at_50,
            "degenerate": self.degenerate,
        }


def _pair_iou(a, b):
    """IoU of box ``a[:, k]`` with box ``b[:, k]`` for every k; ``a`` and
    ``b`` hold the x1, y1, x2, y2 rows of equally many boxes."""
    iw = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return np.where((iw <= 0) | (ih <= 0), 0.0, inter / union)


def iou(a, b):
    """Intersection-over-union of two (x1, y1, x2, y2) boxes."""
    a, b = (np.asarray(box, np.float64).reshape(4, 1) for box in (a, b))
    return float(_pair_iou(a, b)[0])


def _pairs(ranked, det_group, gt_group, dets, gts, thr):
    """Every same-(image, class) pair of a ``ranked`` detection and a ground
    truth whose IoU passes some threshold, as the arrays (position in
    ``ranked``, ground-truth index, IoU, IoU >= each threshold), in
    (score, ground truth) order.  The IoU runs over ``_PAIR_BLOCK`` pairs at
    a time, so its temporaries stay small whatever the group sizes."""
    dbox = np.array([d.box for d in dets], np.float64).reshape(-1, 4)[ranked].T
    gbox = np.array([g.box for g in gts], np.float64).reshape(-1, 4).T
    n_gt = np.bincount(gt_group)
    by_group = np.argsort(gt_group, kind="stable")  # each group's ground truth, by index
    width = n_gt[det_group[ranked]]  # pairs per detection
    end = np.cumsum(width)
    # pair number - shift = the position of the pair's ground truth in by_group
    shift = end - width - (np.cumsum(n_gt) - n_gt)[det_group[ranked]]
    cuts = np.searchsorted(end, np.arange(_PAIR_BLOCK, end[-1], _PAIR_BLOCK))
    parts = []
    for c0, c1 in itertools.pairwise(np.unique(np.r_[0, cuts, len(ranked)])):
        w = width[c0:c1]
        det = np.repeat(np.arange(c0, c1), w)
        gt = by_group[np.arange(end[c0] - w[0], end[c1 - 1]) - np.repeat(shift[c0:c1], w)]
        overlap = _pair_iou(np.take(dbox, det, axis=1), np.take(gbox, gt, axis=1))
        passes = overlap >= thr
        keep = passes.any(axis=0)
        parts.append((det[keep], gt[keep], overlap[keep], passes[:, keep]))
    det, gt, overlap, passes = zip(*parts)
    return np.concatenate(det), np.concatenate(gt), np.concatenate(overlap), np.hstack(passes)


def _match(dets, gts, thresholds):
    """The greedy matcher behind every metric in this module.

    Detections are visited in descending score (stable on ties) and only
    meet ground truth of their own (image, class).  At each threshold a
    detection takes the highest-IoU untaken ground truth with IoU >=
    threshold, the lowest index on IoU ties.  Returns the visiting order (an
    index array) and a (threshold, detection) bool array of true positives.

    No two (image, class) groups share ground truth, so the groups walk
    their detections in lockstep.  One vectorised pass takes the IoU of
    every same-group pair and keeps the pairs that pass some threshold.
    Step k then visits, at every threshold at once, the k-th detection of
    each group among those with a pair kept, so the Python loop runs as
    many steps as the largest group has such detections.
    """
    thr = np.asarray(thresholds, np.float64).reshape(-1, 1)
    order = np.argsort(-np.array([d.score for d in dets], np.float64), kind="stable")
    tp = np.zeros((len(thr), len(dets)), bool)
    groups = {}
    gt_group = np.array([groups.setdefault((g.image_id, g.class_id), len(groups)) for g in gts], np.intp)
    det_group = np.array([groups.get((d.image_id, d.class_id), -1) for d in dets], np.intp)
    ranked = order[det_group[order] >= 0]  # the detections that meet ground truth, in score order
    if not (len(ranked) and len(thr)):
        return order, tp
    det, gt, overlap, passes = _pairs(ranked, det_group, gt_group, dets, gts, thr)
    if not len(det):
        return order, tp
    # a visit is one detection with a pair kept; rank each among its group's
    # visits, then sort the pairs by (rank, group), keeping ground-truth order
    visited, visit = np.unique(det, return_inverse=True)
    group = det_group[ranked[visited]]
    per_group = np.bincount(group)
    rank = np.empty(len(visited), np.intp)
    rank[np.argsort(group, kind="stable")] = (
        np.arange(len(visited)) - np.repeat(np.cumsum(per_group) - per_group, per_group))
    by_step = np.lexsort((group[visit], rank[visit]))
    visit, gt, overlap, passes = visit[by_step], gt[by_step], overlap[by_step], passes[:, by_step]
    # renumber the visits in that order: pairs first[i]:first[i + 1] are visit i's
    first = np.flatnonzero(np.r_[True, visit[1:] != visit[:-1]])
    visited, rank = visited[visit[first]], rank[visit[first]]
    first = np.r_[first, len(visit)]
    visit = np.repeat(np.arange(len(visited)), np.diff(first))
    steps = np.searchsorted(rank, np.arange(rank[-1] + 2))  # visits steps[k]:steps[k + 1] are step k's
    free = np.ones((len(thr), len(gts)), bool)
    hit = np.zeros((len(thr), len(visited)), bool)
    for v0, v1 in itertools.pairwise(steps):
        p0, p1 = first[v0], first[v1]
        starts, g = first[v0:v1] - p0, gt[p0:p1]
        val = np.where(free[:, g] & passes[:, p0:p1], overlap[p0:p1], -np.inf)
        best = np.maximum.reduceat(val, starts, axis=1)
        # the lowest ground-truth index among each visit's best
        tied = np.where(val == best[:, visit[p0:p1] - v0], g, len(gts))
        take = np.minimum.reduceat(tied, starts, axis=1)
        found = hit[:, v0:v1] = best > -np.inf
        t, v = np.nonzero(found)
        free[t, take[t, v]] = False
    tp[:, ranked[visited]] = hit
    return order, tp


def _ap(tp_flags, n_gt):
    """101-point interpolated AP of one class from its TP flags in score order."""
    if not len(tp_flags):
        return 0.0
    flags = tp_flags.astype(np.float64)
    tp = np.cumsum(flags)
    fp = np.cumsum(1.0 - flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope (max precision at recall >= r), 0 past the last recall
    env = np.r_[np.maximum.accumulate(precision[::-1])[::-1], 0.0]
    # summed left to right, as a running total would be: np.sum adds pairwise
    ap = np.add.accumulate(env[np.searchsorted(recall, RECALL_POINTS, side="left")])[-1]
    return float(ap / len(RECALL_POINTS))


def _class_mean_ap(dets, gts, order, tp):
    """AP per threshold row of ``tp``, averaged over the classes that have
    ground truth; detections of other classes do not enter any AP."""
    n_gt = Counter(g.class_id for g in gts)
    if not n_gt:
        return [0.0] * len(tp)
    det_class = np.array([d.class_id for d in dets], np.int64)[order]
    ranked = tp[:, order]
    return [
        float(np.mean([_ap(flags[det_class == c], n_gt[c]) for c in sorted(n_gt)]))
        for flags in ranked
    ]


def average_precision(dets, gts, iou_thresh):
    """101-point interpolated AP at one IoU threshold, averaged over the
    classes that have ground truth (0.0 when there is none)."""
    return _class_mean_ap(dets, gts, *_match(dets, gts, (iou_thresh,)))[0]


def evaluate(dets, gts, image_ids=None):
    """COCO-style report: per-threshold AP, mAP, mAP50 and counts at 0.5.

    ``image_ids``, when given, pins the evaluated image universe: records
    referencing an unknown image are a validation error.  Without it the
    universe is the union of both sets, and zero-gt images contribute FPs.
    One matching pass serves all ten thresholds.  A detection of a class
    with no ground truth counts as an FP at 0.5.
    """
    if image_ids is not None:
        universe = set(image_ids)
        for d in dets:
            if d.image_id not in universe:
                raise ValidationError(f"detection references unknown image {d.image_id!r}")
        for g in gts:
            if g.image_id not in universe:
                raise ValidationError(f"ground truth references unknown image {g.image_id!r}")
    order, tp = _match(dets, gts, COCO_THRESHOLDS)
    per = dict(zip(COCO_THRESHOLDS, _class_mean_ap(dets, gts, order, tp)))
    n_tp = int(tp[0].sum())
    return EvalReport(
        mean_ap=float(np.mean(list(per.values()))),
        ap50=per[COCO_THRESHOLDS[0]],
        per_threshold=per,
        counts_at_50={"tp": n_tp, "fp": len(dets) - n_tp, "fn": len(gts) - n_tp},
        degenerate=not dets and not gts,
    )


# ---------------------------------------------------------------------------
# JSONL interchange


def _read_jsonl(path, kind, make):
    """One ``make(record)`` per non-blank line; any bad record is a
    FormatError naming ``path:line``."""
    out = []
    for where, line in text_lines(path):
        try:
            out.append(make(json.loads(line)))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ValidationError) as e:
            raise FormatError(f"{where}: malformed {kind} record: {e}") from e
    return out


def _class_id(rec):
    """The record's class as an exact integer within the int64 range."""
    c = rec.get("class", 0)
    if not is_int64(c):
        raise ValueError(f"class {c!r} is not an integer within the int64 range")
    return int(c)


def read_detections_jsonl(path):
    return _read_jsonl(path, "detection", lambda rec: Detection(
        image_id=str(rec["image_id"]),
        box=tuple(float(v) for v in rec["bbox"]),
        score=float(rec["score"]),
        class_id=_class_id(rec),
    ))


def read_ground_truth_jsonl(path):
    return _read_jsonl(path, "ground-truth", lambda rec: GroundTruth(
        image_id=str(rec["image_id"]),
        box=tuple(float(v) for v in rec["bbox"]),
        class_id=_class_id(rec),
    ))


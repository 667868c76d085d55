"""Detection metrics: IoU and per-class COCO-style AP / mAP from one
greedy matcher.

Average precision uses the COCO convention.  One greedy score-ordered
matcher pairs each detection with at most one ground-truth box of the same
image and class.  Precision is 101-point interpolated, AP is averaged over
the classes that have ground truth, and mAP over IoU thresholds
0.50:0.05:0.95.  Sorting is stable, so results are reproducible
bit-for-bit.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import text_lines
from .errors import FormatError, ValidationError

COCO_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


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


def _iou_matrix(a, b):
    """IoU of every (x1, y1, x2, y2) box in ``a`` with every box in ``b``."""
    a = np.asarray(a, np.float64).reshape(-1, 4)
    b = np.asarray(b, np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where((iw <= 0) | (ih <= 0), 0.0, inter / union)


def iou(a, b):
    """Intersection-over-union of two (x1, y1, x2, y2) boxes."""
    return float(_iou_matrix(a, b)[0, 0])


def _match(dets, gts, thresholds):
    """The greedy matcher behind every metric in this module.

    Detections are visited in descending score (stable on ties) and only
    meet ground truth of their own (image, class).  At each threshold a
    detection takes the highest-IoU untaken ground truth with IoU >=
    threshold, the lowest index on IoU ties.  One IoU matrix per (image,
    class) serves every threshold.  Returns the visiting order and a
    (threshold, detection) bool array of true positives.
    """
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
        ious = _iou_matrix([dets[i].box for i in det_idx], [gts[j].box for j in gt_idx])
        free = np.ones((len(thr), len(gt_idx)), bool)
        for i, row in zip(det_idx, ious):
            ok = free & (row >= thr)
            best = np.where(ok, row, -1.0).argmax(axis=1)
            hit = ok[rows, best]
            free[rows[hit], best[hit]] = False
            tp[:, i] = hit
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
    # precision envelope: max precision at recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for r in RECALL_POINTS:
        idx = np.searchsorted(recall, r, side="left")
        ap += env[idx] if idx < len(env) else 0.0
    return float(ap / len(RECALL_POINTS))


def _class_mean_ap(dets, gts, order, tp):
    """AP per threshold row of ``tp``, averaged over the classes that have
    ground truth; detections of other classes do not enter any AP."""
    n_gt = Counter(g.class_id for g in gts)
    if not n_gt:
        return [0.0] * len(tp)
    det_class = np.array([dets[i].class_id for i in order])
    ranked = tp[:, order]
    return [
        float(np.mean([_ap(flags[det_class == c], n_gt[c]) for c in sorted(n_gt)]))
        for flags in ranked
    ]


def match_greedy(dets, gts, iou_thresh):
    """One TP flag per detection in descending score order (stable on
    ties), plus that order."""
    order, tp = _match(dets, gts, (iou_thresh,))
    return [bool(tp[0, i]) for i in order], order


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
    """The record's class as an exact integer, never a boolean or a fraction."""
    c = rec.get("class", 0)
    if isinstance(c, bool) or (isinstance(c, float) and not c.is_integer()):
        raise ValueError(f"class {c!r} is not an integer")
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


def write_detections_jsonl(path, dets):
    with open(path, "w") as f:
        for d in dets:
            f.write(
                json.dumps(
                    {"image_id": d.image_id, "bbox": list(d.box), "score": d.score, "class": d.class_id}
                )
                + "\n"
            )

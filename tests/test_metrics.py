import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trifuse import metrics
from trifuse.errors import FormatError, ValidationError
from trifuse.metrics import (
    COCO_THRESHOLDS,
    Detection,
    GroundTruth,
    average_precision,
    evaluate,
    iou,
    read_detections_jsonl,
    read_ground_truth_jsonl,
)

from oracles import ap_running_sum, average_precision_staircase, greedy_match_loop, iou_direct


def _random_scene(rng, n_img=3, n_gt=6, extra_fp=4):
    """Ground truths plus jittered/spurious detections with random scores."""
    gts, dets = [], []
    for _ in range(n_gt):
        img = f"im{rng.integers(n_img)}"
        x, y = rng.uniform(0, 80, 2)
        w, h = rng.uniform(8, 30, 2)
        gts.append(GroundTruth(img, (x, y, x + w, y + h)))
        jx, jy = rng.uniform(-4, 4, 2)
        dets.append(
            Detection(img, (x + jx, y + jy, x + w + jx, y + h + jy), float(rng.random()))
        )
    for _ in range(extra_fp):
        img = f"im{rng.integers(n_img)}"
        x, y = rng.uniform(0, 80, 2)
        w, h = rng.uniform(8, 30, 2)
        dets.append(Detection(img, (x, y, x + w, y + h), float(rng.random())))
    return dets, gts


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_touching_edges(self):
        assert iou((0, 0, 10, 10), (10, 0, 20, 10)) == 0.0

    def test_quarter_overlap(self):
        # 5x5 intersection over 100 + 100 - 25
        assert iou((0, 0, 10, 10), (5, 5, 15, 15)) == pytest.approx(25 / 175)

    def test_vs_direct_oracle(self, rng):
        for _ in range(200):
            a = np.sort(rng.uniform(0, 50, 4))
            b = np.sort(rng.uniform(0, 50, 4))
            ba = (a[0], a[1], a[2], a[3])
            bb = (b[0], b[1], b[2], b[3])
            assert iou(ba, bb) == pytest.approx(iou_direct(ba, bb), abs=1e-12)

    def test_symmetric(self, rng):
        a = (1.0, 2.0, 9.0, 11.0)
        b = (3.0, 1.0, 12.0, 8.0)
        assert iou(a, b) == iou(b, a)


def _greedy(dets, gts, iou_thresh):
    """One TP flag per detection in descending score order, plus that order."""
    order, tp = metrics._match(dets, gts, (iou_thresh,))
    return tp[0, order].tolist(), order.tolist()


class TestGreedyMatching:
    def test_highest_score_matches_first(self):
        gt = [GroundTruth("a", (0, 0, 10, 10))]
        dets = [
            Detection("a", (0, 0, 10, 10), 0.3),
            Detection("a", (1, 1, 11, 11), 0.9),
        ]
        tp, order = _greedy(dets, gt, 0.5)
        assert order == [1, 0]
        assert tp == [True, False]

    def test_one_match_per_gt(self):
        gt = [GroundTruth("a", (0, 0, 10, 10))]
        dets = [Detection("a", (0, 0, 10, 10), s) for s in (0.9, 0.8, 0.7)]
        tp, _ = _greedy(dets, gt, 0.5)
        assert tp == [True, False, False]

    def test_picks_highest_iou_gt(self):
        gts = [GroundTruth("a", (0, 0, 10, 10)), GroundTruth("a", (2, 2, 12, 12))]
        det = [Detection("a", (2, 2, 12, 12), 0.9)]
        tp, _ = _greedy(det, gts, 0.5)
        assert tp == [True]
        # second identical detection must fall back to the other gt
        # (iou with it is 64/136, so gate below that)
        dets = det + [Detection("a", (2, 2, 12, 12), 0.8)]
        tp, _ = _greedy(dets, gts, 0.4)
        assert tp == [True, True]

    def test_threshold_gates_match(self):
        gt = [GroundTruth("a", (0, 0, 10, 10))]
        det = [Detection("a", (5, 5, 15, 15), 0.9)]  # iou = 1/7
        assert _greedy(det, gt, 0.5)[0] == [False]
        assert _greedy(det, gt, 0.1)[0] == [True]

    def test_stable_on_score_ties(self):
        gt = [GroundTruth("a", (0, 0, 10, 10))]
        dets = [Detection("a", (0, 0, 10, 10), 0.5), Detection("a", (1, 1, 11, 11), 0.5)]
        tp, order = _greedy(dets, gt, 0.5)
        assert order == [0, 1]
        assert tp == [True, False]


    def test_iou_tie_takes_lowest_index_gt(self):
        # the first detection overlaps both boxes with IoU 1/3; the second
        # overlaps only the right box, so it matches only if the first
        # detection took the left one
        left, right = GroundTruth("a", (0, 0, 10, 10)), GroundTruth("a", (10, 0, 20, 10))
        dets = [Detection("a", (5, 0, 15, 10), 0.9), Detection("a", (10, 0, 20, 10), 0.8)]
        assert _greedy(dets, [left, right], 0.3)[0] == [True, True]
        assert _greedy(dets, [right, left], 0.3)[0] == [True, False]


def _dense_scene(rng, n_img=100, n_gt=16, n_det=64):
    """Per image: jittered copies of every ground truth, second copies of
    some, then random boxes, with distinct scores; the detection set shape
    of a COCO-style evaluation."""
    gts, dets = [], []
    for i in range(n_img):
        wh = rng.uniform(16, 128, (n_gt, 2))
        xy = rng.uniform(0, 1, (n_gt, 2)) * (np.array([640, 512]) - wh)
        boxes = np.concatenate([xy, xy + wh], 1)
        src = np.concatenate([boxes, boxes[rng.integers(0, n_gt, (n_det - n_gt) // 3)]])
        jit = src + rng.normal(0, 1, src.shape) * np.repeat(src[:, 2:] - src[:, :2], 2, 1) * 0.08
        rxy = rng.uniform(0, 500, (n_det - len(src), 2))
        found = np.concatenate([jit, np.concatenate([rxy, rxy + rng.uniform(16, 128, rxy.shape)], 1)])
        found[:, 2:] = np.maximum(found[:, 2:], found[:, :2] + 1.0)
        gts += [GroundTruth(f"img{i}", tuple(b)) for b in boxes]
        dets += [Detection(f"img{i}", tuple(b), float(s)) for b, s in zip(found, rng.random(n_det))]
    return dets, gts


def _loop_evaluate(monkeypatch, dets, gts):
    """``evaluate`` with the per-detection matcher and the running-sum AP."""
    with monkeypatch.context() as m:
        m.setattr(metrics, "_match", lambda d, g, t: tuple(map(np.asarray, greedy_match_loop(d, g, t))))
        m.setattr(metrics, "_ap", lambda flags, n_gt: ap_running_sum(flags, n_gt, metrics.RECALL_POINTS))
        return evaluate(dets, gts)


# boxes on a half-unit grid, a few images, classes and scores: score ties,
# IoU ties, exact duplicates, and detections of images or classes with no
# ground truth; the images are weighted so that group sizes are skewed
grid = st.integers(0, 12).map(lambda v: v / 2)
boxes = st.tuples(grid, grid, st.integers(1, 8), st.integers(1, 8)).map(
    lambda b: (b[0], b[1], b[0] + b[2] / 2, b[1] + b[3] / 2))
where = st.tuples(st.sampled_from("aaaaaabcd"), st.integers(0, 2))
det_lists = st.lists(st.tuples(where, boxes, st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0])), max_size=60)
gt_lists = st.lists(st.tuples(where, boxes), max_size=25)
threshold_sets = st.one_of(
    st.just(COCO_THRESHOLDS),
    st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 0.75, 1.0]), min_size=1, max_size=4))


class TestLockstepMatcher:
    """The vectorised matcher against the per-detection loop, bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(det_lists, gt_lists, threshold_sets)
    def test_equals_per_detection_loop(self, det_recs, gt_recs, thresholds):
        dets = [Detection(img, box, score, cls) for (img, cls), box, score in det_recs]
        gts = [GroundTruth(img, box, cls) for (img, cls), box in gt_recs]
        order, tp = metrics._match(dets, gts, thresholds)
        want_order, want_tp = greedy_match_loop(dets, gts, thresholds)
        assert order.tolist() == want_order
        assert tp.dtype == want_tp.dtype and np.array_equal(tp, want_tp)

    def test_skewed_groups_equal_per_detection_loop(self, rng):
        # one image with 400 detections beside 200 with one each, and
        # detections of images and classes with no ground truth
        dets, gts = _dense_scene(rng, n_img=1, n_gt=40, n_det=400)
        for i in range(200):
            x, y = rng.uniform(0, 50, 2)
            gts.append(GroundTruth(f"one{i}", (x, y, x + 20, y + 20), class_id=i % 2))
            dets.append(Detection(f"one{i}", (x + 1, y, x + 21, y + 20), float(rng.random()), i % 3))
            dets.append(Detection(f"none{i}", (x, y, x + 20, y + 20), float(rng.random())))
        order, tp = metrics._match(dets, gts, COCO_THRESHOLDS)
        want_order, want_tp = greedy_match_loop(dets, gts, COCO_THRESHOLDS)
        assert order.tolist() == want_order and np.array_equal(tp, want_tp)
        assert want_tp.any() and not want_tp.all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evaluate_equals_loop_pipeline_exactly(self, monkeypatch, seed):
        dets, gts = _dense_scene(np.random.default_rng(seed))
        got, want = evaluate(dets, gts), _loop_evaluate(monkeypatch, dets, gts)
        assert got.to_dict() == want.to_dict()
        assert list(got.per_threshold.values()) == list(want.per_threshold.values())
        assert 0 < want.mean_ap < want.ap50 < 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.booleans(), max_size=300), st.integers(1, 400))
    def test_ap_equals_running_sum(self, flags, n_gt):
        n_gt = max(n_gt, sum(flags))
        flags = np.array(flags, bool)
        assert metrics._ap(flags, n_gt) == ap_running_sum(flags, n_gt, metrics.RECALL_POINTS)

    def test_empty_sets(self):
        one = [Detection("a", (0, 0, 1, 1), 0.5)]
        for dets, gts in (([], []), (one, []), ([], [GroundTruth("a", (0, 0, 1, 1))])):
            order, tp = metrics._match(dets, gts, COCO_THRESHOLDS)
            assert order.tolist() == list(range(len(dets))) and tp.shape == (10, len(dets))
            assert not tp.any()

    def test_peak_memory_is_linear_in_pairs(self, rng):
        # one image with 2,000 detections and 50 ground truths beside 500
        # images with one of each: 100,500 pairs, where padding every group
        # to the largest would take 501 x 2,000 x 50 x 10 thresholds; the
        # blocked IoU pass keeps the peak near 16 bytes a pair
        dets, gts = _dense_scene(rng, n_img=1, n_gt=50, n_det=2000)
        for i in range(500):
            gts.append(GroundTruth(f"one{i}", (0, 0, 10, 10)))
            dets.append(Detection(f"one{i}", (1, 0, 11, 10), float(rng.random())))
        pairs = 2000 * 50 + 500
        tracemalloc.start()
        try:
            metrics._match(dets, gts, COCO_THRESHOLDS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * pairs


class TestAveragePrecision:
    def test_perfect_detector(self):
        gts = [GroundTruth("a", (i * 20, 0, i * 20 + 10, 10)) for i in range(4)]
        dets = [Detection(g.image_id, g.box, 0.9 - 0.1 * i) for i, g in enumerate(gts)]
        for t in COCO_THRESHOLDS:
            assert average_precision(dets, gts, t) == pytest.approx(1.0)

    def test_no_detections_is_zero(self):
        gts = [GroundTruth("a", (0, 0, 10, 10))]
        assert average_precision([], gts, 0.5) == 0.0

    def test_no_ground_truth_is_zero(self):
        dets = [Detection("a", (0, 0, 10, 10), 0.9)]
        assert average_precision(dets, [], 0.5) == 0.0

    def test_vs_staircase_oracle(self, rng):
        for _ in range(50):
            dets, gts = _random_scene(rng)
            for t in (0.5, 0.75, 0.9):
                got = average_precision(dets, gts, t)
                want = average_precision_staircase(dets, gts, t)
                assert got == pytest.approx(want, abs=1e-9)

    def test_cross_image_boxes_do_not_match(self):
        gts = [GroundTruth("a", (0, 0, 10, 10))]
        dets = [Detection("b", (0, 0, 10, 10), 0.9)]
        assert average_precision(dets, gts, 0.5) == 0.0


class TestEvaluate:
    def test_map_is_mean_over_thresholds(self, rng):
        dets, gts = _random_scene(rng)
        rep = evaluate(dets, gts)
        assert rep.mean_ap == pytest.approx(np.mean(list(rep.per_threshold.values())))
        assert rep.ap50 == rep.per_threshold[0.5]
        assert len(rep.per_threshold) == 10

    def test_counts_at_50(self):
        gts = [GroundTruth("a", (0, 0, 10, 10)), GroundTruth("a", (20, 0, 30, 10))]
        dets = [
            Detection("a", (0, 0, 10, 10), 0.9),
            Detection("a", (50, 50, 60, 60), 0.8),
        ]
        rep = evaluate(dets, gts)
        assert rep.counts_at_50 == {"tp": 1, "fp": 1, "fn": 1}

    def test_degenerate_flag(self):
        rep = evaluate([], [])
        assert rep.degenerate
        assert rep.mean_ap == 0.0
        assert not evaluate([], [GroundTruth("a", (0, 0, 1, 1))]).degenerate

    def test_zero_gt_image_contributes_fp(self):
        gts = [GroundTruth("a", (0, 0, 10, 10))]
        clean = [Detection("a", (0, 0, 10, 10), 0.9)]
        noisy = clean + [Detection("b", (0, 0, 10, 10), 0.95)]
        assert evaluate(noisy, gts).ap50 < evaluate(clean, gts).ap50

    def test_report_serializes(self, rng):
        dets, gts = _random_scene(rng)
        d = evaluate(dets, gts).to_dict()
        assert set(d) == {"mAP", "mAP50", "per_threshold", "counts_at_50", "degenerate"}
        assert "0.50" in d["per_threshold"]


class TestClassAware:
    def test_cross_class_detection_is_a_false_positive(self):
        gts = [GroundTruth("a", (0, 0, 10, 10), class_id=0)]
        dets = [Detection("a", (0, 0, 10, 10), 0.9, class_id=1)]
        rep = evaluate(dets, gts)
        assert rep.ap50 == 0.0
        assert rep.counts_at_50 == {"tp": 0, "fp": 1, "fn": 1}

    def test_map_is_mean_of_single_class_aps(self, rng):
        # class 1 repeats class 0's boxes with other scores, so a matcher
        # that ignored class ids would pair the classes with each other
        dets0, gts0 = _random_scene(rng)
        dets1 = [Detection(d.image_id, d.box, float(rng.random())) for d in dets0]
        single0, single1 = evaluate(dets0, gts0), evaluate(dets1, gts0)
        both = evaluate(
            dets0 + [Detection(d.image_id, d.box, d.score, class_id=1) for d in dets1],
            gts0 + [GroundTruth(g.image_id, g.box, class_id=1) for g in gts0],
        )
        for t in COCO_THRESHOLDS:
            want = (single0.per_threshold[t] + single1.per_threshold[t]) / 2
            assert both.per_threshold[t] == pytest.approx(want, abs=1e-15)
        assert both.counts_at_50 == {
            k: single0.counts_at_50[k] + single1.counts_at_50[k] for k in ("tp", "fp", "fn")
        }


class TestJsonl:
    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text('{"image_id": "a", "bbox": [0, 0, 5, 5], "score": 0.5}\nnot json\n')
        with pytest.raises(FormatError, match="dets.jsonl:2"):
            read_detections_jsonl(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "gt.jsonl"
        p.write_text('{"image_id": "a"}\n')
        with pytest.raises(FormatError, match="gt.jsonl:1"):
            read_ground_truth_jsonl(p)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            Detection("a", (5, 5, 5, 10), 0.5)
        with pytest.raises(ValidationError, match="degenerate"):
            GroundTruth("a", (0, 0, -1, 10))

    def test_non_finite_score_or_box_rejected(self):
        for score in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="non-finite score"):
                Detection("a", (0, 0, 5, 5), score)
        for box in ((0, 0, float("inf"), 5), (float("-inf"), 0, 5, 5), (0, float("nan"), 5, 5)):
            with pytest.raises(ValidationError, match="non-finite box"):
                Detection("a", box, 0.5)
            with pytest.raises(ValidationError, match="non-finite box"):
                GroundTruth("a", box)

    def test_nan_score_fixture_raises_in_every_order(self, tmp_path):
        # a NaN-scored and a 0.5-scored copy of one box plus two misses: with
        # the NaN accepted, AP50 depended on the record order
        recs = [{"image_id": "a", "bbox": [0, 0, 10, 10], "score": float("nan")},
                {"image_id": "a", "bbox": [0, 0, 10, 10], "score": 0.5},
                {"image_id": "a", "bbox": [50, 50, 60, 60], "score": 0.7},
                {"image_id": "a", "bbox": [70, 70, 80, 80], "score": 0.3}]
        p = tmp_path / "dets.jsonl"
        for perm in itertools.permutations(range(4)):
            p.write_text("".join(json.dumps(recs[k]) + "\n" for k in perm))
            nan_line = perm.index(0) + 1
            with pytest.raises(FormatError, match=f"dets.jsonl:{nan_line}: .*non-finite score"):
                read_detections_jsonl(p)

    def test_bad_records_carry_their_location(self, tmp_path):
        p = tmp_path / "gt.jsonl"
        p.write_text('{"image_id": "a", "bbox": [0, 0, 5, 5]}\n'
                     '{"image_id": "a", "bbox": [5, 5, 5, 9]}\n')
        with pytest.raises(FormatError, match="gt.jsonl:2: .*degenerate box"):
            read_ground_truth_jsonl(p)
        p.write_text('{"image_id": "a", "bbox": [0, 0, 5, Infinity]}\n')
        with pytest.raises(FormatError, match="gt.jsonl:1: .*non-finite box"):
            read_ground_truth_jsonl(p)
        p = tmp_path / "dets.jsonl"
        p.write_text('{"image_id": "a", "bbox": [0, 0, 5, 5], "score": 0.5, "class": Infinity}\n')
        with pytest.raises(FormatError, match="dets.jsonl:1"):
            read_detections_jsonl(p)

    @pytest.mark.parametrize("cls", ["1.7", "true", "false", "-0.5", "Infinity", '"3"', "[1]", "1e30",
                                     str(2**70)])
    def test_class_must_be_an_exact_integer(self, tmp_path, cls):
        # int() would read 1.7 and true as class 1 and "3" as class 3, so a
        # wrong-class record could match; 1e30 and 2**70 overflow int64
        p = tmp_path / "r.jsonl"
        for reader, score in ((read_detections_jsonl, '"score": 0.5, '), (read_ground_truth_jsonl, "")):
            p.write_text(f'{{"image_id": "a", "bbox": [0, 0, 5, 5], {score}"class": 1}}\n'
                         f'{{"image_id": "a", "bbox": [0, 0, 5, 5], {score}"class": {cls}}}\n')
            with pytest.raises(FormatError, match=r"r.jsonl:2: .*class"):
                reader(p)

    def test_integral_class_is_read_exactly(self, tmp_path):
        p = tmp_path / "g.jsonl"
        p.write_text('{"image_id": "a", "bbox": [0, 0, 5, 5], "class": 2.0}\n'
                     '{"image_id": "a", "bbox": [0, 0, 5, 5], "class": 3}\n'
                     '{"image_id": "a", "bbox": [0, 0, 5, 5]}\n')
        assert [g.class_id for g in read_ground_truth_jsonl(p)] == [2, 3, 0]

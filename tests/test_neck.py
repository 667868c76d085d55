import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trifuse.backbone import StageFeature
from trifuse.errors import ShapeError
from trifuse.neck import (
    PYRAMID_WIDTH,
    fpn,
    fpn_param_specs,
    fpn_parts,
)
from trifuse import tensors
from trifuse.tensors import ParamStore, conv2d, init_params, param_count

from oracles import fpn_merge_float64
from test_backbone import _Reads

WIDTHS = (8, 16, 32, 64)


def _features(rng, h=80, w=104, widths=WIDTHS):
    feats = []
    for i, c in enumerate(widths):
        feats.append(StageFeature(rng.standard_normal((1, c, h >> i, w >> i)).astype(np.float32), i + 1))
    return feats


def _params(widths=WIDTHS, seed=0):
    return init_params(fpn_param_specs(widths), seed)


def _odd_features(rng, h=75, w=91, widths=WIDTHS):
    # each stage map ceil-halves the one before it
    return [
        StageFeature(rng.standard_normal((1, c, -(-h >> i), -(-w >> i))).astype(np.float32), i + 1)
        for i, c in enumerate(widths)
    ]


def _fpn_float64_merge(features, params):
    """The pyramid with every top-down merge taken by the float64 oracle."""
    lats = [conv2d(f.map, params[f"fpn.lat{f.stage}.w"], params[f"fpn.lat{f.stage}.b"]) for f in features]
    merged = [None, None, None, lats[3]]
    for i in (2, 1, 0):
        merged[i] = fpn_merge_float64(lats[i], merged[i + 1])
    outs = [
        conv2d(m, params[f"fpn.out{i + 1}.w"], params[f"fpn.out{i + 1}.b"], stride=1, pad=1)
        for i, m in enumerate(merged)
    ]
    return outs + [outs[3][:, :, ::2, ::2]]


def _bytes(state):
    """Every array of an FPN part's state or pyramid, as bytes, in order."""
    if isinstance(state, np.ndarray):
        return [state.tobytes()]
    if isinstance(state, (list, tuple)):
        return [b for s in state for b in _bytes(s)]
    return _bytes(getattr(state, "levels", None) or state.map)


def _finite_float32_pairs(rng, n):
    """Pairs of finite float32 values: random bit patterns (subnormals
    included), signed zeros, pairs whose sum overflows, and pairs whose
    exponents lie 24 to 60 apart with the mantissas random."""
    bits = rng.integers(0, 1 << 32, (2, n), dtype=np.uint64).astype(np.uint32)
    a, b = bits.view(np.float32)
    ok = np.isfinite(a) & np.isfinite(b)
    a, b = a[ok], b[ok]
    big = np.float32(np.finfo(np.float32).max)
    sub = np.float32(np.finfo(np.float32).smallest_subnormal)
    za = np.array([0.0, -0.0, 0.0, -0.0, big, -big, big, sub, -sub, sub], np.float32)
    zb = np.array([0.0, -0.0, -0.0, 0.0, big, -big, -big, sub, sub, -sub], np.float32)
    ga = (rng.uniform(1, 2, n) * 2.0 ** rng.integers(-60, 60, n)).astype(np.float32)
    gaps = rng.integers(24, 61, n)
    gb = (rng.uniform(-2, 2, n) * 2.0 ** -gaps.astype(np.float64)).astype(np.float32) * ga
    return np.concatenate([a, za, ga, gb]), np.concatenate([b, zb, gb, ga])


class TestFpn:
    def test_five_levels_fixed_width(self, rng):
        pyr = fpn(_features(rng), _params())
        assert len(pyr.levels) == 5
        assert all(lvl.shape[1] == PYRAMID_WIDTH for lvl in pyr.levels)

    def test_extra_level_is_strided_subsample(self, rng):
        pyr = fpn(_features(rng), _params())
        assert np.array_equal(pyr.levels[4], pyr.levels[3][:, :, ::2, ::2])

    def test_odd_sizes_ceil(self, rng):
        feats = _odd_features(rng)
        pyr = fpn(feats, _params())
        assert pyr.levels[0].shape[2:] == (75, 91)
        assert pyr.levels[4].shape[2:] == ((feats[3].map.shape[2] + 1) // 2,
                                           (feats[3].map.shape[3] + 1) // 2)

    @pytest.mark.parametrize("odd", [False, True])
    def test_bitwise_as_float64_merge(self, rng, odd):
        feats = _odd_features(rng) if odd else _features(rng)
        params = _params(seed=3)
        got = fpn(feats, params).levels
        want = _fpn_float64_merge(feats, params)
        assert [g.shape for g in got] == [w_.shape for w_ in want]
        for g, w_ in zip(got, want):
            assert g.dtype == np.float32 and g.tobytes() == np.ascontiguousarray(w_).tobytes()

    def test_merge_holds_no_whole_map_float64_buffer(self, rng):
        # the default B1 stage shapes: 320x416 input, widths 64..512
        widths = (64, 128, 320, 512)
        feats = _features(rng, 80, 104, widths)
        params = _params(widths)
        tracemalloc.start()
        try:
            levels = fpn(feats, params).levels
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(lvl.nbytes for lvl in levels)
        laterals = sum(lvl.nbytes for lvl in levels[:4])
        weights64 = PYRAMID_WIDTH * PYRAMID_WIDTH * 9 * 8
        # the outputs, the laterals, one band of im2col columns and the
        # float64 3x3 weights; a float64 stride-4 map (17 MB) or a padded
        # copy of the merged stride-4 map (8.9 MB) would not fit beside them
        assert peak <= outputs + laterals + tensors._COL_BAND_BYTES + weights64

    def test_top_level_ignores_lower_stages(self, rng):
        # the stride-32 output depends only on the stage-4 feature
        params = _params()
        f1 = _features(rng)
        f2 = _features(rng)
        f2[3] = f1[3]
        p1, p2 = fpn(f1, params), fpn(f2, params)
        assert np.array_equal(p1.levels[3], p2.levels[3])
        assert not np.array_equal(p1.levels[0], p2.levels[0])

    def test_top_down_sum_with_identity_weights(self, rng):
        # identity laterals and center-tap identity smoothers reduce the FPN
        # to plain nearest-upsample addition, checked on constant maps
        widths = (256, 256, 256, 256)
        arrays = {}
        eye1 = np.eye(256, dtype=np.float32).reshape(256, 256, 1, 1)
        eye3 = np.zeros((256, 256, 3, 3), np.float32)
        eye3[:, :, 1, 1] = np.eye(256, dtype=np.float32)
        for i in range(1, 5):
            arrays[f"fpn.lat{i}.w"] = eye1.copy()
            arrays[f"fpn.lat{i}.b"] = np.zeros(256, np.float32)
            arrays[f"fpn.out{i}.w"] = eye3.copy()
            arrays[f"fpn.out{i}.b"] = np.zeros(256, np.float32)
        feats = [
            StageFeature(np.full((1, 256, 8 >> i, 8 >> i), float(i + 1), np.float32), i + 1)
            for i in range(4)
        ]
        pyr = fpn(feats, ParamStore(arrays))
        # interior pixels see the full cascade: 1 + (2 + (3 + 4))
        assert pyr.levels[0][0, 0, 2, 2] == 10.0
        assert pyr.levels[3][0, 0, 0, 0] == 4.0

    def test_wrong_feature_count(self, rng):
        with pytest.raises(ShapeError, match="4 stage"):
            fpn(_features(rng)[:3], _params())

    def test_out_of_order_stages_rejected(self, rng):
        feats = _features(rng)
        feats[1:3] = feats[2], feats[1]
        with pytest.raises(ShapeError, match=r"stages 1-4 in order, got stages \[1, 3, 2, 4\]$"):
            fpn(feats, _params())

    def test_each_part_reads_exactly_its_declared_specs(self, rng):
        # a grid node is given its part's declared arrays and no others
        state = _features(rng, 16, 24)
        parts = fpn_parts(WIDTHS)
        for name, specs, part in parts:
            store = _Reads(specs)
            state = part(state, store)
            assert len(store) == len(specs), name  # no name declared twice
            assert store.read == set(store.names()), name
        assert sorted(s.name for _, specs, _ in parts for s in specs) == sorted(s.name for s in fpn_param_specs(WIDTHS))

    def test_parts_leave_their_input_unchanged(self, rng):
        # a grid node times its part by calling it again on the same state
        params = _params(seed=1)
        state = _features(rng, 16, 24)
        for _, _, part in fpn_parts(WIDTHS):
            before = copy.deepcopy(state)
            first, again = part(state, params), part(state, params)
            assert _bytes(state) == _bytes(before)
            assert _bytes(first) == _bytes(again)
            state = first

    def test_param_count_closed_form(self):
        want = sum(256 * c + 256 + 256 * 256 * 9 + 256 for c in WIDTHS)
        assert param_count(fpn_param_specs(WIDTHS)) == want


F32_VALUES = st.floats(width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestFloat32Add:
    """The FPN merge adds in float32 where it used to add in float64 and
    round: the same bits, because float64 has more than 2 * 24 + 2
    mantissa bits, so rounding the exact sum twice equals rounding it once."""

    @staticmethod
    def _check(a, b):
        with np.errstate(over="ignore"):
            want = (a.astype(np.float64) + b.astype(np.float64)).astype(np.float32)
            assert (a + b).tobytes() == want.tobytes()

    def test_structured_pairs(self, rng):
        self._check(*_finite_float32_pairs(rng, 200_000))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=F32_VALUES, b=F32_VALUES)
    def test_any_two_finite_values(self, a, b):
        self._check(np.array([a, -a], np.float32), np.array([b, b], np.float32))

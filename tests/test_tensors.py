import tracemalloc

import numpy as np
import pytest

from trifuse import tensors
from trifuse.errors import ConfigError, ShapeError
from trifuse.tensors import (
    ParamSpec,
    attention,
    conv2d,
    gelu,
    linear,
    global_avg_pool,
    global_max_pool,
    init_params,
    layer_norm,
    param_count,
    sigmoid,
    to_map,
    to_tokens,
)

from oracles import (
    attention_naive,
    conv2d_loops,
    depthwise_nchw_taps,
    gelu_expression,
    layer_norm_two_pass,
    layer_norm_var_pass,
    linear_add_then_cast,
    trunc_normal_full_retest,
)


class TestConv2d:
    def test_ones_kernel_center(self):
        x = np.ones((1, 1, 3, 3), np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        out = conv2d(x, w, stride=1, pad=1)
        assert out[0, 0, 1, 1] == 9.0

    def test_identity_1x1(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1), np.float32)
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        assert np.array_equal(conv2d(x, w), x)

    def test_depthwise_vs_loop_oracle(self, rng):
        x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = conv2d(x, w, b, stride=1, pad=1, groups=4)
        want = conv2d_loops(x, w, b, stride=1, pad=1, groups=4)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("tokens", [False, True])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("bsz", [1, 2])
    def test_depthwise_bitwise_as_nchw_tap_loop(self, rng, monkeypatch, bsz, pad, bias, tokens):
        # bands of 2 output rows: 9 or 7 rows make full bands and a partial one
        c, h, w = 6, 9, 7
        ho, wo = h + 2 * pad - 2, w + 2 * pad - 2
        monkeypatch.setattr(tensors, "_DW_BAND_BYTES", 2 * wo * c * 8)
        # magnitudes spread over 2**+-30, so the float64 sums round and the
        # order of the taps shows in the result
        x = (rng.standard_normal((bsz, c, h, w)) * 2.0 ** rng.integers(-30, 30, (bsz, c, h, w))).astype(np.float32)
        wt = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
        # every tap product of channel 1 near the corner is -0.0, so only a
        # sum started from +0.0 gives +0.0 there
        x[:, :, :4, :4] = 0.0
        wt[1] = -np.abs(wt[1])
        # in (dy, dx) order 2**60 absorbs the 1 before -2**60 cancels it; in
        # (dx, dy) order the 1 survives
        x[:, 2, 4:6, 4:6] = [[2.0**60, 1.0], [-2.0**60, 0.0]]
        wt[2] = 1.0
        b = rng.standard_normal(c).astype(np.float32) if bias else None
        want = depthwise_nchw_taps(x, wt, b, pad=pad)
        if tokens:
            # a token matrix viewed as a map, as mix_ffn and bite pass it
            x = to_tokens(x).transpose(0, 2, 1).reshape(bsz, c, h, w)
            assert not x.flags.c_contiguous
        got = conv2d(x, wt, b, stride=1, pad=pad, groups=c)
        assert got.shape == want.shape == (bsz, c, ho, wo) and got.dtype == np.float32
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert np.shares_memory(to_tokens(got), got)  # the tokens are free

    @pytest.mark.parametrize("stride", [2, 3])
    def test_depthwise_strided_and_one_input_channel(self, rng, monkeypatch, stride):
        # one input channel broadcast against four output channels, as a
        # patch embed on a one-channel stream runs it; bands of one row
        monkeypatch.setattr(tensors, "_DW_BAND_BYTES", 1)
        for cin, cout in ((5, 5), (1, 4)):
            x = rng.standard_normal((2, cin, 11, 8)).astype(np.float32)
            wt = rng.standard_normal((cout, 1, 3, 3)).astype(np.float32)
            b = rng.standard_normal(cout).astype(np.float32)
            got = conv2d(x, wt, b, stride=stride, pad=1, groups=cin)
            want = depthwise_nchw_taps(x, wt, b, stride=stride, pad=1)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_depthwise_memory_is_padded_input_plus_two_bands(self, rng):
        # the B1 stage-1 Mix-FFN depthwise conv: 256 channels at 80 x 104,
        # passed as a token view
        c, h, w = 256, 80, 104
        x = rng.standard_normal((1, h * w, c)).astype(np.float32).transpose(0, 2, 1).reshape(1, c, h, w)
        wt = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
        b = rng.standard_normal(c).astype(np.float32)
        tracemalloc.start()
        try:
            out = conv2d(x, wt, b, stride=1, pad=1, groups=c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = (h + 2) * (w + 2) * c * 4
        # a full-size float64 accumulator alone would be 2 * out.nbytes
        assert peak <= out.nbytes + padded + 2 * tensors._DW_BAND_BYTES

    @pytest.mark.parametrize("stride,pad,groups", [(1, 0, 1), (2, 1, 1), (2, 3, 1)])
    def test_general_vs_loop_oracle(self, rng, stride, pad, groups):
        x = rng.standard_normal((1, 4, 7, 6)).astype(np.float32)
        w = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
        got = conv2d(x, w, stride=stride, pad=pad, groups=groups)
        want = conv2d_loops(x, w, stride=stride, pad=pad, groups=groups)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-6

    def test_output_size_formula(self, rng):
        x = rng.standard_normal((1, 3, 20, 26)).astype(np.float32)
        w = rng.standard_normal((8, 3, 7, 7)).astype(np.float32)
        out = conv2d(x, w, stride=4, pad=3)
        assert out.shape == (1, 8, (20 + 6 - 7) // 4 + 1, (26 + 6 - 7) // 4 + 1)

    @pytest.mark.parametrize("stride", [1, 2, 4, 8])
    def test_banded_dense_vs_loop_oracle(self, rng, monkeypatch, stride):
        # bands of 3 output rows (2 x 45 x 10 float64 columns per row):
        # 11 rows make three full bands and a partial one
        monkeypatch.setattr(tensors, "_COL_BAND_BYTES", 3 * 2 * 45 * 10 * 8)
        x = rng.standard_normal((2, 5, 10 * stride + 1, 9 * stride + 1)).astype(np.float32)
        w = rng.standard_normal((4, 5, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = conv2d(x, w, b, stride=stride, pad=1)
        want = conv2d_loops(x, w, b, stride=stride, pad=1)
        assert got.shape == want.shape == (2, 4, 11, 10)
        assert np.abs(got - want).max() < 1e-6

    def test_banded_dense_equals_one_shot_im2col(self, rng):
        # the FPN stride-8 3x3 conv: 40 output rows of 2304 x 52 columns
        # take five bands of 8 rows with 8 MB bands
        cin, cout, h, wid = 256, 256, 40, 52
        assert 40 * 2304 * 52 * 8 > 2 * tensors._COL_BAND_BYTES
        x = rng.standard_normal((1, cin, h, wid)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        cols = np.empty((1, 3, 3, cin, h, wid), np.float64)
        for dy in range(3):
            for dx in range(3):
                cols[:, dy, dx] = xp[:, :, dy : dy + h, dx : dx + wid]
        wmat = w.astype(np.float64).transpose(0, 2, 3, 1).reshape(cout, 9 * cin)
        want = np.matmul(wmat, cols.reshape(1, 9 * cin, h * wid)).reshape(1, cout, h, wid)
        want += b.astype(np.float64).reshape(1, cout, 1, 1)
        assert np.array_equal(conv2d(x, w, b, stride=1, pad=1), want.astype(np.float32))

    def test_dense_product_is_banded_too(self, rng, monkeypatch):
        # the FPN stride-4 lateral, 64 -> 256 at 80 x 104, with 1 MB bands:
        # its float64 product per output row is 4x its columns
        monkeypatch.setattr(tensors, "_COL_BAND_BYTES", 1 << 20)
        x = rng.standard_normal((1, 64, 80, 104)).astype(np.float32)
        w = rng.standard_normal((256, 64, 1, 1)).astype(np.float32)
        tracemalloc.start()
        try:
            out = conv2d(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * tensors._COL_BAND_BYTES + w.size * 8

    def test_shape_mismatch_diagnostics(self, rng):
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError, match="channels per group"):
            conv2d(x, w)
        # dense and depthwise are the only groupings: a channel multiplier
        # and a grouped conv are shape errors
        for shape, groups in (((4, 1, 3, 3), 3), ((8, 1, 3, 3), 4), ((6, 2, 3, 3), 2)):
            with pytest.raises(ShapeError, match=f"got groups {groups} with Cin 4, Cout {shape[0]}"):
                conv2d(x, np.ones(shape, np.float32), groups=groups)
        with pytest.raises(ShapeError, match="smaller than kernel"):
            conv2d(np.ones((1, 1, 2, 2), np.float32), np.ones((1, 1, 3, 3), np.float32))


class TestLayerNorm:
    def test_constant_token_is_zero(self):
        t = np.full((1, 2, 8), 3.7, np.float32)
        out = layer_norm(t, np.ones(8, np.float32), np.zeros(8, np.float32), eps=1e-6)
        assert np.abs(out).max() < 1e-3  # variance 0 absorbed by eps

    def test_two_value_token(self):
        t = np.array([[[1.0, 3.0]]], np.float32)
        out = layer_norm(t, np.ones(2, np.float32), np.zeros(2, np.float32), eps=1e-12)
        assert np.allclose(out, [[[-1.0, 1.0]]], atol=1e-5)

    def test_vs_two_pass_oracle(self, rng):
        t = rng.standard_normal((2, 5, 16)).astype(np.float32)
        g = rng.standard_normal(16).astype(np.float32)
        b = rng.standard_normal(16).astype(np.float32)
        got = layer_norm(t, g, b, eps=1e-6)
        want = layer_norm_two_pass(t, g, b, 1e-6)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_as_separate_var_pass(self, rng, dtype):
        t = (rng.standard_normal((2, 37, 64)) * 3 + 1).astype(dtype)
        g = rng.standard_normal(64).astype(np.float32)
        b = rng.standard_normal(64)  # float64 affine is rounded to float32
        got = layer_norm(t, g, b)
        assert got.dtype == np.float32
        assert got.tobytes() == layer_norm_var_pass(t, g, b, 1e-6).tobytes()

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            layer_norm(np.zeros((1, 1, 4), np.float32), np.ones(4), np.zeros(4), eps=0.0)

    def test_mean_zero_var_one_pre_affine(self, rng):
        t = rng.standard_normal((3, 7, 32)).astype(np.float32)
        out = layer_norm(t, np.ones(32, np.float32), np.zeros(32, np.float32), eps=1e-10)
        assert np.abs(out.mean(axis=-1)).max() < 1e-5
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


class TestElementwiseAndPools:
    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_gelu_fixed_points(self):
        assert gelu(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
        assert abs(float(gelu(np.array([1.0]))[0]) - 0.8413447) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bitwise_as_expression(self, rng, dtype):
        f32 = np.finfo(np.float32)
        edges = [0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal, 7 * f32.smallest_subnormal,
                 f32.smallest_normal / 3, -f32.smallest_normal / 5, f32.smallest_normal,
                 10.0, -10.0, 10.5, -10.5, 27.25, -27.25, 1e20, -1e20, f32.max, -f32.max]
        if dtype is np.float64:
            edges += [5e-324, -5e-324, 1e-310, -1e-310]
        spread = rng.standard_normal(2000) * 2.0 ** rng.integers(-140, 100, 2000)
        x = np.concatenate([edges, rng.standard_normal(4000) * 4, spread]).astype(dtype).reshape(2, 1, -1)
        got = gelu(x)
        assert got.dtype == np.float32 and got.shape == x.shape
        assert got.tobytes() == gelu_expression(x).tobytes()

    def test_gelu_holds_two_output_sized_buffers(self, rng):
        # the B1 stage-1 Mix-FFN hidden tokens
        x = rng.standard_normal((1, 8320, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            out = gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes + (64 << 10)

    def test_avg_pool_constant(self):
        x = np.full((2, 3, 4, 5), 2.5, np.float32)
        assert np.array_equal(global_avg_pool(x), np.full((2, 3), 2.5, np.float32))

    def test_max_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        assert np.array_equal(global_max_pool(x), x.max(axis=(2, 3)))


class TestTokenReshape:
    def test_roundtrip_bitwise(self, rng):
        for shape in [(1, 1, 1, 1), (2, 7, 3, 5), (4, 64, 56, 56)]:
            x = rng.standard_normal(shape).astype(np.float32)
            t = to_tokens(x)
            assert t.shape == (shape[0], shape[2] * shape[3], shape[1])
            assert np.array_equal(to_map(t, shape[2], shape[3]), x)

    def test_bad_rank(self):
        with pytest.raises(ShapeError):
            to_tokens(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            to_map(np.zeros((1, 6, 2)), 2, 2)


class TestLinear:
    @pytest.mark.parametrize("bias", [False, True])
    def test_bitwise_as_add_then_cast(self, rng, bias):
        t = rng.standard_normal((2, 33, 24)).astype(np.float32)
        w = rng.standard_normal((24, 40)).astype(np.float32)
        b = rng.standard_normal(40).astype(np.float32) if bias else None
        got = linear(t, w, b)
        assert got.dtype == np.float32
        assert got.tobytes() == linear_add_then_cast(t, w, b).tobytes()

    @pytest.mark.parametrize("bias", [False, True])
    def test_row_bands_bitwise_as_add_then_cast(self, rng, monkeypatch, bias):
        # bands of 7 rows: 66 rows make nine full bands and a partial one,
        # read from a transposed view as well as from contiguous tokens
        monkeypatch.setattr(tensors, "_LINEAR_BAND_ROWS", 7)
        t = rng.standard_normal((2, 33, 24)).astype(np.float32)
        w = rng.standard_normal((24, 40)).astype(np.float32)
        b = rng.standard_normal(40).astype(np.float32) if bias else None
        want = linear_add_then_cast(t, w, b).tobytes()
        assert linear(t, w, b).tobytes() == want
        view = np.ascontiguousarray(t.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert linear(view, w, b).tobytes() == want

    def test_memory_is_output_plus_one_band(self, rng):
        # the B1 stage-1 Mix-FFN fc1: 8,320 tokens, 64 -> 256
        n, cin, cout = 8320, 64, 256
        t = rng.standard_normal((1, n, cin)).astype(np.float32)
        w = rng.standard_normal((cin, cout)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        tracemalloc.start()
        try:
            out = linear(t, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band = tensors._LINEAR_BAND_ROWS * (cin + cout) * 8
        # a float64 copy of the input and a whole float64 product would be
        # 21.3 MB beside the 8.5 MB output
        assert n > tensors._LINEAR_BAND_ROWS
        # slack for the buffers of the casting store
        assert peak <= out.nbytes + band + w.size * 8 + (256 << 10) < out.nbytes + n * (cin + cout) * 8


class TestAttentionHelper:
    @pytest.mark.parametrize("chunk", [1, 3, 128, 200])
    def test_query_blocks_vs_naive(self, rng, chunk):
        # 131 queries: a partial last block for chunk 3 and 128, one block for 200
        q = rng.standard_normal((2, 131, 16)).astype(np.float32)
        k = rng.standard_normal((2, 37, 16)).astype(np.float32)
        v = rng.standard_normal((2, 37, 8)).astype(np.float32)
        got = attention(q, k, v, 0.25, chunk=chunk)
        want = attention_naive(q, k, v, 0.25)
        assert got.shape == (2, 131, 8)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("heads", [1, 4])
    def test_multi_head_batches_vs_naive(self, rng, heads):
        # heads ride the batch axis, as sra_attention folds them
        b, n, nk, d = 2, 70, 45, 8
        q = rng.standard_normal((b * heads, n, d)).astype(np.float32)
        k = rng.standard_normal((b * heads, nk, d)).astype(np.float32)
        v = rng.standard_normal((b * heads, nk, d)).astype(np.float32)
        got = attention(q, k, v, 1.0 / np.sqrt(d), chunk=32)
        assert got.dtype == np.float32 and got.shape == (b * heads, n, d)
        assert np.abs(got - attention_naive(q, k, v, 1.0 / np.sqrt(d))).max() < 1e-6

    def test_holds_no_float64_buffer_the_size_of_its_output(self, rng):
        b, nq, nk, d, dv = 2, 4000, 300, 8, 64
        q = rng.standard_normal((b, nq, d)).astype(np.float32)
        k = rng.standard_normal((b, nk, d)).astype(np.float32)
        v = rng.standard_normal((b, nk, dv)).astype(np.float32)
        tracemalloc.start()
        try:
            out = attention(q, k, v, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # float64 K^T and V with its ones column, the float32 output, and per
        # query block the scores plus smaller query and PV blocks
        held = k.size * 8 + b * nk * (dv + 1) * 8 + out.nbytes
        block = b * 128 * nk * 8
        assert peak <= held + 2 * block < held + b * nq * dv * 8

    def test_single_key_returns_its_value(self, rng):
        q = rng.standard_normal((3, 10, 4)).astype(np.float32)
        k = rng.standard_normal((3, 1, 4)).astype(np.float32)
        v = rng.standard_normal((3, 1, 5)).astype(np.float32)
        got = attention(q, k, v, 0.5, chunk=4)
        assert np.array_equal(got, np.broadcast_to(v, (3, 10, 5)))

    def test_scores_near_700_stay_finite(self, rng):
        # exp(+-750) overflows or underflows float64 without the row-max shift
        q = rng.standard_normal((2, 20, 8)).astype(np.float32)
        k = rng.standard_normal((2, 30, 8)).astype(np.float32)
        v = rng.standard_normal((2, 30, 6)).astype(np.float32)
        raw = np.matmul(q.astype(np.float64), k.astype(np.float64).transpose(0, 2, 1))
        scale = 750.0 / np.abs(raw).max()
        got = attention(q, k, v, scale, chunk=7)
        want = attention_naive(q, k, v, scale)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() < 1e-6

    def test_rows_empty_under_the_bound_are_shifted_by_their_max(self, rng):
        # |q| |k| = 1600 while q.k stays within about +-20: shifted by the
        # bound every weight of those rows underflows to 0.  Half the rows
        # are small, so a block mixes both kinds
        b, nq, nk, d = 2, 40, 50, 8
        q = rng.standard_normal((b, nq, d)) * 0.1
        k = rng.standard_normal((b, nk, d)) * 0.1
        q[:, ::2, 0] += 40.0
        k[..., 1] += 40.0
        v = rng.standard_normal((b, nk, 6)).astype(np.float32)
        q, k = q.astype(np.float32), k.astype(np.float32)
        bound = np.linalg.norm(q.astype(np.float64), axis=-1).max() * np.linalg.norm(k.astype(np.float64), axis=-1).max()
        assert bound > 1500
        got = attention(q, k, v, 1.0, chunk=16)
        assert np.isfinite(got).all()
        assert np.abs(got - attention_naive(q, k, v, 1.0)).max() < 1e-6

    def test_ragged_last_key_tile_vs_naive(self, rng):
        nk = tensors._KEY_TILE + 37
        q = rng.standard_normal((2, 50, 16)).astype(np.float32)
        k = rng.standard_normal((2, nk, 16)).astype(np.float32)
        v = rng.standard_normal((2, nk, 8)).astype(np.float32)
        got = attention(q, k, v, 0.25, chunk=32)
        assert np.abs(got - attention_naive(q, k, v, 0.25)).max() < 1e-6

    def test_long_keys_hold_one_score_tile(self, rng):
        b, nq, nk, d, dv = 1, 256, 8 * tensors._KEY_TILE, 8, 8
        q = rng.standard_normal((b, nq, d)).astype(np.float32)
        k = rng.standard_normal((b, nk, d)).astype(np.float32)
        v = rng.standard_normal((b, nk, dv)).astype(np.float32)
        tracemalloc.start()
        try:
            out = attention(q, k, v, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # float64 K^T with its ones row, V with its ones column, the float32
        # output and one score tile, plus small query and PV blocks; a block
        # of all Nk scores would be 16 MB
        held = b * nk * (d + 1) * 8 + b * nk * (dv + 1) * 8 + out.nbytes
        tile = b * 128 * tensors._KEY_TILE * 8
        assert peak <= held + tile + (256 << 10) < held + b * 128 * nk * 8


class TestParams:
    SPECS = [
        ParamSpec("conv.w", (8, 4, 3, 3), "weight"),
        ParamSpec("conv.b", (8,), "bias"),
        ParamSpec("norm.g", (8,), "scale"),
    ]

    def test_kinds(self):
        p = init_params(self.SPECS, 0)
        assert np.all(p["conv.b"] == 0)
        assert np.all(p["norm.g"] == 1)
        assert np.abs(p["conv.w"]).max() <= 0.04 + 1e-9  # truncated at 2 std

    # (301, 700) spans three full draw bands and a partial one
    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (3, 4, 5), (64, 64), (8, 4, 3, 3), (301, 700)])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    @pytest.mark.parametrize("bound", [2.0, 0.5, 0.05])  # 0.05 runs out of rounds
    def test_trunc_normal_bitwise_as_full_retest(self, shape, seed, bound):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = tensors.trunc_normal(got_rng, shape, bound=bound)
        want = trunc_normal_full_retest(want_rng, shape, bound=bound)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_rng.standard_normal() == want_rng.standard_normal()  # same number of draws

    def test_conv_param_count_formula(self):
        # Cin*Cout*k^2 + Cout, cross-checked by enumerating scalars
        cin, cout, k = 4, 8, 3
        specs = [ParamSpec("w", (cout, cin, k, k), "weight"), ParamSpec("b", (cout,), "bias")]
        store = init_params(specs, 0)
        enumerated = sum(store[n].size for n in store.names())
        assert param_count(specs) == enumerated == cin * cout * k * k + cout

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            init_params([ParamSpec("a", (1,), "bias"), ParamSpec("a", (2,), "bias")], 0)

    def test_store_immutable(self):
        p = init_params(self.SPECS, 0)
        with pytest.raises(ValueError):
            p["conv.w"][0, 0, 0, 0] = 5.0

    def test_repeated_calls_bitwise_identical(self, rng):
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        assert np.array_equal(conv2d(x, w, pad=1), conv2d(x, w, pad=1))

import tracemalloc

import numpy as np
import pytest

from trifuse import fusion, tensors
from trifuse.errors import ConfigError, ShapeError
from trifuse.fusion import (
    FusionConfig,
    apply_fusion,
    bite,
    bite_specs,
    channel_scores,
    cssa,
    cssa_specs,
    cssa_switch,
    fusion_param_specs,
    gaff,
    gaff_specs,
    mage,
    mage_only_specs,
    mage_specs,
)
from trifuse.tensors import ParamStore, attention, init_params, linear, param_count, to_map, to_tokens

from oracles import depthwise_nchw_taps

C = 8


def _pair(rng, b=2, c=C, h=6, w=5):
    xa = rng.standard_normal((b, c, h, w)).astype(np.float32)
    xb = rng.standard_normal((b, c, h, w)).astype(np.float32)
    return xa, xb


def _params(cfg, c=C, seed=0):
    return init_params(fusion_param_specs(cfg, c, "f"), seed)


class TestFusionConfig:
    def test_unknown_mechanism(self):
        with pytest.raises(ConfigError, match="mechanism"):
            FusionConfig(mechanism="concat")

    def test_stage_range(self):
        with pytest.raises(ConfigError, match="stages"):
            FusionConfig(stages=frozenset({0, 1}))

    def test_none_clears_stages(self):
        cfg = FusionConfig(mechanism="none", stages=frozenset({1, 2, 3, 4}))
        assert cfg.stages == frozenset()

    def test_tau_bounds(self):
        with pytest.raises(ConfigError, match="tau"):
            FusionConfig(tau=1.5)

    def test_se_ratio_choices(self):
        with pytest.raises(ConfigError, match="se_ratio"):
            FusionConfig(se_ratio=3)

    def test_guidance_and_merge_choices(self):
        with pytest.raises(ConfigError, match="guidance"):
            FusionConfig(guidance="mixed")
        with pytest.raises(ConfigError, match="merge"):
            FusionConfig(merge="add")


class TestMage:
    def test_zero_gates_bitwise_identity(self, rng):
        xa, xb = _pair(rng)
        params = init_params(mage_specs(C, "f"), 3)
        for kw in ({"force_spatial": 0.0}, {"force_channel": 0.0}):
            ra, rb, _ = mage(xa, xb, params, "f", **kw)
            assert np.array_equal(ra, xa) and ra is not xa
            assert np.array_equal(rb, xb) and rb is not xb

    def test_gate_shapes_and_ranges(self, rng):
        xa, xb = _pair(rng, b=3, h=4, w=7)
        params = init_params(mage_specs(C, "f"), 11)
        ra, rb, gates = mage(xa, xb, params, "f")
        assert ra.shape == xa.shape and rb.shape == xb.shape
        assert gates.ch_b_to_a.shape == (3, C, 1, 1)
        assert gates.sp_b_to_a.shape == (3, 1, 4, 7)
        for g in (gates.ch_b_to_a, gates.ch_a_to_b, gates.sp_b_to_a, gates.sp_a_to_b):
            assert g.min() >= 0.0 and g.max() <= 1.0

    def test_mismatched_streams(self, rng):
        xa, _ = _pair(rng)
        params = init_params(mage_specs(C, "f"), 0)
        with pytest.raises(ShapeError, match="differ"):
            mage(xa, xa[:, :, :, :3], params, "f")

    def test_param_count_closed_form(self):
        # widths: trunk 16->4, two 4->8 heads, spatial 16->4->2, each with bias
        assert param_count(mage_specs(C, "f")) == 226


class TestBite:
    def test_output_shape_and_determinism(self, rng):
        xa, xb = _pair(rng)
        params = init_params(bite_specs(C, "f"), 5)
        out = bite(xa, xb, params, "f")
        assert out.shape == xa.shape
        assert np.array_equal(out, bite(xa, xb, params, "f"))

    def test_zero_value_paths_reduce_to_merge_of_inputs(self, rng):
        # with V projections zeroed the cross-attention adds nothing, so the
        # block is just depthwise+pointwise over concat(xa, xb)
        xa, xb = _pair(rng)
        base = init_params(bite_specs(C, "f"), 5)
        arrays = {n: base[n].copy() for n in base.names()}
        for s in ("a", "b"):
            arrays[f"f.bite.{s}.v.w"] = np.zeros((C, C), np.float32)
        params = ParamStore(arrays)
        got = bite(xa, xb, params, "f")
        also = bite(xa + 0, xb + 0, params, "f")
        assert np.array_equal(got, also)
        # swapping only the unused q/k weights of one stream changes nothing
        arrays2 = dict(arrays)
        arrays2["f.bite.a.q.w"] = arrays["f.bite.a.q.w"] * 2.0
        assert np.array_equal(got, bite(xa, xb, ParamStore(arrays2), "f"))

    def test_bitwise_as_map_layout(self, rng):
        xa, xb = _pair(rng)
        params = ParamStore({s.name: rng.standard_normal(s.shape).astype(np.float32) for s in bite_specs(C, "f")})
        ta, tb = to_tokens(xa), to_tokens(xb)

        def lin(t, n):
            return linear(t, params[f"f.bite.{n}.w"], params[f"f.bite.{n}.b"])

        scale = 1.0 / np.sqrt(C)
        ta_up = ta + attention(lin(ta, "a.q"), lin(tb, "b.k"), lin(tb, "b.v"), scale)
        tb_up = tb + attention(lin(tb, "b.q"), lin(ta, "a.k"), lin(ta, "a.v"), scale)
        z = to_map(np.concatenate([ta_up, tb_up], axis=2), 6, 5)
        z = depthwise_nchw_taps(z, params["f.bite.dw.w"], params["f.bite.dw.b"], pad=1)
        want = to_map(lin(to_tokens(z), "proj"), 6, 5)
        assert bite(xa, xb, params, "f").tobytes() == want.tobytes()

    def test_each_buffer_dropped_after_its_last_reader(self, rng, monkeypatch):
        # the default B1's stage-1 BiTE: 64 channels at 80 x 104.  Live
        # traced memory, in token matrices, as each attention and the merge
        # conv start; the (N, 2C) sum of the updated streams counts two.
        # Counted as each call starts, so an attention stub of the right
        # shape stands in for the two 8,320-token attentions
        xa, xb = _pair(rng, b=1, c=64, h=80, w=104)
        params = ParamStore({s.name: rng.standard_normal(s.shape).astype(np.float32) for s in bite_specs(64, "f")})
        live = []

        def attention(q, k, v, scale):
            return np.zeros(q.shape[:-1] + v.shape[-1:], np.float32)

        for module, name, real in ((fusion, "attention", attention), (tensors, "conv2d", tensors.conv2d)):
            def watched(*args, _real=real, **kwargs):
                live.append(tracemalloc.get_traced_memory()[0])
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, watched)
        tracemalloc.start()
        try:
            bite(xa, xb, params, "f")
        finally:
            tracemalloc.stop()
        # first attention: both streams' tokens, the sum, and its q, k, v;
        # second: stream b's tokens, the sum, and its q, k, v; conv: the sum
        assert [m // xa.nbytes for m in live] == [7, 6, 2]

    def test_param_count_closed_form(self):
        # 6 C->C projections, depthwise 3x3 on 2C, pointwise 2C->C
        assert param_count(bite_specs(C, "f")) == 8 * C * C + 27 * C == 728


class TestCssa:
    def test_scores_in_open_unit_interval(self, rng):
        xa, _ = _pair(rng)
        params = init_params(cssa_specs(C, "f"), 7)
        s = channel_scores(xa, params, "f", "a")
        assert s.shape == (2, C)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_output_is_convex_blend(self, rng):
        xa, xb = _pair(rng)
        params = init_params(cssa_specs(C, "f"), 7)
        out = cssa(xa, xb, params, "f", tau=0.5)
        sa = channel_scores(xa, params, "f", "a")
        sb = channel_scores(xb, params, "f", "b")
        sw_a, sw_b, _, _ = cssa_switch(xa, xb, sa, sb, 0.5)
        lo = np.minimum(sw_a, sw_b)
        hi = np.maximum(sw_a, sw_b)
        assert np.all(out >= lo - 1e-6) and np.all(out <= hi + 1e-6)

    def test_diagnostics(self, rng):
        xa, xb = _pair(rng)
        params = init_params(cssa_specs(C, "f"), 7)
        diag = {}
        cssa(xa, xb, params, "f", tau=0.5, diag=diag)
        assert 0.0 <= diag["swap_fraction"][0] <= 1.0
        assert 0.0 < diag["spatial_mask_mean"][0] < 1.0

    def test_param_count_closed_form(self):
        assert param_count(cssa_specs(C, "f")) == C * C + C + 9 == 81


class TestGaff:
    def _specs(self, **kw):
        return gaff_specs(C, "f", **kw)

    def test_saturated_se_and_dead_guidance_pass_first_stream(self, rng):
        # excitation biased to sigmoid(100) == 1.0 and guidance to 0.0, with an
        # identity top block in the merge, reduces the whole block to xa
        xa, xb = _pair(rng)
        arrays = {}
        for s in ("a", "b"):
            arrays[f"f.gaff.{s}.se.fc1.w"] = np.zeros((C, C // 4), np.float32)
            arrays[f"f.gaff.{s}.se.fc1.b"] = np.zeros(C // 4, np.float32)
            arrays[f"f.gaff.{s}.se.fc2.w"] = np.zeros((C // 4, C), np.float32)
            arrays[f"f.gaff.{s}.se.fc2.b"] = np.full(C, 100.0, np.float32)
            arrays[f"f.gaff.guide_{s}.w"] = np.zeros((C, 1), np.float32)
            arrays[f"f.gaff.guide_{s}.b"] = np.full(1, -100.0, np.float32)
        merge = np.zeros((2 * C, C), np.float32)
        merge[:C] = np.eye(C, dtype=np.float32)
        arrays["f.gaff.merge.w"] = merge
        arrays["f.gaff.merge.b"] = np.zeros(C, np.float32)
        out = gaff(xa, xb, ParamStore(arrays), "f")
        assert np.array_equal(out, xa)

    def test_param_counts_closed_form(self):
        assert param_count(self._specs()) == 238  # separate guidance, direct merge
        assert param_count(self._specs(guidance="shared")) == 229
        assert param_count(self._specs(merge="bottleneck")) == 210

    def test_se_ratio_divisibility(self):
        with pytest.raises(ConfigError, match="se_ratio"):
            gaff_specs(6, "f", se_ratio=4)

    def test_diagnostics(self, rng):
        xa, xb = _pair(rng)
        params = init_params(self._specs(), 2)
        diag = {}
        gaff(xa, xb, params, "f", diag=diag)
        assert 0.0 < diag["se_mean"][0] < 1.0
        assert 0.0 < diag["guidance_mean"][0] < 1.0


class TestDispatch:
    @pytest.mark.parametrize("mechanism", ["mage_bite", "mage_only", "bite_only", "cssa", "gaff"])
    def test_apply_runs_every_mechanism(self, rng, mechanism):
        cfg = FusionConfig(mechanism=mechanism)
        xa, xb = _pair(rng)
        params = _params(cfg)
        out = apply_fusion(cfg, xa, xb, params, "f")
        assert out.shape == xa.shape
        assert out.dtype == np.float32

    def test_none_has_no_block(self, rng):
        cfg = FusionConfig(mechanism="none")
        assert fusion_param_specs(cfg, C, "f") == []
        xa, xb = _pair(rng)
        with pytest.raises(ConfigError):
            apply_fusion(cfg, xa, xb, init_params([], 0), "f")

    def test_mage_only_specs_extend_mage(self):
        names = {s.name for s in mage_only_specs(C, "f")}
        assert {s.name for s in mage_specs(C, "f")} <= names
        assert "f.monly.merge.w" in names

    def test_diag_collects_gate_means(self, rng):
        cfg = FusionConfig(mechanism="mage_bite")
        xa, xb = _pair(rng)
        diag = {}
        apply_fusion(cfg, xa, xb, _params(cfg), "f", diag=diag)
        assert 0.0 < diag["channel_gate_mean"][0] < 1.0
        assert 0.0 < diag["spatial_gate_mean"][0] < 1.0

import hashlib
import itertools

import numpy as np
import pytest

from trifuse.backbone import (
    BackboneConfig,
    MODALITY_SETS,
    STAGE_STRIDES,
    VARIANTS,
    backbone_param_specs,
    count_params,
    encode_stage,
    forward_dual,
    forward_single,
    merge_step,
    mix_ffn,
    normalize_modalities,
    patch_embed,
    split_streams,
    sra_attention,
    stage_parts,
    stream_channels,
)
from trifuse.errors import ConfigError, ShapeError
from trifuse.fusion import GAFF_GUIDANCE, GAFF_MERGES, GAFF_SE_RATIOS, MECHANISMS, FusionConfig, fusion_param_specs
from trifuse.neck import fpn_param_specs
from trifuse.tensors import ParamStore, attention, conv2d, gelu, init_params, layer_norm, linear, to_map, to_tokens

from oracles import depthwise_nchw_taps


NONE = FusionConfig(mechanism="none")


def _input(rng, h=64, w=64, b=1):
    return rng.standard_normal((b, 5, h, w)).astype(np.float32)


def _dual_params(cfg, fusion, modalities="RTE", seed=0):
    return init_params(backbone_param_specs(cfg, fusion, modalities), seed)


class TestConfig:
    def test_variant_table(self):
        b0 = BackboneConfig.variant_config("B0")
        assert b0.widths == (32, 64, 160, 256)
        b1 = BackboneConfig.variant_config("B1")
        assert b1.widths == (64, 128, 320, 512)
        assert b1.depths == (2, 2, 2, 2)
        assert BackboneConfig.variant_config("B2").depths == (3, 4, 6, 3)
        assert BackboneConfig.variant_config("B3").depths == (3, 4, 18, 3)
        assert BackboneConfig.variant_config("B4").depths == (3, 8, 27, 3)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="B0..B4"):
            BackboneConfig.variant_config("B9")

    def test_tuple_lengths(self):
        with pytest.raises(ConfigError, match="widths"):
            BackboneConfig("x", (8, 16), (1, 1, 1, 1))

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            BackboneConfig("x", (10, 16, 32, 64), (1, 1, 1, 1), heads=(4, 2, 4, 8))


class TestModalities:
    def test_normalization(self):
        assert normalize_modalities("rte") == "RTE"
        assert normalize_modalities("ET") == "TE"
        assert normalize_modalities("TR") == "RT"

    @pytest.mark.parametrize("bad", ["R", "T", "E", "", "RX"])
    def test_single_modality_rejected(self, bad):
        with pytest.raises(ConfigError):
            normalize_modalities(bad)

    def test_stream_channels(self):
        assert stream_channels("RTE") == (3, 2)
        assert stream_channels("RT") == (3, 1)
        assert stream_channels("RE") == (3, 1)
        assert stream_channels("TE") == (1, 1)

    def test_split_slices(self, rng):
        x = _input(rng, 8, 8)
        s = split_streams(x, "RTE")
        assert np.array_equal(s.stream_a, x[:, 0:3])
        assert np.array_equal(s.stream_b, x[:, 3:5])
        s = split_streams(x, "RE")
        assert np.array_equal(s.stream_b, x[:, 4:5])
        s = split_streams(x, "TE")
        assert np.array_equal(s.stream_a, x[:, 3:4])
        assert np.array_equal(s.stream_b, x[:, 4:5])

    def test_split_needs_five_channels(self, rng):
        with pytest.raises(ShapeError, match="5"):
            split_streams(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))


class TestStagePieces:
    def test_embed_geometry(self, rng, tiny_cfg):
        params = init_params(backbone_param_specs(tiny_cfg, NONE), 0)
        x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
        t, h, w = patch_embed(x, 1, params, "a")
        assert (h, w) == (16, 16)  # stride 4
        assert t.shape == (1, 256, tiny_cfg.widths[0])
        m = rng.standard_normal((1, tiny_cfg.widths[0], 16, 16)).astype(np.float32)
        _, h2, w2 = patch_embed(m, 2, params, "a")
        assert (h2, w2) == (8, 8)  # stride 2

    def test_attention_residual_with_zero_projection(self, rng, tiny_cfg):
        base = init_params(backbone_param_specs(tiny_cfg, NONE), 0)
        arrays = {n: base[n].copy() for n in base.names()}
        arrays["a.s4.blk0.attn.proj.w"] = np.zeros_like(arrays["a.s4.blk0.attn.proj.w"])
        params = ParamStore(arrays)
        t = rng.standard_normal((1, 4, tiny_cfg.widths[3])).astype(np.float32)
        out = sra_attention(t, 2, 2, tiny_cfg.heads[3], 1, params, "a.s4.blk0")
        assert np.array_equal(out, t)

    def test_ffn_residual_with_zero_output(self, rng, tiny_cfg):
        base = init_params(backbone_param_specs(tiny_cfg, NONE), 0)
        arrays = {n: base[n].copy() for n in base.names()}
        arrays["a.s1.blk0.ffn.fc2.w"] = np.zeros_like(arrays["a.s1.blk0.ffn.fc2.w"])
        params = ParamStore(arrays)
        t = rng.standard_normal((1, 16, tiny_cfg.widths[0])).astype(np.float32)
        out = mix_ffn(t, 4, 4, tiny_cfg.expansion, params, "a.s1.blk0")
        assert np.array_equal(out, t)

    def test_ffn_bitwise_as_map_layout(self, rng, tiny_cfg):
        # odd 5 x 7 token grid, batch 2, every parameter random
        h, w, q = 5, 7, "a.s1.blk0"
        specs = [s for s in backbone_param_specs(tiny_cfg, NONE) if s.name.startswith(q + ".")]
        params = ParamStore({s.name: rng.standard_normal(s.shape).astype(np.float32) for s in specs})
        p = {s.name[len(q) + 1:]: params[s.name] for s in specs}
        t = rng.standard_normal((2, h * w, tiny_cfg.widths[0])).astype(np.float32)
        m = to_map(linear(layer_norm(t, p["norm2.g"], p["norm2.b"]), p["ffn.fc1.w"], p["ffn.fc1.b"]), h, w)
        m = depthwise_nchw_taps(m, p["ffn.dw.w"], p["ffn.dw.b"], pad=1)
        want = t + linear(gelu(to_tokens(m)), p["ffn.fc2.w"], p["ffn.fc2.b"])
        assert mix_ffn(t, h, w, tiny_cfg.expansion, params, q).tobytes() == want.tobytes()

    def test_encode_stage_shape(self, rng, tiny_cfg):
        params = init_params(backbone_param_specs(tiny_cfg, NONE), 0)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        out = encode_stage(x, 1, tiny_cfg, params, "a")
        assert out.shape == (1, tiny_cfg.widths[0], 8, 8)

    def test_odd_input_ceil_reduction(self, rng, tiny_cfg):
        # 9x11 token grid is not divisible by sr=2; padding must absorb it
        params = init_params(backbone_param_specs(tiny_cfg, NONE), 0)
        t = rng.standard_normal((1, 99, tiny_cfg.widths[1])).astype(np.float32)
        out = sra_attention(t, 9, 11, tiny_cfg.heads[1], 2, params, "a.s2.blk0")
        assert out.shape == t.shape


def _sra_params(rng, c, sr, q):
    shapes = {"norm1.g": (c,), "norm1.b": (c,)}
    for n in ("q", "k", "v", "proj"):
        shapes.update({f"attn.{n}.w": (c, c), f"attn.{n}.b": (c,)})
    if sr > 1:
        shapes.update({"attn.sr.w": (c, c, sr, sr), "attn.sr.b": (c,),
                       "attn.sr_norm.g": (c,), "attn.sr_norm.b": (c,)})
    return ParamStore({f"{q}.{n}": (rng.standard_normal(s) * (0.5 if len(s) == 1 else 0.3)).astype(np.float32)
                       for n, s in shapes.items()})


def _sra_per_head(t, h, w, heads, sr, params, q):
    """sra_attention with one attention call per head, concatenated."""
    b, n, c = t.shape
    tn = layer_norm(t, params[f"{q}.norm1.g"], params[f"{q}.norm1.b"])
    query = linear(tn, params[f"{q}.attn.q.w"], params[f"{q}.attn.q.b"])
    kv_t = tn
    if sr > 1:
        m = np.pad(to_map(tn, h, w), ((0, 0), (0, 0), (0, -h % sr), (0, -w % sr)))
        red = conv2d(m, params[f"{q}.attn.sr.w"], params[f"{q}.attn.sr.b"], stride=sr)
        kv_t = layer_norm(to_tokens(red), params[f"{q}.attn.sr_norm.g"], params[f"{q}.attn.sr_norm.b"])
    key = linear(kv_t, params[f"{q}.attn.k.w"], params[f"{q}.attn.k.b"])
    val = linear(kv_t, params[f"{q}.attn.v.w"], params[f"{q}.attn.v.b"])
    d = c // heads
    outs = [attention(query[:, :, i * d:(i + 1) * d], key[:, :, i * d:(i + 1) * d],
                      val[:, :, i * d:(i + 1) * d], 1.0 / np.sqrt(d)) for i in range(heads)]
    merged = np.concatenate(outs, axis=2)
    return t + linear(merged, params[f"{q}.attn.proj.w"], params[f"{q}.attn.proj.b"])


class TestHeadFolding:
    @pytest.mark.parametrize("sr", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2, 5, 8])
    def test_matches_per_head_loop(self, rng, heads, sr):
        c, h, w = 40, 5, 7
        params = _sra_params(rng, c, sr, "blk")
        t = rng.standard_normal((2, h * w, c)).astype(np.float32)
        got = sra_attention(t, h, w, heads, sr, params, "blk")
        want = _sra_per_head(t, h, w, heads, sr, params, "blk")
        assert np.abs(got - want).max() < 1e-6


class TestForward:
    def test_single_stream_pyramid(self, rng, tiny_cfg):
        params = init_params(backbone_param_specs(tiny_cfg, NONE), 0)
        x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
        feats = forward_single(x, tiny_cfg, params, "a")
        assert [f.stride for f in feats] == list(STAGE_STRIDES)
        assert [f.map.shape for f in feats] == [
            (1, 8, 16, 16), (1, 16, 8, 8), (1, 32, 4, 4), (1, 64, 2, 2),
        ]

    @pytest.mark.parametrize("mechanism", ["mage_bite", "cssa", "gaff"])
    def test_fused_shapes_match_unfused(self, rng, tiny_cfg, mechanism):
        fusion = FusionConfig(mechanism=mechanism, stages=frozenset({2, 4}))
        params = _dual_params(tiny_cfg, fusion)
        feats = forward_dual(_input(rng), tiny_cfg, fusion, params)
        assert [f.map.shape for f in feats] == [
            (1, 8, 16, 16), (1, 16, 8, 8), (1, 32, 4, 4), (1, 64, 2, 2),
        ]

    def test_stages_before_first_fusion_are_mechanism_independent(self, rng, tiny_cfg):
        x = _input(rng)
        outs = []
        for mechanism in ("cssa", "gaff"):
            fusion = FusionConfig(mechanism=mechanism, stages=frozenset({3}))
            params = _dual_params(tiny_cfg, fusion, seed=0)
            outs.append(forward_dual(x, tiny_cfg, fusion, params))
        for s in (0, 1):
            assert np.array_equal(outs[0][s].map, outs[1][s].map)
        assert not np.array_equal(outs[0][2].map, outs[1][2].map)

    def test_fused_map_feeds_both_streams(self, rng, tiny_cfg):
        fusion = FusionConfig(mechanism="mage_only", stages=frozenset({1}))
        params = _dual_params(tiny_cfg, fusion)
        x = _input(rng)
        feats = forward_dual(x, tiny_cfg, fusion, params)
        fused1 = feats[0].map
        fa = encode_stage(fused1, 2, tiny_cfg, params, "a")
        fb = encode_stage(fused1, 2, tiny_cfg, params, "b")
        want = ((fa.astype(np.float64) + fb.astype(np.float64)) / 2).astype(np.float32)
        assert np.array_equal(feats[1].map, want)

    def test_te_subset_runs(self, rng, tiny_cfg):
        fusion = FusionConfig(mechanism="cssa", stages=frozenset({4}))
        params = _dual_params(tiny_cfg, fusion, modalities="TE")
        feats = forward_dual(_input(rng), tiny_cfg, fusion, params, modalities="TE")
        assert feats[3].map.shape == (1, 64, 2, 2)

    def test_forward_deterministic(self, rng, tiny_cfg):
        fusion = FusionConfig(mechanism="gaff", stages=frozenset({2}))
        params = _dual_params(tiny_cfg, fusion)
        x = _input(rng)
        a = forward_dual(x, tiny_cfg, fusion, params)
        b = forward_dual(x, tiny_cfg, fusion, params)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.map, fb.map)


class TestCounts:
    def test_count_matches_materialized_store(self, tiny_cfg):
        fusion = FusionConfig(mechanism="mage_bite", stages=frozenset({1, 3}))
        store = _dual_params(tiny_cfg, fusion)
        assert count_params(tiny_cfg, fusion) == sum(store[n].size for n in store.names())

    def test_modality_subsets_only_change_stage1_embeds(self):
        fusion = FusionConfig(mechanism="none")
        cfg = BackboneConfig.variant_config("B1")
        full = count_params(cfg, fusion, "RTE")
        rt = count_params(cfg, fusion, "RT")
        # RTE -> RT drops one input channel of the 7x7 stream-B embedding
        assert full - rt == cfg.widths[0] * 7 * 7
        te = count_params(cfg, fusion, "TE")
        assert full - te == (2 + 1) * cfg.widths[0] * 7 * 7

    def test_fusion_stage_placement_adds_width_dependent_params(self, tiny_cfg):
        base = count_params(tiny_cfg, FusionConfig(mechanism="none"))
        one = count_params(tiny_cfg, FusionConfig(mechanism="cssa", stages=frozenset({1})))
        four = count_params(tiny_cfg, FusionConfig(mechanism="cssa", stages=frozenset({4})))
        assert one > base and four > base
        assert four - base > one - base  # wider stage, bigger block


def _fusion_blocks():
    """One FusionConfig per distinct fusion block, keyed by (mechanism,
    block settings)."""
    blocks = {}
    for mech, tau, r, g, m in itertools.product(MECHANISMS, (0.3, 0.5), GAFF_SE_RATIOS, GAFF_GUIDANCE, GAFF_MERGES):
        fus = FusionConfig(mechanism=mech, tau=tau, se_ratio=r, guidance=g, merge=m)
        blocks.setdefault((mech, fus.block_settings()), fus)
    return blocks


def _layouts():
    """Every distinct parameter layout, labelled: the two streams per
    variant and modality set, one fusion block per mechanism, block
    settings and stage width, and the FPN per width set."""
    for variant, mods in itertools.product(sorted(VARIANTS), MODALITY_SETS):
        yield ("streams", variant, mods), backbone_param_specs(BackboneConfig.variant_config(variant), NONE, mods)
    channels = sorted({c for w, _ in VARIANTS.values() for c in w})
    for (key, fus), c in itertools.product(_fusion_blocks().items(), channels):
        yield ("fusion", *key, c), fusion_param_specs(fus, c, "fuse.s1")
    for widths in sorted({w for w, _ in VARIANTS.values()}):
        yield ("fpn", widths), fpn_param_specs(widths)


def test_parameter_layout_is_pinned():
    # names, shapes and kinds in declaration order, which is also the order
    # build_param_specs lists them in
    digest = hashlib.sha256()
    for label, specs in _layouts():
        digest.update(repr((label, [(s.name, s.shape, s.kind) for s in specs])).encode())
    assert digest.hexdigest() == "8a6b6eb1039656dbaa4569b838b07a54764fbaf508a138c41b7c7e46c59d3d33"


class _Reads(ParamStore):
    """Zero arrays for ``specs`` that record the names read from them."""

    def __init__(self, specs):
        super().__init__({spec.name: np.zeros(spec.shape, np.float32) for spec in specs})
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("mods", MODALITY_SETS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_each_part_reads_exactly_its_declared_specs(rng, variant, mods):
    # a grid node is given its part's declared arrays and no others; the
    # modality set fixes the stage-1 embed's input channels
    cfg = BackboneConfig.variant_config(variant)
    split = split_streams(_input(rng), mods)
    for p, x in zip("ab", (split.stream_a, split.stream_b)):
        for stage in range(1, 5):
            for name, specs, part in stage_parts(stage, cfg, p, x.shape[1]):
                store = _Reads(specs)
                x = part(x, store)
                assert len(store) == len(specs), name  # no name declared twice
                assert store.read == set(store.names()), name


@pytest.mark.parametrize("fus", _fusion_blocks().values(),
                         ids=lambda f: "-".join(map(str, (f.mechanism, *f.block_settings()))))
def test_each_merge_reads_exactly_its_declared_specs(rng, fus):
    cfg = BackboneConfig.variant_config("B0")
    for stage in range(1, 5):
        c, h = cfg.widths[stage - 1], 64 // STAGE_STRIDES[stage - 1]
        encoded = [rng.standard_normal((1, c, h, h)).astype(np.float32) for _ in "ab"]
        store = _Reads(fusion_param_specs(fus, c, f"fuse.s{stage}") if stage in fus.stages else [])
        merge_step(encoded, stage, cfg, fus, store)
        assert store.read == set(store.names()), stage

"""Randomized property suites over every module, runnable from the CLI.

Each property takes a seed, builds randomized inputs and raises
AssertionError on violation.  ``run_verification`` executes all properties
across many seeds and reports per-property pass/fail counts with the
failing seeds so any violation can be replayed.
"""

from __future__ import annotations

import numpy as np

from . import fusion
from .backbone import BackboneConfig, backbone_param_specs, forward_dual, forward_single, split_streams
from .data import NormStats, denormalize, normalize, pad_to_stride
from .errors import ConfigError
from .events import EventStream, bin_events
from .fusion import FusionConfig, cssa_switch, channel_scores, fusion_param_specs
from .metrics import Detection, GroundTruth, average_precision, evaluate
from .neck import fpn, fpn_param_specs
from .tensors import (
    ParamStore,
    conv2d,
    init_params,
    to_map,
    to_tokens,
)

# small backbone used where a full-size encoder would be wasteful
TINY = BackboneConfig(
    variant="B1",
    widths=(8, 16, 32, 64),
    depths=(1, 1, 1, 1),
    heads=(1, 2, 4, 8),
    sr_ratios=(4, 2, 2, 1),
    expansion=2,
)


def _rng(seed):
    return np.random.default_rng(seed)


def prop_conv_identity(seed):
    rng = _rng(seed)
    x = rng.standard_normal((2, 6, 9, 11)).astype(np.float32)
    w = np.zeros((6, 1, 3, 3), np.float32)
    w[:, 0, 1, 1] = 1.0
    y = conv2d(x, w, stride=1, pad=1, groups=6)
    assert np.array_equal(x, y)


def prop_token_roundtrip(seed):
    rng = _rng(seed)
    b = int(rng.integers(1, 5))
    c = int(rng.integers(1, 65))
    h = int(rng.integers(1, 57))
    w = int(rng.integers(1, 57))
    x = rng.standard_normal((b, c, h, w)).astype(np.float32)
    assert np.array_equal(to_map(to_tokens(x), h, w), x)


def prop_param_determinism(seed):
    specs = fusion_param_specs(FusionConfig(mechanism="mage_bite"), 8, "fuse.s1")
    p1 = init_params(specs, seed)
    p2 = init_params(specs, seed)
    assert all(np.array_equal(p1[n], p2[n]) for n in p1.names())
    p3 = init_params(specs, seed + 1)
    assert any(not np.array_equal(p1[n], p3[n]) for n in p1.names())


def prop_mage_zero_gate_identity(seed):
    rng = _rng(seed)
    c = 8
    params = init_params(fusion.mage_specs(c, "f"), seed)
    xa = rng.standard_normal((2, c, 5, 7)).astype(np.float32)
    xb = rng.standard_normal((2, c, 5, 7)).astype(np.float32)
    ra, rb, _ = fusion.mage(xa, xb, params, "f", force_spatial=0.0)
    assert np.array_equal(ra, xa) and np.array_equal(rb, xb)


def prop_gate_ranges(seed):
    rng = _rng(seed)
    c = 8
    params = init_params(fusion.mage_specs(c, "f"), seed)
    xa = rng.standard_normal((1, c, 6, 6)).astype(np.float32)
    xb = rng.standard_normal((1, c, 6, 6)).astype(np.float32)
    _, _, gates = fusion.mage(xa, xb, params, "f")
    for g in (gates.ch_b_to_a, gates.ch_a_to_b, gates.sp_b_to_a, gates.sp_a_to_b):
        assert np.all(g > 0.0) and np.all(g < 1.0)


def prop_cssa_swap_monotone(seed):
    rng = _rng(seed)
    c = 16
    params = init_params(fusion.cssa_specs(c, "f"), seed)
    xa = rng.standard_normal((1, c, 4, 4)).astype(np.float32)
    xb = rng.standard_normal((1, c, 4, 4)).astype(np.float32)
    sa = channel_scores(xa, params, "f", "a")
    sb = channel_scores(xb, params, "f", "b")
    prev_a = prev_b = None
    for tau in (0.0, 0.3, 0.5, 0.7, 1.0):
        _, _, swap_a, swap_b = cssa_switch(xa, xb, sa, sb, tau)
        if prev_a is not None:
            assert np.all(prev_a <= swap_a), "swap sets must be nested in tau"
            assert np.all(prev_b <= swap_b)
        prev_a, prev_b = swap_a, swap_b
    assert not cssa_switch(xa, xb, sa, sb, 0.0)[2].any()
    assert cssa_switch(xa, xb, sa, sb, 1.0)[2].all()


def _swapped_mage_params(params, c, p):
    arrays = {}
    for n in params.names():
        arrays[n] = np.array(params[n])
    for a_name, b_name in ((f"{p}.mage.ch.to_a.w", f"{p}.mage.ch.to_b.w"),
                           (f"{p}.mage.ch.to_a.b", f"{p}.mage.ch.to_b.b")):
        arrays[a_name], arrays[b_name] = arrays[b_name], arrays[a_name]
    for n in (f"{p}.mage.ch.fc1.w", f"{p}.mage.sp.fc1.w"):
        w = arrays[n]
        arrays[n] = np.concatenate([w[c:], w[:c]], axis=0)
    arrays[f"{p}.mage.sp.out.w"] = arrays[f"{p}.mage.sp.out.w"][:, ::-1].copy()
    arrays[f"{p}.mage.sp.out.b"] = arrays[f"{p}.mage.sp.out.b"][::-1].copy()
    return ParamStore(arrays)


def prop_mage_swap_symmetry(seed):
    rng = _rng(seed)
    c = 8
    params = init_params(fusion.mage_specs(c, "f"), seed)
    xa = rng.standard_normal((1, c, 5, 5)).astype(np.float32)
    xb = rng.standard_normal((1, c, 5, 5)).astype(np.float32)
    ra, rb, _ = fusion.mage(xa, xb, params, "f")
    swapped = _swapped_mage_params(params, c, "f")
    rb2, ra2, _ = fusion.mage(xb, xa, swapped, "f")
    assert np.abs(ra - ra2).max() < 1e-5
    assert np.abs(rb - rb2).max() < 1e-5


def _swapped_gaff_params(params, c, p):
    arrays = {n: np.array(params[n]) for n in params.names()}
    for part in ("se.fc1.w", "se.fc1.b", "se.fc2.w", "se.fc2.b"):
        a, b = f"{p}.gaff.a.{part}", f"{p}.gaff.b.{part}"
        arrays[a], arrays[b] = arrays[b], arrays[a]
    w = arrays[f"{p}.gaff.merge.w"]
    arrays[f"{p}.gaff.merge.w"] = np.concatenate([w[c:], w[:c]], axis=0)
    return ParamStore(arrays)


def prop_gaff_swap_symmetry(seed):
    rng = _rng(seed)
    c = 8
    params = init_params(fusion.gaff_specs(c, "f", 4, "shared", "direct"), seed)
    xa = rng.standard_normal((1, c, 5, 5)).astype(np.float32)
    xb = rng.standard_normal((1, c, 5, 5)).astype(np.float32)
    out = fusion.gaff(xa, xb, params, "f", 4, "shared", "direct")
    swapped = _swapped_gaff_params(params, c, "f")
    out2 = fusion.gaff(xb, xa, swapped, "f", 4, "shared", "direct")
    assert np.abs(out - out2).max() < 1e-5


def prop_bin_events_bounds_and_inversion(seed):
    rng = _rng(seed)
    n = 200
    t = np.sort(rng.integers(0, 100_000, n))
    x = rng.integers(0, 20, n)
    y = rng.integers(0, 15, n)
    p = rng.choice([-1, 1], n)
    stream = EventStream(t, x, y, p, (15, 20))
    frame = bin_events(stream, 0.05, 0.04)
    assert frame.min() >= -1.0 and frame.max() <= 1.0
    inverted = EventStream(t, x, y, -p, (15, 20))
    assert np.array_equal(bin_events(inverted, 0.05, 0.04), -frame)


def prop_pad_preserves(seed):
    rng = _rng(seed)
    h = int(rng.integers(1, 100))
    w = int(rng.integers(1, 100))
    x = rng.standard_normal((1, 5, h, w)).astype(np.float32)
    padded, (oh, ow) = pad_to_stride(x, 32)
    assert (oh, ow) == (h, w)
    assert padded.shape[2] % 32 == 0 and padded.shape[3] % 32 == 0
    assert np.array_equal(padded[:, :, :h, :w], x)
    assert np.all(padded[:, :, h:, :] == 0) and np.all(padded[:, :, :, w:] == 0)


def prop_normalize_roundtrip(seed):
    rng = _rng(seed)
    stats = NormStats(rng.uniform(-1, 1, 5), rng.uniform(0.1, 2.0, 5))
    x = rng.standard_normal((1, 5, 8, 9)).astype(np.float32)
    back = denormalize(normalize(x, stats), stats)
    assert np.abs(back - x).max() < 1e-6


def _random_eval_fixture(rng, n_img=3, n_gt=6, n_det=10):
    gts, dets = [], []
    for _ in range(n_gt):
        img = f"im{rng.integers(0, n_img)}"
        x1, y1 = rng.uniform(0, 50, 2)
        gts.append(GroundTruth(img, (x1, y1, x1 + rng.uniform(5, 30), y1 + rng.uniform(5, 30))))
    for _ in range(n_det):
        if rng.random() < 0.6 and gts:
            g = gts[rng.integers(0, len(gts))]
            jit = rng.uniform(-4, 4, 4)
            box = (g.box[0] + jit[0], g.box[1] + jit[1], g.box[2] + jit[2], g.box[3] + jit[3])
            if box[2] <= box[0] or box[3] <= box[1]:
                continue
            dets.append(Detection(g.image_id, box, float(rng.random())))
        else:
            img = f"im{rng.integers(0, n_img)}"
            x1, y1 = rng.uniform(0, 50, 2)
            dets.append(
                Detection(img, (x1, y1, x1 + rng.uniform(5, 30), y1 + rng.uniform(5, 30)),
                          float(rng.random()))
            )
    return dets, gts


def prop_ap_monotone_in_threshold(seed):
    rng = _rng(seed)
    dets, gts = _random_eval_fixture(rng)
    aps = [average_precision(dets, gts, t) for t in (0.5, 0.6, 0.7, 0.8, 0.9)]
    assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))


def prop_ap_duplicates_not_higher(seed):
    rng = _rng(seed)
    dets, gts = _random_eval_fixture(rng)
    base = average_precision(dets, gts, 0.5)
    dup = average_precision(dets + dets, gts, 0.5)
    assert dup <= base + 1e-12


def prop_ap_ranking_invariance(seed):
    rng = _rng(seed)
    dets, gts = _random_eval_fixture(rng)
    base = evaluate(dets, gts)
    squeezed = [Detection(d.image_id, d.box, d.score ** 3 * 0.5 + 0.1) for d in dets]
    other = evaluate(squeezed, gts)
    assert abs(base.mean_ap - other.mean_ap) < 1e-12
    assert abs(base.ap50 - other.ap50) < 1e-12


def prop_pyramid_shape_contract(seed):
    rng = _rng(seed)
    x = rng.standard_normal((1, 5, 64, 96)).astype(np.float32)
    shapes = None
    for mech in ("cssa", "gaff", "mage_only"):
        fus = FusionConfig(mechanism=mech, stages=frozenset({2, 4}))
        specs = backbone_param_specs(TINY, fus, "RTE") + fpn_param_specs(TINY.widths)
        params = init_params(specs, seed)
        feats = forward_dual(x, TINY, fus, params, "RTE")
        pyr = fpn(feats, params)
        if shapes is None:
            shapes = pyr.shapes()
        assert pyr.shapes() == shapes


def prop_unfused_rgb_stream_matches_single(seed):
    rng = _rng(seed)
    fus = FusionConfig(mechanism="none", stages=frozenset())
    specs = backbone_param_specs(TINY, fus, "RTE")
    params = init_params(specs, seed)
    x = rng.standard_normal((1, 5, 64, 64)).astype(np.float32)
    split = split_streams(x, "RTE")
    single = forward_single(split.stream_a, TINY, params, "a")
    dual = forward_dual(x, TINY, fus, params, "RTE")
    # dual emits the stream mean; reconstruct the rgb stream by symmetry:
    # run stream b alone and check mean consistency
    other = forward_single(split.stream_b, TINY, params, "b")
    for d, s, o in zip(dual, single, other):
        mean = ((s.map.astype(np.float64) + o.map.astype(np.float64)) / 2).astype(np.float32)
        assert np.abs(d.map - mean).max() == 0.0


PROPERTIES = [
    ("depthwise_identity_conv", prop_conv_identity),
    ("token_map_roundtrip", prop_token_roundtrip),
    ("param_init_determinism", prop_param_determinism),
    ("mage_zero_gate_identity", prop_mage_zero_gate_identity),
    ("fusion_gate_ranges", prop_gate_ranges),
    ("cssa_swap_monotone_in_tau", prop_cssa_swap_monotone),
    ("mage_stream_swap_symmetry", prop_mage_swap_symmetry),
    ("gaff_stream_swap_symmetry", prop_gaff_swap_symmetry),
    ("event_binning_bounds_and_inversion", prop_bin_events_bounds_and_inversion),
    ("pad_to_stride_preserves_content", prop_pad_preserves),
    ("normalize_denormalize_roundtrip", prop_normalize_roundtrip),
    ("ap_monotone_in_iou_threshold", prop_ap_monotone_in_threshold),
    ("ap_duplicates_never_help", prop_ap_duplicates_not_higher),
    ("ap_ranking_invariance", prop_ap_ranking_invariance),
    ("pyramid_shape_contract", prop_pyramid_shape_contract),
    ("unfused_dual_equals_stream_mean", prop_unfused_rgb_stream_matches_single),
]


def run_verification(n_seeds=20, base_seed=0):
    """Run every property over ``n_seeds`` seeds.

    Returns {property: {"passed": int, "failed": [seeds]}}; deterministic
    for fixed arguments.  The seeds must be >= 0, as numpy's generators ask.
    """
    if base_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {base_seed}")
    summary = {}
    for name, prop in PROPERTIES:
        passed, failed = 0, []
        for s in range(base_seed, base_seed + n_seeds):
            try:
                prop(s)
                passed += 1
            except AssertionError:
                failed.append(s)
        summary[name] = {"passed": passed, "failed": failed}
    return summary

"""End-to-end acceptance suite.

One test per release criterion, ordered; run with ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per criterion.  The
two grid criteria run full-size forwards: 23-25 s and 55 s on one core
of a shared 2-vCPU Intel Xeon host.
"""

import itertools
import json
import time

import numpy as np

from trifuse.backbone import BackboneConfig, count_params
from trifuse.cli import EXIT_OK, main
from trifuse.data import load_frame, load_manifest, pad_to_stride, read_npy, write_npy
from trifuse.events import DEFAULT_WINDOW_S, EventStream, bin_events
from trifuse.fusion import (
    FusionConfig,
    bite,
    bite_specs,
    cssa_switch,
    gaff,
    gaff_specs,
    mage,
    mage_specs,
)
from trifuse.harness import RunConfig, run_grid
from trifuse.metrics import Detection, GroundTruth, average_precision
from trifuse.synth import generate_corpus
from trifuse.tensors import init_params, param_count
from trifuse.backbone import sra_attention, backbone_param_specs

from oracles import (
    attention_naive,
    average_precision_staircase,
    bin_events_loops,
    conv2d_loops,
    layer_norm_two_pass,
)

MECHANISMS = ("mage_bite", "mage_only", "bite_only", "cssa", "gaff")
ALL_SUBSETS = [
    tuple(s)
    for r in range(5)
    for s in itertools.combinations((1, 2, 3, 4), r)
]  # empty + 15 non-empty


def test_01_shape_contract_80_configs():
    """Every mechanism x every placement subset produces the fixed stage and
    pyramid shapes at 320x416, all 80 runs inside the five-minute budget.
    The empty placement is the no-fusion case of each mechanism."""
    want_stages = [(1, 64, 80, 104), (1, 128, 40, 52), (1, 320, 20, 26), (1, 512, 10, 13)]
    want_pyramid = [
        (1, 256, 80, 104), (1, 256, 40, 52), (1, 256, 20, 26), (1, 256, 10, 13), (1, 256, 5, 7),
    ]
    t0 = time.perf_counter()
    base = RunConfig(input_size=(320, 416), timing_reps=1)
    reports = run_grid(base, {"mechanism": MECHANISMS, "stages": ALL_SUBSETS})
    for rep in reports:
        label = f"{rep.config['mechanism']} {rep.config['stages']}"
        assert rep.ok, f"{label}: {rep.error}"
        assert rep.stage_shapes == want_stages, label
        assert rep.pyramid_shapes == want_pyramid, label
    elapsed = time.perf_counter() - t0
    assert len(reports) == 80
    assert elapsed < 300.0, f"80 configurations took {elapsed:.0f}s"
    print(f"PASS shape contract: 80/80 configurations, {elapsed:.0f}s")


def test_02_gated_exchange_identities():
    """Zero spatial gates pass inputs through bitwise; unit gates make the
    rectified stream exactly input + other-stream (64-bit sum, one cast)."""
    c = 64
    params = init_params(mage_specs(c, "f"), 0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xa = rng.standard_normal((2, c, 16, 16)).astype(np.float32)
        xb = rng.standard_normal((2, c, 16, 16)).astype(np.float32)

        ra, rb, _ = mage(xa, xb, params, "f", force_spatial=0.0)
        assert np.array_equal(ra, xa) and np.array_equal(rb, xb)
        ra, rb, _ = mage(xa, xb, params, "f", force_channel=0.0)
        assert np.array_equal(ra, xa) and np.array_equal(rb, xb)

        ra, rb, _ = mage(xa, xb, params, "f", force_spatial=1.0, force_channel=1.0)
        s = xa.astype(np.float64) + xb.astype(np.float64)
        assert np.abs(ra.astype(np.float64) - s.astype(np.float32)).max() == 0.0
        assert np.abs(rb.astype(np.float64) - s.astype(np.float32)).max() == 0.0
    print("PASS gated-exchange identities: exact on 20 seeds")


def test_03_attention_matches_naive_oracle():
    """Token-exchange cross-attention and reduction-1 self-attention agree
    with a brute-force O(N^2) oracle within 1e-5 on N<=64, C<=32."""
    c, h, w = 16, 8, 8  # N = 64
    heads = 2

    def lin(t, wname, bname, params):
        return (t.astype(np.float64) @ params[wname].astype(np.float64)
                + params[bname].astype(np.float64))

    for seed in range(20):
        rng = np.random.default_rng(seed)

        # cross-attention block vs oracle reconstruction
        params = init_params(bite_specs(c, "f"), seed)
        xa = rng.standard_normal((1, c, h, w)).astype(np.float32)
        xb = rng.standard_normal((1, c, h, w)).astype(np.float32)
        got = bite(xa, xb, params, "f")

        ta = xa.reshape(1, c, h * w).transpose(0, 2, 1).astype(np.float64)
        tb = xb.reshape(1, c, h * w).transpose(0, 2, 1).astype(np.float64)
        scale = 1.0 / np.sqrt(c)
        qa = lin(ta, "f.bite.a.q.w", "f.bite.a.q.b", params)
        ka = lin(ta, "f.bite.a.k.w", "f.bite.a.k.b", params)
        va = lin(ta, "f.bite.a.v.w", "f.bite.a.v.b", params)
        qb = lin(tb, "f.bite.b.q.w", "f.bite.b.q.b", params)
        kb = lin(tb, "f.bite.b.k.w", "f.bite.b.k.b", params)
        vb = lin(tb, "f.bite.b.v.w", "f.bite.b.v.b", params)
        ta_up = ta + attention_naive(qa, kb, vb, scale)
        tb_up = tb + attention_naive(qb, ka, va, scale)
        z = np.concatenate([ta_up, tb_up], axis=2).transpose(0, 2, 1).reshape(1, 2 * c, h, w)
        z = conv2d_loops(z.astype(np.float32), params["f.bite.dw.w"], params["f.bite.dw.b"],
                         stride=1, pad=1, groups=2 * c)
        zt = z.reshape(1, 2 * c, h * w).transpose(0, 2, 1)
        want = lin(zt, "f.bite.proj.w", "f.bite.proj.b", params)
        want = want.transpose(0, 2, 1).reshape(1, c, h, w)
        assert np.abs(got - want).max() < 1e-5

        # reduction-1 attention block vs oracle reconstruction
        cfg = BackboneConfig("x", (8, 16, c, 32), (1, 1, 1, 1),
                             heads=(1, 2, heads, 8), sr_ratios=(4, 2, 1, 1), expansion=2)
        bparams = init_params(backbone_param_specs(cfg, FusionConfig(mechanism="none")), seed)
        t = rng.standard_normal((1, h * w, c)).astype(np.float32)
        got = sra_attention(t, h, w, heads, 1, bparams, "a.s3.blk0")

        tn = layer_norm_two_pass(t, bparams["a.s3.blk0.norm1.g"], bparams["a.s3.blk0.norm1.b"], 1e-6)
        q = lin(tn, "a.s3.blk0.attn.q.w", "a.s3.blk0.attn.q.b", bparams)
        k = lin(tn, "a.s3.blk0.attn.k.w", "a.s3.blk0.attn.k.b", bparams)
        v = lin(tn, "a.s3.blk0.attn.v.w", "a.s3.blk0.attn.v.b", bparams)
        d = c // heads
        merged = np.concatenate(
            [attention_naive(q[:, :, i * d:(i + 1) * d], k[:, :, i * d:(i + 1) * d],
                             v[:, :, i * d:(i + 1) * d], 1.0 / np.sqrt(d))
             for i in range(heads)],
            axis=2,
        )
        want = t + lin(merged, "a.s3.blk0.attn.proj.w", "a.s3.blk0.attn.proj.b", bparams)
        assert np.abs(got - want).max() < 1e-5
    print("PASS attention oracles: cross and reduction-1 within 1e-5, 20 seeds")


def test_04_channel_switch_threshold_semantics():
    """Swap sets are nested over tau in {0.3, 0.5, 0.7}; tau 0 swaps nothing
    and passes both maps through, and tau 1 swaps everything and exchanges
    them, on 100 random score vectors."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = int(rng.integers(4, 64))
        sa = rng.random((1, c))
        sb = rng.random((1, c))
        xa = np.zeros((1, c, 2, 2), np.float32)
        xb = np.ones((1, c, 2, 2), np.float32)
        prev_a = prev_b = None
        for tau in (0.3, 0.5, 0.7):
            _, _, swap_a, swap_b = cssa_switch(xa, xb, sa, sb, tau)
            if prev_a is not None:
                assert np.all(prev_a <= swap_a)
                assert np.all(prev_b <= swap_b)
            prev_a, prev_b = swap_a, swap_b
        sw_a, sw_b, swap_a, swap_b = cssa_switch(xa, xb, sa, sb, 0.0)
        assert not swap_a.any() and not swap_b.any()
        assert np.array_equal(sw_a, xa) and np.array_equal(sw_b, xb)
        sw_a, sw_b, swap_a, swap_b = cssa_switch(xa, xb, sa, sb, 1.0)
        assert swap_a.all() and swap_b.all()
        assert np.array_equal(sw_a, xb) and np.array_equal(sw_b, xa)
    print("PASS channel-switch thresholds: nested over tau on 100 score vectors")


def test_05_guided_fusion_variants():
    """All 8 (se_ratio, guidance, merge) combinations build and run, and
    their parameter counts match closed-form enumeration exactly."""
    c = 64
    rng = np.random.default_rng(0)
    xa = rng.standard_normal((1, c, 8, 8)).astype(np.float32)
    xb = rng.standard_normal((1, c, 8, 8)).astype(np.float32)

    def closed_form(r, guidance, merge):
        se = 2 * (c * (c // r) + c // r + (c // r) * c + c)
        guide = (c + 1) if guidance == "shared" else 2 * (c + 1)
        if merge == "direct":
            m = 2 * c * c + c
        else:
            m = 2 * c * (c // 2) + c // 2 + (c // 2) * c + c
        return se + guide + m

    counts = {}
    for r in (4, 8):
        for guidance in ("shared", "separate"):
            for merge in ("direct", "bottleneck"):
                specs = gaff_specs(c, "f", se_ratio=r, guidance=guidance, merge=merge)
                params = init_params(specs, 0)
                out = gaff(xa, xb, params, "f", se_ratio=r, guidance=guidance, merge=merge)
                assert out.shape == xa.shape
                got = param_count(specs)
                assert got == sum(params[n].size for n in params.names())
                assert got == closed_form(r, guidance, merge)
                counts[(r, guidance, merge)] = got
    assert len(counts) == 8
    for r in (4, 8):
        for merge in ("direct", "bottleneck"):
            assert counts[(r, "shared", merge)] < counts[(r, "separate", merge)]
    print("PASS guided-fusion variants: 8/8 build, counts exact, shared < separate")


def test_06_capacity_ordering():
    """Dual-stream encoder parameter counts increase strictly from B0 to B4,
    with or without fusion blocks."""
    for fusion in (FusionConfig(mechanism="none"), FusionConfig(mechanism="mage_bite")):
        counts = [
            count_params(BackboneConfig.variant_config(v), fusion)
            for v in ("B0", "B1", "B2", "B3", "B4")
        ]
        assert all(a < b for a, b in zip(counts, counts[1:])), counts
    print(f"PASS capacity ordering: {counts}")


def test_07_event_binning_oracle():
    """Binned frames match a per-pixel counting oracle exactly on 1000
    random events over 10 windows; inversion negates; default window 1/30 s."""
    rng = np.random.default_rng(0)
    n = 1000
    t = np.sort(rng.integers(0, 3_000_000, n))
    x = rng.integers(0, 40, n)
    y = rng.integers(0, 30, n)
    p = rng.choice([-1, 1], n)
    stream = EventStream(t, x, y, p, (30, 40))
    inverted = EventStream(t, x, y, -p, (30, 40))
    for center in rng.uniform(0.0, 3.0, 10):
        for dt in (DEFAULT_WINDOW_S, 0.25):
            got = bin_events(stream, center, dt)
            want = bin_events_loops(t, x, y, p, (30, 40), center, dt)
            assert np.array_equal(got, want.astype(np.float32))
            assert np.array_equal(bin_events(inverted, center, dt), -got)
    assert DEFAULT_WINDOW_S == 1.0 / 30.0
    print("PASS event binning: exact vs counting oracle, 10 windows x 2 widths")


def test_08_data_round_trips(tmp_path):
    """NPY write/read is bitwise; generated frames reload with labels within
    one pixel; the native 301x391 frame pads to 320x416."""
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64, np.int64, np.uint8):
        arr = (rng.random((7, 5, 3)) * 100).astype(dtype)
        write_npy(tmp_path / "x.npy", arr)
        assert read_npy(tmp_path / "x.npy").tobytes() == arr.tobytes()

    manifest = load_manifest(generate_corpus(tmp_path / "c", 3, seed=1))
    for e in manifest.entries:
        frame = load_frame(e.image, e.labels)
        assert frame.pixels.shape == (1, 5, 301, 391)
        for box in frame.boxes:
            x1, y1, x2, y2 = box.to_pixels(frame.height, frame.width)
            for v in (x1, y1, x2, y2):
                assert abs(v - round(v)) < 1.0
        padded, orig = pad_to_stride(frame.pixels, 32)
        assert padded.shape == (1, 5, 320, 416)
        assert orig == (301, 391)
    print("PASS data round trips: NPY bitwise, labels within 1 px, pad to 320x416")


def test_09_average_precision_oracle():
    """AP agrees with the hand-walked precision staircase to 1e-9, and the
    ranking/duplicate properties hold on 50 random fixtures."""
    # fixed fixture with known value: flags TP, FP, TP, TP over 3 gts
    gts = [GroundTruth("a", (i * 20, 0, i * 20 + 10, 10)) for i in range(3)]
    dets = [
        Detection("a", (0, 0, 10, 10), 0.9),
        Detection("a", (50, 50, 60, 60), 0.8),
        Detection("a", (20, 0, 30, 10), 0.7),
        Detection("a", (40, 0, 50, 10), 0.6),
    ]
    assert abs(average_precision(dets, gts, 0.5) - (34 + 67 * 0.75) / 101) < 1e-12

    rng = np.random.default_rng(0)
    for _ in range(50):
        gts, dets = [], []
        for _ in range(int(rng.integers(2, 8))):
            img = f"im{rng.integers(3)}"
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(6, 25, 2)
            gts.append(GroundTruth(img, (x, y, x + w, y + h)))
            jx, jy = rng.uniform(-5, 5, 2)
            dets.append(Detection(img, (x + jx, y + jy, x + w + jx, y + h + jy),
                                  float(rng.random())))
        for _ in range(int(rng.integers(0, 5))):
            x, y = rng.uniform(0, 60, 2)
            dets.append(Detection(f"im{rng.integers(3)}", (x, y, x + 10, y + 10),
                                  float(rng.random())))
        for t in (0.5, 0.75):
            assert abs(average_precision(dets, gts, t)
                       - average_precision_staircase(dets, gts, t)) < 1e-9
        rescored = [Detection(d.image_id, d.box, 0.2 * d.score + 1.0) for d in dets]
        assert average_precision(rescored, gts, 0.5) == average_precision(dets, gts, 0.5)
        dup = dets + [Detection(d.image_id, d.box, d.score / 2) for d in dets]
        assert average_precision(dup, gts, 0.5) <= average_precision(dets, gts, 0.5) + 1e-12
    print("PASS metric oracle: staircase within 1e-9 plus properties, 50 fixtures")


def test_10_full_ablation_grid(tmp_path):
    """The grid command reproduces the whole ablation inventory (52 runs:
    8 placements + 11 mechanism rows + 21 switch cells + 4 modality subsets
    + 5 capacities + 3 component variants) with complete reports in budget."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"timing_reps": 1}))
    out = tmp_path / "grid"
    t0 = time.perf_counter()
    code = main(["--config", str(cfg), "--out", str(out), "grid", "--ablation-grid"])
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    reports = json.loads((out / "grid.json").read_text())
    assert len(reports) == 52
    for rep in reports:
        assert rep["error"] is None, rep
        assert len(rep["stage_shapes"]) == 4
        assert len(rep["pyramid_shapes"]) == 5
        assert rep["param_count"] > 0
        assert rep["forward_ms"] > 0
    mechanisms = {r["config"]["mechanism"] for r in reports}
    assert {"gaff", "cssa", "mage_bite", "mage_only", "bite_only"} <= mechanisms
    variants = {r["config"]["variant"] for r in reports}
    assert variants == {"B0", "B1", "B2", "B3", "B4"}
    assert elapsed < 1800.0, f"grid took {elapsed:.0f}s"
    print(f"PASS ablation grid: 52/52 complete reports, {elapsed:.0f}s")

import gc
import hashlib
import json
import re
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from trifuse import backbone, harness
from trifuse.errors import ConfigError, ShapeError, TrifuseError
from trifuse.harness import (
    RunConfig,
    RunReport,
    build_param_specs,
    expand_sweep,
    make_input,
    run_ablation_grid,
    run_grid,
    run_single,
    write_grid_outputs,
)
from trifuse.synth import generate_corpus
from trifuse.tensors import ParamStore, init_params, param_count

# small-but-real probe config used throughout; keeps each forward cheap
FAST = RunConfig(variant="B0", input_size=(64, 64), timing_reps=1)
# the ablation inventory on the default config, as (group, RunConfig) pairs
INVENTORY = [(group, replace(RunConfig(), **o)) for group, o in harness._INVENTORY]


class TestRunConfig:
    def test_defaults_validate(self):
        assert RunConfig().validate() is not None

    def test_error_names_field(self):
        with pytest.raises(ConfigError, match="variant"):
            RunConfig(variant="B7").validate()
        with pytest.raises(ConfigError, match="fusion"):
            RunConfig(tau=2.0).validate()
        with pytest.raises(ConfigError, match="modalities"):
            RunConfig(modalities="R").validate()
        with pytest.raises(ConfigError, match="input_size"):
            RunConfig(input_size=(16, 64)).validate()
        with pytest.raises(ConfigError, match="batch"):
            RunConfig(batch=0).validate()
        with pytest.raises(ConfigError, match="timing_reps"):
            RunConfig(timing_reps=0).validate()
        with pytest.raises(ConfigError, match=r"^seed: must be >= 0, got -1$"):
            RunConfig(seed=-1).validate()
        with pytest.raises(ConfigError, match=r"^stages: a stage is listed more than once in \[1, 2, 1\]$"):
            RunConfig(stages=(1, 2, 1)).validate()

    def test_frame_pixels_bounded(self):
        # batch x H x W up to 2**22 is accepted, one row more is not
        RunConfig(input_size=(2048, 2048)).validate()
        RunConfig(input_size=(1024, 2048), batch=2).validate()
        with pytest.raises(ConfigError, match=r"^input_size: 2048x2049 x batch 1 = 4196352 pixels, "
                                              r"above the bound of 4194304$"):
            RunConfig(input_size=(2048, 2049)).validate()
        with pytest.raises(ConfigError, match=r"^input_size: 1024x2048 x batch 3 = 6291456 pixels"):
            RunConfig(input_size=(1024, 2048), batch=3).validate()

    @pytest.mark.parametrize("field, value", [
        ("tau", "x"), ("modalities", 3), ("batch", "2"), ("timing_reps", None),
        ("seed", True), ("source", 5), ("input_size", (64,)),
    ])
    def test_wrong_type_names_field(self, field, value):
        # a config file can hold any JSON value: none may escape as a TypeError,
        # ValueError or AttributeError, and source 5 must not open fd 5
        with pytest.raises(ConfigError, match=f"^{field}: expected"):
            replace(FAST, **{field: value}).validate()

    @pytest.mark.parametrize("field", ["stages", "input_size"])
    @pytest.mark.parametrize("value", [[3.9, 64], "34", [True, 64], ["64", 64], [64, float("nan")]],
                             ids=["fraction", "string", "bool", "string-entry", "nan"])
    def test_inexact_integers_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: expected a list of integers"):
            RunConfig.from_dict({field: value})

    @pytest.mark.parametrize("field, value", [
        ("stages", (True, 2.0)), ("stages", (3.0,)), ("stages", (np.int64(4),)), ("stages", ("4",)),
        ("input_size", (64.0, 64)), ("input_size", (64, True)), ("input_size", (np.int64(64), 64)),
    ])
    def test_entries_must_be_ints(self, field, value):
        # a config built in Python skips from_dict: validate checks the entries
        with pytest.raises(ConfigError, match=f"^{field}: expected a list of integers"):
            replace(FAST, **{field: value}).validate()

    def test_integral_floats_accepted(self):
        cfg = RunConfig.from_dict({"stages": [3.0, 4], "input_size": [64.0, 64]})
        assert cfg.stages == (3, 4) and cfg.input_size == (64, 64)
        assert all(type(v) is int for v in cfg.stages + cfg.input_size)

    def test_int_tau_accepted(self):
        assert replace(FAST, tau=1).validate().tau == 1

    def test_key_is_readable_and_unique_per_cell(self):
        a = RunConfig(mechanism="cssa", stages=(2, 3), tau=0.3)
        assert a.key() == "B1-cssa-s23-tau0.3-r4-separate-direct-RTE"
        assert RunConfig(stages=()).key().startswith("B1-mage_bite-snone")
        assert a.key() != RunConfig(mechanism="cssa", stages=(2, 3), tau=0.7).key()

    def test_dict_roundtrip(self):
        cfg = RunConfig(variant="B2", mechanism="gaff", stages=(3, 4), merge="bottleneck")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            RunConfig.from_dict({"variant": "B1", "dropout": 0.1})


class TestRunSingle:
    def test_report_contract(self):
        rep = run_single(FAST)
        assert rep.ok
        assert rep.stage_shapes == [
            (1, 32, 16, 16), (1, 64, 8, 8), (1, 160, 4, 4), (1, 256, 2, 2),
        ]
        assert rep.pyramid_shapes == [
            (1, 256, 16, 16), (1, 256, 8, 8), (1, 256, 4, 4), (1, 256, 2, 2), (1, 256, 1, 1),
        ]
        assert rep.param_count == param_count(build_param_specs(FAST))
        assert rep.forward_ms > 0.0
        assert rep.config["variant"] == "B0"

    def test_diagnostics_present_for_gated_mechanism(self):
        rep = run_single(FAST)
        assert "channel_gate_mean" in rep.diagnostics
        assert len(rep.diagnostics["channel_gate_mean"]) == 4  # one per fused stage

    def test_deterministic_given_seed(self):
        a = run_single(FAST)
        b = run_single(FAST)
        assert a.diagnostics == b.diagnostics
        assert a.param_count == b.param_count

    def test_manifest_source(self, tmp_path):
        manifest = generate_corpus(tmp_path, 1, height=64, width=64, seed=0)
        cfg = RunConfig(variant="B0", input_size=(64, 64), timing_reps=1,
                        source=str(manifest))
        rep = run_single(cfg)
        assert rep.ok
        assert rep.stage_shapes[0] == (1, 32, 16, 16)

    @pytest.mark.parametrize("cfg", [
        FAST, replace(FAST, mechanism="cssa", stages=(2, 4), modalities="RT", timing_reps=2),
        replace(FAST, mechanism="gaff", stages=(), batch=2, seed=3),
    ], ids=["mage_bite", "cssa-RT", "unfused-batch2"])
    def test_equals_one_whole_forward(self, cfg):
        assert_reports_equal_per_cell_runs([run_single(cfg)])

    def test_failure_raises_the_cells_error(self, monkeypatch):
        refused = ConfigError("fuse.s4 draw refused")

        def refusing(specs, seed):
            if any(s.name.startswith("fuse.s4.") for s in specs):
                raise refused
            return init_params(specs, seed)

        monkeypatch.setattr(harness, "init_params", refusing)
        with pytest.raises(ConfigError) as info:
            run_single(FAST)
        assert info.value is refused


class TestMakeInput:
    def test_synthetic_padded_to_stride(self):
        cfg = RunConfig(input_size=(33, 47))
        x, orig = make_input(cfg)
        assert x.shape == (1, 5, 64, 64)
        assert orig == (33, 47)

    def test_native_size_pads_to_320x416(self):
        x, orig = make_input(RunConfig())
        assert x.shape == (1, 5, 320, 416)
        assert orig == (301, 391)

    def test_seed_determinism(self):
        a, _ = make_input(RunConfig(seed=9, input_size=(40, 40)))
        b, _ = make_input(RunConfig(seed=9, input_size=(40, 40)))
        c, _ = make_input(RunConfig(seed=10, input_size=(40, 40)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSweeps:
    def test_product_size_and_order(self):
        sweep = {"mechanism": ["cssa", "gaff"], "tau": [0.3, 0.7]}
        configs = expand_sweep(FAST, sweep)
        assert len(configs) == 4
        assert [(c.mechanism, c.tau) for c in configs] == [
            ("cssa", 0.3), ("cssa", 0.7), ("gaff", 0.3), ("gaff", 0.7),
        ]

    def test_empty_sweep_is_base(self):
        assert expand_sweep(FAST, {}) == [FAST]

    def test_empty_axis_is_a_config_error(self):
        # an axis of no values would run no cell, and an empty grid reads as a pass
        with pytest.raises(ConfigError, match="^sweep axis 'mechanism' has no values$"):
            expand_sweep(FAST, {"mechanism": [], "tau": [0.3]})

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="sweep axis"):
            expand_sweep(FAST, {"depth": [1, 2]})

    @pytest.mark.parametrize("sweep", [{"stages": [4, 3]}, {"tau": 0.5}, 5])
    def test_malformed_sweep_is_a_config_error(self, sweep):
        with pytest.raises(ConfigError):
            expand_sweep(FAST, sweep)

    @pytest.mark.parametrize("stages", [[3.9], "34", [True], ["4"]])
    def test_inexact_stage_lists_rejected(self, stages):
        with pytest.raises(ConfigError, match="^stages: expected a list of integers"):
            expand_sweep(FAST, {"stages": [[4], stages]})

    def test_stage_subsets_cast_to_tuples(self):
        configs = expand_sweep(FAST, {"stages": [[1], [1, 2]]})
        assert configs[0].stages == (1,)
        assert configs[1].stages == (1, 2)


class TestRunGrid:
    def test_failures_isolated(self):
        reports = run_grid(FAST, {"variant": ["B0", "B9"]})
        assert len(reports) == 2
        by_variant = {r.config["variant"]: r for r in reports}
        assert by_variant["B0"].ok
        assert not by_variant["B9"].ok
        assert "ConfigError" in by_variant["B9"].error

    def test_outputs_written(self, tmp_path):
        reports = run_grid(FAST, {"variant": ["B0", "B9"]})
        jpath, cpath = write_grid_outputs(reports, tmp_path)
        data = json.loads(jpath.read_text())
        assert len(data) == 2
        rows = cpath.read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 cells
        assert "ConfigError" in rows[1] + rows[2]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_other_than_one_is_a_config_error(self, workers):
        # the keyword stays for callers that pass workers=1, and takes no other value
        with pytest.raises(ConfigError, match=f"^workers: grid cells run one at a time, got {workers}$"):
            run_grid(FAST, {"variant": ["B0", "B9"]}, workers=workers)


def tiled_params(specs, seed):
    """B0-B4 weights tiled from a small seeded pool: every report field is
    still computed by a real forward, without the B4-sized draws."""
    pool = np.random.default_rng(seed).standard_normal(4099).astype(np.float32) * 0.02
    return ParamStore({s.name: np.resize(pool, s.shape) for s in specs})


def single_report(cfg):
    """The cell's report from one whole forward, without the grid engine:
    one ``init_params`` draw of every array, then ``forward_dual`` and
    ``fpn``, or the error report a grid cell records.  ``init_params`` and
    ``fpn`` are looked up on ``harness`` at call time, so a test's
    monkeypatch applies here too."""
    try:
        specs = build_param_specs(cfg.validate())
        params = harness.init_params(specs, cfg.seed)
        diag = {}
        feats = backbone.forward_dual(make_input(cfg)[0], cfg.backbone_config(), cfg.fusion_config(),
                                      params, cfg.modalities, diag=diag)
        pyramid = harness.fpn(feats, params)
    except TrifuseError as e:
        return RunReport(config=cfg.to_dict(), error=f"{type(e).__name__}: {e}").to_dict()
    return RunReport(config=cfg.to_dict(), stage_shapes=[f.map.shape for f in feats],
                     pyramid_shapes=pyramid.shapes(), param_count=param_count(specs),
                     diagnostics=diag).to_dict()


def assert_reports_equal_per_cell_runs(reports):
    for rep in reports:
        cfg = RunConfig.from_dict(rep.config)
        got, want = rep.to_dict(), single_report(cfg)
        got.pop("forward_ms"), want.pop("forward_ms")
        assert got == want, cfg.key()


class TestGridEngine:
    """Grid cells share parameter arrays and nodes across one grid call."""

    # gaff at se_ratio 4 and 8 gives one parameter name two shapes; the two
    # placements share stages 1-2, and the two taus share all but cssa's
    # fused stages
    SWEEP = {"mechanism": ["gaff", "cssa"], "se_ratio": [4, 8], "stages": [[4], [3, 4]],
             "tau": [0.3, 0.7], "variant": ["B0", "B9"]}
    # 6 cells: stages 1-3 shared by all, stage 4 on four distinct prefixes
    PREFIXES = {"mechanism": ["cssa", "gaff", "mage_only"], "stages": [[4], [3, 4]]}

    def test_reports_equal_per_cell_runs(self):
        # two timing reps: a node's reruns only time it, its first output stays
        reports = run_grid(replace(FAST, timing_reps=2), self.SWEEP)
        assert len(reports) == 32
        assert sum(r.ok for r in reports) == 16
        assert_reports_equal_per_cell_runs(reports)

    def _count_encodes(self, monkeypatch, by_stream=False):
        calls = Counter()
        real = backbone.encode_stage

        def counting(x, stage, cfg, params, p):
            calls[(stage, p) if by_stream else stage] += 1
            return real(x, stage, cfg, params, p)

        monkeypatch.setattr(backbone, "encode_stage", counting)
        return calls

    def _count_fpns(self, monkeypatch):
        calls = []
        real = harness.fpn

        def counting(feats, params):
            calls.append([f.map.shape for f in feats])
            return real(feats, params)

        monkeypatch.setattr(harness, "fpn", counting)
        return calls

    def _record_memos(self, monkeypatch):
        memos = []
        real = harness._Memo

        def recording(cells):
            memos.append(real(cells))
            return memos[-1]

        monkeypatch.setattr(harness, "_Memo", recording)
        return memos

    def test_each_stage_encoded_once_per_prefix(self, monkeypatch):
        calls, fpns = self._count_encodes(monkeypatch), self._count_fpns(monkeypatch)
        run_grid(FAST, self.PREFIXES)
        # two streams per encode; one cell at a time recomputed all 48
        assert sum(calls.values()) == 14
        assert calls == {1: 2, 2: 2, 3: 2, 4: 8}
        # the pyramid's shapes depend on the input and widths; one FPN per cell made 6
        assert len(fpns) == 1

    def test_fpn_runs_once_per_input_and_widths(self, monkeypatch):
        calls = self._count_fpns(monkeypatch)
        sweep = {"variant": ["B0", "B1", "B9"], "modalities": ["RT", "RTE"], "mechanism": ["cssa"]}
        reports = run_grid(FAST, sweep)
        assert sum(r.ok for r in reports) == 4
        # one per set of widths: the modality sets share theirs, and no B9
        # cell reaches the neck
        assert [[s[1] for s in shapes] for shapes in calls] == [[32, 64, 160, 256], [64, 128, 320, 512]]
        assert_reports_equal_per_cell_runs(reports)

    def test_fpn_keyed_by_input(self, monkeypatch):
        calls = self._count_fpns(monkeypatch)
        configs = [replace(FAST, input_size=size, mechanism=m)
                   for size in ((64, 64), (64, 96)) for m in ("cssa", "none")]
        reports = harness._run_cells(configs)
        assert [shapes[0][2:] for shapes in calls] == [(16, 16), (16, 24)]
        assert_reports_equal_per_cell_runs(reports)

    def test_fused_stages_keyed_by_the_settings_their_block_reads(self, monkeypatch):
        # only cssa reads tau, so the other four mechanisms' fused stages are
        # shared across the two taus: stage 3 merges on 7 distinct prefixes
        # (unfused, four mechanisms, cssa at each tau), so stage 4 encodes 7
        # times, where keying every hyperparameter made it 11
        calls = self._count_encodes(monkeypatch)
        sweep = {"mechanism": ["mage_bite", "mage_only", "bite_only", "cssa", "gaff"],
                 "stages": [[4], [3, 4]], "tau": [0.3, 0.7]}
        reports = run_grid(FAST, sweep)
        assert len(reports) == 20 and all(r.ok for r in reports)
        assert calls == {1: 2, 2: 2, 3: 2, 4: 14}
        assert_reports_equal_per_cell_runs(reports)

    def _sample_at_fpn_turns(self, monkeypatch, sample):
        """Call ``sample()`` as each cell yields its FPN turn, after a collection."""
        real = harness._run_cell
        samples = []

        def cell(cfg, memo):
            turns = real(cfg, memo)
            while True:
                try:
                    turn = next(turns)
                except StopIteration as done:
                    return done.value
                if turn == "fpn":
                    gc.collect()
                    samples.append(sample())
                yield turn

        monkeypatch.setattr(harness, "_run_cell", cell)
        return samples

    def test_nodes_dropped_after_their_last_user(self, monkeypatch):
        maps, real_encode = [], backbone.encode_stage

        def recording(*args):
            out = real_encode(*args)
            maps.append(weakref.ref(out))
            return out

        monkeypatch.setattr(backbone, "encode_stage", recording)
        live_at_fpn = self._sample_at_fpn_turns(monkeypatch, lambda: sum(r() is not None for r in maps))
        run_grid(FAST, self.PREFIXES)
        gc.collect()
        assert len(maps) == 14
        # sampled as each cell yields its FPN turn, all in turn (4, b), before
        # any FPN runs.  Stages 1-3 are gone by then, and a cell at its FPN
        # turn holds no encode, so what stays live is what later cells still
        # read: the stage-4 pair the three [4] cells share and the stage-3
        # pair they wait on, and each waiting [3, 4] cell's own stage-4
        # stream-A encode.  None stays once the grid is done
        assert live_at_fpn == [7, 6, 6, 5, 1, 0]
        assert all(r() is None for r in maps)

    def test_only_the_fpn_nodes_first_user_waits_with_its_features(self, monkeypatch):
        maps, real_merge = [], harness.merge_step

        def recording(*args):
            feat, streams = real_merge(*args)
            maps.append(weakref.ref(feat.map))
            return feat, streams

        monkeypatch.setattr(harness, "merge_step", recording)
        live_at_fpn = self._sample_at_fpn_turns(monkeypatch, lambda: sum(r() is not None for r in maps))
        memos = self._record_memos(monkeypatch)
        run_grid(FAST, self.PREFIXES)
        # 2 shared unfused merges, 4 at stage 3 and one per cell at stage 4.
        # At each FPN turn the live ones are the first cell's four, kept for
        # the one FPN node, and the fused stage-3 maps that the [3, 4] cells
        # still to take turn (4, b) read as stage-4 inputs; every waiting
        # cell holding its own features made the last sample 12
        assert len(maps) == 12
        assert live_at_fpn == [7, 6, 6, 5, 5, 4]
        assert not memos[0].values and not memos[0].feats

    def test_nested_variants_share_stages_fpn_and_arrays(self, monkeypatch):
        # B2-B4 have the same stage 1 (depth 3), B2 and B3 the same stage 2
        # (depth 4), and all three the same widths
        calls, fpns = self._count_encodes(monkeypatch, by_stream=True), self._count_fpns(monkeypatch)
        drawn = Counter()

        def counting(specs, seed):
            drawn.update((s, seed) for s in specs)
            return tiled_params(specs, seed)

        monkeypatch.setattr(harness, "init_params", counting)
        reports = run_grid(replace(FAST, input_size=(32, 32)), {"variant": ["B2", "B3", "B4"]})
        assert all(r.ok for r in reports)
        assert calls == {(1, "a"): 1, (1, "b"): 1, (2, "a"): 2, (2, "b"): 2,
                         (3, "a"): 3, (3, "b"): 3, (4, "a"): 3, (4, "b"): 3}
        assert len(fpns) == 1
        want = {(s, 0) for r in reports for s in build_param_specs(RunConfig.from_dict(r.config))}
        assert drawn == Counter(want)
        assert_reports_equal_per_cell_runs(reports)

    @pytest.mark.parametrize("fused", [4, 2])
    def test_modality_sets_share_a_stream_up_to_its_first_fused_stage(self, monkeypatch, fused):
        calls = self._count_encodes(monkeypatch, by_stream=True)
        reports = run_grid(replace(FAST, mechanism="cssa", stages=(fused,)),
                           {"modalities": ["RE", "RT", "RTE", "TE"]})
        # up to the fused stage, stream A reads RGB in RE, RT and RTE and
        # thermal in TE; stream B reads event in RE and TE, thermal in RT and
        # both in RTE.  After it, each modality set has its own streams
        assert calls == {(s, p): (2 if p == "a" else 3) if s <= fused else 4
                         for s in range(1, 5) for p in "ab"}
        assert_reports_equal_per_cell_runs(reports)

    def test_arrays_live_from_first_reader_to_last(self, monkeypatch):
        arrays, live_at = [], {"encode": [], "fpn": []}
        memos = self._record_memos(monkeypatch)
        real_init, real_encode, real_fpn = harness.init_params, backbone.encode_stage, harness.fpn

        def live():
            return {name for name, ref in arrays if ref() is not None}

        def recording(specs, seed):
            store = real_init(specs, seed)
            arrays.extend((s.name, weakref.ref(store[s.name])) for s in specs)
            return store

        def encode(x, stage, cfg, params, p):
            if stage == 4:
                live_at["encode"].append(live())
            return real_encode(x, stage, cfg, params, p)

        def fpn(feats, params):
            live_at["fpn"].append(live())
            return real_fpn(feats, params)

        monkeypatch.setattr(harness, "init_params", recording)
        monkeypatch.setattr(backbone, "encode_stage", encode)
        monkeypatch.setattr(harness, "fpn", fpn)
        run_grid(FAST, {"variant": ["B0", "B1"], "mechanism": ["cssa"], "stages": [[4], [3, 4]]})
        # a stream's stage arrays are gone before its next stage's encodes
        # run (B1's cssa merges still read the width-free fuse.s3 arrays that
        # B0's drew), and every encoder and fusion array before the first
        # FPN; B1's FPN still reads the fpn.out arrays that B0's drew
        assert len(live_at["encode"]) == 8 and len(live_at["fpn"]) == 2
        assert not [n for names in live_at["encode"] for n in names if re.match(r"[ab]\.s[123]\.", n)]
        assert all(n.startswith("fpn.") for names in live_at["fpn"] for n in names)
        assert {n for n in live_at["fpn"][1] if n.startswith("fpn.out")} == {
            f"fpn.out{i}.{w}" for i in range(1, 5) for w in "wb"}
        assert not live() and len(memos) == 1
        assert not memos[0].values and not memos[0].feats

    @pytest.mark.parametrize("sweep, stage, encodes", [
        ({"variant": ["B2", "B3", "B4"]}, 3, 6),
        # the grid-light workload's sweep
        ({"variant": ["B0", "B1"], "mechanism": ["cssa", "gaff", "mage_only"], "stages": [[4], [3, 4]]}, 4, 16),
    ], ids=["nested-chain-stage-3", "grid-light-stage-4"])
    def test_one_streams_stage_arrays_live_at_each_encode(self, monkeypatch, sweep, stage, encodes):
        # B3's stage-3 blocks are B4's first 18, and the grid-light cells of
        # one variant read the same stage-4 encoder arrays: run cell by cell,
        # both streams' arrays stayed live from the first reader to the last
        arrays, live_at = [], []
        real_encode = backbone.encode_stage

        def recording(specs, seed):
            store = tiled_params(specs, seed)
            arrays.extend((s.name, weakref.ref(store[s.name])) for s in specs)
            return store

        def encode(x, s, cfg, params, p):
            if s == stage:
                live = {name[0] for name, ref in arrays if ref() is not None and name[1:4] == f".s{stage}"}
                live_at.append((p, live))
            return real_encode(x, s, cfg, params, p)

        monkeypatch.setattr(harness, "init_params", recording)
        monkeypatch.setattr(backbone, "encode_stage", encode)
        reports = run_grid(replace(FAST, input_size=(32, 32)), sweep)
        assert all(r.ok for r in reports)
        assert len(live_at) == encodes
        assert all(live == {p} for p, live in live_at), live_at

    def test_failing_shared_node_fails_each_cell_that_needs_it(self, monkeypatch):
        raised = []
        real = backbone.apply_fusion

        def failing(cfg, xa, xb, params, p, diag=None):
            if cfg.mechanism == "cssa" and p == "fuse.s3":
                raised.append(p)
                raise ShapeError("cssa at stage 3 refused")
            return real(cfg, xa, xb, params, p, diag)

        monkeypatch.setattr(backbone, "apply_fusion", failing)
        memos = self._record_memos(monkeypatch)
        reports = run_grid(FAST, {"mechanism": ["cssa", "gaff"], "stages": [[3], [3, 4], [4]]})
        assert len(raised) == 1  # one node, two cells
        # the nodes the failed cells never reached released their arrays
        assert not memos[0].values and not memos[0].feats
        failed = [r for r in reports if not r.ok]
        assert [(r.config["stages"], r.error) for r in failed] == [
            ([3], "ShapeError: cssa at stage 3 refused"), ([3, 4], "ShapeError: cssa at stage 3 refused"),
        ]
        assert_reports_equal_per_cell_runs(reports)

    def test_failing_draw_fails_each_cell_that_reads_the_array(self, monkeypatch):
        def refusing(specs, seed):
            if any(s.name.startswith("fuse.s4.") for s in specs):
                raise ConfigError("fuse.s4 draw refused")
            return init_params(specs, seed)

        monkeypatch.setattr(harness, "init_params", refusing)
        memos = self._record_memos(monkeypatch)
        reports = run_grid(FAST, {"mechanism": ["cssa", "gaff"], "stages": [[3], [3, 4], [4]]})
        assert [(r.config["mechanism"], r.config["stages"]) for r in reports if not r.ok] == [
            ("cssa", [3, 4]), ("cssa", [4]), ("gaff", [3, 4]), ("gaff", [4]),
        ]
        assert {r.error for r in reports if not r.ok} == {"ConfigError: fuse.s4 draw refused"}
        assert not memos[0].values and not memos[0].feats
        assert_reports_equal_per_cell_runs(reports)

    def test_failing_shared_input_fails_every_cell(self, tmp_path):
        manifest = generate_corpus(tmp_path, 1, height=64, width=64, seed=0)
        frame = tmp_path / "frame_0000.npy"
        frame.write_bytes(frame.read_bytes()[:100])
        reports = run_grid(replace(FAST, source=str(manifest)), self.PREFIXES)
        assert len({r.error for r in reports}) == 1
        assert reports[0].error.startswith("FormatError: ")
        assert_reports_equal_per_cell_runs(reports)

    def test_each_spec_built_once(self, monkeypatch):
        built = Counter()

        def counting(specs, seed):
            built.update(specs)
            return init_params(specs, seed)

        monkeypatch.setattr(harness, "init_params", counting)
        memos = self._record_memos(monkeypatch)
        sweep = {"mechanism": ["gaff", "cssa"], "se_ratio": [4, 8], "stages": [[4]],
                 "modalities": ["RT", "RTE"]}
        run_grid(FAST, sweep)
        # once per grid call, across both modality sets
        assert built == Counter({s for cfg in expand_sweep(FAST, sweep) for s in build_param_specs(cfg)})
        assert not memos[0].values and not memos[0].feats

    def test_ablation_reports_keep_inventory_order(self, monkeypatch):
        ran = []

        def fake_run_cell(cfg, memo):
            ran.append(cfg)
            yield from ()  # a cell that fails before its first turn
            return ConfigError("not run")

        monkeypatch.setattr(harness, "_run_cell", fake_run_cell)
        groups = run_ablation_grid(RunConfig())
        inventory = [cfg for _, cfg in INVENTORY]
        assert list(groups) == list(dict.fromkeys(g for g, _ in INVENTORY))
        assert [r.config for rs in groups.values() for r in rs] == [c.to_dict() for c in inventory]
        keys = [(c.variant, c.modalities, c.seed) for c in ran]
        assert keys == sorted(keys, key=keys.index)  # grouped, each group contiguous
        # a variant's modality sets, then the nested variants, one after another
        assert list(dict.fromkeys(k[:2] for k in keys)) == [
            ("B0", "RTE"), ("B1", "RE"), ("B1", "RT"), ("B1", "RTE"), ("B1", "TE"),
            ("B2", "RTE"), ("B3", "RTE"), ("B4", "RTE"),
        ]


class TestAblationGridEngine:
    """The 52-cell inventory through the engine, at a 32x32 input."""

    BASE = replace(FAST, input_size=(32, 32))

    @pytest.fixture(autouse=True)
    def cheap_init(self, monkeypatch):
        monkeypatch.setattr(harness, "init_params", tiled_params)

    def _watch_cells(self, monkeypatch):
        calls = []
        real = harness._run_cell

        def watched(cfg, group):
            calls.append(cfg)
            return real(cfg, group)

        monkeypatch.setattr(harness, "_run_cell", watched)
        return calls

    def test_encodes_run_stage_by_stage_and_stream_by_stream(self, monkeypatch):
        calls = []
        real_encode, real_merge, real_fpn = backbone.encode_stage, harness.merge_step, harness.fpn

        def encode(x, stage, cfg, params, p):
            calls.append((stage, p))
            return real_encode(x, stage, cfg, params, p)

        def merge(encoded, stage, *args):
            calls.append((stage, "merge"))
            return real_merge(encoded, stage, *args)

        def fpn(feats, params):
            calls.append((None, "fpn"))
            return real_fpn(feats, params)

        monkeypatch.setattr(backbone, "encode_stage", encode)
        monkeypatch.setattr(harness, "merge_step", merge)
        monkeypatch.setattr(harness, "fpn", fpn)
        run_ablation_grid(self.BASE)
        # every cell's stage-1 stream-A encode, then every stage-1 stream-B
        # one, and so on to stage 4's stream-B encodes
        encodes = [c for c in calls if c[1] in ("a", "b")]
        assert len(set(encodes)) == 8
        assert encodes == sorted(encodes)
        # and the two FPNs (B0's widths and B1-B4's) after every encode and merge
        fpns = [c[1] == "fpn" for c in calls]
        assert sum(fpns) == 2 and fpns == sorted(fpns)

    def test_each_distinct_config_runs_once(self, monkeypatch):
        calls = self._watch_cells(monkeypatch)
        groups = run_ablation_grid(self.BASE)
        reports = [r for rs in groups.values() for r in rs]
        assert len(reports) == 52
        assert len(calls) == 50
        assert len(set(calls)) == 50
        default = self.BASE.to_dict()
        repeats = [r for r in reports if r.config == default]
        assert len(repeats) == 3 and all(r is repeats[0] for r in repeats)


class TestAblationGridInventory:
    def test_run_totals(self):
        groups = [g for g, _ in INVENTORY]
        sizes = {g: groups.count(g) for g in groups}  # first-seen order
        assert list(sizes.items()) == [
            ("gaff_placement", 8), ("gaff_mechanism", 11), ("cssa", 21),
            ("modality", 4), ("capacity", 5), ("components", 3),
        ]
        assert groups == sorted(groups, key=list(sizes).index)  # each group contiguous
        assert len(groups) == 52

    def test_report_order_is_pinned(self):
        # the grid.json row order: "<group> <key>" per run, hashed
        lines = "\n".join(f"{g} {cfg.key()}" for g, cfg in INVENTORY)
        assert hashlib.sha1(lines.encode()).hexdigest() == "d21708830b8156a971abcf8666dbd49cc430baf9"

    def test_default_run_appears_in_three_groups(self):
        cells = INVENTORY
        assert [g for g, cfg in cells if cfg == RunConfig()] == ["modality", "capacity", "components"]
        assert len({cfg for _, cfg in cells}) == 50

    def test_placement_subsets(self):
        placements = [cfg.stages for g, cfg in INVENTORY if g == "gaff_placement"]
        assert (1, 2, 3, 4) in placements
        assert all(set(p) <= {1, 2, 3, 4} for p in placements)

    def test_cell_errors_share_one_format(self):
        # validation rejects the input size before any forward pass
        groups = run_ablation_grid(replace(FAST, input_size=(16, 16)))
        reports = [r for rs in groups.values() for r in rs]
        assert len(reports) == 52
        assert all(r.error.startswith("ConfigError: input_size") for r in reports)

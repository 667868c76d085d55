import hashlib
import json
import re
import weakref
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from trifuse import backbone, harness, neck
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

    def test_cells_bounded_by_the_product_of_the_axis_lengths(self):
        sweep = {"tau": [t / 64 for t in range(64)], "se_ratio": list(range(1, 65))}
        assert len(expand_sweep(FAST, sweep)) == harness.MAX_SWEEP_CELLS == 4096
        sweep["tau"].append(1.0)
        with pytest.raises(ConfigError, match="^sweep of 4160 cells, above the bound of 4096$"):
            expand_sweep(FAST, sweep)

    def test_repeated_value_is_a_config_error(self):
        # it would run one cell twice under one config key
        with pytest.raises(ConfigError, match=r"^sweep axis 'stages' lists a value more than once: "
                                              r"\[\[4\], \[3, 4\], \[4\]\]$"):
            expand_sweep(FAST, {"stages": [[4], [3, 4], [4]]})

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
    ``fpn``, or the error report a grid cell records.  ``init_params`` is
    looked up on ``harness`` at call time, so a test's monkeypatch applies
    here too."""
    try:
        specs = build_param_specs(cfg.validate())
        params = harness.init_params(specs, cfg.seed)
        feats = backbone.forward_dual(make_input(cfg)[0], cfg.backbone_config(), cfg.fusion_config(),
                                      params, cfg.modalities)
        pyramid = neck.fpn(feats, params)
    except TrifuseError as e:
        return RunReport(config=cfg.to_dict(), error=f"{type(e).__name__}: {e}").to_dict()
    diag = {}  # each statistic's values, in stage order
    for f in feats:
        for name, value in f.diagnostics.items():
            diag.setdefault(name, []).append(value)
    return RunReport(config=cfg.to_dict(), stage_shapes=[f.map.shape for f in feats],
                     pyramid_shapes=pyramid.shapes(), param_count=param_count(specs),
                     diagnostics=diag).to_dict()


def assert_reports_equal_per_cell_runs(reports):
    for rep in reports:
        cfg = RunConfig.from_dict(rep.config)
        got, want = rep.to_dict(), single_report(cfg)
        got.pop("forward_ms"), want.pop("forward_ms")
        assert got == want, cfg.key()


class NodeCall(NamedTuple):
    """One node the grid engine ran, as it started."""

    turn: tuple  # (stage, stream, part)
    reads: list  # the names of the arrays the node reads
    live: list  # the names of the parameter arrays alive in the process
    live_bytes: int  # their nbytes
    in_table: list  # the names of the parameter arrays in the turn's table
    values: list  # the turns of the earlier nodes whose output map is alive


@pytest.fixture
def node_calls(monkeypatch):
    """Every node the grid engine runs, in order, as a ``NodeCall``: its
    turn label and what is alive as it starts."""
    calls, arrays, outputs = [], {}, []
    real = harness._Arrays.node

    def node(table, step):
        def fn(params, *args):
            for name in params.names():
                arrays[id(params[name])] = name, weakref.ref(params[name])
            live = [(name, a) for name, ref in arrays.values() if (a := ref()) is not None]
            in_table = [spec.name for (spec, _), a in table.drawn.items() if isinstance(a, np.ndarray)]
            calls.append(NodeCall(step.turn, params.names(), sorted(n for n, _ in live),
                                  sum(a.nbytes for _, a in live), sorted(in_table),
                                  [turn for turn, ref in outputs if ref() is not None]))
            del live
            out = step.fn(params, *args)
            value = out[0] if isinstance(out, tuple) else out  # a timed node's value, or the input
            value = value[0] if isinstance(value, tuple) else value
            value = getattr(value, "map", value)
            if isinstance(value, np.ndarray):  # tokens, a stage map or a merge's stage map
                outputs.append((step.turn, weakref.ref(value)))
            return out

        return real(table, step._replace(fn=fn))

    monkeypatch.setattr(harness._Arrays, "node", node)
    return calls


def ran(calls):
    """How many stage-part nodes ran in each turn (stage, stream, part)."""
    return Counter(c.turn for c in calls if c.turn[1] in ("a", "b"))


def parts(depth):
    """The part labels of a stage of ``depth`` blocks: embed, blocks, final norm."""
    return [(0,), *((1, j) for j in range(depth)), (2,)]


def fpns(calls):
    """The stage-feature shapes each FPN in ``calls`` ran on: the FPNs of a
    grid call run their four parts in four turns, each part once."""
    firsts = [shapes for j, shapes in calls if j == 0]
    assert [j for j, _ in calls] == [j for j in range(4) for _ in firsts]
    return firsts


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

    def _count_fpns(self, monkeypatch):
        """The index of each FPN part the engine runs, in order, and for a
        first part the shapes of the stage features it is given."""
        calls = []
        real = harness.fpn_parts

        def counting(widths):
            def counted(j, part):
                def run(state, params):
                    calls.append((j, [f.map.shape for f in state] if j == 0 else None))
                    return part(state, params)
                return run

            return [(name, specs, counted(j, part)) for j, (name, specs, part) in enumerate(real(widths))]

        monkeypatch.setattr(harness, "fpn_parts", counting)
        return calls

    def _record_tables(self, monkeypatch):
        tables = []
        real = harness._Arrays

        def recording(steps):
            tables.append(real(steps))
            return tables[-1]

        monkeypatch.setattr(harness, "_Arrays", recording)
        return tables

    def test_each_stage_encoded_once_per_prefix(self, monkeypatch, node_calls):
        calls = self._count_fpns(monkeypatch)
        run_grid(FAST, self.PREFIXES)
        # each part of a stream's stage once per prefix: 56 part nodes, where
        # one cell at a time ran 192
        assert ran(node_calls) == {(s, p, part): 4 if s == 4 else 1
                                   for s in range(1, 5) for p in "ab" for part in parts(2)}
        # the pyramid's shapes depend on the input and widths; one FPN per cell made 6
        assert len(fpns(calls)) == 1

    def test_fpn_runs_once_per_input_and_widths(self, monkeypatch):
        calls = self._count_fpns(monkeypatch)
        sweep = {"variant": ["B0", "B1", "B9"], "modalities": ["RT", "RTE"], "mechanism": ["cssa"]}
        reports = run_grid(FAST, sweep)
        assert sum(r.ok for r in reports) == 4
        # one per set of widths: the modality sets share theirs, and no B9
        # cell reaches the neck
        assert [[s[1] for s in shapes] for shapes in fpns(calls)] == [[32, 64, 160, 256], [64, 128, 320, 512]]
        assert_reports_equal_per_cell_runs(reports)

    def test_fpn_keyed_by_input(self, monkeypatch):
        calls = self._count_fpns(monkeypatch)
        configs = [replace(FAST, input_size=size, mechanism=m)
                   for size in ((64, 64), (64, 96)) for m in ("cssa", "none")]
        reports = harness._run_cells(configs)
        assert [shapes[0][2:] for shapes in fpns(calls)] == [(16, 16), (16, 24)]
        assert_reports_equal_per_cell_runs(reports)

    def test_fused_stages_keyed_by_the_settings_their_block_reads(self, node_calls):
        # only cssa reads tau, so the other four mechanisms' fused stages are
        # shared across the two taus: stage 3 merges on 7 distinct prefixes
        # (unfused, four mechanisms, cssa at each tau), so each stage-4 part
        # runs 7 times per stream, where keying every hyperparameter made it 11
        sweep = {"mechanism": ["mage_bite", "mage_only", "bite_only", "cssa", "gaff"],
                 "stages": [[4], [3, 4]], "tau": [0.3, 0.7]}
        reports = run_grid(FAST, sweep)
        assert len(reports) == 20 and all(r.ok for r in reports)
        assert ran(node_calls) == {(s, p, part): 7 if s == 4 else 1
                                   for s in range(1, 5) for p in "ab" for part in parts(2)}
        assert_reports_equal_per_cell_runs(reports)

    def test_nodes_dropped_after_their_last_user(self, node_calls):
        run_grid(FAST, self.PREFIXES)
        # the stage-part outputs (tokens or maps) alive as each stage-4 node
        # and each FPN part start.  Stream A's four embeds start from the
        # stage-3 norms the three [4] cells share (the [3, 4] cells start
        # from their merges).  A node's input goes once its cells have taken
        # its output, so each embed adds one map and each later part
        # replaces its input.  Stream B's parts run while the four stream-A
        # maps wait for the merges; a merge's two maps go after the last
        # cell to merge them, the [4] cells' pair after the third.  Nothing
        # is left when the FPN's four parts run
        alive = [sum(t[1] in ("a", "b") for t in c.values) for c in node_calls if c.turn[0] >= 4]
        assert alive == [2, 2, 3, 4] + [5] * 12 + [5, 5, 6, 7] + [8] * 12 + [8, 8, 6, 6, 4, 2] + [0] * 4

    def test_only_the_fpn_nodes_first_user_waits_with_its_features(self, monkeypatch, node_calls):
        tables = self._record_tables(monkeypatch)
        run_grid(FAST, self.PREFIXES)
        # the merge maps alive as each merge and each FPN part start.  The
        # first cell (cssa at [4]) keeps its stage features for the one FPN
        # from each merge on: one at each of stages 1 and 2, the unfused
        # stage-3 merge the [4] cells share, and its own stage-4 merge.  The
        # three fused stage-3 maps live only until the [3, 4] cells' stage-4
        # embeds have read them, and every other cell keeps only the shapes
        # of its features, where keeping its stage-4 features until its FPN
        # turn made 9 at the FPN, and keeping all of them to the end 12.
        # Each FPN part drops the feature it read: its state holds only the
        # features not yet read
        alive = [sum(t[1] == "merge" for t in c.values) for c in node_calls if c.turn[1] in ("merge", "fpn")]
        assert alive == [0, 1, 2, 3, 4, 5, 3, 4, 4, 4, 4, 4] + [4, 3, 2, 1]
        assert not any(t.drawn for t in tables)

    def test_nested_variants_share_stages_fpn_and_arrays(self, monkeypatch, node_calls):
        calls = self._count_fpns(monkeypatch)
        drawn = Counter()

        def counting(specs, seed):
            drawn.update((s, seed) for s in specs)
            return tiled_params(specs, seed)

        monkeypatch.setattr(harness, "init_params", counting)
        reports = run_grid(replace(FAST, input_size=(32, 32)), {"variant": ["B2", "B3", "B4"]})
        assert all(r.ok for r in reports)
        # B2-B4 share stage 1 (depth 3) and stage-2 blocks 0-3; B2 and B3
        # share the rest of stage 2 (depth 4) and stage-3 blocks 0-5 (B2's
        # depth 6).  B3's stage-3 blocks read B4's first 18 blocks' arrays,
        # but not B4's input, so each of those runs twice
        want = {}
        for p in "ab":
            want.update({(1, p, part): 1 for part in parts(3)})
            want.update({(2, p, part): 1 for part in parts(8)} | {(2, p, (2,)): 2})
            want.update({(3, p, part): 2 for part in parts(27)} | {(3, p, (2,)): 3})
            want.update({(3, p, (1, j)): 1 for j in range(18, 27)})
            want.update({(4, p, part): 3 for part in parts(3)})
        assert ran(node_calls) == want
        assert len(fpns(calls)) == 1
        want = {(s, 0) for r in reports for s in build_param_specs(RunConfig.from_dict(r.config))}
        assert drawn == Counter(want)
        assert_reports_equal_per_cell_runs(reports)

    @pytest.mark.parametrize("fused", [4, 2])
    def test_modality_sets_share_a_stream_up_to_its_first_fused_stage(self, node_calls, fused):
        reports = run_grid(replace(FAST, mechanism="cssa", stages=(fused,)),
                           {"modalities": ["RE", "RT", "RTE", "TE"]})
        # up to the fused stage, stream A reads RGB in RE, RT and RTE and
        # thermal in TE; stream B reads event in RE and TE, thermal in RT and
        # both in RTE.  After it, each modality set has its own streams
        assert ran(node_calls) == {(s, p, part): (2 if p == "a" else 3) if s <= fused else 4
                                   for s in range(1, 5) for p in "ab" for part in parts(2)}
        assert_reports_equal_per_cell_runs(reports)

    def test_arrays_live_from_first_reader_to_last(self, monkeypatch, node_calls):
        tables = self._record_tables(monkeypatch)
        drawn = Counter()

        def counting(specs, seed):
            drawn.update(s.name for s in specs)
            return init_params(specs, seed)

        monkeypatch.setattr(harness, "init_params", counting)
        run_grid(FAST, {"variant": ["B0", "B1"], "mechanism": ["cssa"], "stages": [[4], [3, 4]]})
        # every stage part and FPN part runs with its own arrays alive and no
        # other: the last part's are gone, and of two variants' arrays of one
        # name only its own.  B1's FPN parts read the fpn.out arrays that
        # B0's drew, and B1's cssa merge the width-free fuse.s3 arrays, which
        # wait for it through B1's unfused stage-3 merge
        fpn = [c for c in node_calls if c.turn[1] == "fpn"]
        assert len(node_calls) == 101 and [c.turn for c in fpn] == [(5, "fpn", (j,)) for j in range(4) for _ in "01"]
        merges = [c for c in node_calls if c.turn[1] == "merge"]
        assert all(c.live == c.reads for c in node_calls if c.turn[1] != "merge")
        assert all(set(c.reads) <= set(c.live) for c in merges)
        assert {n for c in merges for n in set(c.live) - set(c.reads)} == {
            "fuse.s3.cssa.a.score.b", "fuse.s3.cssa.a.score.w", "fuse.s3.cssa.b.score.b",
            "fuse.s3.cssa.b.score.w", "fuse.s3.cssa.sp.out.b"}
        # each FPN part reads its lateral and the smoothing conv of the level
        # above, the last one level 1's too: never all 16 FPN arrays at once
        names = [sorted(f"fpn.{layer}.{w}" for layer in layers for w in "bw")
                 for layers in (["lat4"], ["lat3", "out4"], ["lat2", "out3"], ["lat1", "out1", "out2"])]
        assert [c.live for c in fpn] == [n for n in names for _ in "01"]
        # an FPN array is drawn once per grid call: the laterals' weights
        # once per widths, the width-free smoothing convs and biases once
        assert {n: k for n, k in drawn.items() if n.startswith("fpn.")} == {
            f"fpn.{layer}{i}.{w}": 1 + (layer + w == "latw") for layer in ("lat", "out") for i in range(1, 5) for w in "wb"}
        assert len(tables) == len({c.turn for c in node_calls}) and not any(t.drawn for t in tables)

    @pytest.mark.parametrize("sweep, stage, calls", [
        ({"variant": ["B2", "B3", "B4"]}, 3, 100),
        # the grid-light workload's sweep
        ({"variant": ["B0", "B1"], "mechanism": ["cssa", "gaff", "mage_only"], "stages": [[4], [3, 4]]}, 4, 64),
    ], ids=["nested-chain-stage-3", "grid-light-stage-4"])
    def test_one_streams_stage_arrays_live_at_each_encode(self, monkeypatch, node_calls, sweep, stage, calls):
        # B3's stage-3 blocks are B4's first 18, and the grid-light cells of
        # one variant read the same stage-4 encoder arrays: run cell by cell,
        # both streams' whole-stage arrays stayed live from the first reader
        # to the last, and run stage by stage one stream's whole stage did
        monkeypatch.setattr(harness, "init_params", tiled_params)
        reports = run_grid(replace(FAST, input_size=(32, 32)), sweep)
        assert all(r.ok for r in reports)
        at_stage = [c for c in node_calls if c.turn[0] == stage and c.turn[1] in ("a", "b")]
        assert len(at_stage) == calls
        assert all(c.live == c.reads for c in at_stage)

    def test_shared_blocks_drawn_once_and_dropped_before_the_next(self, monkeypatch, node_calls):
        # B3's stage-3 blocks 0-17 read B4's arrays, by (ParamSpec, seed)
        drawn, arrays, live_at_draw = Counter(), [], []

        def drawing(specs, seed):
            live_at_draw.append(([s.name for s in specs], [n for n, ref in arrays if ref() is not None]))
            store = tiled_params(specs, seed)
            drawn.update((s, seed) for s in specs)
            arrays.extend((s.name, weakref.ref(store[s.name])) for s in specs)
            return store

        monkeypatch.setattr(harness, "init_params", drawing)
        cells = [replace(FAST, input_size=(32, 32), variant=v) for v in ("B3", "B4")]
        assert all(isinstance(r, RunReport) for r in harness._run_cells(cells))
        assert set(drawn.values()) == {1}
        # B3's and B4's block j run back to back, then block j + 1's
        blocks = [c.turn for c in node_calls if c.turn[0] == 3 and c.turn[2][:1] == (1,)]
        assert blocks == [(3, p, (1, j)) for p in "ab" for j in range(27) for _ in range(1 + (j < 18))]
        # block j's arrays are gone before block j + 1's are drawn
        for names, live in live_at_draw:
            for block in {m[0] for n in names if (m := re.match(r"[ab]\.s3\.blk\d+\.", n))}:
                assert all(n.startswith(block) for n in live if re.match(r"[ab]\.s3\.blk", n))
        # at each part node, its own arrays and no other are in the turn's
        # table and alive: at a stage-3 block, one block's 6.6 MB of B4's
        # 180.4 MB stage
        nbytes = {s.name: 4 * s.size for cfg in cells for s in build_param_specs(cfg)}
        for c in node_calls:
            if c.turn[1] in ("a", "b"):
                assert c.in_table == c.live == c.reads
                assert c.live_bytes == sum(nbytes[n] for n in c.reads)
        block = max(c.live_bytes for c in node_calls if c.turn[0] == 3)
        assert block == sum(b for n, b in nbytes.items() if n.startswith("a.s3.blk0."))
        assert 26 * block < sum(b for n, b in nbytes.items() if n.startswith("a.s3."))

    def test_failing_shared_node_fails_each_cell_that_needs_it(self, monkeypatch):
        raised = []
        real = backbone.apply_fusion

        def failing(cfg, xa, xb, params, p):
            if cfg.mechanism == "cssa" and p == "fuse.s3":
                raised.append(p)
                raise ShapeError("cssa at stage 3 refused")
            return real(cfg, xa, xb, params, p)

        monkeypatch.setattr(backbone, "apply_fusion", failing)
        tables = self._record_tables(monkeypatch)
        reports = run_grid(FAST, {"mechanism": ["cssa", "gaff"], "stages": [[3], [3, 4], [4]]})
        assert len(raised) == 1  # one node, two cells
        # the turns' tables kept nothing, and the FPN still ran on the first
        # cell's stage-1 and stage-2 features and cssa at [4]'s others
        assert not any(t.drawn for t in tables)
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
        tables = self._record_tables(monkeypatch)
        reports = run_grid(FAST, {"mechanism": ["cssa", "gaff"], "stages": [[3], [3, 4], [4]]})
        assert [(r.config["mechanism"], r.config["stages"]) for r in reports if not r.ok] == [
            ("cssa", [3, 4]), ("cssa", [4]), ("gaff", [3, 4]), ("gaff", [4]),
        ]
        assert {r.error for r in reports if not r.ok} == {"ConfigError: fuse.s4 draw refused"}
        assert not any(t.drawn for t in tables)
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
        tables = self._record_tables(monkeypatch)
        sweep = {"mechanism": ["gaff", "cssa"], "se_ratio": [4, 8], "stages": [[4]],
                 "modalities": ["RT", "RTE"]}
        run_grid(FAST, sweep)
        # once per grid call, across both modality sets
        assert built == Counter({s for cfg in expand_sweep(FAST, sweep) for s in build_param_specs(cfg)})
        assert not any(t.drawn for t in tables)

    def test_ablation_reports_keep_inventory_order(self, monkeypatch):
        ran = []

        def fake_run_cell(cfg, parked):
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

    def test_encodes_run_stage_by_stage_and_stream_by_stream(self, node_calls):
        run_ablation_grid(self.BASE)
        # by turn label: every cell's stage-1 stream-A embed, then its first
        # block and so on to its final norm, then stream B's parts, the
        # stage-1 merges, and so on to stage 4
        turns = [c.turn for c in node_calls]
        assert turns == sorted(turns)
        assert {t[2] for t in turns if t[:2] == (3, "a")} == set(parts(27))
        # and the two FPNs (B0's widths and B1-B4's) after every stage node,
        # part by part
        assert turns[-8:] == [(5, "fpn", (j,)) for j in range(4) for _ in "01"]
        assert sum(t[1] == "fpn" for t in turns) == 8

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

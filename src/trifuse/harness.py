"""Config-driven experiment harness.

Assembles the full pipeline (data -> streams -> dual backbone -> FPN) for
each configuration, and enumerates ablation grids over placement,
mechanism hyperparameters, modality subsets and backbone capacity.  Every
run is deterministic given (config, seed) and its report embeds the config
so it can be replayed.

One grid engine runs every cell, and ``run_single`` (behind ``inspect``)
is a grid of one.  This is its one description:

- *Turns.* Each cell's walk yields its nodes in order, each in a turn
  labelled (stage, stream, part): the input (0, "input", ()); per stage,
  each stream's patch embed (0,), block j (1, j) and final norm (2,), then
  the merge (stage, "merge", ()); last, the FPN's parts, one per lateral,
  (5, "fpn", (j,)).  One loop steps the cells by turn: each pass takes
  the lowest label any cell waits at and runs each node waiting there
  once, then resumes every cell waiting at it before the next node runs,
  so the nodes that read one block's arrays run back to back, whatever
  the cells' depths, and a node's value is held only until its cells have
  taken it.  Within a turn the nodes go in the order of their first cells
  in (seed, variant, modalities) order, on the calling thread: the
  benchmark pins BLAS to one thread, so a report times single-core work.
- *Keys.* A node is keyed by what it reads, not by which cell asks: the
  input by (input_size, batch, source, seed); a stage part by its name,
  the stage geometry, ``timing_reps`` and its input node, for a stage-1
  embed the stream's channel slice of the input; a merge by its name, the
  fusion settings its block reads (None if unfused) and its two final
  norms; an FPN part by its name and the part before it, the first by the
  input, the widths and ``timing_reps``.  A fused stage feeds its merge to
  both next embeds, an unfused one each stream's norm to its own.  So
  nested variants share their common parts, modality sets share a stream
  up to its first fused stage, and a node runs once per grid call however
  many cells pass it.  A config listed more than once runs once, and every
  listing gets its report.
- *Arrays.* A node reads the arrays its part declares, seeded by the
  cell's seed: the specs from ``backbone.stage_parts``,
  ``backbone.merge_part`` (none at an unfused stage) or
  ``neck.fpn_parts``.  An array is keyed by (ParamSpec, seed), bitwise
  equal to a fresh ``init_params`` by per-name seeding, drawn just before
  its first reader and dropped after its last.  So only one block's arrays
  are live, or one FPN part's, which the FPNs of all widths share where
  they are width-free.
- *Parking.* A report keeps only the pyramid's shapes and the FPN's time,
  so one FPN runs per input and widths, after every stage turn, on the
  stage features of its first cell.  The first of its cells to reach each
  merge parks the stage feature for the FPN's first part to take; every
  other cell keeps the feature's shape alone.
- *Time.* A report equals what one whole ``forward_dual`` and ``fpn``
  give, except that ``forward_ms`` is composed: the sum of the median
  times, over ``timing_reps`` calls, of the patch embed, block and
  final-norm nodes, the merges and the FPN's parts on the cell's walk.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import backbone
from .backbone import STREAM_SLICES, BackboneConfig, backbone_param_specs, normalize_modalities
from .data import MAX_FRAME_PIXELS, default_stats, load_frame, load_manifest, normalize, pad_to_stride
from .errors import ConfigError, TrifuseError, ValidationError
from .fusion import FusionConfig
from .neck import fpn_param_specs, fpn_parts
from .tensors import ParamStore, init_params, param_count

DEFAULT_INPUT_SIZE = (301, 391)
# what fails one grid cell and not the grid: a package error, a source file
# the cell cannot open, or an allocation the host cannot make
_CELL_ERRORS = (TrifuseError, OSError, MemoryError)

# the RunConfig fields a sweep may vary
SWEEP_AXES = ("variant", "mechanism", "stages", "tau", "se_ratio", "guidance", "merge", "modalities")
# the most cells one sweep may ask for, about 80 times the 52-run inventory
MAX_SWEEP_CELLS = 4096


@dataclass(frozen=True)
class RunConfig:
    """One cell of the ablation grid.

    Defaults correspond to the main setting: B1 backbone, MAGE+BiTE at all
    four stages, all three modalities, native 301x391 input.  The headline
    placement is not pinned anywhere authoritative, so it stays a plain
    configurable default.
    """

    variant: str = "B1"
    mechanism: str = "mage_bite"
    stages: tuple = (1, 2, 3, 4)
    tau: float = 0.5
    se_ratio: int = 4
    guidance: str = "separate"
    merge: str = "direct"
    modalities: str = "RTE"
    input_size: tuple = DEFAULT_INPUT_SIZE
    seed: int = 0
    batch: int = 1
    source: str = "synthetic"  # synthetic | path to a manifest
    timing_reps: int = 5

    def backbone_config(self):
        return BackboneConfig.variant_config(self.variant)

    def fusion_config(self):
        return FusionConfig(
            mechanism=self.mechanism,
            stages=frozenset(self.stages),
            tau=self.tau,
            se_ratio=self.se_ratio,
            guidance=self.guidance,
            merge=self.merge,
        )

    def validate(self):
        """Raise ConfigError naming the offending field."""
        for f in fields(self):
            value, want = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
                raise ConfigError(f"{f.name}: expected {want.__name__}, got {value!r}")
        for name in ("stages", "input_size"):
            if not all(map(_is_int, getattr(self, name))):
                raise ConfigError(f"{name}: expected a list of integers, got {getattr(self, name)!r}")
        if len(set(self.stages)) < len(self.stages):
            raise ConfigError(f"stages: a stage is listed more than once in {list(self.stages)}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        try:
            self.backbone_config()
        except ConfigError as e:
            raise ConfigError(f"variant: {e}") from e
        try:
            self.fusion_config()
        except ConfigError as e:
            raise ConfigError(f"fusion: {e}") from e
        try:
            normalize_modalities(self.modalities)
        except ConfigError as e:
            raise ConfigError(f"modalities: {e}") from e
        if len(self.input_size) != 2:
            raise ConfigError(f"input_size: expected [H, W], got {list(self.input_size)}")
        h, w = self.input_size
        if h < 32 or w < 32:
            raise ConfigError(f"input_size: {h}x{w} too small for the stride schedule")
        if self.batch < 1:
            raise ConfigError(f"batch: must be >= 1, got {self.batch}")
        if self.batch * h * w > MAX_FRAME_PIXELS:
            raise ConfigError(f"input_size: {h}x{w} x batch {self.batch} = {self.batch * h * w} pixels, "
                              f"above the bound of {MAX_FRAME_PIXELS}")
        if self.timing_reps < 1:
            raise ConfigError(f"timing_reps: must be >= 1, got {self.timing_reps}")
        return self

    def key(self):
        st = "".join(str(s) for s in sorted(self.stages)) or "none"
        return (
            f"{self.variant}-{self.mechanism}-s{st}-tau{self.tau}"
            f"-r{self.se_ratio}-{self.guidance}-{self.merge}-{self.modalities}"
        )

    def to_dict(self):
        d = asdict(self)
        d["stages"] = sorted(self.stages)
        d["input_size"] = list(self.input_size)
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        d = dict(d)
        for name in ("stages", "input_size"):
            if name in d:
                d[name] = _int_tuple(name, d[name])
        return cls(**d)


@dataclass
class RunReport:
    """Outcome of one run; embeds its config for replay."""

    config: dict
    stage_shapes: list = field(default_factory=list)
    pyramid_shapes: list = field(default_factory=list)
    param_count: int = 0
    forward_ms: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    error: str = None

    @property
    def ok(self):
        return self.error is None

    def to_dict(self):
        d = asdict(self)
        for k in ("stage_shapes", "pyramid_shapes"):
            d[k] = [list(s) for s in d[k]]
        return d


def _is_int(v):
    """An int, not a boolean: what a validated config holds."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_tuple(name, values):
    """``values`` as a tuple of exact integers.  As for JSONL class ids, an
    integral float is accepted; a string, a boolean or a fraction is not."""
    def exact(v):
        return _is_int(v) or isinstance(v, np.integer) or isinstance(v, float) and v.is_integer()

    if not isinstance(values, (list, tuple)) or not all(map(exact, values)):
        raise ConfigError(f"{name}: expected a list of integers, got {values!r}")
    return tuple(int(v) for v in values)


def build_param_specs(run_cfg):
    cfg = run_cfg.backbone_config()
    specs = backbone_param_specs(cfg, run_cfg.fusion_config(), run_cfg.modalities)
    return specs + fpn_param_specs(cfg.widths)


def make_input(run_cfg):
    """Build the padded (B, 5, H', W') probe input for a run."""
    if run_cfg.source == "synthetic":
        rng = np.random.default_rng(run_cfg.seed)
        h, w = run_cfg.input_size
        x = rng.standard_normal((run_cfg.batch, 5, h, w)).astype(np.float32)
    else:
        manifest = load_manifest(run_cfg.source)
        if not manifest.entries:
            raise ValidationError(f"{run_cfg.source}: manifest has no entries")
        frame = load_frame(manifest.entries[0].image, manifest.entries[0].labels)
        x = normalize(frame, default_stats())
        x = np.repeat(x, run_cfg.batch, axis=0)
    padded, orig = pad_to_stride(x, 32)
    return padded, orig


def _timed(reps, fn, *args):
    """``fn(*args)``'s first output and its median wall ms over ``reps`` calls."""
    out, times = None, []
    for rep in range(reps):
        t0 = time.perf_counter()
        value = fn(*args)
        times.append((time.perf_counter() - t0) * 1000.0)
        if rep == 0:
            out = value
    return out, statistics.median(times)


def run_single(run_cfg):
    """Execute one configuration end to end and report shapes/params/timing:
    a one-cell grid, which raises the error that fails the cell."""
    (outcome,) = _run_cells([run_cfg.validate()])
    if isinstance(outcome, _CELL_ERRORS):
        raise outcome
    return outcome


def expand_sweep(base, sweep):
    """Cartesian product of sweep axes applied over a base config.

    ``sweep`` maps axis name -> non-empty list of distinct values; an
    empty spec yields the base config alone.  The product of the axis
    lengths is checked against ``MAX_SWEEP_CELLS`` before any config is
    built.  Axis order is fixed (sorted) so enumeration is deterministic.
    """
    if not isinstance(sweep, dict) or not all(isinstance(v, (list, tuple)) for v in sweep.values()):
        raise ConfigError(f"sweep must map each axis to a list of values, got {sweep!r}")
    if not sweep:
        return [base]
    cells = math.prod(map(len, sweep.values()))
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(f"sweep of {cells} cells, above the bound of {MAX_SWEEP_CELLS}")
    for axis, values in sweep.items():
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; valid: {sorted(SWEEP_AXES)}")
        if not values:
            raise ConfigError(f"sweep axis {axis!r} has no values")
        if any(values.index(v) < i for i, v in enumerate(values)):
            raise ConfigError(f"sweep axis {axis!r} lists a value more than once: {list(values)!r}")
    axes = sorted(sweep)
    configs = []
    for combo in itertools.product(*(sweep[a] for a in axes)):
        upd = dict(zip(axes, combo))
        if "stages" in upd:
            upd["stages"] = _int_tuple("stages", upd["stages"])
        configs.append(replace(base, **upd))
    return configs


class _Step(NamedTuple):
    """One node on a cell's walk: it runs ``fn(params, *args)`` in turn
    ``turn``, ``params`` holding the ``arrays`` it reads, as (ParamSpec,
    seed) pairs.  ``key`` says what the node reads, not which cell asks."""

    turn: tuple
    key: tuple
    arrays: list
    fn: object
    args: tuple


class _Arrays:
    """One turn's table of the parameter arrays its nodes read, keyed by
    (ParamSpec, seed): each drawn by ``init_params`` for its first reader,
    a draw error kept for every later one, and dropped after its last."""

    def __init__(self, steps):
        self.readers = Counter(a for step in steps for a in step.arrays)
        self.drawn = {}

    def node(self, step):
        """The node's value: its call run with the arrays it reads."""
        try:
            return step.fn(ParamStore({s.name: self._draw(s, seed) for s, seed in step.arrays}), *step.args)
        finally:
            for a in step.arrays:
                self.readers[a] -= 1
                if not self.readers[a]:
                    self.drawn.pop(a, None)

    def _draw(self, spec, seed):
        if (spec, seed) not in self.drawn:
            try:
                self.drawn[spec, seed] = init_params([spec], seed)[spec.name]
            except _CELL_ERRORS as e:  # raised again to every reader
                self.drawn[spec, seed] = e
        if isinstance(array := self.drawn[spec, seed], _CELL_ERRORS):
            raise array
        return array


def _input(params, cfg):
    return make_input(cfg)[0]


def _part(params, reps, part, x):
    return _timed(reps, part, x, params)


def _parked(params, reps, part, parked, key):
    """``_part`` on the stage features parked under ``key``: the FPN's
    first part, which takes them out of ``parked``."""
    return _part(params, reps, part, parked.pop(key))


def _run_cell(cfg, parked):
    """One grid cell's walk, as the module docstring describes it: a
    generator that yields each node the cell passes, in order, as a
    ``_Step``, is sent the node's value or has the error that computing it
    raised thrown in, and returns the cell's report.  The cell parks stage
    features for its FPN in ``parked``.  An error in ``_CELL_ERRORS`` is
    returned, not raised."""
    try:
        cfg.validate()
        bcfg, fus, reps = cfg.backbone_config(), cfg.fusion_config(), cfg.timing_reps
        n_params = param_count(build_param_specs(cfg))

        def seeded(specs):
            return [(spec, cfg.seed) for spec in specs]

        source = ("input", cfg.input_size, cfg.batch, cfg.source, cfg.seed)
        fpn_key = ("fpn", source, bcfg.widths, reps)
        x = yield _Step((0, "input", ()), source, [], _input, (cfg,))
        ups = [(("stream", source, sl.start, sl.stop), x[:, sl])
               for sl in STREAM_SLICES[normalize_modalities(cfg.modalities)]]
        shapes, diagnostics, forward_ms = [], {}, 0.0
        for stage in range(1, 5):
            i = stage - 1
            geometry = (bcfg.widths[i], bcfg.heads[i], bcfg.sr_ratios[i], bcfg.expansion)
            labels = [(0,), *((1, j) for j in range(bcfg.depths[i])), (2,)]  # embed, blocks, norm
            encoded = []
            for p in "ab":
                key, x = ups.pop(0)  # not held once its embed has run
                for label, (name, specs, part) in zip(labels, backbone.stage_parts(stage, bcfg, p, x.shape[1])):
                    key = (name, geometry, reps, key)
                    x, ms = yield _Step((stage, p, label), key, seeded(specs), _part, (reps, part, x))
                    forward_ms += ms
                encoded.append((key, x))
            name, specs, part = backbone.merge_part(stage, bcfg, fus)
            fused = (fus.mechanism, *fus.block_settings()) if stage in fus.stages else None
            merge = (name, fused, *(norm for norm, _ in encoded))
            (feat, streams), ms = yield _Step(
                (stage, "merge", ()), merge, seeded(specs), _part, (reps, part, [m for _, m in encoded]))
            forward_ms += ms
            shapes.append(feat.map.shape)
            for stat, value in feat.diagnostics.items():
                diagnostics.setdefault(stat, []).append(value)
            slot = parked.setdefault(fpn_key, [])
            if len(slot) < stage:  # the first of the FPN node's cells to reach this merge
                slot.append(feat)
            ups = [(merge, s) for s in streams] if fused else encoded
            del x, feat, streams, encoded, slot  # held only through ``ups`` and ``parked``
        del ups
        key = fpn_key
        for j, (name, specs, part) in enumerate(fpn_parts(bcfg.widths)):
            key = (name, key)
            fn, args = (_part, (reps, part, x)) if j else (_parked, (reps, part, parked, fpn_key))
            x, ms = yield _Step((5, "fpn", (j,)), key, seeded(specs), fn, args)
            forward_ms += ms
        return RunReport(cfg.to_dict(), shapes, x.shapes(), n_params, forward_ms, diagnostics)
    except _CELL_ERRORS as e:
        return e


def _run_cells(configs):
    """The grid engine: run ``configs`` turn by turn and return, in order,
    each one's report or the error in ``_CELL_ERRORS`` that failed it.  A
    turn runs once each node its cells wait at, in the order of the first
    cell waiting there, and resumes every cell waiting at it, sent the
    node's value or thrown its error, before the next node runs.  Within a
    turn, cells whose sort keys tie go in listing order."""
    # repr compares every field and, unlike hash, accepts list-valued ones
    distinct = {repr(cfg): cfg for cfg in configs}
    ordered = sorted(distinct.values(), key=lambda c: tuple(map(str, (c.seed, c.variant, c.modalities))))
    parked, pending, outcomes = {}, {}, {}
    for cfg in ordered:
        cell = _run_cell(cfg, parked)
        try:
            pending[repr(cfg)] = cell, next(cell)
        except StopIteration as done:
            outcomes[repr(cfg)] = done.value
    while pending:
        turn = min(step.turn for _, step in pending.values())
        waiting = {}  # each of the turn's nodes -> its step and the cells waiting at it
        for k, (_, step) in pending.items():
            if step.turn == turn:
                waiting.setdefault(step.key, (step, []))[1].append(k)
        arrays = _Arrays([step for step, _ in waiting.values()])
        for node in list(waiting):
            step, cells = waiting.pop(node)
            try:
                value, error = arrays.node(step), None
            except _CELL_ERRORS as e:
                value, error = None, e
            for k in cells:
                cell = pending[k][0]
                try:
                    pending[k] = cell, cell.send(value) if error is None else cell.throw(error)
                except StopIteration as done:
                    outcomes[k] = done.value
                    del pending[k]
            del step, value, error  # the node's input and value, once its cells have moved on
    return [outcomes[repr(cfg)] for cfg in configs]


def _recorded(cfg, outcome):
    """A cell's report, or the error that failed it recorded in one."""
    if isinstance(outcome, _CELL_ERRORS):
        return RunReport(config=cfg.to_dict(), error=f"{type(outcome).__name__}: {outcome}")
    return outcome


def run_grid(base, sweep, workers=1):
    """Run every cell of a sweep; individual failures are recorded, not fatal.

    Returns reports sorted by config key.  ``workers`` is kept, and only 1
    is accepted, because the benchmark's grid-light workload still passes
    ``workers=1``; any other value is a ConfigError.
    """
    if workers != 1:
        raise ConfigError(f"workers: grid cells run one at a time, got {workers!r}")
    configs = expand_sweep(base, sweep)
    reports = map(_recorded, configs, _run_cells(configs))
    keyed = sorted(zip(configs, reports), key=lambda cr: cr[0].key())
    return [r for _, r in keyed]


def write_grid_outputs(reports, out_dir):
    """Consolidated JSON + CSV for a grid run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "grid.json", "w") as f:
        json.dump([r.to_dict() for r in reports], f, indent=1)
    with open(out / "grid.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["variant", "mechanism", "stages", "tau", "se_ratio", "guidance",
             "merge", "modalities", "shapes_hash", "param_count", "forward_ms", "error"]
        )
        for r in reports:
            c = r.config
            shapes_hash = format(
                abs(hash(tuple(tuple(s) for s in r.stage_shapes + r.pyramid_shapes))) % (16 ** 8),
                "08x",
            )
            writer.writerow(
                [c["variant"], c["mechanism"], "".join(map(str, c["stages"])) or "none",
                 c["tau"], c["se_ratio"], c["guidance"], c["merge"], c["modalities"],
                 shapes_hash, r.param_count, round(r.forward_ms, 2), r.error or ""]
            )
    return out / "grid.json", out / "grid.csv"


# ---------------------------------------------------------------------------
# the inventory of runs matching the published ablation grid


def _group(name, **axes):
    """One ablation group: the product of ``axes``, first axis slowest."""
    return [(name, dict(zip(axes, combo))) for combo in itertools.product(*axes.values())]


# (group, RunConfig overrides) for every run of the published ablation
# study, in report order; each group lists its values in config-key order
_INVENTORY = (
    _group("gaff_placement", mechanism=["gaff"],
           stages=[(1,), (1, 2, 3, 4), (2,), (2, 3), (2, 3, 4), (3,), (3, 4), (4,)])
    + [("gaff_mechanism", dict(mechanism="gaff", stages=st, se_ratio=r, guidance=g, merge=m))
       for st, r, g, m in [
           ((4,), 4, "separate", "bottleneck"),
           ((4,), 4, "shared", "direct"),
           ((4,), 4, "shared", "bottleneck"),
           ((4,), 8, "separate", "direct"),
           ((4,), 8, "separate", "bottleneck"),
           ((4,), 8, "shared", "direct"),
           ((4,), 8, "shared", "bottleneck"),
           ((3,), 4, "separate", "bottleneck"),
           ((3,), 4, "shared", "direct"),
           ((3,), 4, "shared", "bottleneck"),
           ((3,), 8, "separate", "direct"),
       ]]
    + _group("cssa", mechanism=["cssa"],
             stages=[(1,), (1, 2, 3, 4), (2,), (2, 3), (3,), (3, 4), (4,)], tau=[0.3, 0.5, 0.7])
    + _group("modality", modalities=["RE", "RT", "RTE", "TE"])
    + _group("capacity", variant=["B0", "B1", "B2", "B3", "B4"])
    + _group("components", mechanism=["bite_only", "mage_bite", "mage_only"])
)


def run_ablation_grid(base):
    """Run the whole ablation inventory over ``base``; returns {group: [RunReport]}."""
    configs = [replace(base, **o) for _, o in _INVENTORY]
    reports = map(_recorded, configs, _run_cells(configs))
    results = {}
    for (group, _), report in zip(_INVENTORY, reports):
        results.setdefault(group, []).append(report)
    return results

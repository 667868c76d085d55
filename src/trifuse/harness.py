"""Config-driven experiment harness.

Assembles the full pipeline (data -> streams -> dual backbone -> FPN) for
each configuration, and enumerates ablation grids over placement,
mechanism hyperparameters, modality subsets and backbone capacity.  Every
run is deterministic given (config, seed) and its report embeds the config
so it can be replayed.  One engine runs every cell, and ``run_single``
(behind ``inspect``) is a grid of one.  The cells of one grid call share
one memo, one table of nodes and parameter arrays, each computed once per
call and dropped after its last user.  A node (the input, a stream input,
one stream's stage encode, a stage merge, the FPN) is keyed by what it
reads: nested variants share their common stages and modality sets share
a stream up to its first fused stage.  An array, keyed by (ParamSpec,
seed) and bitwise equal to a fresh ``init_params``, is drawn just before
its first reader.  One FPN runs per input and widths, after every stage
node.  A report equals what one whole ``forward_dual`` and ``fpn`` give,
except that ``forward_ms`` is composed: the median times of the nodes on
the cell's path plus that of its FPN run.  A config listed more than once
runs once and every listing gets its report.  Cells run one at a time, in
(seed, variant, modalities) order, on the calling thread: the benchmark
pins BLAS to one thread, so a report times single-core work.
"""

from __future__ import annotations

import csv
import itertools
import json
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import backbone
from .backbone import (
    STREAM_SLICES,
    BackboneConfig,
    backbone_param_specs,
    merge_step,
    normalize_modalities,
)
from .data import MAX_FRAME_PIXELS, default_stats, load_frame, load_manifest, normalize, pad_to_stride
from .errors import ConfigError, TrifuseError, ValidationError
from .fusion import FusionConfig
from .neck import fpn, fpn_param_specs
from .tensors import ParamStore, init_params, param_count

DEFAULT_INPUT_SIZE = (301, 391)
# what fails one grid cell and not the grid: a package error, or a source
# file the cell cannot open
_CELL_ERRORS = (TrifuseError, OSError)

# the RunConfig fields a sweep may vary
SWEEP_AXES = ("variant", "mechanism", "stages", "tau", "se_ratio", "guidance", "merge", "modalities")


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
            cfg = self.backbone_config()
        except ConfigError as e:
            raise ConfigError(f"variant: {e}") from e
        try:
            fus = self.fusion_config()
        except ConfigError as e:
            raise ConfigError(f"fusion: {e}") from e
        try:
            normalize_modalities(self.modalities)
        except ConfigError as e:
            raise ConfigError(f"modalities: {e}") from e
        if fus.mechanism == "gaff":
            for s in fus.stages:
                if cfg.widths[s - 1] % fus.se_ratio:
                    raise ConfigError(
                        f"se_ratio: stage {s} width {cfg.widths[s - 1]} "
                        f"not divisible by {fus.se_ratio}"
                    )
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

    ``sweep`` maps axis name -> non-empty list of values; an empty spec
    yields the base config alone.  Axis order is fixed (sorted) so
    enumeration is deterministic.
    """
    if not isinstance(sweep, dict) or not all(isinstance(v, (list, tuple)) for v in sweep.values()):
        raise ConfigError(f"sweep must map each axis to a list of values, got {sweep!r}")
    if not sweep:
        return [base]
    for axis, values in sweep.items():
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; valid: {sorted(SWEEP_AXES)}")
        if not values:
            raise ConfigError(f"sweep axis {axis!r} has no values")
    axes = sorted(sweep)
    configs = []
    for combo in itertools.product(*(sweep[a] for a in axes)):
        upd = dict(zip(axes, combo))
        if "stages" in upd:
            upd["stages"] = _int_tuple("stages", upd["stages"])
        configs.append(replace(base, **upd))
    return configs


def _reader(name):
    """The nodes that read parameter ``name``: ``fpn`` for the FPN, else
    ``<a|b|fuse>.s<stage>`` for that stream's encode or that stage's merge."""
    head, rest = name.split(".", 1)
    return head if head == "fpn" else f"{head}.{rest.split('.', 1)[0]}"


def _path(cfg):
    """The nodes a cell's forward passes, in order, as (key, arrays) pairs,
    ``arrays`` being the (ParamSpec, seed) pairs the node reads.  A key says
    what the node reads, not which cell asks: the input is keyed by
    (input_size, batch, source, seed); a stream input by the input and its
    channel slice; a stream's stage encode by its stream, the stage geometry
    and the node it reads; a merge by the stage, the fusion settings its
    block reads (None if unfused) and its two encodes; and the FPN by the
    input and the widths, which fix the stage shapes.  A fused stage feeds
    its merge to both next encodes, an unfused one each encode to its own,
    so variants share stages up to where their geometry differs and
    modality sets share a stream up to its first fused stage.  An invalid
    cell passes none."""
    try:
        fus = cfg.validate().fusion_config()
    except ConfigError:
        return []
    bcfg, reps = cfg.backbone_config(), cfg.timing_reps
    reads = {}
    for spec in build_param_specs(cfg):
        reads.setdefault(_reader(spec.name), []).append((spec, cfg.seed))
    source = ("input", cfg.input_size, cfg.batch, cfg.source, cfg.seed)
    slices = STREAM_SLICES[normalize_modalities(cfg.modalities)]
    streams = [("stream", source, sl.start, sl.stop) for sl in slices]
    path = [(key, []) for key in [source, *streams]]
    for stage in range(1, 5):
        i = stage - 1
        geometry = (stage, bcfg.widths[i], bcfg.depths[i], bcfg.heads[i], bcfg.sr_ratios[i], bcfg.expansion)
        encoded = [("encode", p, geometry, reps, up) for p, up in zip("ab", streams)]
        fused = (fus.mechanism, *fus.block_settings()) if stage in fus.stages else None
        merge = ("merge", stage, fused, *encoded)
        path += [(key, reads[f"{key[1]}.s{stage}"]) for key in encoded]
        path.append((merge, reads.get(f"fuse.s{stage}", [])))
        streams = [merge, merge] if fused else encoded
    path.append((("fpn", source, bcfg.widths, reps), reads["fpn"]))
    return path


class _Memo:
    """What the cells of one ``_run_cells`` call share.

    ``paths`` holds each cell's ``_path``.  ``values`` is one table of
    outcomes, a value or the error that computing it raised: a node keyed
    by its node key, a parameter array by (ParamSpec, seed), each computed
    by the first to need it.  The cells run one at a time, so no entry is
    ever awaited.  ``users`` counts who still needs each value, the cells
    still to pass a node and the nodes still to read an array, so a value
    is dropped after its last user: an array lives from just before the
    first node that reads it runs until the last has run.  ``feats`` keeps
    each FPN node's first user's stage features until the FPNs run.
    """

    def __init__(self, cells):
        self.paths = {repr(cfg): _path(cfg) for cfg in cells}
        self.reads = {key: arrays for path in self.paths.values() for key, arrays in path}
        self.users = Counter(key for path in self.paths.values() for key, _ in path)
        self.users.update(a for arrays in self.reads.values() for a in arrays)
        self.values, self.feats = {}, {}

    def node(self, key, fn, *args):
        """The node's value: ``fn(params, *args)`` run with the arrays the
        node reads, each drawn by ``init_params`` if no node has drawn it."""
        def run():
            reads = self.reads[key]
            try:
                arrays = {s.name: self._get((s, seed), init_params, [s], seed)[s.name] for s, seed in reads}
                return fn(ParamStore(arrays), *args)
            finally:
                self.leave(reads)

        try:
            return self._get(key, run)
        finally:
            self.leave([key])

    def _get(self, key, fn, *args):
        """Value ``key``: ``fn(*args)`` run by the first caller, its outcome,
        a raised error included, shared with every later one."""
        if key not in self.values:
            try:
                self.values[key] = (fn(*args), None)
            except BaseException as e:  # raised again below, and to every later caller
                self.values[key] = (None, e)
        value, error = self.values[key]
        if error is not None:
            raise error
        return value

    def leave(self, keys):
        """One user is done with each of ``keys``: a cell has passed the node
        or will never reach it, or a node has read the array or never will.
        A value left by its last user is dropped, and a node that never ran
        releases its arrays."""
        for key in keys:
            self.users[key] -= 1
            if not self.users[key] and self.values.pop(key, None) is None:
                self.leave(self.reads.get(key, ()))


def _input(params, cfg):
    return make_input(cfg)[0]


def _stream(params, x, channels):
    return np.ascontiguousarray(x[:, channels])


def _encode(params, reps, x, stage, cfg, p):
    # looked up in ``backbone`` at call time, as ``forward_dual`` does
    return _timed(reps, backbone.encode_stage, x, stage, cfg, params, p)


def _merge(params, reps, encoded, stage, cfg, fusion):
    def merge():
        diag = {}
        return (*merge_step(encoded, stage, cfg, fusion, params, diag), diag)

    return _timed(reps, merge)


def _pyramid_shapes(params, reps, feats):
    """The pyramid's shapes and the FPN's median ms, without the pyramid."""
    pyramid, ms = _timed(reps, fpn, feats, params)
    return pyramid.shapes(), ms


def _run_cell(cfg, memo):
    """One grid cell's stage nodes: its report without the pyramid, from the
    memo's shared input, stream inputs, stream encodes and merges, with
    ``forward_ms`` the sum of those nodes' median times.  The first cell of
    its FPN node leaves its stage features in the memo for ``_add_pyramid``.
    An error in ``_CELL_ERRORS`` is returned, not raised, and the nodes the
    cell will not reach lose it as a user."""
    path = iter(key for key, _ in memo.paths[repr(cfg)])

    def node(fn, *args):
        return memo.node(next(path), fn, *args)

    try:
        cfg.validate()
        specs = build_param_specs(cfg)
        bcfg, fus, reps = cfg.backbone_config(), cfg.fusion_config(), cfg.timing_reps
        x = node(_input, cfg)
        streams = [node(_stream, x, sl) for sl in STREAM_SLICES[normalize_modalities(cfg.modalities)]]
        feats, diag, forward_ms = [], {}, 0.0
        for stage in range(1, 5):
            encoded = [node(_encode, reps, s, stage, bcfg, p) for p, s in zip("ab", streams)]
            (feat, streams, part), merge_ms = node(_merge, reps, [e for e, _ in encoded], stage, bcfg, fus)
            feats.append(feat)
            forward_ms += sum(ms for _, ms in encoded) + merge_ms
            for name, values in part.items():
                diag.setdefault(name, []).extend(values)
        memo.feats.setdefault(next(path), feats)
        return RunReport(
            config=cfg.to_dict(),
            stage_shapes=[f.map.shape for f in feats],
            param_count=param_count(specs),
            forward_ms=forward_ms,
            diagnostics=diag,
        )
    except _CELL_ERRORS as e:
        memo.leave(path)
        return e


def _add_pyramid(report, cfg, memo):
    """A cell's report completed by its FPN node.  No report field reads a
    pyramid value, only its shapes, so the node runs once, on the stage
    features of its first user, and every user adds its median time.  An
    error, the cell's or the node's, is returned."""
    if isinstance(report, _CELL_ERRORS):
        return report
    key, _ = memo.paths[repr(cfg)][-1]
    try:
        # only the first user finds the features, and the node runs for it
        shapes, ms = memo.node(key, _pyramid_shapes, cfg.timing_reps, memo.feats.pop(key, None))
    except _CELL_ERRORS as e:
        return e
    return replace(report, pyramid_shapes=shapes, forward_ms=report.forward_ms + ms)


def _run_cells(configs):
    """The grid engine: run ``configs`` and return, in order, each one's
    report or the error in ``_CELL_ERRORS`` that failed it.

    Each distinct config runs once and its repeats get the same outcome.
    All cells share one ``_Memo``, one table of nodes and parameter arrays,
    so each is computed once per call.  Per-name seeding makes a shared
    array bitwise equal to the cell's own ``init_params``, so a shared node
    computes what the cell's own forward would.  Cells run one at a time,
    sorted by (seed, variant, modalities) and otherwise in listing order,
    so a variant's modality sets and the variants run next to each other.
    The FPN nodes run after every stage node, when the stage arrays are
    gone, and then each report gets its pyramid.
    """
    # repr compares every field and, unlike hash, accepts list-valued ones
    distinct = {repr(cfg): cfg for cfg in configs}
    memo = _Memo(distinct.values())
    ordered = sorted(distinct.values(), key=lambda c: tuple(map(str, (c.seed, c.variant, c.modalities))))
    reports = {repr(cfg): _run_cell(cfg, memo) for cfg in ordered}
    reports = {k: _add_pyramid(reports[k], cfg, memo) for k, cfg in distinct.items()}
    return [reports[repr(cfg)] for cfg in configs]


def _recorded(cfg, outcome):
    """A cell's report, or the error that failed it recorded in one."""
    if isinstance(outcome, _CELL_ERRORS):
        return RunReport(config=cfg.to_dict(), error=f"{type(outcome).__name__}: {outcome}")
    return outcome


def run_grid(base, sweep, workers=1):
    """Run every cell of a sweep; individual failures are recorded, not fatal.

    Returns reports sorted by config key.  Cells run one at a time, in
    (seed, variant, modalities) order.  ``workers`` is kept, and only 1 is
    accepted, because the benchmark's grid-light workload still passes
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

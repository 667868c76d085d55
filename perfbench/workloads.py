"""The benchmark's three closed-loop workloads, one client each.

Each workload builds its inputs from the workload seed, runs timed steps
through trifuse's public functions (looked up on the module at call time,
so a tracer's wrappers apply), keeps a compact record of every output, and
afterwards checks the records against references.  A step is the unit the
end-to-end ``step_ms`` is reported per: one forward, one grid cell, or one
pass over the data set.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from trifuse import backbone, data, events, harness, metrics, neck, synth, tensors

import references as refs

REF_DIR = Path(__file__).resolve().parent / "refs"
STRIDES = (4, 8, 16, 32)


def _load_refs(name):
    return json.loads((REF_DIR / f"{name}.json").read_text())


def contract_shapes(input_size, widths):
    """Stage maps at strides 4-32 with the variant's widths, then five
    256-wide pyramid levels at strides 4-64, for an input padded to 32."""
    hp, wp = (-(-d // 32) * 32 for d in input_size)
    stages = [[1, c, hp // s, wp // s] for c, s in zip(widths, STRIDES)]
    levels = [[1, 256, hp // s, wp // s] for s in STRIDES]
    return stages, levels + [[1, 256, -(-levels[3][2] // 2), -(-levels[3][3] // 2)]]


class ForwardDefault:
    """B1, MAGE+BiTE at stages 1-4, RTE input 301x391 padded to 320x416,
    batch 1.  Parameters are built once in set-up; every step gets its own
    input from a pool whose order the workload seed draws."""

    name = "forward-default"
    unit = "forward"

    def __init__(self, seed, tiny=False):
        self.tiny = tiny
        self.variant, self.input_size, self.pool = ("B0", (64, 64), 4) if tiny else ("B1", (301, 391), 16)
        self.order = np.random.default_rng(seed).permutation(self.pool)

    def setup(self):
        rc = harness.RunConfig(variant=self.variant, input_size=self.input_size)
        self.cfg, self.fusion = rc.backbone_config(), rc.fusion_config()
        self.params = tensors.init_params(harness.build_param_specs(rc), 0)

    def make_input(self, input_id):
        h, w = self.input_size
        x = np.random.default_rng([0x1F, input_id]).standard_normal((1, 5, h, w), dtype=np.float32)
        return np.pad(x, ((0, 0), (0, 0), (0, -h % 32), (0, -w % 32)))

    def _forward(self, x):
        feats = backbone.forward_dual(x, self.cfg, self.fusion, self.params, "RTE")
        return [f.map for f in feats] + neck.fpn(feats, self.params).levels

    def step(self, k, clock):
        input_id = int(self.order[k % self.pool])
        maps, secs = clock(self._forward, self.make_input(input_id))
        return {"secs": secs, "units": 1, "id": input_id,
                "maps": [refs.map_summary(m) for m in maps], "digest": refs.digest(*maps)}

    def check(self, records):
        table = _load_refs("forward_tiny" if self.tiny else "forward")
        stages, levels = contract_shapes(self.input_size, self.cfg.widths)
        shapes = stages + levels
        failures = []
        for r in records:
            ref = table.get(str(r["id"]))
            problems = [] if ref is not None else [f"no shipped reference for input {r['id']}"]
            for i, got in enumerate(r["maps"]):
                label = f"input {r['id']} {'stage' if i < 4 else 'level'} {i % 4 + 1 if i < 8 else 5}"
                if got["shape"] != shapes[i]:
                    problems.append(f"{label}: shape {got['shape']} breaks the contract {shapes[i]}")
                elif ref is not None:
                    problems += refs.compare_summary(got, ref[i], label)
            failures.append(problems)
        return failures

    def named(self, series, kinds):
        return {"forward_ms": series}


class GridLight:
    """One ``run_grid(base, sweep, workers=1)`` call per step, as ``trifuse
    grid`` runs it: 12 cells, each paying init_params plus one forward."""

    name = "grid-light"
    unit = "cell"

    def __init__(self, seed, tiny=False):
        self.tiny = tiny
        self.pool = 2 if tiny else 6
        self.order = np.random.default_rng(seed).permutation(self.pool)
        variants = ["B0"] if tiny else ["B0", "B1"]
        self.sweep = {"variant": variants, "mechanism": ["cssa", "gaff", "mage_only"],
                      "stages": [[4], [3, 4]]}
        self.input_size = (64, 64) if tiny else harness.DEFAULT_INPUT_SIZE

    def setup(self):
        self.base = harness.RunConfig(timing_reps=1, input_size=self.input_size)

    def step(self, k, clock):
        seed = int(self.order[k % self.pool])
        reports, secs = clock(harness.run_grid, replace(self.base, seed=seed), self.sweep, workers=1)
        cells = [r.to_dict() for r in reports]
        for c in cells:
            c.pop("forward_ms")
        return {"secs": secs, "units": len(reports), "seed": seed, "cells": cells,
                "digest": refs.digest(np.frombuffer(json.dumps(cells, sort_keys=True).encode(), np.uint8))}

    def check(self, records):
        table = _load_refs("grid_tiny" if self.tiny else "grid")
        failures = []
        for r in records:
            ref = table.get(str(r["seed"]), {})
            for cell in r["cells"]:
                failures.append(self._check_cell(harness.RunConfig.from_dict(cell["config"]),
                                                 cell, ref))
        return failures

    def _check_cell(self, rc, cell, ref):
        key = rc.key()
        if cell["error"] is not None:
            return [f"{key}: {cell['error']}"]
        problems = []
        widths = rc.backbone_config().widths
        if [cell["stage_shapes"], cell["pyramid_shapes"]] != list(contract_shapes(rc.input_size, widths)):
            problems.append(f"{key}: shapes {cell['stage_shapes']} {cell['pyramid_shapes']}")
        want = backbone.count_params(rc.backbone_config(), rc.fusion_config(), rc.modalities,
                                     neck_specs=neck.fpn_param_specs(widths))
        if cell["param_count"] != want:
            problems.append(f"{key}: param_count {cell['param_count']} != count_params {want}")
        ref_diag = ref.get(key)
        if ref_diag is None:
            problems.append(f"{key}: no shipped reference for seed {rc.seed}")
        elif sorted(cell["diagnostics"]) != sorted(ref_diag) or any(
            len(cell["diagnostics"][d]) != len(v)
            or np.max(np.abs(np.subtract(cell["diagnostics"][d], v))) > refs.ORACLE_TOL
            for d, v in ref_diag.items()
        ):
            problems.append(f"{key}: diagnostics {cell['diagnostics']} != {ref_diag}")
        return problems

    def named(self, series, kinds):
        return {"cell_ms": series}


class DataEval:
    """The non-backbone pipeline.  One step is one pass over the data set:
    load every corpus frame (load_frame, normalize, pad_to_stride), build
    the validated EventStream, and evaluate the detection set.

    Binning is left out: ``bin_events`` still misplaces events that lie
    exactly on a window edge (ROADMAP 5c), so its output on
    the 30 fps centres is wrong and the benchmark's outputs must be right."""

    name = "data-eval"
    unit = "pass"

    def __init__(self, seed, tiny=False, *, work_dir):
        self.seed, self.tiny = seed, tiny
        if tiny:
            self.n_frames, self.frame_hw, self.n_images = 2, (64, 64), 4
            self.n_events, self.span_us, self.sensor = 20_000, 200_000, (32, 40)
        else:
            self.n_frames, self.frame_hw, self.n_images = 16, (synth.DEFAULT_HEIGHT, synth.DEFAULT_WIDTH), 100
            self.n_events, self.span_us, self.sensor = 2_000_000, 2_000_000, (260, 346)
        self.work_dir = Path(work_dir)

    def setup(self):
        self.corpus = self.work_dir / f"corpus-{os.getpid()}"
        manifest = synth.generate_corpus(self.corpus, self.n_frames, *self.frame_hw, seed=self.seed)
        self.entries = data.load_manifest(manifest).entries
        self.stats = data.default_stats()
        self.raw_events = refs.make_event_stream(self.seed, self.n_events, self.span_us, self.sensor)
        self.images = refs.make_detection_set(self.seed, self.n_images)
        self.dets, self.gts = [], []
        for i, (gts, dets, scores) in enumerate(self.images):
            self.gts += [metrics.GroundTruth(f"img{i}", tuple(b)) for b in gts]
            self.dets += [metrics.Detection(f"img{i}", tuple(b), float(s)) for b, s in zip(dets, scores)]

    def close(self):
        shutil.rmtree(getattr(self, "corpus", ""), ignore_errors=True)

    def _load(self, entry):
        frame = data.load_frame(entry.image, entry.labels)
        x, _ = data.pad_to_stride(data.normalize(frame, self.stats), 32)
        return frame, x

    def step(self, k, clock):
        rec = {"secs": 0.0, "units": 1, "kinds": {}, "load": []}

        def timed(kind, fn, *args):
            out, secs = clock(fn, *args)
            rec["secs"] += secs
            n, t = rec["kinds"].get(kind, (0, 0.0))
            rec["kinds"][kind] = (n + 1, t + secs)
            return out

        for entry in self.entries:
            frame, x = timed("load", self._load, entry)
            rec["load"].append([refs.digest(x), [[b.class_id, b.cx, b.cy, b.w, b.h] for b in frame.boxes]])
        stream = timed("stream", lambda: events.EventStream(*self.raw_events, sensor_size=self.sensor))
        rec["stream"] = refs.digest(stream.t, stream.x, stream.y, stream.p)
        report = timed("eval", metrics.evaluate, self.dets, self.gts)
        rec["kinds"]["eval"] = (len(self.images), rec["kinds"]["eval"][1])  # images, not calls
        rec["eval"] = ([report.per_threshold[t] for t in sorted(report.per_threshold)],
                       report.counts_at_50)
        rec["digest"] = refs.digest(np.frombuffer(json.dumps(
            [rec["load"], rec["stream"], rec["eval"]]).encode(), np.uint8))
        return rec

    def check(self, records):
        failures = []
        loads = [self._load_reference(e) for e in self.entries]
        stream = refs.digest(*(np.asarray(a, np.int64) for a in self.raw_events))
        aps = [refs.staircase_ap(self.images, t) for t in refs.COCO_THRESHOLDS]
        n_gt, n_det = len(self.gts), len(self.dets)
        for r in records:
            for entry, got, want in zip(self.entries, r["load"], loads):
                failures.append([] if got == want else [f"load {entry.image}: output differs from np.load reference"])
            failures.append([] if r["stream"] == stream else ["EventStream: arrays differ from the inputs"])
            ap_got, counts = r["eval"]
            problems = [f"eval AP@{t}: {g!r} != staircase {w!r}"
                        for t, g, (w, _) in zip(refs.COCO_THRESHOLDS, ap_got, aps) if abs(g - w) > 1e-9]
            tp = aps[0][1]
            if counts != {"tp": tp, "fp": n_det - tp, "fn": n_gt - tp}:
                problems.append(f"eval counts {counts} != staircase tp={tp}")
            failures.append(problems)
        return failures

    def _load_reference(self, entry):
        arr = np.load(entry.image)
        x = ((arr.transpose(2, 0, 1)[None].astype(np.float64) - refs.NORM_MEAN) / refs.NORM_STD).astype(np.float32)
        x = np.pad(x, ((0, 0), (0, 0), (0, -x.shape[2] % 32), (0, -x.shape[3] % 32)))
        with open(entry.labels) as f:
            boxes = [[int(c), *map(float, v)] for c, *v in (ln.split() for ln in f if ln.strip())]
        return [refs.digest(x), boxes]

    def named(self, series, kinds):
        per_s = lambda kind: kinds[kind][0] / kinds[kind][1]
        return {"load_frames_per_s": per_s("load"), "eval_images_per_s": per_s("eval")}


WORKLOADS = {w.name: w for w in (ForwardDefault, GridLight, DataEval)}

"""Self-tests of the benchmark, at tiny size (B0 at 64x64, a small event
stream, a few images).  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import references as refs  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from worker import plain_clock  # noqa: E402

import trifuse  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def make(name, tmp_path, seed=5):
    cls = workloads.WORKLOADS[name]
    kw = {"work_dir": tmp_path} if cls is workloads.DataEval else {}
    wl = cls(seed, tiny=True, **kw)
    wl.setup()
    return wl


def trifuse_bindings():
    mods = [m for n, m in sys.modules.items() if n == "trifuse" or n.startswith("trifuse.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("counting", [False, True])
def test_traced_outputs_are_bitwise_untraced_and_wrappers_are_removed(name, counting, tmp_path):
    wl = make(name, tmp_path)
    before = trifuse_bindings()
    init = trifuse.events.EventStream.__init__
    plain = wl.step(0, plain_clock)
    tracer = tr.Tracer(counting=counting)
    with tracer:
        assert trifuse_bindings() != before
        traced = wl.step(0, lambda fn, *a, **k: plain_clock(tracer.span, "bench.step", fn, *a, **k))
    assert trifuse_bindings() == before
    assert trifuse.events.EventStream.__init__ is init
    assert traced["digest"] == plain["digest"]
    assert tracer.spans or tracer.calls
    getattr(wl, "close", lambda: None)()


def test_spans_nest_and_self_time_adds_up(tmp_path):
    wl = make("forward-default", tmp_path)
    tracer = tr.Tracer()
    with tracer:
        wl.step(0, lambda fn, *a, **k: plain_clock(tracer.span, "bench.step", fn, *a, **k))
    layers, coverage = tracer.summarize("bench.step", 1)
    assert 0.9 < coverage <= 1.0
    for name in ("backbone.forward_dual", "neck.fpn", "fusion.s1", "fusion.bite",
                 "backbone.s1.a.patch_embed", "backbone.s4.b.mix_ffn", "tensors.attention"):
        assert layers[name]["ms"] > 0, name
    step = tracer.spans[0][2] - tracer.spans[0][1]
    self_total = sum(r["self_ms"] for r in layers.values()) / 1e3
    assert self_total <= step * 1.0001
    # analytic FLOPs: stage-1 BiTE attention is 2 * 2 * N^2 * C per direction
    assert layers["tensors.attention"]["gflop"] > 2 * 2 * (16 * 16) ** 2 * 32 * 2 / 1e9


@pytest.mark.parametrize("name", ["forward-default", "grid-light"])
def test_shipped_tiny_references_agree_with_the_code(name, tmp_path):
    wl = make(name, tmp_path, seed=1)
    records = [wl.step(k, plain_clock) for k in range(wl.pool)]
    assert all(f == [] for f in wl.check(records))


def test_independent_references_agree_with_the_code(tmp_path):
    """Loads, the event stream and evaluation match their references."""
    for seed in range(4):
        wl = make("data-eval", tmp_path, seed=seed)
        failures = wl.check([wl.step(0, plain_clock)])
        wl.close()
        assert failures == [[]] * (wl.n_frames + 2)


def test_staircase_ap_on_a_hand_worked_case():
    gts = np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])
    dets = np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 60.0, 60.0], [20.0, 20.0, 30.0, 30.0]])
    ap, tp = refs.staircase_ap([(gts, dets, np.array([0.9, 0.8, 0.7]))], 0.5)
    # precision 1 up to recall 0.5, then 2/3 up to recall 1
    assert tp == 2
    assert ap == pytest.approx((51 * 1.0 + 50 * 2 / 3) / 101)


def run_bench(args, cwd=ROOT, env=PINNED):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric_of_benchmark_json(trace, key):
    proc = run_bench(["--workload", "data-eval", "--tiny", "--seconds", "0.1", "--seed", "2",
                      "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in BENCH[key]} == {k: v["unit"] for k, v in line["metrics"].items()}


def test_worker_refuses_unpinned_blas():
    env = {k: v for k, v in PINNED.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", "data-eval",
                           "--seed", "0", "--seconds", "1", "--tiny"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "OPENBLAS_NUM_THREADS" in proc.stderr


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "forward-default", "--seed", "0", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""

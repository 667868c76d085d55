"""Run one workload in this process and print its result as a JSON line.

Started by ``run.py`` in a fresh process with BLAS pinned to one thread;
refuses to run otherwise.  ``--probe`` stops after set-up and prints only
the set-up time, so ``run.py`` can take the median over several processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPAWN_VAR = "PERFBENCH_SPAWN_NS"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


def fail(msg):
    print(f"perfbench worker: {msg}", file=sys.stderr)
    sys.exit(3)


def environment():
    """Everything behind the numbers: versions, BLAS build and threads,
    CPUs and the commit measured."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.processor(),
        "commit": commit,
    }


def timing(values):
    """Median and mean with the sample count, plus the highest of
    p90/p99/p99.9 that has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "mean": statistics.fmean(values), "n": len(values)}
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = float(__import__("numpy").percentile(values, q))
            break
    return out


def measure(wl, clock, seconds=None, steps=None):
    """Closed loop, one client: each step starts when the previous one ends.
    Runs exactly ``steps`` steps, or steps until ``seconds`` pass, stopping
    at the step boundary nearest the deadline (at least one step)."""
    records, t0 = [], time.perf_counter()
    while len(records) < (steps or 1) or steps is None and (
            time.perf_counter() - t0) * (1 + 0.5 / len(records)) < seconds:
        records.append(wl.step(len(records), clock))
    return records


def main(argv=None):
    args = parse_args(argv)
    spawn_ns = int(os.environ.get(SPAWN_VAR, time.monotonic_ns()))
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        fail(f"BLAS threads not pinned: set {', '.join(unpinned)}=1 before numpy loads")
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import trifuse
    except ImportError as e:
        fail(f"cannot import trifuse from {src}: {e}")
    if Path(trifuse.__file__).resolve().parent != src / "trifuse":
        fail(f"imported trifuse from {trifuse.__file__}, not from {src}")

    import tracer as tr
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    kw = {"work_dir": OUT_DIR} if cls is workloads.DataEval else {}
    wl = cls(args.seed, tiny=args.tiny, **kw)
    tracer = tr.Tracer() if args.trace else None
    try:
        if tracer:
            with tracer:
                tracer.span("bench.setup", wl.setup)
        else:
            wl.setup()
        setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(args, wl, tracer, setup_s)
    finally:
        getattr(wl, "close", lambda: None)()
    print(json.dumps(result))
    return 0


THROUGHPUTS = {"data.load_frames_per_s": "load", "metrics.eval_images_per_s": "eval"}


def layer_value(traced, name):
    """Value of one per-layer metric from the traced run's summary; a layer
    the workload never reaches reads 0."""
    if name in THROUGHPUTS:
        n, secs = traced["kinds"].get(THROUGHPUTS[name], (0, 0.0))
        return n / secs if secs else 0.0
    special = {"tensors.gemm_peak_gflops": traced["gemm_peak_gflops"],
               "trace.overhead_frac": traced["overhead_frac"], "trace.coverage": traced["coverage"]}
    if name in special:
        return special[name]
    layer, field = name.rsplit(".", 1)
    if field.endswith("_mb_max"):
        return traced["peaks"].get(f"{layer}.{field[:-4]}", 0.0)
    if layer in traced["calls"]:
        return traced["calls"][layer]
    return traced["layers"].get(layer, {}).get(field, 0.0)


def plain_clock(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def run_traced(wl, tracer, records, step_ms, kinds, failures, out_path):
    """Repeat the untraced steps on the same inputs with the tracer
    installed, then one step with call counters; returns the summary the
    per-layer metrics are read from."""
    import tracer as tr

    peak = tr.gemm_peak_gflops()
    with tracer:
        again = measure(wl, lambda fn, *a, **k: plain_clock(tracer.span, "bench.step", fn, *a, **k),
                        steps=len(records))
    steps = sum(r["units"] for r in again)
    layers, coverage = tracer.summarize("bench.step", steps)
    calls = {}
    if any(name.split(".")[0] in tr.counted_modules() for name in layers):
        counter = tr.Tracer(counting=True)
        with counter:
            again += measure(wl, plain_clock, steps=1)
        calls = {k: v / again[-1]["units"] for k, v in counter.calls.items()}
    for k, r in enumerate(again):
        same = r["digest"] == records[k % len(records)]["digest"]
        failures.append([] if same else [f"{wl.unit} step {k}: traced output differs from untraced"])
    print(tr.layer_table(layers, peak), file=sys.stderr)
    out_path.write_text(json.dumps(tracer.to_json()))
    traced_ms = [1e3 * r["secs"] / r["units"] for r in again[:len(records)]]
    return {
        "layers": layers, "coverage": coverage, "gemm_peak_gflops": peak,
        "overhead_frac": statistics.median(traced_ms) / statistics.median(step_ms) - 1.0,
        "kinds": kinds, "peaks": dict(tracer.peaks), "calls": calls,
    }


def run(args, wl, tracer, setup_s):
    # a traced run measures twice, untraced and then traced on the same
    # inputs, so each half gets half the time and the run keeps its length
    records = measure(wl, plain_clock, seconds=args.seconds / 2 if tracer else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    step_ms = [1e3 * r["secs"] / r["units"] for r in records]
    # all the run's work in one figure: time per step, i.e. inverse throughput
    run_step_ms = 1e3 * sum(r["secs"] for r in records) / sum(r["units"] for r in records)
    kinds = {}
    for r in records:
        for kind, (n, secs) in r.get("kinds", {}).items():
            total = kinds.setdefault(kind, [0, 0.0])
            total[0] += n
            total[1] += secs
    failures = wl.check(records)
    stem = f"{wl.name}-seed{args.seed}"
    traced = tracer and run_traced(wl, tracer, records, step_ms, kinds, failures,
                                   OUT_DIR / f"{stem}-spans.json")

    problems = [p for f in failures for p in f]
    failed = sum(1 for f in failures if f)
    named = wl.named(timing(step_ms), kinds)
    named.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, error_rate=failed / len(failures))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced:
        spec, value = bench["per_layer"], lambda name: layer_value(traced, name)
    else:
        spec = bench["end_to_end"]
        value = {"step_ms": run_step_ms, "setup_s": setup_s,
                 "peak_rss_mb": peak_rss_mb}.__getitem__
    metrics = {m["name"]: {"value": float(value(m["name"])), "unit": m["unit"]} for m in spec}
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
        "env": environment(), "step": {"unit": wl.unit, **timing(step_ms), "samples": step_ms},
        "named": named, "attempted": len(failures), "failed": failed, "problems": problems[:50],
        "kinds": {k: {"count": n, "secs": s} for k, (n, s) in kinds.items()},
        "metrics": metrics, "trace": traced and {k: v for k, v in traced.items() if k != "kinds"},
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(failures), "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())

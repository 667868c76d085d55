"""trifuse benchmark: run one workload, or all three, each in a fresh process.

    python3 perfbench/run.py --workload forward-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # table of every metric
    python3 perfbench/run.py --workload data-eval --seed 1 --trace 1   # per-layer
    python3 perfbench/run.py --workload all --tiny --seconds 1         # seconds

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Workers run with BLAS pinned to one thread.  ``setup_s`` is the median
over three fresh processes of the time from process start to the first
timed step.  Per-run details, with the environment, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import HERE, OUT_DIR, ROOT

WORKLOADS = ("forward-default", "grid-light", "data-eval")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROCESSES = 3
DEADLINE_S = 175.0
NAMED = (("forward_ms", "ms"), ("cell_ms", "ms"), ("load_frames_per_s", "frames/s"),
         ("eval_images_per_s", "images/s"),
         ("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_rate", "1"))


class BenchError(Exception):
    pass


def worker(args, workload, deadline, probe=False):
    """Run worker.py once; returns its last stdout line parsed as JSON."""
    env = dict(os.environ, **PINNED_ENV, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--tiny"] * args.tiny + ["--probe"] * probe
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: worker exceeded the time limit") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload, deadline):
    """The measured run, with set-up probes around it when untraced: one
    before and the rest after, so they spread over the run's span."""
    probes = 0 if args.trace else SETUP_PROCESSES - 1
    setups = [worker(args, workload, deadline, probe=True)["setup_s"] for _ in range(probes // 2)]
    result = worker(args, workload, deadline)
    setups += [worker(args, workload, deadline, probe=True)["setup_s"]
               for _ in range(probes - probes // 2)]
    detail_path = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    detail = json.loads(detail_path.read_text())
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = detail["named"]["setup_s"] = statistics.median(setups)
        detail["setup_s_samples"] = setups
        detail_path.write_text(json.dumps(detail, indent=1))
    return result, detail


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="B0 at 64x64, small stream, few images")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "trifuse" / "__init__.py").is_file():
        print(f"perfbench: no trifuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, _ = run_workload(args, args.workload, time.monotonic() + DEADLINE_S)
            print(json.dumps(result))
            return 0
        rows = []
        for w in WORKLOADS:
            result, detail = run_workload(args, w, time.monotonic() + DEADLINE_S)
            rows.append((w, detail))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for w, detail in rows:
        print(f"\n{w} (seed {args.seed}, {detail['step']['n']} {detail['step']['unit']} steps, "
              f"{detail['failed']}/{detail['attempted']} failed)")
        for name, unit in NAMED:
            if name in detail["named"]:
                v = detail["named"][name]
                shown = (f"median {v['median']:.4g}, mean {v['mean']:.4g} (n={v['n']})" + "".join(
                    f", {k} {x:.4g}" for k, x in v.items() if k.startswith("p"))
                         if isinstance(v, dict) else f"{v:.4g}")
                print(f"  {name:<20} {shown} {unit}")
        for p in detail["problems"][:5]:
            print(f"  check failed: {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

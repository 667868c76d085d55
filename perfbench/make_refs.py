"""Regenerate the shipped forward and grid references in ``refs/``.

    python3 perfbench/make_refs.py      # full and tiny pools, about 6 min

Run it only on a commit whose outputs are known to be right: the workloads
check later commits against these files.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import references as refs  # noqa: E402
import workloads  # noqa: E402
from worker import plain_clock  # noqa: E402


def forward_refs(tiny):
    wl = workloads.ForwardDefault(0, tiny=tiny)
    wl.setup()
    out = {}
    for input_id in range(wl.pool):
        maps = wl._forward(wl.make_input(input_id))
        out[str(input_id)] = [refs.map_summary(m) for m in maps]
    return out


def grid_refs(tiny):
    wl = workloads.GridLight(0, tiny=tiny)
    wl.setup()
    wl.order = list(range(wl.pool))
    out = {}
    for k in range(wl.pool):
        rec = wl.step(k, plain_clock)
        out[str(rec["seed"])] = {
            workloads.harness.RunConfig.from_dict(c["config"]).key(): c["diagnostics"]
            for c in rec["cells"]
        }
    return out


def main():
    for tiny in (True, False):
        suffix = "_tiny" if tiny else ""
        for name, make in (("forward", forward_refs), ("grid", grid_refs)):
            path = workloads.REF_DIR / f"{name}{suffix}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(make(tiny), indent=None, separators=(",", ":")) + "\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()

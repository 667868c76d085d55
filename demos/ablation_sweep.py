"""Run a small ablation grid and summarize it.

Sweeps fusion mechanism against placement at reduced input size so the
whole grid takes seconds, then prints a parameter/time table and writes
grid.json and grid.csv to grid_out/, the default output directory of
``trifuse grid``.  The full published inventory is available via
``trifuse grid --ablation-grid``.
"""

from trifuse.harness import RunConfig, run_grid, write_grid_outputs

base = RunConfig(variant="B0", input_size=(96, 128), timing_reps=1)
sweep = {
    "mechanism": ["mage_bite", "cssa", "gaff"],
    "stages": [(4,), (3, 4), (1, 2, 3, 4)],
}

reports = run_grid(base, sweep)

print(f"{'mechanism':>10} {'stages':>8} {'params':>12} {'ms':>7}")
for r in reports:
    c = r.config
    stages = "".join(map(str, c["stages"]))
    print(f"{c['mechanism']:>10} {stages:>8} {r.param_count:>12,} {r.forward_ms:>7.0f}")

failed = [r for r in reports if not r.ok]
out = "grid_out"
write_grid_outputs(reports, out)
print(f"\n{len(reports)} runs, {len(failed)} failed; outputs in {out}/")

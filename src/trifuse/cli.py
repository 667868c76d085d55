"""Command-line front end.

Verbs: inspect, grid, verify, synth, eval, bin-events.  Run configuration
comes from a JSON config file (--config) with individual flags overriding
file values.  Exit codes: 0 success, 1 usage or validation error (a parse
error included), 2 property failure, 3 partial grid failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .backbone import MODALITY_SETS, VARIANTS
from .data import read_json, text_lines, write_npy
from .errors import ConfigError, FormatError
from .events import DEFAULT_WINDOW_S, EventStream, bin_events, read_event_file, window_us
from .fusion import GAFF_GUIDANCE, GAFF_MERGES, GAFF_SE_RATIOS, MECHANISMS
from .harness import (
    _CELL_ERRORS,
    RunConfig,
    expand_sweep,
    run_ablation_grid,
    run_grid,
    run_single,
    write_grid_outputs,
)
from .metrics import evaluate, read_detections_jsonl, read_ground_truth_jsonl
from .synth import DEFAULT_HEIGHT, DEFAULT_WIDTH, generate_corpus
from .verify import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_PARTIAL_GRID = 3
# the most bytes one bin-events call may write: 4 GiB, 11,935 frames of 260x346
MAX_OUTPUT_BYTES = 1 << 32


def _load_run_config(args):
    """The config file's fields, each overridden by its flag when given; a
    file that is not a JSON object is left for ``from_dict`` to refuse."""
    d = read_json(args.config) if args.config else {}
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if isinstance(d, dict):
        d.update({k: v for k, v in flags.items() if v is not None})
    return RunConfig.from_dict(d).validate()


def _add_shared_flags(p, default=None):
    p.add_argument("--config", default=default, help="JSON file of run-config fields")
    p.add_argument("--seed", type=int, default=default, help="global RNG seed")
    p.add_argument("--out", default=default, help="output file or directory")


def _add_run_flags(p):
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--mechanism", choices=MECHANISMS)
    p.add_argument("--stages", type=int, nargs="*", metavar="S")
    p.add_argument("--tau", type=float)
    p.add_argument("--se-ratio", dest="se_ratio", type=int, choices=GAFF_SE_RATIOS)
    p.add_argument("--guidance", choices=GAFF_GUIDANCE)
    p.add_argument("--merge", choices=GAFF_MERGES)
    p.add_argument("--modalities", choices=MODALITY_SETS)
    p.add_argument("--source", help="'synthetic' or a manifest path")


def _emit(obj, out):
    text = json.dumps(obj, indent=1)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_inspect(args):
    cfg = _load_run_config(args)
    report = run_single(cfg)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_grid(args):
    cfg = _load_run_config(args)
    out_dir = args.out or "grid_out"
    sweep = read_json(args.sweep) if args.sweep else {}
    expand_sweep(cfg, sweep)  # a bad sweep fails before --out is made
    # before any cell runs, so an --out that cannot be a directory fails at once
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    if args.ablation_grid:
        groups = run_ablation_grid(cfg)
        reports = [r for rs in groups.values() for r in rs]
        for name, rs in groups.items():
            bad = sum(1 for r in rs if not r.ok)
            print(f"{name}: {len(rs)} runs, {bad} failed")
    else:
        reports = run_grid(cfg, sweep)
    write_grid_outputs(reports, out_dir)
    failed = sum(1 for r in reports if not r.ok)
    print(f"grid: {len(reports)} runs, {failed} failed -> {out_dir}")
    return EXIT_PARTIAL_GRID if failed else EXIT_OK


def cmd_verify(args):
    summary = run_verification(n_seeds=args.seeds, base_seed=args.seed or 0)
    any_failed = False
    for name, res in summary.items():
        status = "ok" if not res["failed"] else f"FAILED seeds={res['failed']}"
        print(f"{name}: {res['passed']}/{res['passed'] + len(res['failed'])} {status}")
        any_failed = any_failed or bool(res["failed"])
    if args.out:
        _emit(summary, args.out)
    return EXIT_PROPERTY if any_failed else EXIT_OK


def cmd_synth(args):
    manifest = generate_corpus(
        args.out or "synth_data", args.n, height=args.height, width=args.width,
        seed=args.seed or 0,
    )
    print(f"wrote {args.n} frames -> {manifest}")
    return EXIT_OK


def cmd_eval(args):
    dets = read_detections_jsonl(args.dets)
    gts = read_ground_truth_jsonl(args.gts)
    report = evaluate(dets, gts)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_bin_events(args):
    # --dt, every stamp and the output's size are checked before --out is made
    if not 0 < args.dt < math.inf:
        raise ConfigError(f"--dt must be positive and finite, got {args.dt}")
    t, x, y, p = read_event_file(args.events)
    if args.sensor_size:
        size = tuple(args.sensor_size)
    else:
        # at least 1x1, so a negative coordinate is reported as one
        size = (max([0, *y]) + 1, max([0, *x]) + 1)
    stream = EventStream(t, x, y, p, size)
    stamps = []
    for where, line in text_lines(args.timestamps):
        try:
            stamps.append(float(line))
        except ValueError as e:
            raise FormatError(f"{where}: non-numeric timestamp") from e
        if not math.isfinite(stamps[-1]):
            raise FormatError(f"{where}: non-finite timestamp")
        try:
            window_us(stamps[-1], args.dt)
        except ConfigError as e:
            raise FormatError(f"{where}: {e}") from e
    nbytes = len(stamps) * size[0] * size[1] * 4  # float32 frames
    if nbytes > MAX_OUTPUT_BYTES:
        raise ConfigError(f"{len(stamps)} frames of {size[0]}x{size[1]} float32 = {nbytes} bytes, "
                          f"above the bound of {MAX_OUTPUT_BYTES}")
    out_dir = Path(args.out or "event_frames")
    out_dir.mkdir(parents=True, exist_ok=True)
    digits = max(4, len(str(len(stamps) - 1)))  # names sort in stamp order
    for i, ts in enumerate(stamps):
        frame = bin_events(stream, ts, args.dt)
        write_npy(out_dir / f"frame_{i:0{digits}d}.npy", frame)
    print(f"wrote {len(stamps)} frames -> {out_dir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with a parse error exiting 1, the usage/validation code,
    where argparse exits 2, the code of a failed verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="trifuse",
        description="Tri-modal fusion backbone: inspection, ablation grids, "
                    "verification, synthetic data and detection metrics.",
    )
    _add_shared_flags(parser)
    # the shared flags are also accepted after any verb; SUPPRESS keeps a
    # value given before the verb when the verb does not repeat it
    shared = argparse.ArgumentParser(add_help=False)
    _add_shared_flags(shared, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", parents=[shared],
                       help="build one model, report shapes and parameter count")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("grid", parents=[shared], help="run an ablation sweep")
    _add_run_flags(p)
    cells = p.add_mutually_exclusive_group()
    cells.add_argument("--sweep", help="JSON sweep spec: {axis: [values]}")
    cells.add_argument("--ablation-grid", action="store_true",
                       help="run the full published ablation inventory")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("verify", parents=[shared], help="run randomized property suites")
    p.add_argument("--seeds", type=int, default=20, help="seeds per property")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("synth", parents=[shared], help="generate a synthetic corpus")
    p.add_argument("--n", type=int, default=4, help="number of frames")
    p.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("eval", parents=[shared], help="score detections against ground truth")
    p.add_argument("--dets", required=True, help="detections JSONL")
    p.add_argument("--gts", required=True, help="ground-truth JSONL")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bin-events", parents=[shared], help="bin an event stream into frames")
    p.add_argument("--events", required=True, help="text file of 't_us x y polarity' lines")
    p.add_argument("--timestamps", required=True, help="one center timestamp (s) per line")
    p.add_argument("--dt", type=float, default=DEFAULT_WINDOW_S,
                   help="window length in seconds (default 1/30)")
    p.add_argument("--sensor-size", type=int, nargs=2, metavar=("H", "W"))
    p.set_defaults(fn=cmd_bin_events)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CELL_ERRORS as e:  # what fails a grid cell fails a single command
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

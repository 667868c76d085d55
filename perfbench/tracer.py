"""In-memory span tracer that wraps trifuse's public functions from outside.

``backbone``, ``fusion``, ``neck`` and ``harness`` bind the kernels with
``from .tensors import ...`` and ``metrics.evaluate`` reaches
``average_precision`` and ``iou`` through module globals, so a function is
replaced in every ``trifuse`` module namespace that holds it, which is where
each caller looks it up.  ``Tracer.remove`` restores every original object.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or ``None``.  Self time is a span's duration minus the time
its child spans cover.  FLOPs and buffer sizes are analytic, from argument
shapes; they cost no extra compute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MB = 1e6


def _attention_meter(a):
    q, k, v = a["q"].shape, a["k"].shape, a["v"].shape
    b, nq, nk = q[0], q[1], k[1]
    gflop = 2.0 * b * nq * nk * (q[2] + v[2]) / 1e9
    # the seed kernel materialises one float64 score block per query chunk
    chunk = a.get("chunk") or nq
    return gflop, {"score_mb": b * min(nq, chunk) * nk * 8 / MB}


def _linear_meter(a):
    t, w = a["t"].shape, a["w"].shape
    rows = int(np.prod(t[:-1]))
    return 2.0 * rows * w[0] * w[1] / 1e9, {}


def _conv_meter(a):
    x, w = a["x"].shape, a["w"].shape
    stride, pad, groups = a["stride"], a["pad"], a["groups"]
    b, cin, h, wid = x
    cout, cin_g, kh, kw = w
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    gflop = 2.0 * b * cout * ho * wo * cin_g * kh * kw / 1e9
    if groups == 1:
        cols = b * kh * kw * cin * ho * wo * 8  # dense path: one float64 im2col
    elif groups == cin and cin_g == 1:
        cols = 0  # depthwise path accumulates tap by tap
    else:
        cols = b * ho * wo * cin_g * kh * kw * 8  # one group's columns at a time
    return gflop, {"im2col_mb": cols / MB}


def _module_targets():
    """(module, attribute, span name, meter) for every traced function.  The
    span name is a string, or a function of the bound arguments for layers
    named by stage and stream.  ``None`` marks a function too cheap to
    time: its calls are only counted, in a separate counting pass."""
    # a block prefix is "<stream>.s<stage>.blk<j>"
    block = lambda fn: lambda a: "backbone.{1}.{0}.{2}".format(*a["q"].split(".")[:2], fn)
    meters = {"attention": _attention_meter, "linear": _linear_meter, "conv2d": _conv_meter}
    return [("tensors", k, f"tensors.{k}", meters.get(k))
            for k in ("attention", "linear", "conv2d", "layer_norm", "gelu", "init_params")] + [
        ("backbone", "forward_dual", "backbone.forward_dual", None),
        ("backbone", "patch_embed", lambda a: f"backbone.s{a['stage']}.{a['p']}.patch_embed", None),
        ("backbone", "sra_attention", block("sra_attention"), None),
        ("backbone", "mix_ffn", block("mix_ffn"), None),
        ("fusion", "apply_fusion", lambda a: "fusion." + a["p"].split(".")[-1], None),
        ("fusion", "bite", "fusion.bite", None),
        ("fusion", "mage", "fusion.mage", None),
        ("neck", "fpn", "neck.fpn", None),
    ] + [(m, f, f"{m}.{f}", None) for m, f in (
        ("harness", "build_param_specs"), ("harness", "make_input"), ("harness", "run_single"),
        ("metrics", "evaluate"), ("metrics", "average_precision"),
        ("data", "load_frame"), ("data", "read_npy"), ("data", "parse_labels"),
        ("data", "normalize"), ("data", "pad_to_stride"), ("synth", "generate_corpus"))
    ] + [("metrics", "iou", None, None)]


def counted_modules():
    """Modules of the count-only functions: a counting pass is worth running
    only where the traced run reached one of them."""
    return {m for m, _, namer, _ in _module_targets() if namer is None}


class Tracer:
    """Records spans while installed; ``remove`` puts every original back.

    With ``counting`` it instead counts calls of the functions too cheap to
    time, whose wrapper would otherwise dominate their callers' spans.
    """

    def __init__(self, counting=False):
        self.counting = counting
        self.spans = []
        self.stack = []
        self.calls = defaultdict(int)  # name -> calls, for count-only targets
        self.gflop = {}  # span index -> analytic GFLOP
        self.peaks = defaultdict(float)  # "<kernel>.<buffer>" -> max MB
        self._patches = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, namer, meter, count_name):
        if namer is None:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[count_name] += 1
                return fn(*args, **kwargs)
            return counted

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callable(namer) or meter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            idx = self.begin(namer(bound) if callable(namer) else namer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                if meter is not None:
                    self.gflop[idx], bufs = meter(bound)
                    kernel = self.spans[idx][0]
                    for buf, mb in bufs.items():
                        key = f"{kernel}.{buf}"
                        self.peaks[key] = max(self.peaks[key], mb)
        return traced

    def install(self):
        """Wrap every target in every loaded ``trifuse`` module that binds it."""
        import trifuse.events  # importing trifuse loads every submodule

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trifuse" or n.startswith("trifuse."))]
        for mod_name, attr, namer, meter in _module_targets():
            if (namer is None) != self.counting:
                continue
            home = sys.modules[f"trifuse.{mod_name}"]
            original = getattr(home, attr)
            wrapper = self._wrap(original, namer, meter, f"{mod_name}.{attr}")
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        if self.counting:
            return self
        # a class keeps its identity for isinstance: wrap its constructor
        cls = trifuse.events.EventStream
        init = cls.__init__
        self._patches.append((cls, "__init__", init))
        cls.__init__ = self._wrap(init, "events.EventStream", None, None)
        return self

    def remove(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- analysis ----------------------------------------------------------

    def to_json(self):
        return {"spans": self.spans, "gflop": {str(k): v for k, v in self.gflop.items()}}

    def root(self, idx):
        """Name of the outermost span enclosing span ``idx``."""
        while self.spans[idx][3] is not None:
            idx = self.spans[idx][3]
        return self.spans[idx][0]

    def summarize(self, step_span, steps, setup_span="bench.setup"):
        """Per-layer inclusive ms, self ms, calls and GFLOP per step for
        spans under ``step_span``; a layer seen only in set-up reports its
        totals per set-up.  Also returns coverage: the time of the spans
        directly under ``step_span`` over the time of ``step_span``."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                child[s[3]] += dur[i]
        n_setup = max(1, sum(s[0] == setup_span for s in self.spans))
        acc = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0, 0.0]))
        top = wall = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == step_span:
                wall += dur[i]
                continue
            if parent is not None and self.spans[parent][0] == step_span:
                top += dur[i]
            a = acc[name][self.root(i)]
            a[0] += dur[i]
            a[1] += dur[i] - child[i]
            a[2] += 1
            a[3] += self.gflop.get(i, 0.0)
        out = {}
        for name, by_root in acc.items():
            for root, phase, div in ((step_span, "step", steps), (setup_span, "setup", n_setup)):
                if name != setup_span and root in by_root:
                    incl, self_t, calls, gflop = by_root[root]
                    out[name] = {"ms": 1e3 * incl / div, "self_ms": 1e3 * self_t / div,
                                 "calls": calls / div, "gflop": gflop / div, "phase": phase,
                                 "gflops_per_s": gflop / self_t if self_t else 0.0}
                    break
        return out, (top / wall if wall else 0.0)


def gemm_peak_gflops(n=768, reps=5):
    """Best float64 GEMM rate of ``reps`` n x n products, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(reps + 1):  # the first product warms up
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def layer_table(layers, peak):
    """Human-readable per-layer table sorted by self time per step."""
    rows = [f"{'layer':<36} {'self ms':>10} {'calls':>8} {'GFLOP':>9} {'GFLOP/s':>9} {'%peak':>6}"]
    for name, r in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
        rate = r["gflops_per_s"]
        pct = f"{100 * rate / peak:5.1f}" if rate else ""
        gf = f"{r['gflop']:9.3f}" if r["gflop"] else ""
        rs = f"{rate:9.2f}" if rate else ""
        rows.append(f"{name + ' [' + r['phase'] + ']':<36} {r['self_ms']:10.2f} {r['calls']:8.1f} {gf:>9} {rs:>9} {pct:>6}")
    rows.append(f"float64 GEMM peak: {peak:.2f} GFLOP/s")
    return "\n".join(rows)

"""Source hygiene checks that need only the standard library: static
checks of the source, and what a fresh interpreter loads."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "trifuse"
DEMOS = TESTS.parent / "demos"


def unused_imports(path):
    """(line, name) for every name ``path`` imports but never references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_the_unused_name(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import os\nfrom json import dumps, loads\nprint(os.sep, loads)\n")
    assert unused_imports(p) == [(2, "dumps")]


def test_no_unused_imports():
    # the package's __init__.py imports only to re-export
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    found = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for path in paths
        if path != SRC / "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_threads_or_processes():
    # cells and kernels run on the calling thread: the benchmark pins BLAS to
    # one thread, so every report times single-core work
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] in ("threading", "concurrent", "multiprocessing")]
    assert not found, "thread or process imports:\n" + "\n".join(found)


def _mentions(node):
    """The identifiers, attribute names and string constants under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.value
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) or isinstance(n, ast.Constant) and isinstance(n.value, str)}


def unreferenced_definitions(sources, others):
    """(path, name) for each top-level function or class in ``sources`` that
    no other top-level statement of ``sources`` or ``others`` mentions."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in [*sources, *others]}
    mentioned = Counter(name for tree in trees.values() for node in tree.body for name in _mentions(node))
    return [
        (path, node.name)
        for path in sources
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and mentioned[node.name] == (node.name in _mentions(node))
    ]


def test_unreferenced_definitions_finds_the_unused_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def used():\n    pass\n\n\ndef traced():\n    pass\n\n\n"
                 "def alone(n):\n    return alone(n - 1)\n\n\nclass Kept:\n    pass\n")
    b.write_text("from a import used\nused()\nTARGETS = ['traced']\nkept = a.Kept\n")
    assert unreferenced_definitions([a], [b]) == [(a, "alone")]


def test_no_test_only_functions():
    # perfbench names the functions it traces by string; a re-export from
    # __init__.py is not a use
    others = sorted(DEMOS.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    found = [
        f"{path.name}: {name}"
        for path, name in unreferenced_definitions(sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}), others)
    ]
    assert not found, "defined in src/ but used only by tests:\n" + "\n".join(found)


def _passes(call, index, name):
    """Whether ``call`` passes the parameter ``name`` at positional
    ``index``: by keyword, by position, or through ``*`` or ``**``."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)))


def keywords_only_tests_pass(sources, callers):
    """(path, function, parameter) for each defaulted parameter of a
    function in ``sources`` that no call in ``sources`` or ``callers``
    passes.  A call is matched by the function's name, called bare or as
    an attribute; a method's positions start after ``self``."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in [*sources, *callers]}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, []).append(node)
    methods = {id(f) for tree in trees.values() for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    found = []
    for path in sources:
        for fn in ast.walk(trees[path]):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a, skip = fn.args, id(fn) in methods
            positional = a.posonlyargs + a.args
            defaulted = [(i - skip, arg.arg) for i, arg in enumerate(positional)][len(positional) - len(a.defaults):]
            defaulted += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [(path, fn.name, name) for index, name in defaulted
                      if not any(_passes(call, index, name) for call in calls.get(fn.name, []))]
    return found


def test_keywords_only_tests_pass_finds_the_unpassed_one(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def f(x, y=1, z=2, *, k=3):\n    return x\n\n\n"
                 "class C:\n    def m(self, n=0, o=1):\n        return n\n\n\n"
                 "def g(p=0, q=1):\n    return f(p, q)\n")
    b.write_text("import a\na.f(0, k=1)\na.C().m(1)\nargs = [0, 1]\na.g(*args)\n")
    assert keywords_only_tests_pass([a], [b]) == [(a, "f", "z"), (a, "m", "o")]


# defaulted parameters that only tests pass, each kept for a reason
KEPT_KEYWORDS = {
    ("attention", "chunk"): "the query block size; tests shrink it to exercise block edges",
    ("layer_norm", "eps"): "the standard layer-norm argument; tests check it is refused at <= 0",
    ("trunc_normal", "bound"): "the truncation width; tests pin the resampling rounds at narrow bounds",
    ("load_manifest", "check_files"): "tests read a manifest whose files they have not written",
    ("make_frame", "n_boxes"): "tests ask for a fixed box count",
    ("main", "argv"): "the console entry point reads sys.argv; tests pass their own",
    ("run_grid", "workers"): "the benchmark's grid-light workload passes workers=1 through its clock",
}


def test_no_test_only_keywords():
    callers = sorted(DEMOS.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    found = [f"{path.name}: {fn}({name}=...)"
             for path, fn, name in keywords_only_tests_pass(sorted(SRC.glob("*.py")), callers)
             if (fn, name) not in KEPT_KEYWORDS]
    assert not found, "keywords that only tests pass:\n" + "\n".join(found)


def unread_fields(sources, readers):
    """(path, class, field) for each dataclass field in ``sources`` that no
    attribute read in ``sources`` or ``readers`` uses.  A name only one
    dataclass declares is read by any read of it.  A name several declare
    is read, for each, only in its own module or in a module that names
    the class or a function whose body builds one."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in dict.fromkeys([*sources, *readers])}
    reads = {path: {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
             for path, tree in trees.items()}
    classes = [(path, c, [s.target.id for s in c.body if isinstance(s, ast.AnnAssign)])
               for path in sources for c in trees[path].body
               if isinstance(c, ast.ClassDef) and any("dataclass" in _mentions(d) for d in c.decorator_list)]
    declared = Counter(name for _, _, names in classes for name in names)
    found = []
    for path, c, names in classes:
        builders = {c.name} | {f.name for tree in trees.values() for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                               and any(isinstance(n, ast.Call) and c.name in _mentions(n.func) for n in ast.walk(f))}
        near = [q for q in trees if q == path or builders & _mentions(trees[q])]
        found += [(path, c.name, name) for name in names
                  if not any(name in reads[q] for q in (trees if declared[name] == 1 else near))]
    return found


def test_unread_fields_finds_the_unread_ones(tmp_path):
    a, b, c = tmp_path / "a.py", tmp_path / "b.py", tmp_path / "c.py"
    a.write_text("from dataclasses import dataclass\n\n\n@dataclass\nclass Split:\n    left: int\n    mode: str\n\n\n"
                 "def split(x):\n    return Split(x, 'ab')\n\n\n@dataclass(frozen=True)\nclass Config:\n"
                 "    mode: str\n    spare: int = 0\n")
    b.write_text("from a import split\nprint(split(1).left)\n")
    c.write_text("def run(cfg):\n    return cfg.mode\n")
    assert unread_fields([a], [b, c]) == [(a, "Split", "mode"), (a, "Config", "mode"), (a, "Config", "spare")]


# dataclass fields that no attribute read in the program uses, each kept for a reason
KEPT_FIELDS = {
    ("GroundTruthBox", "class_id"): "read as frame.boxes[i].class_id by the demos and perfbench, "
                                    "which reach the boxes through load_frame",
}


def test_no_unread_dataclass_fields():
    # perfbench and the demos read the package's results; the tests do not count
    readers = sorted(DEMOS.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    found = [f"{path.name}: {cls}.{name}"
             for path, cls, name in unread_fields(sorted(SRC.glob("*.py")), readers)
             if (cls, name) not in KEPT_FIELDS]
    assert not found, "dataclass fields that nothing reads:\n" + "\n".join(found)


def test_readme_layout_names_every_module():
    # each bullet of README's Layout list that opens with a module's path
    readme = (SRC.parents[1] / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^- `src/trifuse/(\w+\.py)`", layout, re.MULTILINE)
    modules = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert sorted(named) == modules


def _run_fresh(script, cwd):
    """Run ``script`` in a fresh interpreter that imports the package and
    the test oracles from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(TESTS)])}
    run = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


SCIPY_ON_FIRST_KERNEL_CALL = """
import json, sys
from pathlib import Path
import numpy as np
import trifuse
from trifuse import cli
from trifuse.tensors import gelu, sigmoid

box = [0, 0, 10, 10]
Path("d.jsonl").write_text(json.dumps({"image_id": "a", "bbox": box, "score": 0.9}) + "\\n")
Path("g.jsonl").write_text(json.dumps({"image_id": "a", "bbox": box}) + "\\n")
Path("events.txt").write_text("100000 2 1 1\\n200000 3 2 -1\\n")
Path("stamps.txt").write_text("0.15\\n")
for argv in (["--out", "corpus", "synth", "--n", "2", "--height", "40", "--width", "48"],
             ["--out", "eval.json", "eval", "--dets", "d.jsonl", "--gts", "g.jsonl"],
             ["--out", "frames", "bin-events", "--events", "events.txt", "--timestamps", "stamps.txt",
              "--sensor-size", "4", "5"]):
    assert cli.main(argv) == cli.EXIT_OK, argv
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, loaded

rng = np.random.default_rng(7)
x32 = (rng.standard_normal(4096) * 8).astype(np.float32)
x64 = rng.standard_normal(4096) * 8
got = [gelu(x32), sigmoid(x32), sigmoid(x64)]
assert "scipy.special" in sys.modules
from scipy.special import expit
from oracles import gelu_expression
want = [gelu_expression(x32), expit(x32), expit(x64).astype(np.float32)]
for g, w in zip(got, want):
    assert g.dtype == w.dtype == np.float32 and g.tobytes() == w.tobytes()
"""


def test_scipy_loads_on_the_first_gelu_or_sigmoid(tmp_path):
    # synth, eval and bin-events never load scipy; the kernels that need it
    # load it on their first call and compute what the module-level import did
    _run_fresh(SCIPY_ON_FIRST_KERNEL_CALL, tmp_path)

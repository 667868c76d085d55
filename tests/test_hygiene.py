"""Source hygiene checks that need only the standard library: static
checks of the source, and what a fresh interpreter loads."""

import ast
import os
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
    # perfbench names the functions it traces by string; __init__.py only re-exports
    init = SRC / "__init__.py"
    exported = {alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    others = sorted(DEMOS.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    found = [
        f"{path.name}: {name}"
        for path, name in unreferenced_definitions(sorted(set(SRC.glob("*.py")) - {init}), others)
        if name not in exported
    ]
    assert not found, "defined in src/ but used only by tests:\n" + "\n".join(found)


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
got = [gelu(x32), gelu(x64), sigmoid(x32), sigmoid(x64)]
assert "scipy.special" in sys.modules
from scipy.special import expit
from oracles import gelu_expression
want = [gelu_expression(x32), gelu_expression(x64), expit(x32), expit(x64).astype(np.float32)]
for g, w in zip(got, want):
    assert g.dtype == w.dtype == np.float32 and g.tobytes() == w.tobytes()
"""


def test_scipy_loads_on_the_first_gelu_or_sigmoid(tmp_path):
    # synth, eval and bin-events never load scipy; the kernels that need it
    # load it on their first call and compute what the module-level import did
    _run_fresh(SCIPY_ON_FIRST_KERNEL_CALL, tmp_path)

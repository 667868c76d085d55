"""Source hygiene checks that need only the standard library."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "trifuse"


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
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for path in paths
        if path != SRC / "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


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
    others = sorted((SRC.parents[1] / "demos").glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    found = [
        f"{path.name}: {name}"
        for path, name in unreferenced_definitions(sorted(set(SRC.glob("*.py")) - {init}), others)
        if name not in exported
    ]
    assert not found, "defined in src/ but used only by tests:\n" + "\n".join(found)

"""Source hygiene checks that need only the standard library."""

import ast
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

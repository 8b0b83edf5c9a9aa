"""Import hygiene, checked on the syntax tree (no linter is required): every
imported name is used or re-exported, and every __all__ entry is defined.
The package's only runtime dependency is numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "isacbeam").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) of every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _defined(tree):
    names = {name for name, _ in _imported(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def import_problems(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    rel = path.relative_to(ROOT)
    problems = [
        f"{rel}:{line}: {name} is imported but unused"
        for name, line in _imported(tree)
        if name not in used and name not in exported
    ]
    defined = _defined(tree)
    problems += [f"{rel}: __all__ lists undefined {name}" for name in exported if name not in defined]
    return problems


def test_imports_used_and_exports_defined():
    assert SOURCES
    problems = [p for path in SOURCES for p in import_problems(path)]
    assert problems == []


def test_import_loads_no_scipy():
    path = (str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = "import sys, isacbeam; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

"""Every public module-level function and class of ``src/hman/`` has a user.

A definition counts as used when its name appears in ``src/hman/`` or
``hmanbench/`` outside the definition itself: as a name, an attribute, an
imported name, or a string target of ``hmanbench/tracer.py``'s ``TARGETS``.
Names are matched without their module, so two definitions that share a
name count each other's uses; the check errs toward passing.  Tests do
not count as users.
"""

import ast
from pathlib import Path

from test_bench_api import _tracer_targets

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hman"
BENCH = ROOT / "hmanbench"

# Unused by the program and kept on purpose.
ALLOWED = {
    ("autodiff", "slice_cols"),  # the tests' oracles use it: the op-by-op cell step
    ("autodiff", "concat"),      # the tests' oracles use it: the op-by-op head and boundary loss
}


def _trees() -> dict[Path, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _uses(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute and imported name in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
    return found


def _unused() -> set[tuple[str, str]]:
    trees = _trees()
    uses = {path: _uses(tree) for path, tree in trees.items()}
    traced = {attr for _module, attr in _tracer_targets()}
    unused = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            used = node.name in traced or any(
                name == node.name and not (where == path and first <= line <= node.end_lineno)
                for where, found in uses.items() for name, line in found)
            if not used:
                unused.add((path.stem, node.name))
    return unused


def test_every_public_definition_has_a_user():
    assert _unused() == ALLOWED

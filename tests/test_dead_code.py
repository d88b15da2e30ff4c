"""Every public module-level function and class of ``src/hman/`` has a user,
and every numeric rule that the fused ops share is spelled once.

A definition counts as used when its name appears in ``src/hman/`` or
``hmanbench/`` outside the definition itself: as a name, an attribute, an
imported name, or a string target of ``hmanbench/tracer.py``'s ``TARGETS``.
Names are matched without their module, so two definitions that share a
name count each other's uses; the check errs toward passing.  Tests do
not count as users.
"""

import ast
import re
from pathlib import Path

from test_bench_api import _tracer_targets

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hman"
BENCH = ROOT / "hmanbench"

# Unused by the program and kept on purpose.
ALLOWED: set[tuple[str, str]] = set()

# Spellings of the rules that the fused ops share with the autodiff
# primitives; each may appear only in the autodiff kernel that owns it.
KERNEL_SPELLINGS = {
    "_sigmoid": re.compile(r"tanh\(\s*0?\.5\s*\*|1\.?0?\s*/\s*\(\s*1\.?0?\s*\+\s*np\.exp\(\s*-"),
    "_softmax": re.compile(r"-\s*(np\.a?max\(|[A-Za-z_][\w.]*\.max\()"),
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


def _enclosing_function(tree: ast.Module, line: int) -> str | None:
    """Name of the innermost function whose body holds ``line``."""
    found = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.lineno <= line <= node.end_lineno \
                and (found is None or node.lineno > found.lineno):
            found = node
    return None if found is None else found.name


def test_shared_rules_are_spelled_only_in_their_kernels():
    spelled = {kernel: [] for kernel in KERNEL_SPELLINGS}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        for number, line in enumerate(text.splitlines(), 1):
            for kernel, spelling in KERNEL_SPELLINGS.items():
                if spelling.search(line):
                    spelled[kernel].append((path.stem, _enclosing_function(tree, number)))
    assert spelled == {kernel: [("autodiff", kernel)] for kernel in KERNEL_SPELLINGS}

"""Every public module-level function and class of ``src/hman/`` has a user,
and every numeric rule that the fused ops share is spelled once.

A definition counts as used when it is named in ``src/hman/`` or
``hmanbench/`` outside the definition itself, through its module: by a bare
name in its own module, as ``alias.name`` where ``alias`` is its imported
module, as a name imported from its module, or as a ``(module, attr)``
target of ``hmanbench/tracer.py``'s ``TARGETS``.  An attribute of anything
else, such as a method of an array, names no module's definition.  Tests do
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
ALLOWED: set[tuple[str, str]] = {
    # criterion 4's acceptance test transposes through the tape with it
    ("autodiff", "transpose"),
}

# Spellings of the rules that the fused ops share with the tape primitives,
# and of the cell step's live-row decision; each may appear only in the
# (module, function) that owns it.
KERNEL_SPELLINGS = {
    ("autodiff", "_sigmoid"):
        re.compile(r"tanh\(\s*0?\.5\s*\*|1\.?0?\s*/\s*\(\s*1\.?0?\s*\+\s*np\.exp\(\s*-"),
    ("autodiff", "_softmax"): re.compile(r"-\s*(np\.a?max\(|[A-Za-z_][\w.]*\.max\()"),
    # the location scores h1_prev @ w_locᵀ
    ("attention", "_scores"): re.compile(r"@\s*np\.ascontiguousarray\(\s*[\w.]+\.T\s*\)"),
    # the rows that UPDATE or FLUSH, from the own bit at t-1 and the bit below
    ("cell", "step"): re.compile(r"_sparse_rows\(\s*[\w.]+\s*\+\s*[\w.]+\s*\)"),
}


def _trees() -> dict[Path, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _uses(path: Path, tree: ast.Module) -> list[tuple[str, str, int]]:
    """(module, name, line) of every use in ``tree`` of a module-level name,
    with modules named by their file stem."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source in ("", "hman") and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (source, alias.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((*imported.get(node.id, (path.stem, node.id)), node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append((aliases[node.value.id], node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(*imported[alias.asname or alias.name], node.lineno)
                      for alias in node.names if (alias.asname or alias.name) in imported]
    return found


def _unused() -> set[tuple[str, str]]:
    trees = _trees()
    uses = {path: _uses(path, tree) for path, tree in trees.items()}
    traced = {(module.split(".")[-1], attr) for module, attr in _tracer_targets()}
    unused = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            used = (path.stem, node.name) in traced or any(
                (module, name) == (path.stem, node.name)
                and not (where == path and first <= line <= node.end_lineno)
                for where, found in uses.items() for module, name, line in found)
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
    spelled = {owner: [] for owner in KERNEL_SPELLINGS}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        for number, line in enumerate(text.splitlines(), 1):
            for owner, spelling in KERNEL_SPELLINGS.items():
                if spelling.search(line):
                    spelled[owner].append((path.stem, _enclosing_function(tree, number)))
    assert spelled == {owner: [owner] for owner in KERNEL_SPELLINGS}

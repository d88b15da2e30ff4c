"""The names the benchmark under ``hmanbench/`` depends on still exist.

The benchmark drives the package only through its public names and is
kept unchanged from one change of the package to the next, so deleting a
name it uses breaks it without failing any other test.  These checks read
``hmanbench/`` as source text; they import and change nothing there.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np

from hman import autodiff as ad
from hman import model as hm
from hman import training as ht

BENCH = Path(__file__).resolve().parent.parent / "hmanbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _tracer_targets() -> list[tuple[str, str]]:
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return sorted({(module, attr) for module, attr, _ in ast.literal_eval(node.value)})
    raise AssertionError("hmanbench/tracer.py defines no TARGETS")


def _module_attributes() -> list[tuple[str, str]]:
    """(module, name) for every ``from hman[.x] import name`` and every
    ``alias.name`` where ``alias`` is an imported ``hman`` module."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hman"):
                for name in node.names:
                    if node.module == "hman":
                        aliases[name.asname or name.name] = f"hman.{name.name}"
                    else:
                        found.add((node.module, name.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                found.add((aliases[node.value.id], node.attr))
    return sorted(found)


def _workload_fields() -> dict[str, set[str]]:
    """Keyword names of the ``dict(...)`` literals that the workloads pass as
    ``ModelConfig`` (``model``) and ``TrainConfig`` (``train``) fields."""
    fields = {"model": set(), "train": set()}
    owner = {"ACCEPTANCE_MODEL": "model", "ACCEPTANCE_TRAIN": "train"}
    for node in ast.walk(_tree("run.py")):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            kind, call = owner.get(getattr(node.targets[0], "id", "")), node.value
        elif isinstance(node, ast.keyword) and isinstance(node.value, ast.Call):
            kind, call = (node.arg if node.arg in fields else None), node.value
        else:
            continue
        if kind and getattr(call.func, "id", "") == "dict":
            fields[kind].update(k.arg for k in call.keywords)
    return fields


def test_traced_functions_exist():
    targets = _tracer_targets()
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert len(targets) > 10 and not missing


def test_module_attributes_exist():
    used = _module_attributes()
    missing = [f"{module}.{attr}" for module, attr in used
               if not hasattr(importlib.import_module(module), attr)]
    assert ("hman.training", "split_blocks") in used and not missing


def test_methods_and_keywords_exist():
    forward = inspect.signature(hm.HMAN.forward_batch).parameters
    for keyword in ("rng", "train", "soft_boundaries", "soft_attention_sample"):
        assert keyword in forward
    for owner, name in ((hm.HMAN, "predict_video"), (hm.HMAN, "zero_grad"),
                        (ht.Trainer, "train_epoch"), (ad.Tape, "replay_adjoints")):
        assert callable(getattr(owner, name))
    x = ad.Tensor(np.ones(2), requires_grad=True)
    tape = ad.Tape(ad.sum_(x * x))
    assert len(tape.nodes) == 3
    tape.replay_adjoints()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_config_and_result_fields_exist():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    used = _workload_fields()
    assert used["model"] >= {"layers", "hidden", "attention"}   # the parse found them
    assert used["model"] | {"cell_hidden_tanh"} <= names(hm.ModelConfig)
    assert used["train"] <= names(ht.TrainConfig)
    assert {"step_probs", "z_logits"} <= names(hm.BatchOutput)
    assert "loss" in names(ht.EpochMetrics)
    assert {"accuracy", "confusion"} <= names(ht.EvalReport)

"""Spans around the public functions of each ``hman`` layer, from outside.

:func:`install` replaces module attributes (and three methods of ``HMAN``
and ``Trainer``) with wrappers that record one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory
until :meth:`Tracer.write`.  The program itself is not changed: the
wrappers work because its modules call each other through module
attributes (``hc.step``, ``st.hard_threshold``, ``ad.backward``, ...).

Self times come from the spans: a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time

import numpy as np

# (module, attribute, span name); spans are named after the layer they enter.
TARGETS = [
    ("hman.data", "gen_synthetic", "data.gen_synthetic"),
    ("hman.data", "load_dataset", "data.load_dataset"),
    ("hman.attention", "soft_attend", "attention.attend"),
    ("hman.attention", "gumbel_hard_attend", "attention.attend"),
    ("hman.attention", "reinforce_hard_attend", "attention.attend"),
    ("hman.stochastic", "sample_gumbel", "stochastic.sample_gumbel"),
    ("hman.stochastic", "gumbel_softmax", "stochastic.gumbel_softmax"),
    ("hman.stochastic", "gumbel_sigmoid", "stochastic.gumbel_sigmoid"),
    ("hman.stochastic", "hard_threshold", "stochastic.hard_threshold"),
    ("hman.stochastic", "hard_onehot", "stochastic.hard_onehot"),
    ("hman.stochastic", "adaptive_tau", "stochastic.adaptive_tau"),
    ("hman.cell", "step", "cell.step"),
    ("hman.model", "batch_sequence_loss", "model.loss"),
    ("hman.model", "boundary_targets", "model.loss"),
    ("hman.model", "boundary_loss", "model.loss"),
    ("hman.autodiff", "backward", "autodiff.backward"),
    ("hman.training", "adam_step", "training.adam_step"),
    ("hman.training", "clip_global_norm", "training.clip_global_norm"),
    ("hman.training", "evaluate", "training.evaluate"),
]


class Tracer:
    """In-memory span store.  ``spans[i] = [name_id, start, end, parent, value]``.

    ``value`` is a count attached to the span: the batch size of a
    ``model.forward_batch`` call, the node count of an ``autodiff.tape``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, value=None) -> int:
        idx = len(self.spans)
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, self._stack[-1], value])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its phases."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, value_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, value_of(*args, **kwargs) if value_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def patch(self, owner, attr: str, name: str, value_of=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, value_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def table(self):
        """Columns of the span list plus derived self times."""
        n = len(self.spans)
        name = np.fromiter((s[0] for s in self.spans), dtype=np.int64, count=n)
        start = np.fromiter((s[1] for s in self.spans), dtype=np.float64, count=n)
        end = np.fromiter((s[2] for s in self.spans), dtype=np.float64, count=n)
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return SpanTable(self.names, name, dur, dur - child, parent,
                         [s[4] for s in self.spans])

    def write(self, path, extra: dict) -> None:
        """Write every span and ``extra`` as gzip-compressed JSON."""
        doc = dict(extra, names=self.names, columns=["name", "start", "end", "parent", "value"],
                   spans=self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def _noop():
    return None


def span_cost(calls: int = 200_000) -> float:
    """Seconds one traced call adds to a plain call, measured on this machine."""
    traced = Tracer().wrap("probe", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - start - plain) / calls


class SpanTable:
    """Column view of the spans with helpers to select by name and ancestry."""

    def __init__(self, names, name, dur, self_time, parent, values):
        self.names = names
        self.name = name
        self.dur = dur
        self.self_time = self_time
        self.parent = parent
        self.values = values
        self.ids = {n: i for i, n in enumerate(names)}

    def mask(self, *names: str) -> np.ndarray:
        wanted = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.name, wanted)

    def under(self, *ancestors: str) -> np.ndarray:
        """Spans that have a span of one of ``ancestors`` above them (or are one)."""
        anc = self.mask(*ancestors)
        inside = np.zeros(len(self.name), dtype=bool)
        for i in range(len(self.name)):  # parents precede children
            p = self.parent[i]
            inside[i] = anc[i] or (p >= 0 and inside[p])
        return inside

    def outermost(self, prefix: str) -> np.ndarray:
        """Spans whose name starts with ``prefix`` and whose parent's does not."""
        hit = np.array([n.startswith(prefix) for n in self.names] + [False])
        own = hit[self.name]
        parent_hit = np.where(self.parent >= 0, own[np.maximum(self.parent, 0)], False)
        return own & ~parent_hit


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the ``hman`` package."""
    import importlib

    from hman import autodiff as ad
    from hman.model import HMAN
    from hman.training import Trainer

    for module, attr, name in TARGETS:
        tracer.patch(importlib.import_module(module), attr, name)
    tracer.patch(HMAN, "forward_batch", "model.forward_batch",
                 value_of=lambda self, x, *a, **k: int(np.shape(x)[0]))
    tracer.patch(HMAN, "predict_video", "model.predict_video")
    tracer.patch(Trainer, "train_epoch", "training.train_epoch")

    base_tape = ad.Tape

    class TracedTape(base_tape):
        """Times the tape build and records its exact node count."""

        def __init__(self, root):
            idx = tracer.open("autodiff.tape")
            try:
                super().__init__(root)
            finally:
                tracer.close(idx)
            tracer.spans[idx][4] = len(self.nodes)

        def replay_adjoints(self):
            idx = tracer.open("autodiff.replay")
            try:
                super().replay_adjoints()
            finally:
                tracer.close(idx)

    tracer._restore.append((ad, "Tape", base_tape))
    ad.Tape = TracedTape

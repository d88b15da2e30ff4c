"""Per-layer metrics derived from the spans of a traced run.

Per-step metrics divide by the optimizer steps of every training epoch in
the run, eval-small's training before its rounds included.  The metrics of
the workload's main phase (attention, cell, forward) cover the training
epochs of train-small and train-wide, and the evaluate() calls of
eval-small; their ``calls`` are per optimizer step there, and per
evaluated clip on eval-small.
"""

from __future__ import annotations

import numpy as np


def metrics(tab, wl, n_train: int, run) -> dict[str, tuple[float, str]]:
    training = tab.under("training.train_epoch")
    evaluating = tab.under("training.evaluate")
    steps = int(np.sum(tab.mask("training.adam_step") & training))
    epochs = int(np.sum(tab.mask("training.train_epoch")))
    main = training if wl.train_rounds else evaluating
    units = steps if wl.train_rounds else run.eval_clips

    def total(name, within, self_time=False):
        sel = tab.mask(name) & within
        return float(np.sum((tab.self_time if self_time else tab.dur)[sel]))

    def per_call(name, within, self_time=False):
        sel = tab.mask(name) & within
        return float(np.mean((tab.self_time if self_time else tab.dur)[sel]))

    def count(name, within):
        return float(np.sum(tab.mask(name) & within))

    def values(name, within):
        sel = np.flatnonzero(tab.mask(name) & within)
        return np.array([tab.values[i] for i in sel], dtype=np.float64)

    stochastic = tab.outermost("stochastic.") & training
    loss = tab.mask("model.loss") & training
    return {
        "data.gen_ms": (np.median(tab.dur[tab.mask("data.gen_synthetic")]) * 1e3, "ms"),
        "data.load_ms": (np.median(tab.dur[tab.mask("data.load_dataset")]) * 1e3, "ms"),
        "attention.attend_us": (per_call("attention.attend", main) * 1e6, "us"),
        "attention.calls": (count("attention.attend", main) / units, "count"),
        "stochastic.ms_per_step": (float(np.sum(tab.dur[stochastic])) / steps * 1e3, "ms"),
        "cell.step_us": (per_call("cell.step", main, self_time=True) * 1e6, "us"),
        "cell.calls": (count("cell.step", main) / units, "count"),
        "model.forward_ms": (per_call("model.forward_batch", main) * 1e3, "ms"),
        "model.head_ms": (per_call("model.forward_batch", main, self_time=True) * 1e3, "ms"),
        "model.loss_ms": (float(np.sum(tab.dur[loss])) / steps * 1e3, "ms"),
        "model.forward_calls_per_clip": (count("model.forward_batch", evaluating)
                                         / run.eval_clips, "count"),
        "model.forward_batch_size": (float(np.mean(values("model.forward_batch", evaluating))),
                                     "count"),
        "autodiff.backward_ms": (total("autodiff.backward", training) / steps * 1e3, "ms"),
        "autodiff.tape_nodes": (float(np.mean(values("autodiff.tape", training))), "count"),
        "training.clip_ms": (total("training.clip_global_norm", training) / steps * 1e3, "ms"),
        "training.adam_ms": (total("training.adam_step", training) / steps * 1e3, "ms"),
        "training.batch_prep_ms": (total("training.train_epoch", training, self_time=True)
                                   / steps * 1e3, "ms"),
        "training.batch_fill": (n_train * epochs / (steps * wl.train["batch_size"]), "ratio"),
    }

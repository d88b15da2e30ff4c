"""One benchmark run: set-up, timed rounds, correctness checks, metrics.

The program is driven only through its public API: ``data.gen_synthetic``
and ``load_dataset``, ``HMAN``, ``Trainer.train_epoch``,
``training.evaluate`` and ``HMAN.predict_video``.  Three thin probes stay
in place in every run because the checks need them: a clock read when
``training.adam_step`` returns (per-step times), the value of every loss
passed to ``autodiff.backward``, and the first frame of every row that a
training ``forward_batch`` receives (which clip it came from).
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import statistics
import sys
import time

import numpy as np

from hman import autodiff as ad
from hman import data as hd
from hman import model as hm
from hman import training as ht
from oracle import Oracle

clock = time.perf_counter

SETUP_REPEATS = 5        # set-ups per run; setup_s is their median
PROB_TOL = 1e-9          # predict_video vs oracle, per class probability
CHANCE = 1.0 / 8.0
CHANCE_MARGIN = 0.08     # the eval-small model must reach CHANCE + this accuracy
FD_STEP = 1e-5           # central differences of the training loss
FD_TOL = 1e-4            # on |a - n| / max(|a|, |n|, FD_FLOOR)
FD_FLOOR = 1e-3          # the loss is ~50 nats, so FD round-off is ~1e-9 absolute
FD_SEED = 12345          # noise of every checked forward; with --seed, the coordinates


class Probe:
    """The per-step observations the checks need, gathered while training."""

    def __init__(self):
        self.step_ends: list[float] = []
        self.losses: list[float] = []
        self.fed: list[int] | None = None
        self.owner: dict[int, int] = {}
        self._restore = []

    def watch(self, train_samples) -> None:
        """Know every frame of the training clips, to tell which clip a row is."""
        self.owner = {hash(frame.tobytes()): i
                      for i, s in enumerate(train_samples) for frame in s.features}

    def install(self) -> None:
        probe = self
        adam_step, backward, forward_batch = ht.adam_step, ad.backward, hm.HMAN.forward_batch

        @functools.wraps(adam_step)
        def timed_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            probe.step_ends.append(clock())

        @functools.wraps(backward)
        def seen_backward(loss):
            probe.losses.append(float(loss.data.reshape(())))
            return backward(loss)

        @functools.wraps(forward_batch)
        def seen_forward_batch(model, x, *args, **kwargs):
            if probe.fed is not None:
                probe.fed.extend(probe.owner.get(hash(row[0].tobytes()), -1)
                                 for row in x)
            return forward_batch(model, x, *args, **kwargs)

        self._restore = [(ht, "adam_step", adam_step), (ad, "backward", backward),
                         (hm.HMAN, "forward_batch", forward_batch)]
        ht.adam_step, ad.backward = timed_adam_step, seen_backward
        hm.HMAN.forward_batch = seen_forward_batch

    def uninstall(self) -> None:
        for owner, attr, original in self._restore:
            setattr(owner, attr, original)


class Checks:
    """Named pass/fail results; the run is correct when all pass."""

    def __init__(self):
        self.failed: list[str] = []
        self.passed: dict[str, int] = {}

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed[name] = self.passed.get(name, 0) + 1
        else:
            self.failed.append(f"{name}: {detail}")
            log(f"CHECK FAILED {name}: {detail}")

    @property
    def ok(self) -> bool:
        return not self.failed


def log(msg: str) -> None:
    print(f"[hmanbench] {msg}", file=sys.stderr, flush=True)


def training_loss(model, x, labels, seed):
    """The training loss of a batch with soft boundaries and a soft attention
    sample, its noise drawn from a generator reseeded with ``seed``."""
    out = model.forward_batch(x, rng=np.random.default_rng(seed), train=True,
                              soft_boundaries=True, soft_attention_sample=True)
    return (hm.batch_sequence_loss(out.step_probs, labels)
            + hm.boundary_loss(out.z_logits, hm.boundary_targets(x)))


def gradient_check(model, x, labels, seed: int) -> float:
    """Worst relative error of backward against central differences at one
    coordinate of every parameter tensor, drawn from ``seed``."""
    model.zero_grad()
    ad.backward(training_loss(model, x, labels, FD_SEED))
    grads = {n: np.zeros(p.shape) if p.grad is None else p.grad.copy()
             for n, p in model.params.items()}
    model.zero_grad()
    pick = np.random.default_rng([FD_SEED, seed])
    worst = 0.0
    with ad.no_grad():
        for name, p in model.params.items():
            idx = tuple(int(pick.integers(n)) for n in p.shape)
            keep = p.data[idx]
            p.data[idx] = keep + FD_STEP
            up = training_loss(model, x, labels, FD_SEED).item()
            p.data[idx] = keep - FD_STEP
            down = training_loss(model, x, labels, FD_SEED).item()
            p.data[idx] = keep
            a, n = grads[name][idx], (up - down) / (2.0 * FD_STEP)
            worst = max(worst, abs(a - n) / max(abs(a), abs(n), FD_FLOOR))
    return worst


def check_batch(train, window: int, batch: int):
    """A batch shaped like the workload's: ``batch`` clips of the most
    common target length, each cut to its first frames."""
    targets = [min(window, s.features.shape[0]) for s in train]
    counts = np.bincount(targets)
    length = int(np.argmax(counts))
    chosen = [s for s, t in zip(train, targets) if t == length][:batch]
    x = np.stack([s.features[:length] for s in chosen])
    return x, np.array([s.label for s in chosen])


class Run:
    """Accumulates what the timed phases measured."""

    def __init__(self):
        self.step_ms: list[float] = []
        self.epoch_s: list[float] = []
        self.train_clips = 0
        self.eval_s: list[float] = []
        self.eval_clips = 0
        self.predict_ms: list[float] = []
        self.epoch_losses: list[float] = []
        self.accuracy = float("nan")

    def attempted(self) -> int:
        return self.train_clips + self.eval_clips + len(self.predict_ms)


def train_epoch(trainer, train, epoch, probe: Probe, run: Run, checks: Checks) -> None:
    probe.step_ends.clear()
    probe.losses.clear()
    probe.fed = []
    start = clock()
    metrics = trainer.train_epoch(train, epoch)
    run.epoch_s.append(clock() - start)
    run.train_clips += len(train)
    run.step_ms += list(np.diff([start] + probe.step_ends) * 1e3)
    run.epoch_losses.append(metrics.loss)
    fed, probe.fed = sorted(probe.fed), None
    checks("epoch feeds every training clip once", fed == list(range(len(train))),
           f"epoch {epoch}: {len(fed)} rows, {len(set(fed))} distinct clips of {len(train)}")
    checks("losses finite", bool(np.all(np.isfinite(probe.losses + [metrics.loss]))),
           f"epoch {epoch}")
    bad = [n for n, p in trainer.model.params.items() if not np.all(np.isfinite(p.data))]
    checks("parameters finite", not bad, f"epoch {epoch}: {bad}")


def evaluate(model, test, wl, run: Run):
    start = clock()
    report = ht.evaluate(model, test, wl.block_len)
    run.eval_s.append(clock() - start)
    run.eval_clips += len(test)
    run.accuracy = report.accuracy
    return report


def predict(model, clips, wl, oracle: Oracle, run: Run, checks: Checks) -> None:
    for clip in clips:
        blocks = ht.split_blocks(clip.features, wl.block_len)
        start = clock()
        label, probs = model.predict_video(blocks)
        run.predict_ms.append((clock() - start) * 1e3)
        want_label, want = oracle.predict(clip.features, wl.block_len)
        err = float(np.max(np.abs(probs - want)))
        checks("predict_video matches oracle", label == want_label and err <= PROB_TOL,
               f"{clip.id}: class {label} vs {want_label}, max |dp| {err:.2e}")


def run_workload(name, wl, args, work, out_dir) -> dict:
    """Set up, run whole rounds for ``args.seconds``, check, and report."""
    probe = Probe()
    probe.install()
    tracer = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer)  # outside the probes, so their cost lands inside the spans
    try:
        return _run(name, wl, args, work, out_dir, probe, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        probe.uninstall()


def _run(name, wl, args, work, out_dir, probe, tracer) -> dict:
    def phase(label):
        return tracer.span(label) if tracer else contextlib.nullcontext()

    checks = Checks()
    run = Run()
    data_seed = args.seed if wl.data_seed is None else wl.data_seed
    spec = hd.SyntheticSpec(seed=data_seed, **wl.data)
    mcfg = hm.ModelConfig(**wl.model)
    tcfg = ht.TrainConfig(**wl.train)
    data_dir = work / "data"
    with phase("bench.inputs"):
        hd.gen_synthetic(spec, data_dir)
    os.sync()  # the inputs' write-back happens here, before anything is timed
    setup_s = []
    for _ in range(SETUP_REPEATS):
        with phase("bench.setup"):
            start = clock()
            manifest, samples = hd.load_dataset(data_dir / "manifest.json")
            train = [samples[e.id] for e in manifest.split("train")]
            test = [samples[e.id] for e in manifest.split("test")]
            model = hm.HMAN(mcfg, np.random.default_rng(tcfg.seed))
            trainer = ht.Trainer(model, tcfg)
            setup_s.append(clock() - start)
    order = [test[i] for i in np.random.default_rng(args.seed).permutation(len(test))]
    eval_set = order[:wl.eval_clips]

    if wl.grad_check:
        x, labels = check_batch(train, tcfg.window, tcfg.batch_size)
        with phase("bench.grad_check"):
            worst = gradient_check(model, x, labels, args.seed)
        checks("backward matches central differences", worst <= FD_TOL,
               f"worst relative error {worst:.2e} on a {x.shape[:2]} batch")
        log(f"gradient check: worst relative error {worst:.2e} on a (B, T) = {x.shape[:2]} batch")

    probe.watch(train)
    epoch = 0
    for _ in range(wl.prep_epochs):
        epoch += 1
        with phase("bench.prep"):
            train_epoch(trainer, train, epoch, probe, run, checks)
    rounds = 0
    start = clock()
    while rounds < wl.min_rounds or clock() - start < args.seconds:
        rounds += 1
        if wl.train_rounds:
            epoch += 1
            with phase("bench.train"):
                train_epoch(trainer, train, epoch, probe, run, checks)
        with phase("bench.eval"):
            report = evaluate(model, eval_set, wl, run)
        if not wl.train_rounds:
            if rounds == 1:
                first_confusion = report.confusion
            checks("evaluate repeats itself on an unchanged model",
                   np.array_equal(report.confusion, first_confusion), f"round {rounds}")
        oracle = Oracle(model)
        first = (rounds - 1) * wl.predict_clips
        clips = [order[(first + j) % len(order)] for j in range(wl.predict_clips)]
        with phase("bench.predict"):
            predict(model, clips, wl, oracle, run, checks)
    timed_s = clock() - start

    # The model has not changed since the last evaluate().
    expected = oracle.confusion(eval_set, wl.block_len, mcfg.classes)
    checks("evaluate confusion equals oracle", np.array_equal(report.confusion, expected),
           f"{int(np.abs(report.confusion - expected).sum())} cells differ")

    full_size = not args.tiny  # tiny runs train too little for these two
    if wl.loss_falls and full_size:
        checks("last epoch's mean loss below the first's",
               run.epoch_losses[-1] < run.epoch_losses[0],
               f"{run.epoch_losses[0]:.4f} -> {run.epoch_losses[-1]:.4f}")
    if wl.beats_chance and full_size:
        checks("trained model beats chance", run.accuracy >= CHANCE + CHANCE_MARGIN,
               f"accuracy {run.accuracy:.3f} < {CHANCE + CHANCE_MARGIN:.3f}")
    log(f"set-ups: {', '.join(f'{v:.3f}' for v in setup_s)} s")
    log(f"{name} seed {args.seed}: {rounds} rounds in {timed_s:.1f} s, epochs {epoch}, "
        f"losses {[round(v, 3) for v in run.epoch_losses]}, accuracy {run.accuracy:.3f}")
    log(f"checks passed: {checks.passed}; failed: {checks.failed}")

    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_clips_per_s": (len(train) / statistics.median(run.epoch_s), "1/s"),
        "train_step_ms": (statistics.median(run.step_ms), "ms"),
        "eval_clips_per_s": (len(eval_set) / statistics.median(run.eval_s), "1/s"),
        "predict_clip_ms": (statistics.median(run.predict_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    log("end to end: " + ", ".join(f"{k} {v:.4g} {u}" for k, (v, u) in end_to_end.items()))
    for label, samples in (("train_step_ms", run.step_ms), ("predict_clip_ms", run.predict_ms)):
        if len(samples) >= 100:  # at least ten samples beyond the 90th percentile
            log(f"{label}: median {np.median(samples):.4g}, p90 {np.percentile(samples, 90):.4g}"
                f" over {len(samples)} samples")
    if tracer:
        import per_layer
        from tracer import span_cost
        table = tracer.table()
        metrics = per_layer.metrics(table, wl, len(train), run)
        # Tracing cost: spans recorded in the timed rounds times the cost of one span.
        in_rounds = table.under("bench.train", "bench.eval", "bench.predict")
        rounds_s = float(np.sum(table.dur[table.mask("bench.train", "bench.eval",
                                                     "bench.predict")]))
        overhead = int(np.sum(in_rounds)) * span_cost() / rounds_s
        log(f"tracing overhead: {overhead:.2%} of the timed rounds "
            f"({int(np.sum(in_rounds))} spans in {rounds_s:.1f} s)")
        path = out_dir / f"trace-{name}-seed{args.seed}.json.gz"
        tracer.write(path, {"workload": name, "seed": args.seed, "seconds": args.seconds,
                            "tracing_overhead": overhead,
                            "end_to_end_traced": {k: v for k, (v, _) in end_to_end.items()},
                            "per_layer": {k: v for k, (v, _) in metrics.items()}})
        log(f"{len(tracer.spans)} spans written to {path}")
    else:
        metrics = end_to_end
    return {"correct": checks.ok, "attempted": run.attempted(), "failed": 0,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}

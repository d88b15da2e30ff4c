"""Mini-batch training over clip windows with Adam and gradient clipping.

One optimizer step per mini-batch: sample a frame window per clip,
forward the batch, assemble the mode-specific loss (plain summed cross
entropy, or the score-function surrogate for reinforce attention) plus
the boundary-detector loss, backpropagate, clip by global norm, and
apply Adam.  The step returns only numbers, so a batch's graph is freed
before the next batch's forward.  The iteration counter drives the
learning-rate drop.
Metrics are emitted one CSV row per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention as at
from . import autodiff as ad
from . import model as hm
from .autodiff import Tensor
from .data import VideoSample
from .errors import (NON_NEGATIVE, POSITIVE, ConfigError, TrainingAbort, at_least,
                     check_fields, declared, field_error, one_of)

# Adam's moment decays and denominator floor (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Optimization hyperparameters; defaults follow the training recipe."""

    batch_size: int = declared(64, at_least(1))
    window: int = declared(60, at_least(1))              # frames per training clip
    lr: float = declared(1e-4, POSITIVE)
    lr_drop: float = declared(1e-5, POSITIVE)
    lr_drop_after: int = declared(10_000, at_least(0))   # iterations at the base rate
    clip_norm: float = declared(5.0, POSITIVE)
    # 0 disables the score-function term; a negative weight would push the
    # attention away from the reward
    reinforce_lambda: float = declared(1.0, NON_NEGATIVE)
    # "window": contiguous; "random": sorted subset
    frame_sampling: str = declared("window", one_of("window", "random"))
    epochs: int = declared(30, at_least(0))
    seed: int = declared(0, at_least(0))

    def validate(self) -> None:
        check_fields(self)


def learning_rate(config: TrainConfig, iteration: int) -> float:
    """Base rate through iteration ``lr_drop_after``, the dropped rate after."""
    return config.lr if iteration <= config.lr_drop_after else config.lr_drop


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(m={n: np.zeros(p.shape) for n, p in params.items()},
                   v={n: np.zeros(p.shape) for n, p in params.items()})


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place.

    Aborts with the parameter name on any non-finite gradient; a NaN
    would otherwise poison the moments silently.
    """
    require_finite(grads)
    state.t += 1
    correct1 = 1.0 - ADAM_BETA1 ** state.t
    correct2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / correct1
        v_hat = state.v[name] / correct2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def require_finite(grads: dict[str, np.ndarray], where: str = "") -> None:
    """Abort naming the first parameter whose gradient is not finite, then ``where``."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingAbort(f"non-finite gradient in parameter {name!r}{where}")


def clip_global_norm(grads: dict[str, np.ndarray], clip: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients by min(1, clip/||g||_2); direction is preserved."""
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if norm <= clip or norm == 0.0:
        return grads, norm
    scale = clip / norm
    return {n: g * scale for n, g in grads.items()}, norm


def sample_window(total: int, length: int, config: TrainConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Frame indices of one training window (contiguous or sorted random)."""
    if length >= total:
        return np.arange(total)
    if config.frame_sampling == "window":
        start = int(rng.integers(0, total - length + 1))
        return np.arange(start, start + length)
    return np.sort(rng.choice(total, size=length, replace=False))


@dataclass
class EpochMetrics:
    epoch: int
    iteration: int
    loss: float
    accuracy: float
    lr: float
    update_rates: tuple[float, ...]
    baseline: float
    tau_min: float | None = None
    tau_mean: float | None = None
    tau_max: float | None = None


def metrics_header(layers: int, adaptive: bool) -> str:
    cols = ["epoch", "iteration", "loss", "accuracy", "lr"]
    cols += [f"update_rate_l{i}" for i in range(1, layers + 1)]
    cols.append("baseline")
    if adaptive:
        cols += ["tau_min", "tau_mean", "tau_max"]
    return ",".join(cols)


def metrics_row(m: EpochMetrics) -> str:
    cols = [str(m.epoch), str(m.iteration), repr(m.loss), repr(m.accuracy), repr(m.lr)]
    cols += [repr(float(r)) for r in m.update_rates]
    cols.append(repr(m.baseline))
    if m.tau_min is not None:
        cols += [repr(m.tau_min), repr(m.tau_mean), repr(m.tau_max)]
    return ",".join(cols)


class Trainer:
    """Owns the optimizer state, baseline, RNG stream and iteration counter."""

    def __init__(self, model: hm.HMAN, config: TrainConfig):
        config.validate()
        self.model = model
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.adam = AdamState.for_params(model.params)
        self.baseline = at.Baseline()
        self.iteration = 0

    # -- one epoch ---------------------------------------------------------

    def _batches(self, targets: list[int]) -> list[np.ndarray]:
        """Mini-batch index groups for one epoch, shuffled by the run stream.

        Clips whose target window lengths match are batched together so
        no clip is truncated to a shorter batch mate.
        """
        size = self.config.batch_size
        buckets: dict[int, list[int]] = {}
        for i, t in enumerate(targets):
            buckets.setdefault(t, []).append(i)
        chunks = []
        for t in sorted(buckets):
            idx = np.array(buckets[t])
            self.rng.shuffle(idx)
            chunks += [idx[i:i + size] for i in range(0, len(idx), size)]
        order = self.rng.permutation(len(chunks))
        return [chunks[i] for i in order]

    def _step(self, x: np.ndarray, labels: np.ndarray, lr: float,
              clip_ids: list[str]) -> tuple[float, int, np.ndarray, list[float]]:
        """One optimizer step on a batch: forward, loss, backward, clipping, Adam.

        Returns numbers, no tensor: the batch's mean cross entropy, its hits,
        the (L,) update rates and the attention temperatures (adaptive mode
        only), so the batch's graph dies here.  A non-finite gradient aborts
        before clipping, which would spread it to every parameter, naming
        the parameter, the iteration and ``clip_ids``.
        """
        cfg = self.config
        reinforce = self.model.config.attention == "reinforce"
        self.model.zero_grad()
        out = self.model.forward_batch(x, rng=self.rng, train=True)
        if reinforce:
            ll = hm.sequence_log_likelihood(out.step_probs, labels)
            loss = at.reinforce_surrogate([a.log_prob for a in out.attention], ll,
                                          self.baseline.value, cfg.reinforce_lambda)
            batch_ce = -float(ll.data.mean())
        else:
            loss = hm.batch_sequence_loss(out.step_probs, labels)
            batch_ce = loss.item()
        if self.model.config.force_z is None:  # learned boundaries only
            loss = loss + hm.boundary_loss(out.z_logits, hm.boundary_targets(x))
        ad.backward(loss)
        grads = {n: p.grad if p.grad is not None else np.zeros(p.shape)
                 for n, p in self.model.params.items()}
        require_finite(grads, f" at iteration {self.iteration}, batch of clips {clip_ids}")
        grads, _ = clip_global_norm(grads, cfg.clip_norm)
        adam_step(self.model.params, grads, self.adam, lr)
        if reinforce:
            self.baseline.update(-batch_ce)  # the batch's mean log-likelihood
        taus = []
        if self.model.config.attention == "gumbel-adaptive":
            taus = [float(v) for a in out.attention for v in np.ravel(a.tau)]
        hits = int(np.sum(np.argmax(out.mean_probs(), axis=-1) == labels))
        return batch_ce, hits, out.update_mask.mean(axis=(0, 2)), taus

    def train_epoch(self, train_samples: list[VideoSample], epoch: int) -> EpochMetrics:
        if not train_samples:
            raise ConfigError("training split is empty")
        cfg = self.config
        loss_sum = 0.0
        seen = 0
        correct = 0
        rate_sum = np.zeros(self.model.config.layers)
        rate_batches = 0
        taus: list[float] = []
        lr = learning_rate(cfg, self.iteration + 1)
        targets = [min(cfg.window, s.features.shape[0]) for s in train_samples]

        for batch_idx in self._batches(targets):
            chunk = [train_samples[i] for i in batch_idx]
            self.iteration += 1
            lr = learning_rate(cfg, self.iteration)
            length = min(targets[i] for i in batch_idx)
            x = np.stack([s.features[sample_window(s.features.shape[0], length, cfg, self.rng)]
                          for s in chunk])
            labels = np.array([s.label for s in chunk])
            batch_ce, hits, rates, batch_taus = self._step(x, labels, lr, [s.id for s in chunk])
            loss_sum += batch_ce * len(chunk)
            seen += len(chunk)
            correct += hits
            rate_sum += rates
            rate_batches += 1
            taus.extend(batch_taus)

        return EpochMetrics(
            epoch=epoch, iteration=self.iteration,
            loss=loss_sum / seen, accuracy=correct / seen, lr=lr,
            update_rates=tuple(rate_sum / rate_batches),
            baseline=self.baseline.value,
            tau_min=min(taus) if taus else None,
            tau_mean=float(np.mean(taus)) if taus else None,
            tau_max=max(taus) if taus else None,
        )


# -- evaluation ---------------------------------------------------------------


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: list[float]
    confusion: np.ndarray                 # (C, C): rows true, cols predicted
    average_precision: list[float] = field(default_factory=list)

    @property
    def mean_ap(self) -> float:
        return float(np.mean(self.average_precision)) if self.average_precision else float("nan")


def split_blocks(features: np.ndarray, block_len: int) -> list[np.ndarray]:
    """Contiguous non-overlapping blocks; the last one keeps the remainder."""
    total = features.shape[0]
    blocks = [features[s:s + block_len] for s in range(0, total, block_len)]
    return [b for b in blocks if b.shape[0] > 0]


def evaluate(model: hm.HMAN, samples: list[VideoSample], block_len: int,
             with_ap: bool = False) -> EvalReport:
    """Block-averaged predictions per clip, scored by :func:`hm.score_clips`.

    Every clip is cut into ``block_len``-frame blocks.  The blocks of all
    clips are sorted longest first and cut into chunks of at most
    ``hm.EVAL_CHUNK_FRAMES`` padded frames (a longer block alone); each
    chunk is zero-padded at the end to its longest block and scored by one
    ragged forward, in which a step runs only the blocks not yet ended,
    and each block is averaged over its own steps only.  Ties go to the
    lowest class index.  Deterministic with the default ``eval_z``.  With
    ``eval_z="sampled"`` the boundary noise of every chunk comes from one
    generator seeded with ``hm.EVAL_NOISE_SEED`` (0), drawn chunk by
    chunk, longest blocks first, for the running rows of each step; a
    clip's noise therefore depends on which clips it is evaluated with,
    and the same samples in the same order give the same report.
    """
    if block_len < 1:
        raise field_error("block_len", "at least 1", block_len)
    rng = np.random.default_rng(hm.EVAL_NOISE_SEED)
    classes = model.config.classes
    scores = hm.score_clips(model, [split_blocks(s.features, block_len) for s in samples], rng)
    labels = np.array([s.label for s in samples], dtype=np.intp)
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (labels, np.argmax(scores, axis=1)), 1)
    totals = confusion.sum(axis=1)
    per_class = [float(confusion[c, c] / totals[c]) if totals[c] else float("nan")
                 for c in range(classes)]
    accuracy = float(np.trace(confusion) / max(1, confusion.sum()))
    aps = []
    if with_ap:
        aps = [average_precision(scores[:, c], labels == c) for c in range(classes)]
    return EvalReport(accuracy=accuracy, per_class_accuracy=per_class,
                      confusion=confusion, average_precision=aps)


def average_precision(scores: np.ndarray, positive: np.ndarray) -> float:
    """AP as the recall-weighted sum of precisions down the ranking.

    Items are ranked by descending score (ties keep input order); each
    positive contributes precision-at-its-rank / number-of-positives.
    """
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    if n_pos == 0:
        return float("nan")
    order = np.argsort(-scores, kind="stable")
    hits = positive[order]
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, len(scores) + 1)
    precision = cum_hits / ranks
    recall = cum_hits / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))

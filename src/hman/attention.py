"""Spatial attention over a K*K grid of feature vectors.

Three mechanisms share the same scoring head (one weight row per grid
location, scored against the previous first-layer hidden state):

* soft: convex mixture under a location softmax, fully differentiable,
  run as one tape op with a hand-written backward;
* gumbel-hard: one-hot sample via Gumbel-softmax + straight-through,
  with a constant or state-adaptive temperature;
* reinforce-hard: categorical sample whose score-function surrogate
  carries the learning signal, with a moving-average baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import stochastic as st
from .autodiff import Tensor

BASELINE_DECAY = 0.9


@dataclass
class AttentionParams:
    """Location-score rows, plus the adaptive-temperature map when used."""

    w_loc: Tensor                 # (K*K, d): one score row per location
    w_temp: Tensor | None = None  # (d, 1)
    b_temp: Tensor | None = None  # (1, 1)


@dataclass
class AttentionResult:
    """Weights over locations, the attended feature, and sampling metadata.

    ``weights`` rows sum to 1 (exactly one-hot for the hard variants,
    whose selected location is the row argmax); ``attended`` is always
    the weights-mixed feature, which for one-hot weights is a selection.
    ``tau`` records the temperature of a Gumbel sample, for logging.
    Soft attention's weights are a record of its fused op and carry no
    gradient; its gradient flows through ``attended``.
    """

    weights: Tensor                      # (B, K*K)
    attended: Tensor                     # (B, D)
    log_prob: Tensor | None = None       # (B, 1), reinforce only
    tau: np.ndarray | float | None = None


def location_scores(h1_prev: Tensor, params: AttentionParams) -> Tensor:
    return h1_prev @ ad.transpose(params.w_loc)


def soft_attend(h1_prev: Tensor, features: Tensor, params: AttentionParams) -> AttentionResult:
    """Location softmax of the previous layer-1 hidden state, then expectation.

    ``h1_prev`` is (B, d), ``features`` is (B, K*K, D).  The scores, the
    softmax and the mix run as one tape op that repeats the arithmetic
    of ``location_scores`` and ``autodiff.attend_mix`` and calls the
    kernels of ``autodiff.softmax``, in their order, so its values are
    theirs bitwise.
    """
    w_loc = params.w_loc
    if h1_prev.ndim != 2 or w_loc.ndim != 2 or features.ndim != 3 \
            or h1_prev.shape[1] != w_loc.shape[1] \
            or features.shape[:2] != (h1_prev.shape[0], w_loc.shape[0]):
        raise ad.DimensionError(f"soft attention shapes incompatible: state {h1_prev.shape}, "
                                f"score rows {w_loc.shape}, features {features.shape}")
    scores = h1_prev.data @ np.ascontiguousarray(w_loc.data.T)
    weights = ad._softmax(scores, -1)

    def backward_fn(g: np.ndarray) -> None:
        g_weights = np.einsum("bd,bkd->bk", g, features.data)
        g_scores = ad._softmax_adjoint(weights, g_weights, -1)
        if h1_prev.requires_grad:
            ad._accumulate(h1_prev, g_scores @ w_loc.data)
        if w_loc.requires_grad:
            ad._accumulate(w_loc, (h1_prev.data.T @ g_scores).T)
        if features.requires_grad:
            ad._accumulate(features, np.einsum("bk,bd->bkd", weights, g))

    attended = Tensor._from_op(np.einsum("bk,bkd->bd", weights, features.data),
                               (h1_prev, w_loc, features), backward_fn)
    return AttentionResult(weights=Tensor(weights), attended=attended)


def gumbel_hard_attend(h1_prev: Tensor, features: Tensor, params: AttentionParams,
                       tau, noise: Tensor | None = None,
                       soft_sample: bool = False) -> AttentionResult:
    """One-hot location sample through Gumbel-softmax with straight-through.

    ``noise`` is the (B, K*K) Gumbel draw; without it the argmax location
    is selected noise-free (evaluation) and ``tau`` is not read.  ``tau``
    is a constant or the (B, 1) tensor of :func:`~hman.stochastic.adaptive_tau`.
    ``soft_sample`` keeps the relaxed sample as the weights (gradient
    verification only).
    """
    scores = location_scores(h1_prev, params)
    if noise is None:
        weights = Tensor(st._onehot(np.argmax(scores.data, axis=-1), scores.shape[-1]))
        return AttentionResult(weights=weights, attended=ad.attend_mix(weights, features))
    soft = st.gumbel_softmax(scores, noise, tau)
    weights = soft if soft_sample else st.hard_onehot(soft)
    attended = ad.attend_mix(weights, features)
    tau_value = tau.data.copy() if isinstance(tau, Tensor) else float(tau)
    return AttentionResult(weights=weights, attended=attended, tau=tau_value)


def reinforce_hard_attend(h1_prev: Tensor, features: Tensor, params: AttentionParams,
                          uniforms: np.ndarray | None = None) -> AttentionResult:
    """Sample a single location from the location softmax, by inverse CDF of
    the (B,) ``uniforms``; without them the argmax location (evaluation).

    The selection itself carries no gradient; learning flows through the
    recorded ``log_prob`` via the score-function surrogate.
    """
    alpha = ad.softmax(location_scores(h1_prev, params), axis=-1)
    idx = np.argmax(alpha.data, axis=-1) if uniforms is None else _sample_rows(alpha.data, uniforms)
    weights = Tensor(st._onehot(idx, alpha.shape[-1]))
    attended = ad.attend_mix(weights, features)
    log_prob = ad.clipped_log(ad.take_rows(alpha, idx))
    return AttentionResult(weights=weights, attended=attended, log_prob=log_prob)


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of a probability matrix, from one uniform each."""
    cdf = np.cumsum(probs, axis=-1)
    idx = (u[:, None] > cdf).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def reinforce_surrogate(log_probs: list[Tensor], log_likelihood: Tensor,
                        baseline: float, lam: float) -> Tensor:
    """Scalar loss whose gradient is the score-function learning rule.

    Minimizing -(log_likelihood + lam * stopgrad(log_likelihood - b) *
    sum_t log_probs_t) reproduces the single-sample estimator: the
    likelihood term trains the classifier path and the reward-weighted
    score term trains the selection distribution.  The reward factor is
    a constant (no gradient flows through it).  Batched inputs (B, 1)
    yield the batch-mean surrogate.
    """
    reward = Tensor(log_likelihood.data - baseline)
    total_log_prob = log_probs[0]
    for lp in log_probs[1:]:
        total_log_prob = total_log_prob + lp
    per_episode = -(log_likelihood + lam * reward * total_log_prob)
    return ad.mean(per_episode)


def baseline_update(b_prev: float, log_likelihood: float) -> float:
    """Exponentially decayed running mean: 0.9 * b + 0.1 * log-likelihood."""
    return BASELINE_DECAY * b_prev + (1.0 - BASELINE_DECAY) * float(log_likelihood)


@dataclass
class Baseline:
    """Moving-average reward baseline; one writer updates it per mini-batch."""

    value: float = 0.0

    def update(self, log_likelihood: float) -> float:
        self.value = baseline_update(self.value, log_likelihood)
        return self.value

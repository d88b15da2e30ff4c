"""Stochastic discrete units and their gradient surrogates.

Gumbel noise, the Gumbel-softmax relaxation of categorical sampling,
its two-class Gumbel-sigmoid specialization, hard discretization with
straight-through gradients, and the adaptive temperature that maps a
hidden state to a sharpness value in (0, 1].
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

GUMBEL_EPS = 1e-12

# Boundary detectors run at this fixed relaxation temperature.
BOUNDARY_TAU = 0.3


class ParameterError(ValueError):
    """A stochastic unit received an out-of-range parameter."""


def sample_gumbel(shape, rng: np.random.Generator) -> Tensor:
    """Draw Gumbel(0,1) samples as -log(-log(u)), u clamped to [eps, 1-eps]."""
    u = np.clip(rng.random(shape), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
    return Tensor(-np.log(-np.log(u)))


def _tau_operand(tau: float | Tensor) -> float | Tensor:
    """A temperature, constant or tensor, checked to be positive."""
    if isinstance(tau, Tensor):
        if np.any(tau.data <= 0.0):
            raise ParameterError("temperature tensor has non-positive entries")
        return tau
    tau = float(tau)
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    return tau


def gumbel_softmax(logits: Tensor, noise, tau) -> Tensor:
    """Relaxed categorical sample: softmax((logits + g) / tau) along the last axis.

    Differentiable in ``logits`` (and in ``tau`` when it is a tensor)
    for fixed noise; rows sum to 1.
    """
    g = ad._ensure_tensor(noise)
    t = _tau_operand(tau)
    return ad.softmax((logits + g) / t, axis=-1)


def gumbel_sigmoid(pre_activation: Tensor, noise_a, noise_b, tau) -> Tensor:
    """Relaxed Bernoulli: sigmoid((pre + g - g') / tau), the two-class case.

    ``noise_a`` and ``noise_b`` must be independent Gumbel(0,1) draws.
    """
    ga = ad._ensure_tensor(noise_a)
    gb = ad._ensure_tensor(noise_b)
    t = _tau_operand(tau)
    return ad.sigmoid((pre_activation + ga - gb) / t)


def hard_threshold(y: Tensor) -> Tensor:
    """Binarize at 0.5 (inclusive: y >= 0.5 -> 1) with straight-through backward.

    The forward value is exactly 0/1; the backward Jacobian is the
    identity, so gradients reach the relaxed input unchanged.
    """
    data = (y.data >= 0.5).astype(np.float64)

    def backward_fn(g: np.ndarray) -> None:
        ad._accumulate(y, g)

    return Tensor._from_op(data, (y,), backward_fn)


def hard_onehot(y: Tensor) -> Tensor:
    """One-hot at the row argmax (ties to the lowest index), straight-through.

    ``y`` is a relaxed categorical sample of shape (..., k); the output
    is exactly one-hot per row and backpropagates as the identity.
    """
    flat = y.data.reshape(-1, y.data.shape[-1])
    data = _onehot(np.argmax(flat, axis=-1), flat.shape[-1]).reshape(y.data.shape)

    def backward_fn(g: np.ndarray) -> None:
        ad._accumulate(y, g)

    return Tensor._from_op(data, (y,), backward_fn)


def _onehot(idx: np.ndarray, width: int) -> np.ndarray:
    """Rows of a (len(idx), width) 0/1 matrix, each 1 at its ``idx`` column."""
    out = np.zeros((idx.shape[0], width))
    out[np.arange(idx.shape[0]), idx] = 1.0
    return out


def adaptive_tau(h1: Tensor, w_temp: Tensor, b_temp: Tensor) -> Tensor:
    """Temperature from the first-layer hidden state: 1 / (softplus(w.h + b) + 1).

    The +1 in the denominator pins the result into (0, 1].  ``h1`` is
    (B, d), ``w_temp`` is (d, 1), ``b_temp`` is (1, 1); the result is a
    (B, 1) tensor, differentiable in all inputs.
    """
    pre = ad.matmul(h1, w_temp) + b_temp
    return 1.0 / (ad.softplus(pre) + 1.0)

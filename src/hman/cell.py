"""One step of a hierarchical multi-scale recurrent layer.

Each layer keeps a cell memory ``c``, a hidden state ``h``, and a binary
boundary bit ``z``.  The pair (own boundary at t-1, lower boundary at t)
selects one of three state updates:

* UPDATE  (z_prev=0, below_z=1): c = f*c_prev + i*g
* COPY    (z_prev=0, below_z=0): c and h carried over unchanged
* FLUSH   (z_prev=1):            c = i*g, the memory restarts

The selection is computed as a multiplex over the (exact 0/1) boundary
bits, so COPY is bitwise carry-over, FLUSH ignores the previous memory,
and boundary bits receive straight-through gradient from the selection
itself as well as from the gating products in the pre-activation.

Boundaries nest: a layer can close a segment only on a step where the
layer below closed one (z <= below_z), so every upper-layer boundary is
also a lower-layer boundary and no layer recomputes its state more often
than the layer below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import stochastic as st
from .autodiff import ContractError, Tensor

BOUNDARY_TAU = st.BOUNDARY_TAU
# Boundary-detector bias at initialisation: sigmoid(-1) ~ 0.27 rather than
# 0.5, so a fresh model is not flushed at random on every other step before
# it has learnt where boundaries are.
BOUNDARY_BIAS_INIT = -1.0


@dataclass
class LayerParams:
    """Weights of one layer; every matrix maps into the stacked pre-activation.

    The stacked width is 4*hidden + 1 with the fixed slice layout
    [i | f | o | g | z]: input, forget, output gates, cell proposal,
    and the boundary-detector pre-activation.
    """

    u_rec: Tensor          # (hidden, 4*hidden+1), own recurrent path
    u_top: Tensor | None   # (above_hidden, 4*hidden+1); None for the top layer
    w_bot: Tensor          # (below_dim, 4*hidden+1), bottom-up path
    bias: Tensor           # (1, 4*hidden+1)

    @property
    def hidden(self) -> int:
        return self.u_rec.shape[0]

    def tensors(self) -> list[Tensor]:
        out = [self.u_rec, self.w_bot, self.bias]
        if self.u_top is not None:
            out.insert(1, self.u_top)
        return out


@dataclass
class LayerState:
    """Per-layer state at one time step: memory, hidden state, boundary bit."""

    c: Tensor  # (B, hidden)
    h: Tensor  # (B, hidden)
    z: Tensor  # (B, 1), exactly 0/1 unless running the relaxed form
    z_logit: Tensor | None = None  # (B, 1) boundary pre-activation of this step


@dataclass
class BoundaryNoise:
    """The pair of independent Gumbel draws a boundary detector consumes."""

    a: Tensor
    b: Tensor

    @classmethod
    def sample(cls, shape, rng: np.random.Generator) -> "BoundaryNoise":
        return cls(st.sample_gumbel(shape, rng), st.sample_gumbel(shape, rng))


def init_layer_params(hidden: int, below_dim: int, above_dim: int | None,
                      rng: np.random.Generator) -> LayerParams:
    """Uniform(-1/sqrt(hidden), +1/sqrt(hidden)) matrices; forget bias +1,
    boundary bias ``BOUNDARY_BIAS_INIT``."""
    width = 4 * hidden + 1
    bound = 1.0 / np.sqrt(hidden)

    def uniform(rows: int) -> Tensor:
        return Tensor(rng.uniform(-bound, bound, size=(rows, width)), requires_grad=True)

    bias = np.zeros((1, width))
    bias[0, hidden:2 * hidden] = 1.0  # forget-gate slice opens early training
    bias[0, 4 * hidden] = BOUNDARY_BIAS_INIT
    return LayerParams(
        u_rec=uniform(hidden),
        u_top=uniform(above_dim) if above_dim is not None else None,
        w_bot=uniform(below_dim),
        bias=Tensor(bias, requires_grad=True),
    )


def initial_state(hidden: int, batch: int = 1) -> LayerState:
    """All-zero state; the boundary bit starts at 0 (no boundary before t=1)."""
    return LayerState(
        c=Tensor(np.zeros((batch, hidden))),
        h=Tensor(np.zeros((batch, hidden))),
        z=Tensor(np.zeros((batch, 1))),
    )


def _require_binary(z: Tensor, what: str) -> None:
    d = z.data
    if not np.all((d == 0.0) | (d == 1.0)):
        raise ContractError(f"{what} must be exactly 0/1, got values like {d.ravel()[:4]}")


def step(prev: LayerState, below_h: Tensor, below_z: Tensor,
         above_h_prev: Tensor | None, params: LayerParams, *,
         noise: BoundaryNoise | None = None, rng: np.random.Generator | None = None,
         tau: float = BOUNDARY_TAU, soft_boundaries: bool = False,
         deterministic: bool = False, hidden_tanh: bool = True,
         force_z: float | None = None) -> LayerState:
    """Advance one layer by one time step.

    ``below_h``/``below_z`` come from the layer below at the current
    step (for layer 1: the attended input with below_z identically 1);
    ``above_h_prev`` is the layer above at the previous step, absent for
    the top layer.  The boundary bit is drawn with Gumbel-sigmoid noise
    at temperature ``tau`` and thresholded at 0.5 unless
    ``deterministic`` (noise-free sigmoid) or ``soft_boundaries`` (the
    relaxed value is kept, for gradient verification) is set; the drawn
    bit is Bernoulli(sigmoid(pre)) at every ``tau``, which only shapes
    the straight-through gradient.  The bit is then masked by
    ``below_z`` (boundaries nest).

    ``hidden_tanh`` selects h = o*tanh(c); clearing it uses the literal
    h = o*c rule.
    """
    hidden = params.hidden
    if below_h.shape[-1] != params.w_bot.shape[0]:
        raise ad.DimensionError(
            f"below_h width {below_h.shape} does not match bottom-up matrix {params.w_bot.shape}")
    if not soft_boundaries:
        _require_binary(prev.z, "previous own-layer boundary bit")
        _require_binary(below_z, "lower-layer boundary bit")

    s = (prev.h @ params.u_rec) + ((below_z * below_h) @ params.w_bot) + params.bias
    if params.u_top is not None:
        if above_h_prev is None:
            raise ContractError("layer has a top-down matrix but no above-layer state was given")
        s = s + (prev.z * above_h_prev) @ params.u_top

    i = ad.sigmoid(ad.slice_cols(s, 0, hidden))
    f = ad.sigmoid(ad.slice_cols(s, hidden, 2 * hidden))
    o = ad.sigmoid(ad.slice_cols(s, 2 * hidden, 3 * hidden))
    g = ad.tanh(ad.slice_cols(s, 3 * hidden, 4 * hidden))
    z_pre = ad.slice_cols(s, 4 * hidden, 4 * hidden + 1)

    if force_z is not None:
        z = Tensor(np.full((s.shape[0], 1), float(force_z)))
    elif deterministic:
        z = st.hard_threshold(ad.sigmoid(z_pre))
    else:
        if noise is None:
            if rng is None:
                raise ContractError("step needs either explicit boundary noise or an rng")
            noise = BoundaryNoise.sample((s.shape[0], 1), rng)
        soft_z = st.gumbel_sigmoid(z_pre, noise.a, noise.b, tau)
        z = soft_z if soft_boundaries else st.hard_threshold(soft_z)

    zp = prev.z
    zb = below_z
    not_zp = 1.0 - zp
    flush_c = i * g
    update_c = f * prev.c + flush_c
    copy_mask = not_zp * (1.0 - zb)
    c = zp * flush_c + (not_zp * zb) * update_c + copy_mask * prev.c
    active_h = o * ad.tanh(c) if hidden_tanh else o * c
    h = (1.0 - copy_mask) * active_h + copy_mask * prev.h
    return LayerState(c=c, h=h, z=z * zb, z_logit=z_pre)

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

A step records three fused tape ops, each with a hand-written backward
(the fused-RNN idea of Appleyard et al., arXiv 1604.01946).  The step's
outputs c, h and the boundary pre-activation are ``autodiff.read`` views
of those ops, which record no node of their own:

* ``_preactivation``: s = h_prev@U_rec + (z_below*h_below)@W_bot + bias
  (+ (z_prev*h_above)@U_top), added in that order.  It keeps the masked
  inputs z_below*h_below and z_prev*h_above for the weight gradients.
  Its backward does not form x.T@g for U_rec, W_bot and U_top at each
  step: it hands each pair (input rows x, adjoint g of s) to
  ``autodiff._defer``, and the replay sums each weight's pairs in a few
  large GEMMs once per sequence, leaving out the rows of x that are all
  zero.  Those are the rows of z_below*h_below where the layer below
  marked no boundary and of z_prev*h_above where this layer marked none
  at t-1 (and h_prev at t=0).  The bias gradient is summed per step.
* ``_boundary``: from the ``z`` column of s, y = sigmoid(((pre + a) - b)/tau)
  with Gumbel draws a, b (a = b = 0 and tau = 1 without noise), the
  bit 1[y >= 0.5] (or y itself with soft boundaries), and the output
  bit*z_below.  It keeps y and the bit.  Its backward is straight-through:
  the thresholding passes its adjoint unchanged, so ``pre`` receives
  g*z_below*y*(1-y)/tau and ``z_below`` receives g*bit.
* ``_state``: the [i|f|o|g] gates and the UPDATE/COPY/FLUSH multiplex,
  returning c and h stacked as one (2, B, hidden) array.  It keeps the
  [i|f|o] and g activations, tanh(c) (or c), its output and the (B, 1)
  branch weights; its backward rebuilds i*g, f*c_prev + i*g and
  o*tanh(c) with the forward's expressions, so bitwise, and reaches s,
  c_prev, h_prev, z_prev and z_below.

Each op calls the kernels of the ``autodiff`` primitives it fuses (the
logistic is ``autodiff._sigmoid``) and keeps the op-by-op order of the rest
of its element-wise arithmetic, so forward values are bitwise those of
composing the primitives.

A step on a layer of at least ``LIVE_ROWS_MIN_HIDDEN`` units skips the
work of COPY rows, turning skipped updates into skipped computation as
Skip RNN does (Campos et al., arXiv 1708.06834).  Its bottom-up and
top-down products skip the rows whose masked input is zero, where those
are more than half.  Where fewer than half of the rows UPDATE or FLUSH:

* a step that records no tape (under ``autodiff.no_grad``, or when no
  parent requires grad) computes only what the forward reads:
  ``_preactivation`` runs h_prev@U_rec on those rows and only the boundary
  column on the COPY rows, and ``_state`` runs its arithmetic on those
  rows and carries c and h of the COPY rows over;
* a step that records a tape runs the full recurrent product and
  ``_state`` on every row, and the backward of ``_preactivation`` runs its
  GEMMs on those rows only.  A COPY row's adjoint of s is zero outside the
  boundary column, so its input adjoints are rank-1 products with that
  column, and it adds to the boundary column of U_rec's gradient only.

A product over gathered rows or one column can round differently from the
full product, so on such a layer values and gradients agree with the dense
form to rounding, and training moves by rounding; COPY rows stay bitwise
carry-over.  A narrower layer runs the dense form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import stochastic as st
from .autodiff import ContractError, Tensor

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
    if not ((d == 0.0) | (d == 1.0)).all():
        raise ContractError(f"{what} must be exactly 0/1, got values like {d.ravel()[:4]}")


def _row_adjoint(g: np.ndarray, w: np.ndarray, live: np.ndarray | None,
                 g_live: np.ndarray) -> np.ndarray:
    """g @ w.T, given that g is zero outside its last column on the rows not in
    ``live`` (None: every row is live), and ``g_live`` = g[live]: a GEMM on the
    live rows and a rank-1 product on the rest."""
    if live is None:
        return g @ w.T
    out = g[:, -1:] * w[:, -1]
    out[live] = g_live @ w.T
    return out


def _masked_matmul_grads(g: np.ndarray, live: np.ndarray | None, g_live: np.ndarray,
                         z: Tensor, v: Tensor, w: Tensor, masked: np.ndarray) -> None:
    """Adjoints of (z*v)@w, given ``masked`` = z*v, the output adjoint g and its
    live rows (see :func:`_row_adjoint`), outside which ``masked`` is zero;
    w's is deferred to the replay's sum (``autodiff._defer``)."""
    ad._defer(w, masked if live is None else masked[live], g_live)
    if v.requires_grad or z.requires_grad:
        g_masked = _row_adjoint(g, w.data, live, g_live)
        if v.requires_grad:
            ad._accumulate(v, ad._unbroadcast(g_masked * z.data, v.shape))
        if z.requires_grad:
            ad._accumulate(z, ad._unbroadcast(
                (g_masked * v.data).sum(axis=-1, keepdims=True), z.shape))


# Narrowest layer whose step skips the work of COPY rows, with a tape or
# without.  Below it the row bookkeeping (a few small numpy calls per
# product) costs more than the skipped products save.  On one core of a
# 2-core Xeon:
# - without a tape, per pre-activation of a middle layer at B=16 with three
#   rows in four COPYing: 50.6 -> 62.6 us at hidden 48, 78.5 -> 69.4 us at
#   hidden 64.  With every row COPYing it pays from hidden 24; with none it
#   adds 2-5 us at any width;
# - with a tape, per step of a middle layer, forward and backward, at B=32
#   with lower bits at 0.27 and its own at 0.074 (train-wide's layer 2):
#   432 -> 418 us at hidden 32, 572 -> 487 us at 48, 753 -> 597 us at 64 and
#   1742 -> 1267 us at 128.  With every row live it costs what the dense
#   form does.
# The taped step alone would pay from hidden 32; the tape-free one sets 64.
LIVE_ROWS_MIN_HIDDEN = 64


def _sparse_rows(z: np.ndarray) -> np.ndarray | None:
    """The rows where the (B, 1) column z is not zero, if they are fewer than
    half of the batch, else None: gathering more costs more than it saves."""
    rows = z.nonzero()[0]
    return rows if 2 * len(rows) < len(z) else None


def _add_row_products(out: np.ndarray, x: np.ndarray, w: np.ndarray, z: np.ndarray) -> None:
    """out += x @ w, given that x is zero on the rows where the (B, 1) bits z are."""
    rows = _sparse_rows(z)
    if rows is None:
        out += x @ w
    elif len(rows):
        out[rows] += x[rows] @ w


def _add_input_products(data: np.ndarray, below_in: np.ndarray, below_z: np.ndarray,
                        above_in: np.ndarray | None, z_prev: np.ndarray,
                        params: LayerParams) -> np.ndarray:
    """data + (z_below*h_below)@W_bot + bias (+ (z_prev*h_above)@U_top), added in
    place in that order, each product on the rows where its masked input is
    not zero (:func:`_add_row_products`)."""
    _add_row_products(data, below_in, params.w_bot.data, below_z)
    data += params.bias.data
    if above_in is not None:
        _add_row_products(data, above_in, params.u_top.data, z_prev)
    return data


def _live_rows_preactivation(h_prev: np.ndarray, z_prev: np.ndarray, below_in: np.ndarray,
                             below_z: np.ndarray, above_in: np.ndarray | None,
                             params: LayerParams) -> np.ndarray:
    """s without a tape, skipping the products of rows the forward does not read.

    Where :func:`_sparse_rows` finds few enough, the recurrent product runs
    on the rows that UPDATE or FLUSH, and a COPY row (z_prev = below_z = 0)
    gets only its boundary column of h_prev@U_rec, which feeds ``z_logit``;
    its gate columns hold the bias, a finite filler that ``_state``
    multiplies by exact zeros.  The bottom-up and top-down products run on
    the rows where their masked input is not zero.  The terms are added in
    the order of the taped form.
    """
    u_rec = params.u_rec.data
    live = _sparse_rows(z_prev + below_z)  # the bits are >= 0
    if live is None:
        data = h_prev @ u_rec
    else:
        data = np.zeros((len(h_prev), u_rec.shape[1]))
        data[:, -1] = h_prev @ u_rec[:, -1]
        if len(live):
            data[live] = h_prev[live] @ u_rec
    return _add_input_products(data, below_in, below_z, above_in, z_prev, params)


def _preactivation(prev: LayerState, below_h: Tensor, below_z: Tensor,
                   above_h: Tensor | None, params: LayerParams) -> Tensor:
    """The stacked (B, 4*hidden+1) pre-activation s as one tape op.

    On a layer of at least ``LIVE_ROWS_MIN_HIDDEN`` units, when the op
    records no tape node (under ``no_grad``, or when no parent requires
    grad), s is :func:`_live_rows_preactivation`, a plain tensor that
    agrees with the full products to rounding on every column the step
    reads.  When it records one, the bottom-up and top-down products skip
    the rows whose masked input is zero, and where :func:`_sparse_rows`
    finds the rows that UPDATE or FLUSH, the backward runs its GEMMs on
    those.  A COPY row's adjoint of s is zero outside the ``z`` column:
    ``_state`` multiplies its gate adjoints by exact zeros there, and
    ``_boundary`` its ``pre`` adjoint by below_z = 0.  So a COPY row gets
    rank-1 input adjoints and adds h_prev.T @ g to the ``z`` column of
    U_rec's gradient only.  A narrower layer runs the full products.
    """
    h_prev, u_rec, w_bot, bias, u_top = (prev.h, params.u_rec, params.w_bot,
                                         params.bias, params.u_top)
    below_in = below_z.data * below_h.data
    parents = [h_prev, u_rec, below_z, below_h, w_bot, bias]
    above_in = None
    if u_top is not None:
        above_in = prev.z.data * above_h.data
        parents += [prev.z, above_h, u_top]
    live = None
    if params.hidden >= LIVE_ROWS_MIN_HIDDEN:
        if not ad._records(parents):
            return Tensor(_live_rows_preactivation(h_prev.data, prev.z.data, below_in,
                                                   below_z.data, above_in, params))
        live = _sparse_rows(prev.z.data + below_z.data)  # the bits are >= 0
        data = _add_input_products(h_prev.data @ u_rec.data, below_in, below_z.data,
                                   above_in, prev.z.data, params)
    else:
        data = (h_prev.data @ u_rec.data) + (below_in @ w_bot.data) + bias.data
        if u_top is not None:
            data = data + above_in @ u_top.data

    def backward_fn(g: np.ndarray) -> None:
        rows = slice(None) if live is None else live
        g_live = g[rows]
        ad._defer(u_rec, h_prev.data[rows], g_live)
        if live is not None and u_rec.requires_grad:
            copy = np.ones(len(g), dtype=bool)
            copy[live] = False
            if u_rec.grad is None:
                u_rec.grad = np.zeros(u_rec.shape)
            u_rec.grad[:, -1:] += h_prev.data[copy].T @ g[copy, -1:]
        if h_prev.requires_grad:
            ad._accumulate(h_prev, _row_adjoint(g, u_rec.data, live, g_live))
        _masked_matmul_grads(g, live, g_live, below_z, below_h, w_bot, below_in)
        ad._accumulate(bias, g.sum(axis=0, keepdims=True))
        if u_top is not None:
            _masked_matmul_grads(g, live, g_live, prev.z, above_h, u_top, above_in)

    return Tensor._from_op(data, parents, backward_fn)


def _boundary(pre: Tensor, below_z: Tensor, noise_a, noise_b, tau: float,
              soft: bool) -> Tensor:
    """z*below_z with z = threshold(sigmoid(((pre + a) - b)/tau)) as one tape op.

    ``soft`` keeps the relaxed value instead of the 0/1 bit.  The
    backward is straight-through: the threshold passes its adjoint
    unchanged to the sigmoid.
    """
    y = ad._sigmoid(((pre.data + noise_a) - noise_b) / tau)
    bit = y if soft else (y >= 0.5).astype(np.float64)
    zb = below_z.data

    def backward_fn(g: np.ndarray) -> None:
        if pre.requires_grad:
            ad._accumulate(pre, ad._unbroadcast(g * zb * y * (1.0 - y) / tau, pre.shape))
        if below_z.requires_grad:
            ad._accumulate(below_z, ad._unbroadcast(g * bit, below_z.shape))

    return Tensor._from_op(bit * zb, (pre, below_z), backward_fn)


def _state(s: Tensor, prev: LayerState, below_z: Tensor, hidden: int,
           hidden_tanh: bool) -> Tensor:
    """The gates and the UPDATE/COPY/FLUSH multiplex as one tape op, giving c and h
    stacked along a new first axis.

    Without a tape, on a layer of at least ``LIVE_ROWS_MIN_HIDDEN`` units
    where :func:`_sparse_rows` finds few rows that UPDATE or FLUSH, only
    those rows run the arithmetic (this op on the gathered rows, where
    every row is live); the COPY rows are c_prev and h_prev.
    """
    n = hidden
    c_prev, h_prev, z_prev = prev.c, prev.h, prev.z
    parents = (s, c_prev, h_prev, z_prev, below_z)
    if n >= LIVE_ROWS_MIN_HIDDEN and not ad._records(parents):
        live = _sparse_rows(z_prev.data + below_z.data)
        if live is not None:
            ch = np.stack([c_prev.data, h_prev.data])
            if len(live):
                rows = LayerState(c=Tensor(c_prev.data[live]), h=Tensor(h_prev.data[live]),
                                  z=Tensor(z_prev.data[live]))
                ch[:, live] = _state(Tensor(s.data[live]), rows, Tensor(below_z.data[live]),
                                     n, hidden_tanh).data
            return Tensor(ch)
    gates = ad._sigmoid(s.data[:, :3 * n])  # [i | f | o]
    i, f, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:]
    g = np.tanh(s.data[:, 3 * n:4 * n])
    zp, zb = z_prev.data, below_z.data
    not_zp = 1.0 - zp
    flush_c = i * g
    update_c = f * c_prev.data + flush_c
    update_w = not_zp * zb
    copy_mask = not_zp * (1.0 - zb)
    ch = np.empty((2, s.shape[0], n))
    c = np.add(zp * flush_c + update_w * update_c, copy_mask * c_prev.data, out=ch[0])
    squashed = np.tanh(c) if hidden_tanh else c
    active_h = o * squashed
    np.add((1.0 - copy_mask) * active_h, copy_mask * h_prev.data, out=ch[1])

    def backward_fn(grad: np.ndarray) -> None:
        gc, gh = grad
        d_active = gh * (1.0 - copy_mask)
        d_squashed = d_active * o
        dc = gc + (d_squashed * (1.0 - squashed * squashed) if hidden_tanh else d_squashed)
        d_update = dc * update_w
        d_flush = dc * zp + d_update
        if s.requires_grad:
            ds = np.zeros(s.shape)
            d_gates = np.concatenate([d_flush * g, d_update * c_prev.data,
                                      d_active * squashed], axis=-1)
            ds[:, :3 * n] = d_gates * gates * (1.0 - gates)
            ds[:, 3 * n:4 * n] = d_flush * i * (1.0 - g * g)
            ad._accumulate(s, ds)
        if c_prev.requires_grad:
            ad._accumulate(c_prev, ad._unbroadcast(d_update * f + dc * copy_mask, c_prev.shape))
        if h_prev.requires_grad:
            ad._accumulate(h_prev, ad._unbroadcast(gh * copy_mask, h_prev.shape))
        if z_prev.requires_grad or below_z.requires_grad:
            # rebuilt with the forward's expressions, so bitwise its values
            flush_c = i * g
            update_c = f * c_prev.data + flush_c
            active_h = o * squashed
            d_update_w = (dc * update_c).sum(axis=-1, keepdims=True)
            d_copy = dc * c_prev.data + gh * (h_prev.data - active_h)
            d_copy = d_copy.sum(axis=-1, keepdims=True)
            d_not_zp = d_update_w * zb + d_copy * (1.0 - zb)
            d_zp = (dc * flush_c).sum(axis=-1, keepdims=True) - d_not_zp
            ad._accumulate(z_prev, ad._unbroadcast(d_zp, z_prev.shape))
            ad._accumulate(below_z, ad._unbroadcast((d_update_w - d_copy) * not_zp,
                                                    below_z.shape))

    return Tensor._from_op(ch, parents, backward_fn)


def step(prev: LayerState, below_h: Tensor, below_z: Tensor,
         above_h_prev: Tensor | None, params: LayerParams, *,
         noise: np.ndarray | None = None, tau: float = st.BOUNDARY_TAU,
         soft_boundaries: bool = False, hidden_tanh: bool = True,
         force_z: float | None = None) -> LayerState:
    """Advance one layer by one time step.

    ``below_h``/``below_z`` come from the layer below at the current
    step (for layer 1: the attended input with below_z identically 1);
    ``above_h_prev`` is the layer above at the previous step, absent for
    the top layer.  ``noise`` is the (2, B, 1) pair of Gumbel draws
    (a, b): with it the boundary bit is a Gumbel-sigmoid sample at
    temperature ``tau``, thresholded at 0.5 unless ``soft_boundaries``
    (the relaxed value is kept, for gradient verification); the drawn
    bit is Bernoulli(sigmoid(pre)) at every ``tau``, which only shapes
    the straight-through gradient.  Without ``noise`` the bit is the
    noise-free sigmoid thresholded at 0.5.  The bit is then masked by
    ``below_z`` (boundaries nest).

    ``hidden_tanh`` selects h = o*tanh(c); clearing it uses the literal
    h = o*c rule.
    """
    hidden = params.hidden
    if below_h.shape[-1] != params.w_bot.shape[0]:
        raise ad.DimensionError(
            f"below_h width {below_h.shape} does not match bottom-up matrix {params.w_bot.shape}")
    if prev.h.shape[-1] != hidden:
        raise ad.DimensionError(
            f"previous hidden state {prev.h.shape} does not match recurrent matrix "
            f"{params.u_rec.shape}")
    if not soft_boundaries:
        _require_binary(prev.z, "previous own-layer boundary bit")
        _require_binary(below_z, "lower-layer boundary bit")
    if params.u_top is not None:
        if above_h_prev is None:
            raise ContractError("layer has a top-down matrix but no above-layer state was given")
        if above_h_prev.shape[-1] != params.u_top.shape[0]:
            raise ad.DimensionError(
                f"above-layer state {above_h_prev.shape} does not match top-down matrix "
                f"{params.u_top.shape}")

    s = _preactivation(prev, below_h, below_z, above_h_prev, params)
    z_pre = ad.read(s, (slice(None), slice(4 * hidden, 4 * hidden + 1)))

    if force_z is not None:
        z = Tensor(np.full((s.shape[0], 1), float(force_z))) * below_z
    elif noise is None:
        z = _boundary(z_pre, below_z, 0.0, 0.0, 1.0, soft=False)
    else:
        z = _boundary(z_pre, below_z, noise[0], noise[1], st._tau_operand(tau),
                      soft=soft_boundaries)

    ch = _state(s, prev, below_z, hidden, hidden_tanh)
    return LayerState(c=ad.read(ch, 0), h=ad.read(ch, 1), z=z, z_logit=z_pre)

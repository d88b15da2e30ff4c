"""Central finite-difference verification of tape gradients.

Every differentiable path in the package registers a named check here.
A check builds a small fixed-seed instance, evaluates the loss through
the tape, and compares each parameter gradient against central
differences of the same forward computation.  Stochastic paths are
checked on their relaxed (soft) form with frozen noise; discretization
itself is covered by the straight-through contract tests instead, and
the hard-bit gradients of the fused cell by its comparison with the
op-by-op cell in ``tests/test_cell.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

FD_STEP = 1e-5
FD_TOLERANCE = 1e-4


def numeric_gradient(f: Callable[[], float], x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of f with respect to x, perturbing x in place."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, 1e-6)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_loss: Callable[[], Tensor], params: Sequence[Tensor],
                    h: float = FD_STEP,
                    analytic_hook: Callable[[list[np.ndarray]], None] | None = None) -> float:
    """Worst relative error across all params of ``build_loss``'s gradient.

    ``build_loss`` must be deterministic given the current parameter
    values (freeze any noise before calling).  It is re-invoked for
    every finite-difference probe, so keep the instance small.
    ``analytic_hook`` receives the analytic gradients (one array per
    param) before they are compared, and may modify them in place.
    """
    ad.zero_grad(params)
    loss = build_loss()
    ad.backward(loss)
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros(p.shape) for p in params]
    if analytic_hook is not None:
        analytic_hook(analytic)

    def value() -> float:
        return build_loss().item()

    worst = 0.0
    for p, a in zip(params, analytic):
        n = numeric_gradient(value, p.data, h)
        worst = max(worst, relative_error(a, n))
    ad.zero_grad(params)
    return worst


@dataclass
class CheckResult:
    name: str
    worst_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_rel_err < self.tolerance


_REGISTRY: list[tuple[str, Callable[[np.random.Generator], tuple[Callable[[], Tensor], list[Tensor]]]]] = []


def register(name: str):
    def wrap(builder):
        _REGISTRY.append((name, builder))
        return builder
    return wrap


def registered_names() -> list[str]:
    return [name for name, _ in _REGISTRY]


def run_all(seed: int = 0, tolerance: float = FD_TOLERANCE,
            fault_hook: Callable[[str, list[np.ndarray]], None] | None = None) -> list[CheckResult]:
    """Run every registered check with a seed-derived fixed-noise stream.

    ``fault_hook`` is a test handle: it may perturb the analytic
    gradients before they are compared, to prove the harness catches
    bad gradients (it receives the check name and the gradient list).
    """
    results = []
    for name, builder in _REGISTRY:
        build_loss, params = builder(np.random.default_rng(seed))
        hook = None if fault_hook is None else functools.partial(fault_hook, name)
        worst = check_gradients(build_loss, params, analytic_hook=hook)
        results.append(CheckResult(name, worst, tolerance))
    return results


# -- registered checks ------------------------------------------------------
# Builders return (build_loss, params). build_loss must re-run the full
# forward from current parameter values with any noise frozen.


@register("matmul")
def _check_matmul(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    v = Tensor(rng.normal(size=(5, 1)))

    def build():
        return ad.sum_(ad.tanh(a @ b) @ v)

    return build, [a, b]


@register("elementwise")
def _check_elementwise(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def build():
        mix = ad.sigmoid(x) * ad.tanh(y) + ad.softplus(x - y)
        return ad.sum_(mix * mix)

    return build, [x, y]


@register("softmax")
def _check_softmax(rng):
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    v = Tensor(rng.normal(size=(3, 5)))

    def build():
        return ad.sum_(ad.softmax(x, axis=-1) * v)

    return build, [x]


@register("gumbel-softmax-soft")
def _check_gumbel_softmax(rng):
    from . import stochastic as st

    logits = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    noise = st.sample_gumbel((2, 6), rng)
    v = Tensor(rng.normal(size=(2, 6)))

    def build():
        return ad.sum_(st.gumbel_softmax(logits, noise, 0.4) * v)

    return build, [logits]


@register("gumbel-sigmoid-soft")
def _check_gumbel_sigmoid(rng):
    from . import stochastic as st

    pre = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    ga = st.sample_gumbel((3, 2), rng)
    gb = st.sample_gumbel((3, 2), rng)

    def build():
        y = st.gumbel_sigmoid(pre, ga, gb, 0.3)
        return ad.sum_(y * y)

    return build, [pre]


@register("adaptive-temperature")
def _check_adaptive_tau(rng):
    from . import stochastic as st

    h1 = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 1)), requires_grad=True)

    def build():
        return ad.sum_(st.adaptive_tau(h1, w, b))

    return build, [h1, w, b]


@register("soft-attention")
def _check_soft_attention(rng):
    from . import attention as at

    k2, d, feat = 4, 3, 5
    params = at.AttentionParams(w_loc=Tensor(rng.normal(size=(k2, d)), requires_grad=True))
    h = Tensor(rng.normal(size=(2, d)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, k2, feat)))
    v = Tensor(rng.normal(size=(2, feat)))

    def build():
        res = at.soft_attend(h, x, params)
        return ad.sum_(res.attended * v)

    return build, [params.w_loc, h]


@register("sequence-head")
def _check_sequence_head(rng):
    from . import model as hm

    steps, layers, batch, width, classes = 3, 2, 2, 3, 4
    h = Tensor(rng.normal(size=(steps, layers, batch, width)), requires_grad=True)
    w = Tensor(rng.normal(size=(layers * width, classes)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, classes)), requires_grad=True)
    labels = rng.integers(0, classes, size=batch)

    def build():
        # the head reads h as the model's does: one view per step and layer
        reads = [ad.read(h, (t, layer)) for t in range(steps) for layer in range(layers)]
        stacked = h.data.transpose(0, 2, 1, 3).reshape(steps, batch, layers * width)
        probs = hm._sequence_head(stacked, reads, w, b)
        return ad.sum_(hm.sequence_log_likelihood(probs, labels))

    return build, [h, w, b]


@register("cell-update")
def _check_cell_update(rng):
    return _cell_branch_check(rng, z_prev=0.0, below_z=1.0)


@register("cell-copy")
def _check_cell_copy(rng):
    return _cell_branch_check(rng, z_prev=0.0, below_z=0.0)


@register("cell-flush")
def _check_cell_flush(rng):
    return _cell_branch_check(rng, z_prev=1.0, below_z=1.0)


@register("cell-literal-h")
def _check_cell_literal_h(rng):
    return _cell_branch_check(rng, z_prev=0.0, below_z=1.0, hidden_tanh=False)


def _cell_branch_check(rng, z_prev: float, below_z: float, hidden_tanh: bool = True):
    from . import cell as hc
    from . import stochastic as st

    hidden, below = 3, 4
    params = hc.init_layer_params(hidden, below_dim=below, above_dim=hidden, rng=rng)
    prev = hc.LayerState(
        c=Tensor(rng.normal(size=(1, hidden)), requires_grad=True),
        h=Tensor(rng.normal(size=(1, hidden)), requires_grad=True),
        z=Tensor([[z_prev]]),
    )
    below_h = Tensor(rng.normal(size=(1, below)), requires_grad=True)
    above_h = Tensor(rng.normal(size=(1, hidden)), requires_grad=True)
    noise = st.sample_gumbel((2, 1, 1), rng).data

    def build():
        state = hc.step(prev, below_h, Tensor([[below_z]]), above_h, params,
                        noise=noise, soft_boundaries=True, hidden_tanh=hidden_tanh)
        return ad.sum_(state.h * state.h) + ad.sum_(state.c) + ad.sum_(state.z)

    tensors = [params.u_rec, params.u_top, params.w_bot, params.bias, prev.c, prev.h,
               below_h, above_h]
    return build, tensors


@register("cell-two-steps")
def _check_cell_chain(rng):
    from . import cell as hc
    from . import stochastic as st

    hidden, below = 3, 3
    params = hc.init_layer_params(hidden, below_dim=below, above_dim=hidden, rng=rng)
    prev = hc.LayerState(
        c=Tensor(rng.normal(size=(1, hidden))),
        h=Tensor(rng.normal(size=(1, hidden)), requires_grad=True),
        z=Tensor([[0.0]]),
    )
    below1 = Tensor(rng.normal(size=(1, below)), requires_grad=True)
    below2 = Tensor(rng.normal(size=(1, below)), requires_grad=True)
    above = Tensor(rng.normal(size=(1, hidden)))
    n1 = st.sample_gumbel((2, 1, 1), rng).data
    n2 = st.sample_gumbel((2, 1, 1), rng).data

    def build():
        s1 = hc.step(prev, below1, Tensor([[1.0]]), above, params, noise=n1, soft_boundaries=True)
        s2 = hc.step(s1, below2, Tensor([[1.0]]), above, params, noise=n2, soft_boundaries=True)
        return ad.sum_(s2.h * s2.h) + ad.sum_(s2.c * s2.c)

    tensors = [params.u_rec, params.u_top, params.w_bot, params.bias, prev.h, below1, below2]
    return build, tensors


@register("model-2layer-3steps")
def _check_full_model(rng):
    from . import model as hm

    cfg = hm.ModelConfig(layers=2, hidden=3, grid_side=2, feat_dim=3, classes=2,
                         attention="soft")
    net = hm.HMAN(cfg, rng)
    x = rng.normal(size=(1, 3, 4, 3))
    label = np.array([1])
    noise_seed = int(rng.integers(1 << 31))

    def build():
        out = net.forward_batch(x, np.random.default_rng(noise_seed), train=True,
                                soft_boundaries=True)
        return hm.batch_sequence_loss(out.step_probs, label)

    return build, list(net.params.values())


@register("model-adaptive-attention")
def _check_full_model_adaptive(rng):
    from . import model as hm

    cfg = hm.ModelConfig(layers=2, hidden=3, grid_side=2, feat_dim=3, classes=2,
                         attention="gumbel-adaptive")
    net = hm.HMAN(cfg, rng)
    x = rng.normal(size=(1, 2, 4, 3))
    label = np.array([0])
    noise_seed = int(rng.integers(1 << 31))

    def build():
        out = net.forward_batch(x, np.random.default_rng(noise_seed), train=True,
                                soft_boundaries=True, soft_attention_sample=True)
        return hm.batch_sequence_loss(out.step_probs, label)

    return build, list(net.params.values())


@register("boundary-loss")
def _check_boundary_loss(rng):
    from . import model as hm

    logits = [[Tensor(rng.normal(size=(2, 1)), requires_grad=True) for _ in range(4)]
              for _ in range(2)]
    targets = hm.boundary_targets(rng.normal(size=(2, 4, 4, 3)))

    def build():
        return hm.boundary_loss(logits, targets)

    return build, [t for layer in logits for t in layer]

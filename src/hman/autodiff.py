"""Dense float64 tensors with reverse-mode automatic differentiation.

Every learnable computation in this package is expressed through the
:class:`Tensor` type defined here.  The design is deliberately small:

* row-major dense float64 storage backed by numpy,
* gradients accumulate by summation; callers zero them between steps,
* a :class:`Tape` built on demand replays adjoints in reverse
  topological order when ``backward`` is called on a scalar loss,
* a weight-gradient product x.T @ g can be deferred (:func:`_defer`):
  during the replay the (x, g) pairs wait on the weight, and they are
  summed into its ``grad`` by one GEMM per ``DEFER_BLOCK_ROWS`` stacked
  rows, without the rows of x that are all zero, at the latest when the
  replay reaches the weight's own node.  The recurrent cell's weights
  get their gradients this way, once per sequence instead of once per
  step (Appleyard et al., arXiv 1604.01946),
* an op with several outputs returns one array; :func:`read` gives each
  output as a view of it that records no tape node of its own.

Broadcasting in elementwise ops follows numpy rules (adjoints are
summed back over broadcast axes); the cases relied on throughout the
package are scalar-with-tensor, equal shapes, and row/column vectors
against matrices.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class AutodiffError(Exception):
    """Base class for tensor/graph errors."""


class DimensionError(AutodiffError):
    """Operand shapes are incompatible for the requested op."""


class ContractError(AutodiffError):
    """An operation was called outside its contract."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation paths)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_array(values) -> np.ndarray:
    # not ascontiguousarray, which would promote a 0-d array to shape (1,)
    return np.asarray(values, dtype=np.float64, order="C")


class Tensor:
    """Dense n-dimensional float64 array participating in the gradient tape.

    ``grad`` is None until a backward pass deposits a contribution; after
    ``backward`` the grad of any leaf is the sum over all of its uses.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn", "_backward_ran",
                 "_owner", "_deferred")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_ran = False
        self._owner: Tensor | None = None  # the op output this tensor reads; see read()
        self._deferred: list | None = None  # [xs, gs, rows] of _defer, during a replay

    # -- construction ---------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward_fn: Callable[[np.ndarray], None]) -> "Tensor":
        """Build an op output node; records parents only when grads flow."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = None
        out._backward_ran = False
        out._owner = None
        out._deferred = None
        if _records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
        return out

    # -- basic introspection ---------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- operators --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_ensure_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_ensure_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_ensure_tensor(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_ensure_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _records(parents: Iterable[Tensor]) -> bool:
    """Whether an op over ``parents`` records a tape node: grads flow to one of them."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(parent: Tensor, contribution: np.ndarray) -> None:
    if not parent.requires_grad:
        return
    if parent.grad is None:
        parent.grad = np.array(contribution, dtype=np.float64, copy=True)
    else:
        parent.grad += contribution


# Rows stacked per GEMM of deferred weight-gradient pairs: enough for BLAS
# speed, few enough that a block's copy (512 x 513 doubles, 2 MB, at hidden
# 128) adds little to the peak memory of a backward pass.
DEFER_BLOCK_ROWS = 512


def _defer(w: Tensor, x: np.ndarray, g: np.ndarray) -> None:
    """Add x.T @ g to ``w.grad``, summed with ``w``'s other deferred pairs.

    Called from a backward function during :meth:`Tape.replay_adjoints`,
    with ``w`` one of the op's parents.  The pair is kept on ``w`` (the
    arrays are not copied, so neither may change before the sum) and
    summed, with the pairs before it, once ``DEFER_BLOCK_ROWS`` rows are
    waiting or the replay reaches ``w``'s node, whichever comes first.
    """
    if not w.requires_grad:
        return
    if w._owner is not None:
        raise ContractError("a deferred weight gradient needs a tape node, not a read() view")
    if w._deferred is None:
        w._deferred = [[x], [g], x.shape[0]]
    else:
        w._deferred[0].append(x)
        w._deferred[1].append(g)
        w._deferred[2] += x.shape[0]
    if w._deferred[2] >= DEFER_BLOCK_ROWS:
        _sum_deferred(w)


def _sum_deferred(w: Tensor) -> None:
    """One GEMM over ``w``'s waiting pairs; rows of x that are all zero add nothing."""
    xs, gs, _ = w._deferred
    w._deferred = None
    x, g = np.concatenate(xs), np.concatenate(gs)
    kept = np.flatnonzero(x.any(axis=1))
    if len(kept) < len(x):
        x, g = x.take(kept, axis=0), g.take(kept, axis=0)
    _accumulate(w, x.T @ g)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint back over axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Reverse-topological record of the ops reachable from a root tensor.

    Replaying adjoints over ``nodes`` in reverse order yields exact
    chain-rule gradients; parents always precede their consumers.  A
    parent made by :func:`read` is not a node: the walk continues at its
    owner, whose grad already holds the read's adjoint.  A node's
    deferred weight-gradient pairs (:func:`_defer`) are summed into its
    grad when the replay reaches it, after every op that uses it; a
    replay that raises drops the pairs still waiting.
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.nodes: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.nodes.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent if parent._owner is None else parent._owner, False))

    def replay_adjoints(self) -> None:
        self.root.grad = np.ones_like(self.root.data)
        try:
            for node in reversed(self.nodes):
                if node._deferred is not None:
                    _sum_deferred(node)
                if node._backward_fn is not None:
                    node._backward_fn(node.grad)
        finally:
            for node in self.nodes:
                node._deferred = None


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    ``loss`` must be a single-element tensor.  Calling backward twice on
    the same root without rebuilding the graph is an error: adjoints
    would silently double-count.
    """
    if not isinstance(loss, Tensor):
        raise ContractError(f"backward expects a Tensor, got {type(loss).__name__}")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._backward_ran:
        raise ContractError("backward was already run for this loss; rebuild the graph or reset first")
    if not loss.requires_grad:
        raise ContractError("loss does not require grad; nothing to differentiate")
    loss._backward_ran = True
    Tape(loss).replay_adjoints()


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# -- kernels ----------------------------------------------------------------
# Array arithmetic of the primitives below, which the fused ops of ``cell``,
# ``attention`` and ``model`` call too: each rule is written once, so a fused
# op's values are bitwise those of its op-by-op form.

LOG_FLOOR = 1e-12  # clipped_log's default floor; its adjoint is zero below it


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic in tanh form, which is stable across the whole float64 range."""
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis``, shifted by the maximum so exp cannot overflow."""
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def _softmax_adjoint(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The input adjoint of ``y = _softmax(x, axis)`` given the output adjoint ``g``."""
    return y * (g - np.sum(g * y, axis=axis, keepdims=True))


# -- elementwise arithmetic -----------------------------------------------


def add(a, b) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    data = a.data + b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor._from_op(data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    data = a.data - b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return Tensor._from_op(data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    data = a.data * b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(data, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    data = a.data / b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor._from_op(data, (a, b), backward_fn)


def neg(a) -> Tensor:
    a = _ensure_tensor(a)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, -g)

    return Tensor._from_op(-a.data, (a,), backward_fn)


def sigmoid(a) -> Tensor:
    a = _ensure_tensor(a)
    data = _sigmoid(a.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * data * (1.0 - data))

    return Tensor._from_op(data, (a,), backward_fn)


def tanh(a) -> Tensor:
    a = _ensure_tensor(a)
    data = np.tanh(a.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - data * data))

    return Tensor._from_op(data, (a,), backward_fn)


def softplus(a) -> Tensor:
    a = _ensure_tensor(a)
    data = np.logaddexp(0.0, a.data)
    sig = _sigmoid(a.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * sig)

    return Tensor._from_op(data, (a,), backward_fn)


def clipped_log(a, floor: float = LOG_FLOOR) -> Tensor:
    """log(max(a, floor)); the adjoint is zero where the floor is active."""
    a = _ensure_tensor(a)
    clipped = np.maximum(a.data, floor)
    data = np.log(clipped)
    mask = (a.data >= floor).astype(np.float64)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * mask / clipped)

    return Tensor._from_op(data, (a,), backward_fn)


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return Tensor._from_op(data, (a, b), backward_fn)


def transpose(a) -> Tensor:
    a = _ensure_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose needs a 2-d tensor, got {a.shape}")
    data = np.ascontiguousarray(a.data.T)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return Tensor._from_op(data, (a,), backward_fn)


def softmax(a, axis: int = -1) -> Tensor:
    """Row-stable softmax (max subtraction); outputs sum to 1 along ``axis``."""
    a = _ensure_tensor(a)
    data = _softmax(a.data, axis)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _softmax_adjoint(data, g, axis))

    return Tensor._from_op(data, (a,), backward_fn)


# -- reductions and shaping -------------------------------------------------


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def backward_fn(g: np.ndarray) -> None:
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.shape))

    return Tensor._from_op(np.asarray(data, dtype=np.float64), (a,), backward_fn)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def read(owner: Tensor, index) -> Tensor:
    """One output of a multi-output op: ``owner.data[index]`` as a view.

    ``index`` must be a basic index (integers and slices), so the read
    shares memory with ``owner``.  It records no tape node: its ``grad``
    is the same view of ``owner.grad``, which is allocated here as
    zeros, so every adjoint accumulated into the read lands in the
    owner's, and :class:`Tape` walks to ``owner`` instead.  Neither grad
    may be reset while the graph is in use.
    """
    out = Tensor.__new__(Tensor)
    out.data = owner.data[index]
    out.name = None
    out._parents = ()
    out._backward_fn = None
    out._backward_ran = False
    out._deferred = None
    out.requires_grad = owner.requires_grad
    if owner.requires_grad:
        if owner.grad is None:
            owner.grad = np.zeros(owner.data.shape)
        out.grad = owner.grad[index]
        out._owner = owner
    else:
        out.grad = None
        out._owner = None
    return out


def take_rows(a, index: np.ndarray) -> Tensor:
    """Pick one column per row of a matrix: out[i, 0] = a[i, index[i]]."""
    a = _ensure_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"take_rows needs a 2-d tensor, got {a.shape}")
    index = np.asarray(index, dtype=np.intp)
    if index.shape != (a.shape[0],):
        raise DimensionError(f"take_rows index shape {index.shape} does not match {a.shape[0]} rows")
    rows = np.arange(a.shape[0])
    data = a.data[rows, index][:, None]

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros(a.shape)
            np.add.at(full, (rows, index), g[:, 0])
            _accumulate(a, full)

    return Tensor._from_op(np.ascontiguousarray(data), (a,), backward_fn)


def attend_mix(weights, features) -> Tensor:
    """Mix feature rows by per-row weights: out[b] = sum_k w[b,k] * f[b,k,:].

    ``weights`` is (B, K), ``features`` is (B, K, D).  With one-hot
    weights this is a selection of a single feature row.
    """
    w, f = _ensure_tensor(weights), _ensure_tensor(features)
    if w.ndim != 2 or f.ndim != 3 or w.shape != f.shape[:2]:
        raise DimensionError(f"attend_mix shapes incompatible: weights {w.shape}, features {f.shape}")
    data = np.einsum("bk,bkd->bd", w.data, f.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(w, np.einsum("bd,bkd->bk", g, f.data))
        if f.requires_grad:
            _accumulate(f, np.einsum("bk,bd->bkd", w.data, g))

    return Tensor._from_op(data, (w, f), backward_fn)

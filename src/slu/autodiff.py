"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Only the ops the joint model needs: broadcast add/sub/mul, 2-D matmul, a
fused affine layer (``linear``), tanh, exp, sum/mean, stable logsumexp,
concat, row gather, reshape, transpose, and a fused softmax cross-entropy
(``nll_rows``) whose backward is written by hand.
Nodes record parents only when a gradient is required, so inference builds
no graph.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction ---------------------------------------------

    @staticmethod
    def _op(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
        return out

    def _accum(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # A copy: callers pass one array to several parents, or a read-only view.
            self.grad = np.array(grad)
        else:
            self.grad += grad

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = wrap(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(g)

        return Tensor._op(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = wrap(other)

        def backward(g):
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(-g)

        return Tensor._op(self.data - other.data, (self, other), backward)

    def __rsub__(self, other):
        return wrap(other) - self

    def __mul__(self, other):
        other = wrap(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)

        return Tensor._op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = wrap(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise NumericError("matmul requires 2-D operands")
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)

        return Tensor._op(out_data, (self, other), backward)

    # -- nonlinearities and reductions ------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accum(g * (1.0 - out_data**2))

        return Tensor._op(out_data, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accum(g * out_data)

        return Tensor._op(out_data, (self,), backward)

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def logsumexp(self, axis: int, keepdims: bool = False):
        m = self.data.max(axis=axis, keepdims=True)
        shifted = np.exp(self.data - m)
        total = shifted.sum(axis=axis, keepdims=True)
        out_data = m + np.log(total)
        softmax = shifted / total
        if not keepdims:
            out_data = np.squeeze(out_data, axis=axis)

        def backward(g):
            g = np.asarray(g)
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(g * softmax)

        return Tensor._op(out_data, (self,), backward)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        original = self.data.shape

        def backward(g):
            self._accum(g.reshape(original))

        return Tensor._op(self.data.reshape(*shape), (self,), backward)

    @property
    def T(self):
        def backward(g):
            self._accum(g.T)

        return Tensor._op(self.data.T, (self,), backward)

    def gather_rows(self, indices):
        indices = np.asarray(indices, dtype=np.intp)

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, indices, g)
            self._accum(full)

        return Tensor._op(self.data[indices], (self,), backward)

    # -- autodiff ----------------------------------------------------------

    def backward(self) -> None:
        if self.data.size != 1:
            raise NumericError("backward() expects a scalar loss")
        if not np.isfinite(self.data).all():
            raise NumericError("loss is not finite")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for (N, I) rows, (I, O) weights and an (O,) bias, as one node."""
    x, w, b = wrap(x), wrap(w), wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise NumericError("matmul requires 2-D operands")

    def backward(g):
        if b.requires_grad:
            b._accum(g)
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.T @ g)

    return Tensor._op(x.data @ w.data + b.data, (x, w, b), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    tensors = [wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    return Tensor._op(out_data, tuple(tensors), backward)


def softmax_rows(x: Tensor) -> Tensor:
    return (x - x.logsumexp(axis=1, keepdims=True)).exp()


def nll_rows(logits: Tensor, targets, smoothing: float = 0.0) -> Tensor:
    """Per-row negative log-likelihood of one target class per (N, K) logits row.

    With ``smoothing`` the picked log-probability is mixed with the mean
    log-probability over all K classes (label smoothing).  One node: the
    forward is a row-wise stable logsumexp minus the picked (or mixed) logit,
    and the gradient of row i is ``g[i] * (softmax - (1 - s) * onehot - s / K)``.
    """
    x = logits.data
    n, k = x.shape
    if n != len(targets):
        raise DimensionError(f"{n} logit rows vs {len(targets)} targets")
    rows = np.arange(n)
    cols = np.asarray(targets, dtype=np.intp)
    m = x.max(axis=1, keepdims=True)
    shifted = np.exp(x - m)
    total = shifted.sum(axis=1, keepdims=True)
    lse = (m + np.log(total))[:, 0]
    picked = x[rows, cols]
    if smoothing == 0.0:
        out_data = lse - picked
    else:
        out_data = lse - ((1.0 - smoothing) * picked + smoothing * (x.sum(axis=1) * (1.0 / k)))

    def backward(g):
        g = np.asarray(g)[:, None]
        grad = shifted / total
        grad[rows, cols] -= 1.0 - smoothing
        if smoothing != 0.0:
            grad -= smoothing / k
        logits._accum(g * grad)

    return Tensor._op(out_data, (logits,), backward)

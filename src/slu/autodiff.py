"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Only the ops the joint model calls: ``+`` of two tensors of one shape, a
fused affine layer (``linear``), a fused softmax cross-entropy reduced to one
loss (``nll``, summed or averaged over the rows), one node per model layer
(``encoder_layer``, ``decoder_layer`` and ``nlu_layer``) and two head nodes:
``word_rows`` (each word's first-subword row of both branches, two gathers and
their concat) and ``intent_head`` (the sentinel concat, the mean and the
intent ``linear``).  So a speech train step records 4 nodes and a joint step
12.  A layer or head node runs the numpy operations of its composition of
elementary ops in their order, and its hand-written backward returns that
composition's gradients bit for bit; both attention layers share one
array-level attention (``_attend``) and embedding (``_embed``, of positions
0 to n - 1).  The decoder node's forward is the array function
``decoder_rows``, which the beam search runs as its step, so training and
decoding share one copy of it.  No op broadcasts, and an operand of ``+``
that is not a ``Tensor`` is a ``TypeError``.  The mean's backward fills a
new, writable array, not a broadcast view.  A gather's backward (the
embeddings' and the word rows') adds the gradient rows onto ``np.zeros``:
with ``+=`` for a ``slice``, and with ``np.add.at`` for an index list, which
may name a row twice.  Nodes record parents only when a gradient is required
and recording is on: under ``no_grad()`` no op records any, so decoding's
encoder and heads build no graph.

A step makes a few hundred numpy calls on arrays of tens of rows, so each
call's fixed cost sets the speed: the ops multiply with ``ndarray.dot``, not
``@``, and reduce rows and columns with ``np.add.reduce`` and
``np.maximum.reduce``, not ``.sum`` and ``.max``, which reach the same C
routines through more Python.  The two spellings give the same floats for
the operands passed here; the compositions in the tests keep ``@`` and
``.sum``, so that their bit-for-bit gates check that.  They may round
differently for an operand strided in both dimensions, and ``X.T @ X`` on one
buffer goes to BLAS's ``syrk``, which rounds unlike ``gemm`` on a copy; no op
passes either.

The op contract: an op builds its output with ``Tensor._op(data, parents,
backward)``, where ``backward`` maps the output's gradient to one gradient
per parent, in ``parents`` order and of that parent's shape, or ``None`` for a
parent that gets none.
``Tensor.backward`` alone decides which parents receive gradients (an op
never reads ``requires_grad``) and adds them up without writing any ``.grad``
in place, since one may be shared or a read-only view.  ``_op`` stamps each
node it records from one counter, so a node is newer than its inputs, and
``Tensor.backward`` runs nodes newest first off a heap (reverse creation
order; Griewank & Walther, *Evaluating Derivatives*): a node runs after all
its consumers, and no list of nodes is kept.  Only leaves (tensors built
directly, such as parameters) keep ``.grad``, and each pass adds onto it; an
inner node holds its gradient from its first one in a pass until it runs.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math

import numpy as np

from .errors import DimensionError, NumericError

_stamps = itertools.count()
_recording = True  # off inside no_grad(); the package runs in one thread


@contextlib.contextmanager
def no_grad():
    """A block in which ``Tensor._op`` records no parents, whatever its inputs require (the no-grad
    mode of define-by-run autodiff, Paszke et al. 2019); it restores the previous state, so blocks nest."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_stamp")
    __array_ufunc__ = None  # numpy's operators defer to Tensor's, so an array operand is a TypeError

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

    # -- graph construction ---------------------------------------------

    @staticmethod
    def _op(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if not _recording:
            return out
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                out._stamp = next(_stamps)
                break
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.data.shape != other.data.shape:
            raise DimensionError(f"cannot add shapes {self.data.shape} and {other.data.shape}")
        return Tensor._op(self.data + other.data, (self, other), lambda g: (g, g))

    # -- autodiff ----------------------------------------------------------

    def backward(self) -> None:
        """Add this scalar's gradient onto each leaf's ``.grad``; an inner ``.grad`` is ``None`` outside a pass."""
        if self.data.size != 1:
            raise NumericError("backward() expects a scalar loss")
        if not np.isfinite(self.data).all():
            raise NumericError("loss is not finite")
        self.grad = np.ones_like(self.data)
        heap = [(-self._stamp, self)] if self._backward is not None else []
        while heap:
            node = heapq.heappop(heap)[1]  # newest first: all its consumers have run
            grad, node.grad = node.grad, None  # an inner node's gradient lives until it runs
            # strict: a backward with the wrong number of gradients fails instead of dropping some
            for parent, g in zip(node._parents, node._backward(grad), strict=True):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None and parent._backward is not None:  # its first gradient of this pass
                    heapq.heappush(heap, (-parent._stamp, parent))
                parent.grad = g if parent.grad is None else parent.grad + g


def _rows(indices):
    """Row indices as numpy reads them: a ``slice`` as it is, else an int array."""
    return indices if isinstance(indices, slice) else np.asarray(indices, dtype=np.intp)


def _scatter_rows(shape, rows, g: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with each row of ``g`` added onto the row that ``rows``
    names: ``+=`` for a slice, whose rows are distinct, and ``np.add.at`` for
    an index list, which may repeat one.  Onto zeros the two give the same
    floats, zero signs included (0.0 + -0.0 is 0.0)."""
    full = np.zeros(shape)
    if isinstance(rows, slice):
        full[rows] += g
    else:
        np.add.at(full, rows, g)
    return full


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for (N, I) rows, (I, O) weights and an (O,) bias, as one node."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise NumericError("matmul requires 2-D operands")
    return Tensor._op(
        x.data.dot(w.data) + b.data, (x, w, b), lambda g: (g.dot(w.data.T), x.data.T.dot(g), np.add.reduce(g, axis=0))
    )


def _embed(table: np.ndarray, ids, pos: np.ndarray):
    """Token plus position embeddings ``table[ids] + pos[:n]`` for n ids (BERT's input layer, Devlin et
    al. 2019) and their backward, the two gathers' scatters; ``ids`` are read as ``_rows`` reads them, and
    more ids than position rows is a ``DimensionError``, not a broadcast."""
    ids, positions = _rows(ids), slice(len(ids))
    tokens, places = table[ids], pos[positions]
    if tokens.shape != places.shape:
        raise DimensionError(f"cannot add shapes {tokens.shape} and {places.shape}")

    def backward(g):
        return _scatter_rows(table.shape, ids, g), _scatter_rows(pos.shape, positions, g)

    return tokens + places, backward


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """``softmax(q kᵀ / sqrt(d)) v``, with ``d`` the keys' width (scaled dot-product attention, Vaswani
    et al. 2017), and its backward, which maps the output's gradient to (dq, dk, dv)."""
    scale = 1.0 / math.sqrt(k.shape[1])
    s = q.dot(k.T) * scale
    m = np.maximum.reduce(s, axis=1, keepdims=True)
    shifted = np.exp(s - m)
    total = np.add.reduce(shifted, axis=1, keepdims=True)
    p = np.exp(s - (m + np.log(total)))

    def backward(g):
        # Bit for bit the gradients of the composition q @ kᵀ, scale, softmax rows
        # (log-sum-exp, sub, exp), @ v: its log-sum-exp node takes the row-sum
        # term times shifted / total, which is not always p to the last bit, and
        # its transpose node gives the keys' gradient as (qᵀ dS)ᵀ, which a BLAS
        # need not round like dSᵀ q.
        dp = g.dot(v.T) * p
        ds = (dp - np.add.reduce(dp, axis=1, keepdims=True) * (shifted / total)) * scale
        return ds.dot(k), q.T.dot(ds).T, p.T.dot(g)

    return p.dot(v), backward


def encoder_layer(frames: np.ndarray, w: Tensor, b: Tensor, pos: Tensor) -> Tensor:
    """``tanh(frames @ w + b + pos[:n])`` for n constant (n, I) frames, as one node; more frames than
    position rows is a ``DimensionError``."""
    n = frames.shape[0]
    pre, places = frames.dot(w.data) + b.data, pos.data[:n]
    if pre.shape != places.shape:
        raise DimensionError(f"cannot add shapes {pre.shape} and {places.shape}")
    out = np.tanh(pre + places)

    def backward(g):
        g = g * (1.0 - out**2)
        return frames.T.dot(g), np.add.reduce(g, axis=0), _scatter_rows(pos.data.shape, slice(n), g)

    return Tensor._op(out, (w, b, pos), backward)


def decoder_rows(e: np.ndarray, w_q: np.ndarray, enc: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The decoder's hidden rows ``tanh([e, ctx] @ w + b)`` for embedded rows ``e``, where ``ctx`` is
    ``e @ w_q`` attending over the encoder rows ``enc``, its keys and values; and their backward, which
    maps the rows' gradient to (de, dw_q, denc, dw, db): ``decoder_layer``'s forward and backward, and
    the beam search's array step (``JointModel.decoder_states``)."""
    ctx, attend_backward = _attend(e.dot(w_q), enc, enc)
    x = np.concatenate([e, ctx], axis=1)
    out = np.tanh(x.dot(w) + b)

    def backward(g):
        g = g * (1.0 - out**2)
        dx = g.dot(w.T)
        width = e.shape[1]
        dq, dk, dv = attend_backward(dx[:, width:])
        return dx[:, :width] + dq.dot(w_q.T), e.T.dot(dq), dk + dv, x.T.dot(g), np.add.reduce(g, axis=0)

    return out, backward


def decoder_layer(table: Tensor, ids, pos: Tensor, w_q: Tensor, enc: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``decoder_rows`` as one node over ``e``, the embeddings of ``ids`` at positions 0 to n - 1."""
    e, embed_backward = _embed(table.data, ids, pos.data)
    out, rows_backward = decoder_rows(e, w_q.data, enc.data, w.data, b.data)

    def backward(g):
        de, *rest = rows_backward(g)
        return (*embed_backward(de), *rest)

    return Tensor._op(out, (table, pos, w_q, enc, w, b), backward)


def nlu_layer(table: Tensor, ids, pos: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor, w: Tensor, b: Tensor):
    """The NLU rows ``tanh((e + ctx) @ w + b)`` as one node, where ``e`` embeds ``ids`` at positions
    0 to n - 1 and ``ctx`` is self-attention with queries, keys and values ``e @ w_q``, ``e @ w_k``, ``e @ w_v``."""
    e, embed_backward = _embed(table.data, ids, pos.data)
    ctx, attend_backward = _attend(e.dot(w_q.data), e.dot(w_k.data), e.dot(w_v.data))
    x = e + ctx
    out = np.tanh(x.dot(w.data) + b.data)

    def backward(g):
        g = g * (1.0 - out**2)
        dx = g.dot(w.data.T)
        dq, dk, dv = attend_backward(dx)
        # e's gradients in the order the composition's newest-first backward adds them, which keeps checkpoint bits
        de = ((dx + dq.dot(w_q.data.T)) + dk.dot(w_k.data.T)) + dv.dot(w_v.data.T)
        return (*embed_backward(de), e.T.dot(dq), e.T.dot(dk), e.T.dot(dv), x.T.dot(g), np.add.reduce(g, axis=0))

    return Tensor._op(out, (table, pos, w_q, w_k, w_v, w, b), backward)


def word_rows(h_a: Tensor, first_a, h_b: Tensor, first_b) -> Tensor:
    """Each word's rows of both branches side by side, ``[h_a[first_a], h_b[first_b]]``, as one node:
    two row gathers (``first_a`` and ``first_b`` read as ``_rows`` reads them) and their concat."""
    rows_a, rows_b = _rows(first_a), _rows(first_b)
    shape_a, shape_b = h_a.data.shape, h_b.data.shape

    def backward(g):
        width = shape_a[1]
        return _scatter_rows(shape_a, rows_a, g[:, :width]), _scatter_rows(shape_b, rows_b, g[:, width:])

    return Tensor._op(np.concatenate([h_a.data[rows_a], h_b.data[rows_b]], axis=1), (h_a, h_b), backward)


def intent_head(sentinel: Tensor, rows: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The intent logits ``mean([sentinel; rows]) @ w + b`` for a (1, F) sentinel row and (n, F) word
    rows, n >= 0, as one node: the concat, the mean (the row sum times ``1 / (n + 1)``) and ``linear``."""
    stacked = np.concatenate([sentinel.data, rows.data])
    shape, scale = stacked.shape, 1.0 / stacked.shape[0]
    pooled = np.add.reduce(stacked, axis=0, keepdims=True) * scale

    def backward(g):
        d_stacked = np.full(shape, g.dot(w.data.T) * scale)  # the mean's filled gradient, split as the concat's
        return d_stacked[:1], d_stacked[1:], pooled.T.dot(g), np.add.reduce(g, axis=0)

    return Tensor._op(pooled.dot(w.data) + b.data, (sentinel, rows, w, b), backward)


def nll(logits: Tensor, targets, smoothing: float = 0.0, mean: bool = False) -> Tensor:
    """Negative log-likelihood of one target class per (N, K) logits row, summed
    over the rows or, with ``mean``, averaged (the sum times ``1 / N``).

    With ``smoothing`` the picked log-probability is mixed with the mean
    log-probability over all K classes (label smoothing).  One node: the
    forward is a row-wise stable log-sum-exp minus the picked (or mixed) logit,
    reduced, and the gradient of row i is ``g * (softmax - (1 - s) * onehot - s / K)``,
    with ``g`` times ``1 / N`` under ``mean``.
    """
    x = logits.data
    n, k = x.shape
    if n != len(targets):
        raise DimensionError(f"{n} logit rows vs {len(targets)} targets")
    rows = np.arange(n)
    cols = np.asarray(targets, dtype=np.intp)
    m = np.maximum.reduce(x, axis=1, keepdims=True)
    shifted = np.exp(x - m)
    total = np.add.reduce(shifted, axis=1, keepdims=True)
    lse = (m + np.log(total))[:, 0]
    picked = x[rows, cols]
    if smoothing == 0.0:
        per_row = lse - picked
    else:
        per_row = lse - ((1.0 - smoothing) * picked + smoothing * (np.add.reduce(x, axis=1) * (1.0 / k)))
    out_data = np.add.reduce(per_row)
    if mean:
        out_data = out_data * (1.0 / n)

    def backward(g):
        if mean:
            g = g * (1.0 / n)
        grad = shifted / total
        grad[rows, cols] -= 1.0 - smoothing
        if smoothing != 0.0:
            grad -= smoothing / k
        grad *= g
        return (grad,)

    return Tensor._op(out_data, (logits,), backward)

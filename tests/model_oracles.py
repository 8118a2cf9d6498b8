"""Independent reference implementations of the model, autodiff, CRF, audio
and subword code, used only by the test suite (the scoring oracles are in
``oracles.py``).

Everything here is deliberately written with a different algorithmic shape
than the package code (exhaustive enumeration instead of dynamic
programming, compositions of elementary nodes instead of fused ones) so that
agreement is evidence, not tautology.  Old loop versions of vectorised
package code are kept here verbatim as bit-exact references, next to a few small helpers
(slot serialisation, detokenisation, the first-subword pooling matrix, one
SNR mix per call, the numpy CRF partition function and path score) that only
the tests use.  The fused nodes are gated against their unfused
compositions of elementary ``Tensor`` ops, kept here: the three layer nodes
(``autodiff.encoder_layer``, ``decoder_layer`` and ``nlu_layer``) as
``encoder_layer_unfused``, ``decoder_layer_unfused`` and
``nlu_layer_unfused`` (gathers, ``matmul``, ``attention_unfused``, concat,
``linear_unfused``, ``tanh``), the two head nodes ``autodiff.word_rows`` and
``intent_head`` as ``word_rows_unfused`` (two gathers and their concat) and
``intent_head_unfused`` (the sentinel concat, ``mean`` and
``linear_unfused``), ``autodiff.linear`` as ``linear_unfused`` (``matmul``
and a broadcasting ``add``), ``autodiff.nll`` as ``nll_unfused``
(``nll_rows_unfused``, then a sum or a mean) and ``crf.crf_nll_t`` as
``crf_nll_t_unfused``.  The package multiplies with ``ndarray.dot`` and
reduces with ``np.add.reduce`` and ``np.maximum.reduce``; the compositions
keep ``@`` and ``.sum``, so that a bit-for-bit gate is also a gate of the
one spelling against the other.  ``attention`` and ``embed`` are the one-node
attention and embedding that the layer nodes replaced, built on the
array-level ``autodiff._attend`` and ``autodiff._embed`` that both attention
layers share, so that their tests gate those two against
``attention_unfused`` and two gathers and their ``+``.  The elementary ops
only the compositions and the tests use are here too, as free functions
built on ``Tensor._op``: ``matmul`` (``Tensor.__matmul__`` as it was, an
operand that is not a ``Tensor`` a ``TypeError``), ``tanh``
(``Tensor.tanh`` as it was), ``gather_rows`` (``Tensor.gather_rows`` as it
was, by index list or by ``slice``), ``concat`` (``autodiff.concat`` as it
was), ``mean`` (``Tensor.mean`` as it was: one node, the sum times the
constant ``1 / count``), the broadcasting ``add``, ``sub`` and ``mul``
(an operand that is not a ``Tensor`` is a constant, and ``_unbroadcast``
sums each gradient back to its operand's shape), ``reduce_sum``
(``Tensor.sum`` as it was), ``exp``, ``logsumexp``, ``reshape``,
``transpose`` and ``softmax_rows``.
``nll_rows`` is the per-row NLL node that ``autodiff.nll`` reduces, its
bit-exact reference when followed by ``reduce_sum`` or ``mean``.
``backward_dfs`` is the engine's old
two-pass backward (DFS topological sort, then the list in reverse), the
reference that the one-pass, newest-first ``Tensor.backward`` matches bit for
bit on a graph's first backward pass.  ``mean_unfused`` is ``mean`` as a sum node and a
product node, and ``sgd_step_per_param`` the optimizer step as a loop over
parameters, each the bit-exact reference for the one node or flat-buffer pass
that replaced it.  ``log_power_features_reference`` (fancy-index framing, one
mean per ``np.array_split`` band) and ``beam_search_reference`` (``np.roll``
and numpy bookkeeping on each step's picks) are the same for the strided,
grouped-mean features and the index-permuted beam step.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from slu.audio import AudioClip, FeatureConfig, MixResult, _mixer
from slu.autodiff import Tensor, _attend, _embed, _rows, _scatter_rows
from slu.crf import _check
from slu.errors import DimensionError, NumericError, ValidationError
from slu.subword import SubwordVocab, TokenizationResult, merge_tokens


def crf_enumerate(emissions: np.ndarray, transitions, start, end):
    """(logZ, best path, all path scores) by explicit enumeration."""
    n, k = emissions.shape
    scores = {}
    for path in itertools.product(range(k), repeat=n):
        s = start[path[0]] + emissions[0, path[0]] + end[path[-1]]
        for t in range(1, n):
            s += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        scores[path] = float(s)
    m = max(scores.values())
    log_z = m + math.log(sum(math.exp(s - m) for s in scores.values()))
    best_score = max(scores.values())
    best = min(
        (p for p, s in scores.items() if s == best_score),
        key=lambda p: tuple(reversed(p)),
    )
    return log_z, list(best), scores


class CrfScores(NamedTuple):
    """A CRF's scores in ``crf_viterbi`` / ``crf_nll_t`` argument order: ``crf_viterbi(em, *crf)``."""

    transitions: np.ndarray  # (num_tags, num_tags), [from, to]
    start: np.ndarray  # (num_tags,)
    end: np.ndarray  # (num_tags,)


def crf_zeros(num_tags: int) -> CrfScores:
    return CrfScores(np.zeros((num_tags, num_tags)), np.zeros(num_tags), np.zeros(num_tags))


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(x - m).sum(axis=axis))


def crf_log_z(emissions: np.ndarray, crf: CrfScores) -> float:
    """Log of the sum over all tag paths of exp(path score)."""
    emissions = _check(emissions, crf.transitions)
    alpha = crf.start + emissions[0]
    for row in emissions[1:]:
        alpha = _logsumexp(alpha[:, None] + crf.transitions, axis=0) + row
    return float(_logsumexp(alpha + crf.end, axis=0))


def crf_path_score(emissions: np.ndarray, tags, crf: CrfScores) -> float:
    emissions = _check(emissions, crf.transitions)
    tags = list(tags)
    if len(tags) != emissions.shape[0]:
        raise DimensionError("tag path length does not match emissions")
    score = crf.start[tags[0]] + emissions[0, tags[0]] + crf.end[tags[-1]]
    for t in range(1, len(tags)):
        score += crf.transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    return float(score)


def backward_dfs(loss: Tensor) -> None:
    """``Tensor.backward`` as it was before the creation-stamp heap: a DFS builds a
    topological list, and a second loop runs it in reverse, summing each gradient
    back to its parent's shape before adding it to the parent's ``.grad``.  Inner
    nodes keep theirs: the gradient ``Tensor.backward`` hands each node to run with."""
    if loss.data.size != 1:
        raise NumericError("backward() expects a scalar loss")
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            for parent, grad in zip(node._parents, node._backward(node.grad), strict=True):
                if grad is not None and parent.requires_grad:
                    grad = _unbroadcast(np.asarray(grad, dtype=np.float64), parent.data.shape)
                    parent.grad = grad if parent.grad is None else parent.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``grad`` summed back to ``shape`` over the axes that broadcasting added or stretched."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def add(a, b) -> Tensor:
    """Broadcasting ``a + b``; an operand that is not a ``Tensor`` is a constant."""
    a, b = _tensor(a), _tensor(b)
    return Tensor._op(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    """Broadcasting ``a - b`` as one node; an operand that is not a ``Tensor`` is a constant."""
    a, b = _tensor(a), _tensor(b)
    return Tensor._op(a.data - b.data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    """Broadcasting ``a * b``; an operand that is not a ``Tensor`` is a constant."""
    a, b = _tensor(a), _tensor(b)
    return Tensor._op(
        a.data * b.data, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))
    )


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return Tensor._op(out_data, (x,), lambda g: (g * out_data,))


def logsumexp(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp along ``axis``; its backward is ``g * softmax``."""
    m = x.data.max(axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = m + np.log(total)
    softmax = shifted / total
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (g * softmax,)

    return Tensor._op(out_data, (x,), backward)


def reshape(x: Tensor, *shape) -> Tensor:
    original = x.data.shape
    return Tensor._op(x.data.reshape(*shape), (x,), lambda g: (g.reshape(original),))


def transpose(x: Tensor) -> Tensor:
    return Tensor._op(x.data.T, (x,), lambda g: (g.T,))


def softmax_rows(x: Tensor) -> Tensor:
    return exp(sub(x, logsumexp(x, axis=1, keepdims=True)))


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """``x.sum(axis, keepdims)`` as one node: ``Tensor.sum`` as it was while the
    model's losses summed rows, with the backward ``mean`` has, a filled,
    writable array of ``x``'s shape."""
    shape = x.data.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.full(shape, g),)

    return Tensor._op(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The mean as one node, ``Tensor.mean`` as it was: the sum times the constant
    ``1 / count``, with no node for the constant.  Its backward fills a new, writable
    array of ``x``'s shape with the scaled gradient, the values of its broadcast."""
    scale = 1.0 / (x.data.size if axis is None else x.data.shape[axis])
    shape = x.data.shape

    def backward(g):
        g = g * scale
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.full(shape, g),)

    return Tensor._op(x.data.sum(axis=axis, keepdims=keepdims) * scale, (x,), backward)


def mean_unfused(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """``mean`` as it was before it became one node: a sum node, then a
    product node with the constant ``1 / count``."""
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D ``a @ b`` as one node, ``Tensor.__matmul__`` as it was: an operand
    that is not a ``Tensor`` is a ``TypeError``."""
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        raise TypeError(f"matmul takes two Tensors, not {type(a).__name__} and {type(b).__name__}")
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise NumericError("matmul requires 2-D operands")
    return Tensor._op(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def linear_unfused(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``autodiff.linear`` as a ``matmul`` node and a broadcasting ``add`` of the bias."""
    return add(matmul(x, w), b)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Rows of ``x`` by int indices (repeats add up in the backward) or by a ``slice``,
    ``Tensor.gather_rows`` as it was."""
    rows, shape = _rows(indices), x.data.shape
    return Tensor._op(x.data[rows], (x,), lambda g: (_scatter_rows(shape, rows, g),))


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """``np.concatenate`` of ``tensors`` along ``axis`` as one node, ``autodiff.concat`` as it was."""
    parents = tuple(tensors)

    def backward(g):  # one slice of g per input: what np.split returns, at a fraction of its cost
        offsets = list(itertools.accumulate((t.data.shape[axis] for t in parents), initial=0))
        lead = (slice(None),) * axis
        return [g[lead + (slice(lo, hi),)] for lo, hi in zip(offsets, offsets[1:])]

    return Tensor._op(np.concatenate([t.data for t in parents], axis=axis), parents, backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise tanh, ``Tensor.tanh`` as it was; its backward is ``g * (1 - tanh²)``."""
    out_data = np.tanh(x.data)
    return Tensor._op(out_data, (x,), lambda g: (g * (1.0 - out_data**2),))


def embed(table: Tensor, ids, pos: Tensor, positions) -> Tensor:
    """``table[ids] + pos[positions]`` as one node on ``autodiff._embed``, the
    embedding both attention layers share: ``autodiff.embed`` as it was."""
    out, backward = _embed(table.data, ids, pos.data, positions)
    return Tensor._op(out, (table, pos), backward)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """``softmax(q kᵀ / sqrt(d)) v`` as one node on ``autodiff._attend``, the
    attention both attention layers share: ``autodiff.attention`` as it was."""
    out, backward = _attend(q.data, k.data, v.data)
    return Tensor._op(out, (q, k, v), backward)


def attention_unfused(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """``attention`` as the chain matmul, transpose, scale, softmax rows, matmul."""
    return matmul(softmax_rows(mul(matmul(q, transpose(k)), 1.0 / math.sqrt(k.shape[1]))), v)


def encoder_layer_unfused(frames: np.ndarray, w: Tensor, b: Tensor, pos: Tensor) -> Tensor:
    """``autodiff.encoder_layer`` as ``linear_unfused`` over the constant frames, a position gather, ``+``
    and tanh."""
    return tanh(linear_unfused(Tensor(frames), w, b) + gather_rows(pos, slice(frames.shape[0])))


def decoder_layer_unfused(table, ids, pos, positions, w_q, enc, w, b) -> Tensor:
    """``autodiff.decoder_layer`` as two gathers and their ``+``, the query
    matmul, ``attention_unfused`` over ``enc`` as keys and values, concat,
    ``linear_unfused`` and tanh."""
    emb = gather_rows(table, ids) + gather_rows(pos, positions)
    ctx = attention_unfused(matmul(emb, w_q), enc, enc)
    return tanh(linear_unfused(concat([emb, ctx], axis=1), w, b))


def nlu_layer_unfused(table, ids, pos, w_q, w_k, w_v, w, b) -> Tensor:
    """``autodiff.nlu_layer`` as two gathers and their ``+``, three matmuls,
    ``attention_unfused``, the residual ``+``, ``linear_unfused`` and tanh."""
    emb = gather_rows(table, ids) + gather_rows(pos, slice(len(ids)))
    # v, k, then q: newest first, emb's gradients add up as the residual's, q's, k's, v's, the fused node's order
    v, k = matmul(emb, w_v), matmul(emb, w_k)
    ctx = attention_unfused(matmul(emb, w_q), k, v)
    return tanh(linear_unfused(emb + ctx, w, b))


def word_rows_unfused(h_a: Tensor, first_a, h_b: Tensor, first_b) -> Tensor:
    """``autodiff.word_rows`` as two ``gather_rows`` nodes and their ``concat``."""
    return concat([gather_rows(h_a, first_a), gather_rows(h_b, first_b)], axis=1)


def intent_head_unfused(sentinel: Tensor, rows: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``autodiff.intent_head`` as the sentinel ``concat``, a ``mean`` over its rows and ``linear_unfused``."""
    return linear_unfused(mean(concat([sentinel, rows], axis=0), axis=0, keepdims=True), w, b)


def nll_rows(logits: Tensor, targets, smoothing: float = 0.0) -> Tensor:
    """Per-row negative log-likelihood of one target class per (N, K) logits row,
    as one node: ``autodiff.nll`` before it reduced the rows, the reference that
    ``nll`` matches bit for bit when this is followed by ``reduce_sum`` (or, with
    ``mean``, by ``mean``).  The gradient of row i is
    ``g[i] * (softmax - (1 - s) * onehot - s / K)``."""
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
        return (g * grad,)

    return Tensor._op(out_data, (logits,), backward)


def nll_rows_unfused(logits: Tensor, targets, smoothing: float = 0.0) -> Tensor:
    """``nll_rows`` as a composition of logsumexp, reshape, gather and sub nodes."""
    n, k = logits.shape
    if n != len(targets):
        raise DimensionError(f"{n} logit rows vs {len(targets)} targets")
    lse = logsumexp(logits, axis=1)
    picked = gather_rows(reshape(logits, n * k), [i * k + t for i, t in enumerate(targets)])
    if smoothing == 0.0:
        return sub(lse, picked)
    return sub(lse, add(mul(picked, 1.0 - smoothing), mul(mean_unfused(logits, axis=1), smoothing)))


def nll_unfused(logits: Tensor, targets, smoothing: float = 0.0, mean: bool = False) -> Tensor:
    """``autodiff.nll`` as ``nll_rows_unfused`` followed by a sum node or, with
    ``mean``, by the sum and product nodes of ``mean_unfused``."""
    per_row = nll_rows_unfused(logits, targets, smoothing)
    return mean_unfused(per_row) if mean else reduce_sum(per_row)


def crf_log_z_t(emissions: Tensor, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Differentiable partition function: one reshape/add/logsumexp/gather/add chain per position."""
    n, k = emissions.shape
    alpha = reshape(start, 1, k) + gather_rows(emissions, [0])
    for t in range(1, n):
        step = add(reshape(alpha, k, 1), transitions)
        alpha = logsumexp(step, axis=0, keepdims=True) + gather_rows(emissions, [t])
    return reduce_sum(logsumexp(alpha + reshape(end, 1, k), axis=1))


def crf_path_score_t(emissions: Tensor, tags, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    tags = list(tags)
    n, k = emissions.shape
    emitted = reduce_sum(gather_rows(reshape(emissions, n * k), [t * k + tag for t, tag in enumerate(tags)]))
    score = emitted + reduce_sum(gather_rows(start, [tags[0]])) + reduce_sum(gather_rows(end, [tags[-1]]))
    if n > 1:
        flat = reshape(transitions, k * k)
        moves = reduce_sum(gather_rows(flat, [tags[t - 1] * k + tags[t] for t in range(1, n)]))
        score = score + moves
    return score


def crf_nll_t_unfused(emissions: Tensor, tags, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """``crf.crf_nll_t`` as the difference of the two compositions above."""
    return sub(
        crf_log_z_t(emissions, transitions, start, end), crf_path_score_t(emissions, tags, transitions, start, end)
    )


def sgd_step_per_param(params: dict[str, Tensor], velocity: dict[str, np.ndarray], lr: float, momentum: float) -> None:
    """``slu.train._Sgd.step`` as it was before the flat buffers: one pass per
    parameter with a gradient, which checks it, updates that parameter's
    ``velocity`` entry in place and rebinds its ``data`` to a new array.  A
    non-finite gradient raises there, after the parameters before it moved."""
    for name, tensor in params.items():
        if tensor.grad is None:
            continue
        if not np.isfinite(tensor.grad).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        v = velocity[name]
        v *= momentum
        v -= lr * tensor.grad
        tensor.data = tensor.data + v


def step_logprobs(model, enc, prev_id: int, step: int) -> np.ndarray:
    """Log-probabilities over the ASR output vocabulary for one decoder step, one row."""
    _, logits = model.decoder_states([prev_id], [step], enc)
    row = logits.data[0]
    return row - np.log(np.exp(row - row.max()).sum()) - row.max()


def finite_difference(f, arrays: dict[str, np.ndarray], h: float = 1e-4) -> dict[str, np.ndarray]:
    """Central-difference gradient of scalar f() w.r.t. each array, in place."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = f()
            flat[idx] = orig - h
            down = f()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def subsample_features_loop(features: np.ndarray, stride: int) -> np.ndarray:
    """Strided mean-pooling, one ``mean`` per group (reference for ``subsample_features``)."""
    features = np.asarray(features, dtype=np.float64)
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if stride == 1:
        return features.copy()
    t = features.shape[0]
    groups = -(-t // stride)
    return np.stack(
        [features[g * stride : min((g + 1) * stride, t)].mean(axis=0) for g in range(groups)]
    )


def serialize_slots(words, slots) -> list[str]:
    """Interleave words and slot tags into one sequence [w1, s1, w2, s2, ...]."""
    words, slots = list(words), list(slots)
    if len(words) != len(slots):
        raise ValidationError(f"cannot serialize: {len(words)} words vs {len(slots)} slots")
    out: list[str] = []
    for w, s in zip(words, slots):
        out += [w, s]
    return out


def deserialize_slots(seq) -> tuple[list[str], list[str]]:
    seq = list(seq)
    if len(seq) % 2:
        raise ValidationError(f"serialized sequence has odd length {len(seq)}")
    return seq[0::2], seq[1::2]


def build_first_index_matrix(result: TokenizationResult) -> np.ndarray:
    """Binary (tokens x words) matrix with a 1 at each word's first subword."""
    m = np.zeros((result.num_tokens, result.num_words))
    m[result.first_index, np.arange(result.num_words)] = 1.0
    return m


def detokenize(result: TokenizationResult, vocab: SubwordVocab) -> list[str]:
    """Inverse of tokenize for fully covered words (unknowns merge to the unk string)."""
    return merge_tokens(result.tokens, vocab)[0]


def mix_at_snr_report(clean: AudioClip, noise: AudioClip, snr_db: float) -> MixResult:
    """One mix of ``clean`` and ``noise`` at ``snr_db``, as ``augment_corpus`` makes it."""
    return _mixer(clean)(noise, snr_db)


def mix_at_snr(clean: AudioClip, noise: AudioClip, snr_db: float) -> AudioClip:
    return mix_at_snr_report(clean, noise, snr_db).audio


def measured_snr_db(clean: np.ndarray, scaled_noise: np.ndarray) -> float:
    def level(x):
        return math.sqrt(float(np.mean(np.square(x))))

    return 20.0 * math.log10(level(clean) / level(scaled_noise))


def log_power_features_reference(clip: AudioClip, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """``log_power_features`` as a fancy-index framing and one ``mean`` per
    ``np.array_split`` band: the bit-exact reference for the strided frame view
    and the grouped band means."""
    x = clip.samples
    if x.size < config.frame_length:
        x = np.pad(x, (0, config.frame_length - x.size))
    count = 1 + (x.size - config.frame_length) // config.hop
    idx = np.arange(config.frame_length)[None, :] + config.hop * np.arange(count)[:, None]
    frames = x[idx] * np.hanning(config.frame_length)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    bands = np.array_split(power, config.num_bands, axis=1)
    feats = np.log(np.stack([b.mean(axis=1) for b in bands], axis=1) + 1e-10)
    return (feats - feats.mean()) / (feats.std() + 1e-8)


def beam_search_reference(model, enc: Tensor, beam_size: int, max_len: int = 40) -> tuple[list[int], float]:
    """``decode.beam_search_transcript`` with its step as numpy bookkeeping (``np.roll``,
    ``np.divmod`` and boolean masks over the picks): the bit-exact reference for the
    permuted-column, Python-index step."""
    max_len = min(max_len, model.config.max_positions - 1)
    live: list[tuple[int, ...]] = [()]
    live_logp = np.zeros(1)
    done: list[tuple[float, tuple[int, ...]]] = []

    def logprobs(step: int) -> np.ndarray:
        prev = [tokens[-1] if tokens else model.bos_id for tokens in live]
        _, logits = model.decoder_states(prev, [step] * len(live), enc)
        z = logits.data
        top = z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z - top).sum(axis=1, keepdims=True)) - top

    for step in range(max_len):
        scores = live_logp[:, None] + np.roll(logprobs(step), 1, axis=1)  # column 0 is EOS
        flat = np.sort(np.argsort(-scores.ravel(), kind="stable")[:beam_size])
        rows, cols = np.divmod(flat, scores.shape[1])
        done += [(-float(scores[r, 0]), live[r]) for r in rows[cols == 0]]
        rows, cols = rows[cols > 0], cols[cols > 0]
        live = [live[r] + (int(c) - 1,) for r, c in zip(rows, cols)]
        live_logp = scores[rows, cols]
        if not live or (done and -min(done)[0] > live_logp.max()):
            break
    else:
        closed = live_logp + logprobs(max_len)[:, model.eos_id]
        done += [(-float(logp), tokens) for tokens, logp in zip(live, closed)]
    neg_logp, tokens = min(done)
    return list(tokens), -neg_logp

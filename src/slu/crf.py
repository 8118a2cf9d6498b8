"""Linear-chain CRF: Viterbi decoding and the sequence log-likelihood.

Path score = start[y_0] + sum_t emissions[t, y_t] + sum_t transitions[y_{t-1}, y_t]
           + end[y_{N-1}].

Viterbi is plain numpy, for decoding.  ``crf_nll_t`` is one autodiff node
for training: its forward is the alpha recursion for the exact partition
function minus the path score, and its backward is the forward-backward
marginals (Lafferty et al. 2001).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError


def _check(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise DimensionError(f"emissions must be (positions x tags), got {emissions.shape}")
    if transitions.shape != (emissions.shape[1], emissions.shape[1]):
        raise DimensionError("transition matrix does not match emission tag count")
    return emissions


def crf_viterbi(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray, end: np.ndarray) -> list[int]:
    """Highest-scoring tag path; ties resolve to the lowest tag index."""
    emissions = _check(emissions, transitions)
    n, k = emissions.shape
    delta = start + emissions[0]
    back = np.zeros((n, k), dtype=np.intp)
    for t in range(1, n):
        scores = delta[:, None] + transitions  # [from, to]
        back[t] = scores.argmax(axis=0)  # argmax takes the first (lowest) index
        delta = scores.max(axis=0) + emissions[t]
    last = int(np.argmax(delta + end))
    path = [last]
    for t in range(n - 1, 0, -1):
        last = int(back[t, last])
        path.append(last)
    path.reverse()
    return path


def crf_nll_t(emissions: Tensor, tags, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Negative sequence log-likelihood, logZ - path score, as one node.

    The forward is the alpha recursion for logZ.  Each of its steps keeps the
    share every previous tag has in each next tag's alpha, and the backward
    runs the beta recursion through those shares in normalised form: it
    carries the unary marginals from the last position to the first, and a
    share times the next position's marginals is the pairwise marginal of
    that step.  Each score's gradient is its expected count under the model
    (its marginal) minus its count on the ``tags`` path, and the backward
    returns the four gradients in argument order (emissions, transitions,
    start, end), as the op contract of ``slu.autodiff`` asks.  With one
    position no transition is used, so the transitions' gradient is ``None``.
    """
    em = _check(emissions.data, transitions.data)
    trans, first, last = transitions.data, start.data, end.data
    n, k = em.shape
    tags = list(tags)
    if len(tags) != n:
        raise DimensionError(f"{n} emission rows vs {len(tags)} tags")
    steps = []  # per position t >= 1: exp-shifted [from, to] scores and their column sums
    alpha = first + em[0]
    for t in range(1, n):
        step = alpha[:, None] + trans
        m = step.max(axis=0, keepdims=True)
        shifted = np.exp(step - m)
        total = shifted.sum(axis=0, keepdims=True)
        steps.append((shifted, total))
        alpha = (m + np.log(total))[0] + em[t]
    final = alpha + last
    m = final.max()
    final_shifted = np.exp(final - m)
    final_total = final_shifted.sum()
    log_z = m + np.log(final_total)
    rows = np.arange(n)
    score = em.reshape(n * k)[rows * k + tags].sum() + first[tags[0]] + last[tags[-1]]
    if n > 1:
        score = score + trans.reshape(k * k)[[tags[t - 1] * k + tags[t] for t in range(1, n)]].sum()

    def backward(g):
        marginal = final_shifted / final_total  # of each tag at the last position
        d_end = marginal.copy()
        d_em = np.empty((n, k))
        d_trans = np.zeros((k, k))
        for t in range(n - 1, 0, -1):
            d_em[t] = marginal
            step_shifted, step_total = steps[t - 1]
            pairwise = step_shifted / step_total * marginal  # [from, to] at positions t-1, t
            d_trans += pairwise
            marginal = pairwise.sum(axis=1)
        d_em[0] = marginal
        d_start = marginal.copy()
        d_em[rows, tags] -= 1.0
        d_start[tags[0]] -= 1.0
        d_end[tags[-1]] -= 1.0
        for a, b in zip(tags, tags[1:]):
            d_trans[a, b] -= 1.0
        return g * d_em, g * d_trans if n > 1 else None, g * d_start, g * d_end

    return Tensor._op(log_z - score, (emissions, transitions, start, end), backward)

"""Linear-chain CRF: Viterbi decoding and the sequence log-likelihood.

Path score = start[y_0] + sum_t emissions[t, y_t] + sum_t transitions[y_{t-1}, y_t]
           + end[y_{N-1}].

Viterbi is plain numpy, for decoding; the Tensor functions build the
training graph for the exact partition function and path score.
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


def crf_log_z_t(emissions: Tensor, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Differentiable partition function for (N, K) emission scores."""
    n, k = emissions.shape
    alpha = start.reshape(1, k) + emissions.gather_rows([0])
    for t in range(1, n):
        step = alpha.reshape(k, 1) + transitions
        alpha = step.logsumexp(axis=0, keepdims=True) + emissions.gather_rows([t])
    return (alpha + end.reshape(1, k)).logsumexp(axis=1).sum()


def crf_path_score_t(emissions: Tensor, tags, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    tags = list(tags)
    n, k = emissions.shape
    emitted = emissions.reshape(n * k).gather_rows(
        [t * k + tag for t, tag in enumerate(tags)]
    ).sum()
    score = emitted + start.gather_rows([tags[0]]).sum() + end.gather_rows([tags[-1]]).sum()
    if n > 1:
        flat = transitions.reshape(k * k)
        moves = flat.gather_rows([tags[t - 1] * k + tags[t] for t in range(1, n)]).sum()
        score = score + moves
    return score


def crf_nll_t(emissions: Tensor, tags, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Negative sequence log-likelihood: logZ - path score."""
    return crf_log_z_t(emissions, transitions, start, end) - crf_path_score_t(
        emissions, tags, transitions, start, end
    )

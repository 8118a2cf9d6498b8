import itertools
import math

import numpy as np
import pytest

import oracles
from oracles import CrfScores, crf_log_z, crf_path_score, crf_zeros
from slu.autodiff import Tensor
from slu.crf import crf_log_z_t, crf_nll_t, crf_path_score_t, crf_viterbi
from slu.errors import DimensionError


def random_instance(rng, n, k, integer=False):
    if integer:
        draw = lambda size: rng.integers(-3, 4, size=size).astype(float)
    else:
        draw = lambda size: rng.normal(size=size)
    return draw((n, k)), CrfScores(draw((k, k)), draw(k), draw(k))


def test_uniform_scores_log_z():
    for n, k in [(1, 2), (3, 4), (5, 4)]:
        assert crf_log_z(np.zeros((n, k)), crf_zeros(k)) == pytest.approx(
            n * math.log(k), abs=1e-12
        )


def test_log_z_and_viterbi_match_enumeration():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for k in range(1, 6):
            em, crf = random_instance(rng, n, k)
            log_z, best, scores = oracles.crf_enumerate(em, crf.transitions, crf.start, crf.end)
            assert crf_log_z(em, crf) == pytest.approx(log_z, abs=1e-10)
            assert crf_viterbi(em, *crf) == best
            # normalized path probabilities sum to one
            z = crf_log_z(em, crf)
            total = sum(math.exp(s - z) for s in scores.values())
            assert total == pytest.approx(1.0, abs=1e-10)


def test_viterbi_tie_break_lowest_index():
    # all-zero scores tie every path; the lowest-index path must win
    assert crf_viterbi(np.zeros((4, 3)), *crf_zeros(3)) == [0, 0, 0, 0]
    # integer-valued scores exercise exact ties beyond the trivial case
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        em, crf = random_instance(rng, n, k, integer=True)
        _, best, _ = oracles.crf_enumerate(em, crf.transitions, crf.start, crf.end)
        assert crf_viterbi(em, *crf) == best


def test_single_position_viterbi_is_argmax():
    em = np.array([[0.3, 2.0, -1.0]])
    crf = crf_zeros(3)
    assert crf_viterbi(em, *crf) == [1]


def test_path_score_matches_enumerated_score():
    rng = np.random.default_rng(3)
    em, crf = random_instance(rng, 4, 3)
    _, _, scores = oracles.crf_enumerate(em, crf.transitions, crf.start, crf.end)
    for path in itertools.product(range(3), repeat=4):
        assert crf_path_score(em, path, crf) == pytest.approx(scores[path], abs=1e-12)


def test_tensor_variants_agree_with_numpy():
    rng = np.random.default_rng(5)
    em, crf = random_instance(rng, 5, 4)
    em_t = Tensor(em)
    trans, start, end = Tensor(crf.transitions), Tensor(crf.start), Tensor(crf.end)
    assert crf_log_z_t(em_t, trans, start, end).item() == pytest.approx(crf_log_z(em, crf), abs=1e-12)
    tags = [0, 3, 1, 1, 2]
    assert crf_path_score_t(em_t, tags, trans, start, end).item() == pytest.approx(
        crf_path_score(em, tags, crf), abs=1e-12
    )


def test_crf_nll_gradients():
    rng = np.random.default_rng(9)
    em, crf = random_instance(rng, 4, 3)
    tags = [2, 0, 1, 0]
    arrays = {
        "em": em.copy(),
        "trans": crf.transitions.copy(),
        "start": crf.start.copy(),
        "end": crf.end.copy(),
    }
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = crf_nll_t(tensors["em"], tags, tensors["trans"], tensors["start"], tensors["end"])
    loss.backward()
    fd = oracles.finite_difference(
        lambda: crf_nll_t(
            Tensor(tensors["em"].data), tags,
            Tensor(tensors["trans"].data), Tensor(tensors["start"].data), Tensor(tensors["end"].data),
        ).item(),
        {k: t.data for k, t in tensors.items()},
        h=1e-5,
    )
    for name, t in tensors.items():
        assert np.allclose(t.grad, fd[name], rtol=1e-6, atol=1e-6), name


def test_perfect_fit_nll_approaches_zero():
    # dominant emissions on one path make that path carry all the mass
    em = np.full((3, 2), -40.0)
    tags = [1, 0, 1]
    for t, tag in enumerate(tags):
        em[t, tag] = 40.0
    nll = crf_nll_t(Tensor(em), tags, Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
    assert nll.item() == pytest.approx(0.0, abs=1e-12)


def test_shape_validation():
    with pytest.raises(DimensionError):
        crf_log_z(np.zeros((0, 3)), crf_zeros(3))
    with pytest.raises(DimensionError):
        crf_log_z(np.zeros((2, 3)), crf_zeros(4))
    with pytest.raises(DimensionError):
        crf_path_score(np.zeros((2, 3)), [0], crf_zeros(3))

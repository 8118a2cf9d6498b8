import itertools
import math

import numpy as np
import pytest

import oracles
from conftest import assert_fused_matches, check_gradients, joint_loss, tiny_example, tiny_model
from oracles import CrfScores, crf_log_z, crf_log_z_t, crf_path_score, crf_path_score_t, crf_zeros
from slu.autodiff import Tensor
from slu.crf import crf_nll_t, crf_viterbi
from slu.errors import DimensionError
from slu.train import _Sgd


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
    assert crf_nll_t(em_t, tags, trans, start, end).item() == pytest.approx(
        crf_log_z(em, crf) - crf_path_score(em, tags, crf), abs=1e-12
    )


def crf_arrays(em, crf):
    """Named copies of the scores, in ``crf_nll_t`` argument order (emissions first)."""
    arrays = {"em": em, "trans": crf.transitions, "start": crf.start, "end": crf.end}
    return {name: np.array(v) for name, v in arrays.items()}


def crf_tensors(em, crf):
    return {name: Tensor(v, requires_grad=True) for name, v in crf_arrays(em, crf).items()}


def crf_nll_of(tags):
    return lambda t: crf_nll_t(t["em"], tags, t["trans"], t["start"], t["end"])


def test_crf_nll_gradients():
    rng = np.random.default_rng(9)
    em, crf = random_instance(rng, 4, 3)
    check_gradients(crf_nll_of([2, 0, 1, 0]), crf_arrays(em, crf))
    for n, k in [(2, 1), (3, 5), (6, 4)]:
        em, crf = random_instance(rng, n, k)
        check_gradients(crf_nll_of([int(t) for t in rng.integers(0, k, size=n)]), crf_arrays(em, crf))


def test_crf_nll_matches_unfused_composition():
    rng = np.random.default_rng(14)
    for n in range(1, 8):
        for k in range(1, 12):
            em, crf = random_instance(rng, n, k)
            em = 3.0 * em  # peaked enough that some marginals near 1 cancel their indicator
            tags = [int(t) for t in rng.integers(0, k, size=n)]
            upstream = float(rng.normal())
            fused, unfused = crf_tensors(em, crf), crf_tensors(em, crf)
            out = crf_nll_t(fused["em"], tags, fused["trans"], fused["start"], fused["end"])
            ref = oracles.crf_nll_t_unfused(unfused["em"], tags, unfused["trans"], unfused["start"], unfused["end"])
            assert out._parents == tuple(fused.values())  # one node
            assert_fused_matches(out.data, ref.data)
            (out * upstream).backward()
            (ref * upstream).backward()
            for name in fused:
                assert_fused_matches(fused[name].grad, unfused[name].grad, scale=abs(upstream))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_one_position_gives_transitions_no_gradient(k):
    rng = np.random.default_rng(15 + k)
    em, crf = random_instance(rng, 1, k)
    tensors = check_gradients(crf_nll_of([k - 1]), crf_arrays(em, crf))
    assert tensors["trans"].grad is None


def test_one_word_step_leaves_transitions_and_their_velocity_unchanged():
    model = tiny_model(seed=3, slot_head="crf")
    several = tiny_example(model, ["show", "flights", "to", "boston"], ["O", "O", "O", "B-toloc"], "find_flight")
    one = tiny_example(model, ["boston"], ["B-toloc"], "find_flight", seed=1)
    opt = _Sgd(model.params, lr=0.05, momentum=0.9)
    model.zero_grads()
    joint_loss(model, several)[0].backward()
    opt.step()  # the transitions now carry velocity
    trans, velocity = model.params["sl.trans"].data.copy(), opt.velocity["sl.trans"].copy()
    assert np.abs(velocity).max() > 0
    model.zero_grads()
    joint_loss(model, one)[0].backward()
    assert model.params["sl.trans"].grad is None
    assert model.params["sl.start"].grad is not None
    opt.step()
    assert np.array_equal(model.params["sl.trans"].data, trans)
    assert np.array_equal(opt.velocity["sl.trans"], velocity)


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

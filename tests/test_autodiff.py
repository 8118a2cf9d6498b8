import numpy as np
import pytest

from conftest import assert_fused_matches, check_gradients
from oracles import nll_rows_unfused
from slu.autodiff import Tensor, concat, linear, nll_rows, softmax_rows, wrap
from slu.errors import DimensionError, NumericError


def test_add_mul_matmul_grads():
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2)), "c": rng.normal(size=(1, 2))}
    check_gradients(lambda t: ((t["a"] @ t["b"] + t["c"]) * 0.5).sum(), arrays)


def test_linear_grads_with_bias_broadcast_over_rows():
    rng = np.random.default_rng(7)
    arrays = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2)), "b": rng.normal(size=2)}
    weights = rng.normal(size=(3, 2))
    check_gradients(lambda t: (linear(t["x"], t["w"], t["b"]) * weights).sum(), arrays)


def test_linear_is_bit_identical_to_matmul_plus_bias():
    rng = np.random.default_rng(8)
    arrays = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
    weights = rng.normal(size=(5, 3))
    fused = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    split = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out_fused = linear(fused["x"], fused["w"], fused["b"])
    out_split = split["x"] @ split["w"] + split["b"]
    assert np.array_equal(out_fused.data, out_split.data)
    (out_fused * weights).sum().backward()
    (out_split * weights).sum().backward()
    for name in arrays:
        assert np.array_equal(fused[name].grad, split[name].grad), name


def test_sub_grads():
    rng = np.random.default_rng(9)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))}
    weights = rng.normal(size=(3, 4))
    check_gradients(lambda t: ((t["a"] - t["b"]) * weights).sum(), arrays)
    check_gradients(lambda t: ((t["a"] - 1.5) * weights).sum(), arrays)
    check_gradients(lambda t: ((2.0 - t["a"]) * weights).sum(), arrays)


def test_sub_is_one_node_equal_to_adding_the_negation():
    a = Tensor(np.array([[0.1, -2.5, 3.0]]), requires_grad=True)
    b = Tensor(np.array([0.3, 1e-17, -3.0]), requires_grad=True)
    diff = a - b
    assert diff._parents == (a, b)
    assert np.array_equal(diff.data, a.data + (-b.data))
    assert (1.0 - a)._parents[1] is a


def test_first_gradient_is_not_shared_between_parents():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = Tensor(np.ones((2, 3)), requires_grad=True)
    z = x + y  # both parents get the same gradient array
    (z + 3.0 * x).sum().backward()
    assert np.array_equal(y.grad, np.ones((2, 3)))
    assert np.array_equal(x.grad, np.full((2, 3), 4.0))


@pytest.mark.parametrize("sum_first", [True, False])
def test_read_only_first_gradient_can_accumulate(sum_first):
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    plain, scaled = x.sum(), (2.0 * x).sum()  # sum passes a read-only broadcast view
    (plain + scaled if sum_first else scaled + plain).backward()
    assert np.array_equal(x.grad, np.full((2, 3), 3.0))


def test_tanh_exp_log_grads():
    rng = np.random.default_rng(1)
    arrays = {"x": rng.uniform(0.5, 2.0, size=(4, 3))}
    check_gradients(lambda t: (t["x"].tanh() + t["x"].exp()).sum(), arrays)


def test_logsumexp_and_softmax_grads():
    rng = np.random.default_rng(2)
    arrays = {"x": rng.normal(size=(5, 4))}
    check_gradients(lambda t: t["x"].logsumexp(axis=1).sum(), arrays)
    check_gradients(lambda t: (softmax_rows(t["x"]) * np.arange(4.0)).sum(), arrays)


def test_mean_axis_and_reshape_grads():
    rng = np.random.default_rng(3)
    arrays = {"x": rng.normal(size=(4, 6))}
    check_gradients(lambda t: t["x"].mean(axis=0, keepdims=True).sum(), arrays)
    check_gradients(lambda t: t["x"].reshape(24).gather_rows([0, 5, 5, 23]).sum(), arrays)


def test_concat_and_transpose_grads():
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 5))}
    check_gradients(lambda t: (concat([t["a"], t["b"]], axis=1) @ np.ones((7, 1))).sum(), arrays)
    check_gradients(lambda t: (t["a"].T @ np.ones((3, 1))).sum(), arrays)


def test_gather_rows_accumulates_repeats():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = x.gather_rows([1, 1, 0]).sum()
    out.backward()
    assert np.array_equal(x.grad, [[1, 1], [2, 2], [0, 0]])


def test_broadcast_bias_grad():
    b = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    (x + b).sum().backward()
    assert np.array_equal(b.grad, [4, 4, 4])


def test_nll_rows_values():
    logits = Tensor(np.zeros((1, 5)), requires_grad=True)
    loss = nll_rows(logits, [2]).sum()
    assert loss.item() == pytest.approx(np.log(5))
    # a large margin on the right class drives the loss to zero
    sharp = Tensor(np.full((1, 5), -50.0))
    sharp.data[0, 2] = 50.0
    assert nll_rows(sharp, [2]).sum().item() == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionError):
        nll_rows(logits, [2, 0])


def test_nll_rows_smoothing_grad():
    rng = np.random.default_rng(5)
    arrays = {"x": rng.normal(size=(1, 6))}
    check_gradients(lambda t: nll_rows(t["x"], [3], smoothing=0.1).sum(), arrays)


def test_nll_rows_multi_row_smoothing_grad():
    rng = np.random.default_rng(6)
    arrays = {"x": rng.normal(size=(3, 6))}
    weights = np.array([0.5, -1.0, 2.0])  # distinct per-row weights catch row mix-ups
    check_gradients(lambda t: (nll_rows(t["x"], [3, 0, 5], smoothing=0.1) * weights).sum(), arrays)


def test_nll_rows_matches_unfused_composition():
    rng = np.random.default_rng(12)
    for n in range(1, 8):
        for k in range(1, 12):
            x = rng.normal(scale=3.0, size=(n, k))
            targets = [int(t) for t in rng.integers(0, k, size=n)]
            weights = rng.normal(size=n)  # distinct per-row upstream gradients
            for smoothing in (0.0, 0.1):
                fused, unfused = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
                out = nll_rows(fused, targets, smoothing)
                ref = nll_rows_unfused(unfused, targets, smoothing)
                assert out._parents == (fused,)  # one node
                assert_fused_matches(out.data, ref.data)
                (out * weights).sum().backward()
                (ref * weights).sum().backward()
                assert_fused_matches(fused.grad, unfused.grad, scale=np.abs(weights).max())


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_nll_rows_grads_across_shapes(smoothing):
    rng = np.random.default_rng(13)
    for n, k in [(1, 1), (1, 4), (4, 1), (5, 7)]:
        arrays = {"x": rng.normal(size=(n, k))}
        targets = [int(t) for t in rng.integers(0, k, size=n)]
        weights = rng.normal(size=n)
        check_gradients(lambda t: (nll_rows(t["x"], targets, smoothing) * weights).sum(), arrays)


def test_detach_blocks_gradient():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = (x.detach() * 3.0).sum() + (x * 2.0).sum()
    y.backward()
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))


def test_backward_requires_scalar_and_finite():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(NumericError):
        (x * 2.0).backward()
    bad = Tensor(np.array(np.inf), requires_grad=True)
    with pytest.raises(NumericError):
        (bad * 1.0).backward()


def test_grad_accumulates_across_paths():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.sum().backward()
    assert x.grad[0, 0] == pytest.approx(7.0)


def test_no_graph_without_requires_grad():
    x = wrap(np.ones((2, 2)))
    y = (x @ x).tanh()
    assert y._parents == () and y._backward is None

import collections

import numpy as np
import pytest

from conftest import assert_fused_matches, check_gradients, joint_loss, tiny_example, tiny_features, tiny_model
from model_oracles import (
    add,
    attention,
    attention_unfused,
    backward_dfs,
    embed,
    exp,
    logsumexp,
    matmul,
    mean_unfused,
    mul,
    nll_rows,
    nll_rows_unfused,
    nll_unfused,
    reduce_sum,
    reshape,
    softmax_rows,
    sub,
    tanh,
    transpose,
)
from slu.autodiff import Tensor, concat, linear, nll, no_grad
from slu.errors import DimensionError, NumericError


def test_add_mul_matmul_grads():
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2)), "c": rng.normal(size=(1, 2))}
    check_gradients(lambda t: reduce_sum(mul(add(matmul(t["a"], t["b"]), t["c"]), 0.5)), arrays)


def test_linear_grads_with_bias_broadcast_over_rows():
    rng = np.random.default_rng(7)
    arrays = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2)), "b": rng.normal(size=2)}
    weights = rng.normal(size=(3, 2))
    check_gradients(lambda t: reduce_sum(mul(linear(t["x"], t["w"], t["b"]), weights)), arrays)


def test_linear_is_bit_identical_to_matmul_plus_bias():
    rng = np.random.default_rng(8)
    arrays = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
    weights = rng.normal(size=(5, 3))
    fused = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    split = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out_fused = linear(fused["x"], fused["w"], fused["b"])
    out_split = add(matmul(split["x"], split["w"]), split["b"])
    assert np.array_equal(out_fused.data, out_split.data)
    reduce_sum(mul(out_fused, weights)).backward()
    reduce_sum(mul(out_split, weights)).backward()
    for name in arrays:
        assert np.array_equal(fused[name].grad, split[name].grad), name


def test_sub_grads():
    rng = np.random.default_rng(9)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))}
    weights = rng.normal(size=(3, 4))
    check_gradients(lambda t: reduce_sum(mul(sub(t["a"], t["b"]), weights)), arrays)
    check_gradients(lambda t: reduce_sum(mul(sub(t["a"], 1.5), weights)), arrays)
    check_gradients(lambda t: reduce_sum(mul(sub(2.0, t["a"]), weights)), arrays)


def test_sub_is_one_node_equal_to_adding_the_negation():
    a = Tensor(np.array([[0.1, -2.5, 3.0]]), requires_grad=True)
    b = Tensor(np.array([0.3, 1e-17, -3.0]), requires_grad=True)
    diff = sub(a, b)
    assert diff._parents == (a, b)
    assert np.array_equal(diff.data, a.data + (-b.data))
    assert sub(1.0, a)._parents[1] is a


def test_first_gradient_is_not_shared_between_parents():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = Tensor(np.ones((2, 3)), requires_grad=True)
    z = x + y  # both parents get the same gradient array
    reduce_sum(z + mul(x, 3.0)).backward()
    assert np.array_equal(y.grad, np.ones((2, 3)))
    assert np.array_equal(x.grad, np.full((2, 3), 4.0))


def _broadcast_sum(x: Tensor) -> Tensor:
    """A sum node whose backward passes a read-only broadcast view."""
    return Tensor._op(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, x.data.shape),))


@pytest.mark.parametrize("sum_first", [True, False])
def test_read_only_first_gradient_can_accumulate(sum_first):
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    plain, scaled = _broadcast_sum(x), _broadcast_sum(mul(x, 2.0))
    (plain + scaled if sum_first else scaled + plain).backward()
    assert np.array_equal(x.grad, np.full((2, 3), 3.0))


@pytest.mark.parametrize("grads", [lambda g: (g,), lambda g: (g, g, g)], ids=["too-few", "too-many"])
def test_backward_with_the_wrong_number_of_gradients_raises(grads):
    a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    out = Tensor._op(a.data + b.data, (a, b), grads)
    with pytest.raises(ValueError, match="zip"):
        reduce_sum(out).backward()


@pytest.mark.parametrize(
    "op, error",
    [
        (lambda t: t + Tensor(np.ones(3)), DimensionError),
        (lambda t: t + 1.0, TypeError),
        (lambda t: 1.0 + t, TypeError),
        (lambda t: t + np.ones((2, 3)), TypeError),
        (lambda t: t * 2.0, TypeError),
        (lambda t: 2.0 - t, TypeError),
        (lambda t: matmul(t, np.ones((3, 1))), TypeError),
    ],
    ids=["other-shape", "float", "float-left", "ndarray", "mul", "sub", "matmul-ndarray"],
)
def test_tensor_operands_are_tensors_and_a_sum_is_same_shape(op, error):
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(error):
        op(t)


# matmul, tanh, add, sub, mul, exp, logsumexp, reshape, transpose and softmax_rows are the oracles'
# elementary ops: the fused nodes are gated against compositions of them, so they are checked here


def test_tanh_exp_log_grads():
    rng = np.random.default_rng(1)
    arrays = {"x": rng.uniform(0.5, 2.0, size=(4, 3))}
    check_gradients(lambda t: reduce_sum(tanh(t["x"]) + exp(t["x"])), arrays)


def test_logsumexp_and_softmax_grads():
    rng = np.random.default_rng(2)
    arrays = {"x": rng.normal(size=(5, 4))}
    check_gradients(lambda t: reduce_sum(logsumexp(t["x"], axis=1)), arrays)
    check_gradients(lambda t: reduce_sum(mul(softmax_rows(t["x"]), np.arange(4.0))), arrays)


def test_mean_axis_and_reshape_grads():
    rng = np.random.default_rng(3)
    arrays = {"x": rng.normal(size=(4, 6))}
    check_gradients(lambda t: reduce_sum(t["x"].mean(axis=0, keepdims=True)), arrays)
    check_gradients(lambda t: reduce_sum(reshape(t["x"], 24).gather_rows([0, 5, 5, 23])), arrays)


def test_concat_and_transpose_grads():
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 5))}
    check_gradients(lambda t: reduce_sum(matmul(concat([t["a"], t["b"]], axis=1), Tensor(np.ones((7, 1))))), arrays)
    check_gradients(lambda t: reduce_sum(matmul(transpose(t["a"]), Tensor(np.ones((3, 1))))), arrays)


def _attention_pair(q, k, v, shared: bool, weights):
    """Output and (q, k, v) gradients of ``attention`` and of its unfused composition
    under the upstream gradient ``weights``; with ``shared`` the keys are the values."""
    results = []
    for op in (attention, attention_unfused):
        tq, tk = Tensor(q, requires_grad=True), Tensor(k, requires_grad=True)
        tv = tk if shared else Tensor(v, requires_grad=True)
        out = op(tq, tk, tv)
        reduce_sum(mul(out, weights)).backward()
        results.append((out, tq.grad, tk.grad, None if shared else tv.grad))
    return results


@pytest.mark.parametrize("shared", [False, True], ids=["k-v", "k-is-v"])
def test_attention_is_bit_identical_to_its_unfused_composition(shared):
    rng = np.random.default_rng(14)
    for n in range(1, 8):
        for m in range(1, 8):
            for d, e in [(1, 1), (3, 5), (5, 5), (16, 16)]:
                e = d if shared else e
                q, k, v = rng.normal(size=(n, d)), rng.normal(scale=2.0, size=(m, d)), rng.normal(size=(m, e))
                (out, *grads), (ref, *ref_grads) = _attention_pair(q, k, v, shared, rng.normal(size=(n, e)))
                assert len(out._parents) == 3  # one node
                assert np.array_equal(out.data, ref.data), (n, m, d, e)
                for got, want, name in zip(grads, ref_grads, "qkv"):
                    assert (got is None and want is None) or np.array_equal(got, want), (n, m, d, e, name)


@pytest.mark.parametrize("shared", [False, True], ids=["k-v", "k-is-v"])
def test_attention_grads(shared):
    rng = np.random.default_rng(15)
    arrays = {"q": rng.normal(size=(3, 4)), "k": rng.normal(size=(5, 4)), "v": rng.normal(size=(5, 4))}
    weights = rng.normal(size=(3, 4))
    if shared:
        del arrays["v"]
    check_gradients(lambda t: reduce_sum(mul(attention(t["q"], t["k"], t["k" if shared else "v"]), weights)), arrays)


def test_attention_scales_by_the_keys_width():
    q, k = np.ones((1, 4)), np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])  # scores 1 and 0 before scaling
    v = np.array([[1.0], [0.0]])
    expected = np.exp(0.5) / (np.exp(0.5) + 1.0)  # 1 / sqrt(4) = 0.5
    assert attention(Tensor(q), Tensor(k), Tensor(v)).data[0, 0] == pytest.approx(expected, rel=1e-15)


def test_gather_rows_accumulates_repeats():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = reduce_sum(x.gather_rows([1, 1, 0]))
    out.backward()
    assert np.array_equal(x.grad, [[1, 1], [2, 2], [0, 0]])


def test_gather_rows_slice_is_bit_identical_to_its_index_list():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        x = rng.normal(size=(6, 3))
        weights = rng.normal(size=(n, 3))
        weights[0, 1] = -0.0  # np.add.at onto zeros gives +0.0 here, and so must the slice
        grads = []
        for indices in (slice(n), list(range(n))):
            t = Tensor(x, requires_grad=True)
            out = t.gather_rows(indices)
            assert out._parents == (t,) and out.data.tobytes() == x[:n].tobytes()
            reduce_sum(mul(out, weights)).backward()  # out's gradient is weights, -0.0 included
            grads.append(t.grad)
        assert grads[0].tobytes() == grads[1].tobytes(), n
        assert not np.signbit(grads[0][0, 1])


def test_gather_rows_slice_grads():
    rng = np.random.default_rng(18)
    arrays = {"x": rng.normal(size=(5, 3))}
    weights = rng.normal(size=(5, 3))
    for n in (1, 3, 5):
        check_gradients(lambda t: reduce_sum(mul(t["x"].gather_rows(slice(n)), weights[:n])), arrays)


def _signed_zero_weights(rng, n, width=3):
    """An upstream gradient with a -0.0 entry in each row: a row added onto zeros
    once must come out +0.0 there, as ``np.add.at`` gives."""
    weights = rng.normal(size=(n, width))
    weights[:, 1] = -0.0
    return weights


@pytest.mark.parametrize(
    "indices",
    [[3], [0, 1, 2, 3, 4, 5], [5, 0, 3], [4, 1], np.array([2, 5, 0]), [1, 1, 0], [0, 2, 0, 2], [-1, 5], [-2, -6]],
    ids=["one", "all", "unsorted", "pair", "ndarray", "repeat", "two-repeats", "negative-alias", "negative"],
)
def test_gather_rows_backward_equals_np_add_at_onto_zeros(indices):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(6, 3))
    weights = _signed_zero_weights(rng, len(indices))
    t = Tensor(x, requires_grad=True)
    out = t.gather_rows(indices)
    assert out.data.tobytes() == x[np.asarray(indices)].tobytes()
    reduce_sum(mul(out, weights)).backward()
    want = np.zeros_like(x)
    np.add.at(want, np.asarray(indices), weights)
    assert t.grad.tobytes() == want.tobytes()  # zero signs included
    assert np.array_equal(np.signbit(t.grad), np.signbit(want))


def _embed_pair(table, ids, pos, positions, weights):
    """Output and (table, pos) gradients of ``embed`` and of two ``gather_rows``
    nodes and their ``+``, under the upstream gradient ``weights``."""
    results = []
    for fused in (True, False):
        tt, tp = Tensor(table, requires_grad=True), Tensor(pos, requires_grad=True)
        out = embed(tt, ids, tp, positions) if fused else tt.gather_rows(ids) + tp.gather_rows(positions)
        reduce_sum(mul(out, weights)).backward()
        results.append((out, tt.grad, tp.grad))
    return results


EMBED_CASES = [
    ([3, 0, 5], slice(3)),  # distinct ids, training's slice of positions
    ([2, 2, 1, 2], slice(4)),  # repeated ids
    ([4], slice(1)),
    ([1, 3, 3, 0, 1], [2] * 5),  # the beam search: one position for every live prefix
    ([5, 2], [3, 0]),  # distinct position lists
]


@pytest.mark.parametrize("ids, positions", EMBED_CASES, ids=["slice", "repeat-ids", "one", "beam-step", "lists"])
def test_embed_is_bit_identical_to_two_gathers_and_their_sum(ids, positions):
    rng = np.random.default_rng(22)
    table, pos = rng.normal(size=(6, 3)), rng.normal(size=(8, 3))
    (out, *grads), (ref, *ref_grads) = _embed_pair(table, ids, pos, positions, _signed_zero_weights(rng, len(ids)))
    assert len(out._parents) == 2  # one node
    assert out.data.tobytes() == ref.data.tobytes()
    for got, want in zip(grads, ref_grads):
        assert got.tobytes() == want.tobytes()  # zero signs included
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("ids, positions", EMBED_CASES, ids=["slice", "repeat-ids", "one", "beam-step", "lists"])
def test_embed_grads(ids, positions):
    rng = np.random.default_rng(23)
    arrays = {"table": rng.normal(size=(6, 3)), "pos": rng.normal(size=(8, 3))}
    weights = rng.normal(size=(len(ids), 3))
    check_gradients(lambda t: reduce_sum(mul(embed(t["table"], ids, t["pos"], positions), weights)), arrays)


def test_embed_rejects_row_counts_that_differ():
    table, pos = Tensor(np.ones((4, 2))), Tensor(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        embed(table, [0, 1], pos, slice(3))
    with pytest.raises(DimensionError):
        embed(table, [0], pos, [0, 1])  # one row would broadcast


MEAN_CASES = [(axis, keepdims) for axis in (None, 0, 1) for keepdims in (False, True)]


@pytest.mark.parametrize("axis, keepdims", MEAN_CASES)
def test_mean_is_one_node_bit_identical_to_sum_then_scale(axis, keepdims):
    rng = np.random.default_rng(19)
    for shape in [(1, 1), (3, 1), (1, 4), (5, 7)]:
        x = rng.normal(size=shape)
        weights = rng.normal(size=np.asarray(x).sum(axis=axis, keepdims=keepdims).shape)
        results = []
        for op in (Tensor.mean, mean_unfused):
            t = Tensor(x, requires_grad=True)
            out = op(t, axis=axis, keepdims=keepdims)
            reduce_sum(mul(out, weights)).backward()
            results.append((t, out, t.grad))
        (t, out, grad), (_, ref, ref_grad) = results
        assert out._parents == (t,)  # one node, straight onto x
        assert out.data.shape == ref.data.shape and out.data.tobytes() == ref.data.tobytes(), shape
        assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes(), shape


@pytest.mark.parametrize("axis, keepdims", MEAN_CASES)
def test_mean_grads(axis, keepdims):
    rng = np.random.default_rng(20)
    arrays = {"x": rng.normal(size=(4, 6))}
    weights = rng.normal(size=arrays["x"].sum(axis=axis, keepdims=keepdims).shape)
    check_gradients(lambda t: reduce_sum(mul(t["x"].mean(axis=axis, keepdims=keepdims), weights)), arrays)


@pytest.mark.parametrize("axis, keepdims", MEAN_CASES)
@pytest.mark.parametrize("op", ["sum", "mean"])
def test_sum_and_mean_backwards_are_writable_arrays_equal_to_the_broadcast(op, axis, keepdims):
    rng = np.random.default_rng(24)
    x = rng.normal(size=(4, 6))
    count = x.size if axis is None else x.shape[axis]
    t = Tensor(x, requires_grad=True)
    out = reduce_sum(t, axis=axis, keepdims=keepdims) if op == "sum" else t.mean(axis=axis, keepdims=keepdims)
    g = np.asarray(rng.normal(size=out.data.shape))
    (grad,) = out._backward(g)
    scaled = g if op == "sum" else g * (1.0 / count)
    want = np.broadcast_to(scaled if axis is None or keepdims else np.expand_dims(scaled, axis), x.shape)
    assert grad.flags.writeable and grad.shape == x.shape
    assert grad.tobytes() == np.ascontiguousarray(want).tobytes()


def test_broadcast_bias_grad():
    b = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    reduce_sum(add(x, b)).backward()
    assert np.array_equal(b.grad, [4, 4, 4])


def test_nll_rows_values():
    logits = Tensor(np.zeros((1, 5)), requires_grad=True)
    loss = reduce_sum(nll_rows(logits, [2]))
    assert loss.item() == pytest.approx(np.log(5))
    # a large margin on the right class drives the loss to zero
    sharp = Tensor(np.full((1, 5), -50.0))
    sharp.data[0, 2] = 50.0
    assert reduce_sum(nll_rows(sharp, [2])).item() == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionError):
        nll_rows(logits, [2, 0])


def test_nll_rows_smoothing_grad():
    rng = np.random.default_rng(5)
    arrays = {"x": rng.normal(size=(1, 6))}
    check_gradients(lambda t: reduce_sum(nll_rows(t["x"], [3], smoothing=0.1)), arrays)


def test_nll_rows_multi_row_smoothing_grad():
    rng = np.random.default_rng(6)
    arrays = {"x": rng.normal(size=(3, 6))}
    weights = np.array([0.5, -1.0, 2.0])  # distinct per-row weights catch row mix-ups
    check_gradients(lambda t: reduce_sum(mul(nll_rows(t["x"], [3, 0, 5], smoothing=0.1), weights)), arrays)


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
                reduce_sum(mul(out, weights)).backward()
                reduce_sum(mul(ref, weights)).backward()
                assert_fused_matches(fused.grad, unfused.grad, scale=np.abs(weights).max())


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_nll_rows_grads_across_shapes(smoothing):
    rng = np.random.default_rng(13)
    for n, k in [(1, 1), (1, 4), (4, 1), (5, 7)]:
        arrays = {"x": rng.normal(size=(n, k))}
        targets = [int(t) for t in rng.integers(0, k, size=n)]
        weights = rng.normal(size=n)
        check_gradients(lambda t: reduce_sum(mul(nll_rows(t["x"], targets, smoothing), weights)), arrays)


NLL_SHAPES = [(1, 1), (1, 6), (3, 1), (5, 7)]


@pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_nll_is_one_node_bit_identical_to_the_per_row_node_and_its_reduction(smoothing, mean):
    rng = np.random.default_rng(25)
    for n, k in NLL_SHAPES * 4:
        x = rng.normal(scale=3.0, size=(n, k))
        targets = [int(t) for t in rng.integers(0, k, size=n)]
        upstream = rng.normal()
        results = []
        for fused in (True, False):
            t = Tensor(x, requires_grad=True)
            if fused:
                out = nll(t, targets, smoothing, mean=mean)
            else:
                rows = nll_rows(t, targets, smoothing)
                out = rows.mean() if mean else reduce_sum(rows)
            mul(out, upstream).backward()
            results.append((t, out, t.grad))
        (t, out, grad), (_, ref, ref_grad) = results
        assert out._parents == (t,) and out.data.shape == ()  # one node, straight onto the logits
        assert out.data.tobytes() == ref.data.tobytes(), (n, k)
        assert grad.tobytes() == ref_grad.tobytes(), (n, k)


@pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
def test_nll_matches_unfused_composition(mean):
    rng = np.random.default_rng(26)
    for n in range(1, 6):
        for k in range(1, 8):
            x = rng.normal(scale=3.0, size=(n, k))
            targets = [int(t) for t in rng.integers(0, k, size=n)]
            for smoothing in (0.0, 0.1):
                fused, unfused = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
                out = nll(fused, targets, smoothing, mean=mean)
                ref = nll_unfused(unfused, targets, smoothing, mean=mean)
                assert_fused_matches(out.data, ref.data)
                out.backward()
                ref.backward()
                assert_fused_matches(fused.grad, unfused.grad, scale=1.0)


@pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_nll_grads(smoothing, mean):
    rng = np.random.default_rng(27)
    for n, k in NLL_SHAPES:
        arrays = {"x": rng.normal(size=(n, k))}
        targets = [int(t) for t in rng.integers(0, k, size=n)]
        check_gradients(lambda t: nll(t["x"], targets, smoothing, mean=mean), arrays)


def test_nll_checks_one_target_per_row():
    logits = Tensor(np.zeros((2, 5)), requires_grad=True)
    assert nll(logits, [2, 0]).item() == pytest.approx(2 * np.log(5))
    assert nll(logits, [2, 0], mean=True).item() == pytest.approx(np.log(5))
    for targets in ([2], [2, 0, 1]):
        with pytest.raises(DimensionError):
            nll(logits, targets)


def test_detach_blocks_gradient():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = reduce_sum(mul(x.detach(), 3.0)) + reduce_sum(mul(x, 2.0))
    y.backward()
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))


def test_backward_requires_scalar_and_finite():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(NumericError):
        mul(x, 2.0).backward()
    bad = Tensor(np.array(np.inf), requires_grad=True)
    with pytest.raises(NumericError):
        mul(bad, 1.0).backward()


def test_grad_accumulates_across_paths():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    y = mul(x, x) + mul(x, 3.0)  # dy/dx = 2x + 3 = 7
    reduce_sum(y).backward()
    assert x.grad[0, 0] == pytest.approx(7.0)


def test_no_graph_without_requires_grad():
    x = Tensor(np.ones((2, 2)))
    y = tanh(matmul(x, x))
    assert y._parents == () and y._backward is None


# -- the one-pass, newest-first backward against the two-pass DFS reference ----


def _inner_nodes(loss):
    """Every node an op made in ``loss``'s graph that requires a gradient, in an order
    fixed by the graph's structure, so that two builds of one graph list them alike."""
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(p for p in node._parents if p.requires_grad)
    return nodes


def _assert_backward_matches_dfs(build, second_pass_bitwise=True):
    """``build()`` gives (loss, tensors).  After one ``Tensor.backward`` the leaves
    among ``tensors`` hold the gradients of ``model_oracles.backward_dfs``, and each inner
    node ran once, with the gradient the DFS leaves on it, bit for bit.  A second
    pass runs each inner node with that gradient again and doubles the leaves'; a
    leaf with several contributions adds them onto its first-pass sum one at a
    time, so without ``second_pass_bitwise`` (float graphs) the doubling is
    compared to 1e-12.  After each pass every inner ``.grad`` is ``None``.
    Returns the leaves' gradients after each pass and every inner node's of the
    first pass."""
    loss, tensors = build()
    leaves = [t for t in tensors if t._backward is None]
    inner = _inner_nodes(loss)
    received = [[] for _ in inner]
    for node, log in zip(inner, received):

        def recording(g, run=node._backward, log=log):
            log.append(g)
            return run(g)

        node._backward = recording
    passes = []
    for n in range(2):
        loss.backward()
        passes.append([t.grad for t in leaves])
        assert all(node.grad is None for node in inner)
        assert all(len(log) == n + 1 for log in received)
    ref_loss, ref_tensors = build()
    backward_dfs(ref_loss)
    want = [t.grad for t in ref_tensors if t._backward is None]
    want_inner = [node.grad for node in _inner_nodes(ref_loss)]
    assert len(want_inner) == len(inner)
    first, second = passes
    for g, w in zip(first, want, strict=True):
        assert (g is None and w is None) or (g.shape == w.shape and np.array_equal(g, w))
    for (g, again), w in zip(received, want_inner):
        assert g.shape == w.shape and np.array_equal(g, w) and np.array_equal(again, g)
    for g, w in zip(second, first):
        if g is None or second_pass_bitwise:
            assert (g is None and w is None) or np.array_equal(g, 2.0 * w)
        else:
            assert_fused_matches(g, 2.0 * w)
    return first, second, [log[0] for log in received]


@pytest.mark.parametrize(
    "chain, once",
    [
        (lambda p: mul(mul(mul(mul(p, 2.0), 1.0), 1.0), 1.0), lambda x: np.full_like(x, 2.0)),
        (lambda p: mul(tanh(mul(p, 2.0)), 1.0), lambda x: 2.0 * (1.0 - np.tanh(2.0 * x) ** 2)),
    ],
    ids=["scale-chain", "tanh-chain"],
)
def test_a_second_backward_adds_exactly_one_more_pass(chain, once):
    x = np.array([0.5, 1.0])

    def build():
        p = Tensor(x, requires_grad=True)
        return reduce_sum(chain(p)), [p]

    (first,), (second,), _ = _assert_backward_matches_dfs(build)
    np.testing.assert_allclose(first, once(x), rtol=1e-15)
    np.testing.assert_allclose(second, 2.0 * once(x), rtol=1e-15)


def test_a_second_loss_on_shared_inner_nodes_adds_only_its_own_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    s = mul(x, 2.0)
    reduce_sum(s).backward()
    assert np.array_equal(x.grad, np.full(3, 2.0)) and s.grad is None
    reduce_sum(mul(s, 3.0)).backward()  # 2 from the first loss, 6 from this one
    assert np.array_equal(x.grad, np.full(3, 8.0)) and s.grad is None


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
@pytest.mark.parametrize("graph", ["joint-e2e", "joint-two_stage", "speech"])
@pytest.mark.parametrize(
    "words, slots",
    [
        (["show", "flights", "to", "new", "york"], ["O", "O", "O", "B-toloc", "I-toloc"]),
        (["boston"], ["B-toloc"]),  # one position: the CRF transitions get no gradient
    ],
    ids=["five-words", "one-word"],
)
def test_backward_matches_the_dfs_reference_on_model_graphs(slot_head, graph, words, slots):
    model = tiny_model(seed=11, slot_head=slot_head)
    example = tiny_example(model, words, slots, "find_flight", seed=3)

    def build():
        model.zero_grads()
        if graph == "speech":
            loss = model.loss_asr(model.teacher_forced(example)[1], example.asr_targets)
        else:
            loss = joint_loss(model, example, stop_asr_grad=graph == "joint-two_stage")[0]
        return loss, list(model.params.values())

    first, _, _ = _assert_backward_matches_dfs(build, second_pass_bitwise=False)
    assert first[0] is not None  # asr.enc_w: every graph reaches the encoder


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_a_train_step_records_the_nodes_of_its_fused_ops(slot_head):
    # speech step: the encoder layer, the decoder layer, the output linear and nll; the joint step
    # adds the NLU layer, the word gathers and concat, the slot linear, the intent concat, mean and
    # linear, the slot and intent losses and two + nodes
    model = tiny_model(seed=11, slot_head=slot_head)
    example = tiny_example(model, ["show", "flights", "to", "boston"], ["O", "O", "O", "B-toloc"], "find_flight")
    speech = model.loss_asr(model.teacher_forced(example)[1], example.asr_targets)
    assert len(_inner_nodes(speech)) == 4
    assert len(_inner_nodes(joint_loss(model, example)[0])) == 16


def test_a_beam_step_constructs_two_tensors(monkeypatch):
    # one decoder_states call under no_grad(): the decoder layer's rows and the output linear's logits
    model = tiny_model(seed=11)
    with no_grad():
        enc = model.encode_features(tiny_features(4))
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    with no_grad():
        hidden, logits = model.decoder_states([model.bos_id, 3, 3], [2] * 3, enc)
    assert built == [hidden, logits]


def _exact_random_graph(seed: int, n: int = 4):
    """A random graph of broadcasting ``add``, ``sub`` and ``mul``, matmul, linear, concat, gather,
    sum and mean nodes over small integers, so that every float operation in it
    and in its backward is exact and the order of a sum of gradients cannot
    matter.  Returns the loss and every tensor that requires a gradient."""
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.integers(-2, 3, size=shape).astype(np.float64), requires_grad=True)

    squares = [leaf(n, n), leaf(n, n)]
    small = [leaf(1, n), leaf(n, 1), leaf(n), leaf()]  # operands that broadcast against a square
    wide = leaf(2 * n, n)
    const = Tensor(rng.integers(-2, 3, size=(n, n)).astype(np.float64))
    leaves = squares + small + [wide]

    def pick(pool):
        return pool[rng.integers(len(pool))]

    def bounded(*ts):  # products of these stay small, and so do their gradients
        return all(np.abs(t.data).max() <= 16 for t in ts)

    for _ in range(16):
        a, b, kind = pick(squares), pick(squares + small + [const]), rng.integers(7)
        if kind == 2 and bounded(a, b):
            out = mul(a, b) if rng.integers(2) else mul(b, a)
        elif kind == 3 and bounded(a, b := pick(squares + [const])):
            out = matmul(a, b)
        elif kind == 4 and bounded(a, b := pick(squares)):
            out = linear(a, b, pick([t for t in small if t.data.shape == (n,)]))
        elif kind == 5:
            out = concat([a, pick(squares)], axis=0).gather_rows(rng.integers(0, 2 * n, size=n))
        elif kind == 6 and bounded(a, wide):
            out = matmul(concat([a, pick(squares)], axis=1), wide)
        else:
            out = add(a, b) if kind % 2 else sub(b, a)
        squares.append(out)
        axis, keepdims = pick([None, 0, 1]), bool(rng.integers(2))
        small.append(a.mean(axis=axis, keepdims=keepdims) if rng.integers(2) else reduce_sum(a, axis=axis, keepdims=keepdims))
    loss = reduce_sum(squares[-1])
    for t in squares[:-1] + small:
        loss = loss + reduce_sum(t)
    return loss, leaves + [t for t in squares + small if t not in leaves]


def test_backward_matches_the_dfs_reference_on_random_graphs():
    for seed in range(40):
        loss, tensors = _exact_random_graph(seed)
        consumers = collections.Counter(parent for t in tensors + [loss] for parent in set(t._parents))
        assert max(consumers.values()) >= 3, seed
        first, second, inner = _assert_backward_matches_dfs(lambda: _exact_random_graph(seed))
        for g in [g for g in first + second + inner if g is not None]:
            assert np.abs(g).max() < 2.0**20 and np.array_equal(g * 2.0**30, np.round(g * 2.0**30)), seed


def test_backward_matches_the_dfs_reference_when_keys_are_values():
    rng = np.random.default_rng(16)
    for m, d in [(1, 1), (3, 4), (6, 5)]:
        arrays = [rng.normal(size=(m, d)), rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=(m, d))]

        def build():
            x_in, w_in, w_q, weights = (Tensor(a, requires_grad=True) for a in arrays)
            x = tanh(matmul(x_in, w_in))  # three gradients reach x: the query's, the keys' and the values'
            loss = reduce_sum(mul(attention(matmul(x, w_q), x, x), weights))
            return loss, [x_in, w_in, w_q, weights, x]

        _assert_backward_matches_dfs(build)


def _every_op(a: Tensor, b: Tensor, bias: Tensor) -> list[Tensor]:
    """One output of each public op but the layer nodes (``test_model`` checks those), on (3, 3)
    ``a`` and ``b`` and a (3,) ``bias``."""
    return [
        a + b, a.mean(), a.mean(axis=0), a.gather_rows([0, 2, 0]), linear(a, b, bias), concat([a, b], axis=0),
        nll(a, [0, 1, 2], 0.1),
    ]


def test_no_grad_ops_record_no_parents_and_give_the_same_values():
    rng = np.random.default_rng(12)
    a, b, bias = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((3, 3), (3, 3), (3,)))
    recorded = _every_op(a, b, bias)
    with no_grad():
        unrecorded = _every_op(a, b, bias)
    assert all(out._parents and out.requires_grad for out in recorded)
    for i, (want, out) in enumerate(zip(recorded, unrecorded)):
        assert not out._parents and out._backward is None and not out.requires_grad, i
        assert out.data.tobytes() == want.data.tobytes(), i
    assert (a + b)._parents == (a, b)  # recording is back once the block has ended


def test_no_grad_blocks_nest():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        with no_grad():
            assert not (x + x).requires_grad
        assert not (x + x).requires_grad  # leaving the inner block keeps the outer one's state
    assert (x + x).requires_grad

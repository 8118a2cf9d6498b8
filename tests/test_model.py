import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model_oracles as oracles
import slu.model
from conftest import check_gradients, identity_slot_head, joint_loss, tiny_example, tiny_features, tiny_model
from model_oracles import deserialize_slots, mul, reduce_sum, serialize_slots
from slu.autodiff import Tensor, decoder_layer, encoder_layer, intent_head, nlu_layer, no_grad, word_rows
from slu.errors import DimensionError, ValidationError
from slu.model import (
    Checkpoint,
    JointModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    subsample_features,
)
from slu.subword import tokenize

WORDS = ["show", "flights", "to", "new", "york"]
SLOTS = ["O", "O", "O", "B-toloc", "I-toloc"]
INTENT = "find_flight"


def test_forward_shapes():
    model = tiny_model()
    example = tiny_example(model, WORDS)
    out = model.forward(example)
    fa, fb = model.config.asr_hidden, model.config.nlu_hidden
    assert identity_slot_head(model).forward(example).slot_scores.shape == (5, fa + fb)
    assert out.slot_scores.shape == (5, len(model.slot_tags))
    assert out.intent_logits.shape == (1, len(model.intents))
    assert out.asr_logits.shape[0] == len(tokenize(WORDS, model.asr_vocab)[0]) + 1  # one extra row predicts EOS
    assert example.asr_targets[-1] == model.eos_id


def test_forward_zeroed_nlu_gives_zero_block():
    model = tiny_model()
    for name, t in model.params.items():
        if name.startswith("nlu."):
            t.data = np.zeros_like(t.data)
    example = tiny_example(model, WORDS)
    out = model.forward(example)
    fa = model.config.asr_hidden
    hcat = identity_slot_head(model).forward(example).slot_scores
    assert np.array_equal(hcat.data[:, fa:], np.zeros((5, model.config.nlu_hidden)))
    # transcript logits do not depend on the text branch
    fresh = tiny_model()
    expected = fresh.forward(tiny_example(fresh, WORDS)).asr_logits.data
    assert np.array_equal(out.asr_logits.data, expected)


def test_forward_deterministic():
    example = tiny_example(tiny_model(), WORDS)  # examples do not depend on parameters
    a = identity_slot_head(tiny_model(3)).forward(example)
    b = identity_slot_head(tiny_model(3)).forward(example)
    assert np.array_equal(a.slot_scores.data, b.slot_scores.data)  # the concatenation
    assert np.array_equal(a.intent_logits.data, b.intent_logits.data)


def test_forward_hcat_matches_projection_contract():
    model = tiny_model()
    example = tiny_example(model, WORDS)
    hcat = identity_slot_head(model).forward(example).slot_scores.data
    ha, hb = model.teacher_forced(example)[0].data[:-1], model.nlu_states(example.nlu_ids).data
    fa = model.config.asr_hidden
    assert np.array_equal(hcat[:, :fa], ha[tokenize(WORDS, model.asr_vocab)[1]])
    assert np.array_equal(hcat[:, fa:], hb[tokenize(WORDS, model.nlu_vocab)[1]])


def test_loss_asr_uniform_logits():
    model = tiny_model()
    model.config.label_smoothing = 0.0
    k = model.asr_output_size
    logits = Tensor(np.zeros((3, k)))
    assert model.loss_asr(logits, [0, 1, 2]).item() == pytest.approx(math.log(k))


def test_loss_asr_perfect_margin_goes_to_zero():
    model = tiny_model()
    model.config.label_smoothing = 0.0
    k = model.asr_output_size
    targets = [1, 4, 2]
    data = np.full((3, k), -40.0)
    for i, t in enumerate(targets):
        data[i, t] = 40.0
    assert model.loss_asr(Tensor(data), targets).item() == pytest.approx(0.0, abs=1e-12)


def test_loss_asr_matches_scalar_recomputation():
    model = tiny_model()
    rng = np.random.default_rng(0)
    k = model.asr_output_size
    logits = rng.normal(size=(4, k))
    targets = [2, 0, 5, 1]
    eps = 0.1
    model.config.label_smoothing = eps
    expected = 0.0
    for row, t in zip(logits, targets):
        logp = row - (np.log(np.sum(np.exp(row - row.max()))) + row.max())
        expected += -((1 - eps) * logp[t] + eps * logp.mean())
    expected /= len(targets)
    got = model.loss_asr(Tensor(logits), targets).item()
    # analytic smoothing over log-probabilities == lse - ((1-eps) picked + eps mean(logits))
    assert got == pytest.approx(expected, abs=1e-12)


def test_loss_asr_length_mismatch():
    model = tiny_model()
    with pytest.raises(DimensionError):
        model.loss_asr(Tensor(np.zeros((2, model.asr_output_size))), [0])


def test_loss_nlu_linear_decomposes_per_token():
    model = tiny_model()
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(4, len(model.slot_tags)))
    intent_logits = rng.normal(size=(1, len(model.intents)))
    slots = ["O", "B-toloc", "I-toloc", "O"]
    loss = model.loss_nlu(
        Tensor(scores), Tensor(intent_logits), model.tag_ids(slots), model.intent_id("airfare")
    ).item()
    expected = 0.0
    for row, tag in zip(scores, model.tag_ids(slots)):
        logp = row - (np.log(np.sum(np.exp(row - row.max()))) + row.max())
        expected -= logp[tag]
    irow = intent_logits[0]
    ilogp = irow - (np.log(np.sum(np.exp(irow - irow.max()))) + irow.max())
    expected -= ilogp[model.intent_id("airfare")]
    assert loss == pytest.approx(expected, abs=1e-12)


def test_loss_nlu_crf_matches_enumeration():
    model = tiny_model(slot_head="crf")
    rng = np.random.default_rng(2)
    k = len(model.slot_tags)
    scores = rng.normal(size=(3, k))
    slots = ["O", "B-toloc", "B-day"]
    tags = model.tag_ids(slots)
    intent_logits = np.zeros((1, len(model.intents)))
    loss = model.loss_nlu(Tensor(scores), Tensor(intent_logits), tags, model.intent_id("goodbye")).item()
    log_z, _, path_scores = oracles.crf_enumerate(
        scores,
        model.params["sl.trans"].data,
        model.params["sl.start"].data,
        model.params["sl.end"].data,
    )
    expected = (log_z - path_scores[tuple(tags)]) + math.log(len(model.intents))
    assert loss == pytest.approx(expected, abs=1e-10)


def test_loss_nlu_unknown_labels():
    # labels become ids when the example is prepared, before any loss is built
    model = tiny_model()
    with pytest.raises(ValidationError):
        tiny_example(model, ["show"], ["B-nosuch"], "airfare")
    with pytest.raises(ValidationError):
        tiny_example(model, ["show"], ["O"], "nosuch")


def test_loss_slu_is_exact_sum():
    model = tiny_model()
    total, asr, nlu = joint_loss(model, tiny_example(model, WORDS, SLOTS, INTENT))
    assert total.item() == asr.item() + nlu.item()  # same floats, same order


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_gradients_match_finite_differences(slot_head):
    model = tiny_model(seed=5, slot_head=slot_head)
    example = tiny_example(model, WORDS, SLOTS, INTENT, seed=4)

    def loss_value():
        return joint_loss(model, example)[0].item()

    model.zero_grads()
    total, _, _ = joint_loss(model, example)
    total.backward()
    fd = oracles.finite_difference(loss_value, {n: t.data for n, t in model.params.items()}, h=1e-4)
    for name, tensor in model.params.items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd[name])), 1e-8)
        rel = np.abs(analytic - fd[name]) / denom
        assert rel.max() < 1e-4, (name, rel.max())


def test_joint_gradient_touches_every_block():
    model = tiny_model(seed=6)
    model.zero_grads()
    total, _, _ = joint_loss(model, tiny_example(model, WORDS, SLOTS, INTENT, seed=5))
    total.backward()
    blocks: dict[str, list[Tensor]] = {}
    for name, tensor in model.params.items():
        blocks.setdefault(name.split(".", 1)[0], []).append(tensor)
    for block, tensors in blocks.items():
        norm = sum(float(np.abs(t.grad).sum()) for t in tensors if t.grad is not None)
        assert norm > 0, block


def test_asr_only_loss_leaves_heads_untouched():
    model = tiny_model(seed=7)
    model.zero_grads()
    example = tiny_example(model, WORDS)
    out = model.forward(example)
    model.loss_asr(out.asr_logits, example.asr_targets).backward()
    for name, tensor in model.params.items():
        if name.startswith(("ic.", "sl.", "nlu.")):
            assert tensor.grad is None, name
        if name.startswith("asr."):
            assert tensor.grad is not None, name


def test_stop_gradient_blocks_nlu_to_asr():
    model = tiny_model(seed=8)
    example = tiny_example(model, WORDS, SLOTS, INTENT, seed=9)

    def nlu_grad_norm(stop):
        model.zero_grads()
        out = model.forward(example, stop_asr_grad=stop)
        model.loss_nlu(out.slot_scores, out.intent_logits, example.tag_ids, example.intent_id).backward()
        return sum(
            float(np.abs(t.grad).sum())
            for n, t in model.params.items()
            if n.startswith("asr.") and t.grad is not None
        )

    assert nlu_grad_norm(stop=True) == 0.0
    assert nlu_grad_norm(stop=False) > 0.0


def test_gradients_vanish_at_perfect_fit():
    model = tiny_model(seed=9)
    k = len(model.slot_tags)
    scores = np.full((2, k), -60.0)
    slots = ["O", "B-toloc"]
    for i, t in enumerate(model.tag_ids(slots)):
        scores[i, t] = 60.0
    intents = np.full((1, len(model.intents)), -60.0)
    intents[0, model.intent_id(INTENT)] = 60.0
    st, it = Tensor(scores, requires_grad=True), Tensor(intents, requires_grad=True)
    model.loss_nlu(st, it, model.tag_ids(slots), model.intent_id(INTENT)).backward()
    assert np.abs(st.grad).max() < 1e-12
    assert np.abs(it.grad).max() < 1e-12


# -- the layer and head nodes against their compositions ----------------------
#
# Each case: the node, its composition in oracles, the leaf arrays (tables of 7 tokens and 6
# positions, width 3, so a layer's row count runs up to 6) and a call of either on the leaves.


def _encoder_case(rng, n):
    frames = rng.normal(size=(n, 4))
    arrays = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3), "pos": rng.normal(size=(6, 3))}
    return encoder_layer, oracles.encoder_layer_unfused, arrays, lambda op, t: op(frames, t["w"], t["b"], t["pos"])


def _decoder_case(rng, ids, positions):
    """The node reads position rows 0 to n - 1, so for a list of ``positions`` its table is those
    rows, in order, as ``decoder_node_step`` feeds a beam step."""
    arrays = {
        "table": rng.normal(size=(7, 3)), "pos": rng.normal(size=(6, 3)), "w_q": rng.normal(size=(3, 3)),
        "enc": rng.normal(size=(5, 3)), "w": rng.normal(size=(6, 3)), "b": rng.normal(size=3),
    }
    arrays["pos"] = oracles.position_table(arrays["pos"], positions)

    def call(op, t):
        return op(t["table"], ids, t["pos"], t["w_q"], t["enc"], t["w"], t["b"])

    return decoder_layer, oracles.decoder_layer_unfused, arrays, call


def _nlu_case(rng, ids):
    arrays = {"table": rng.normal(size=(7, 3)), "pos": rng.normal(size=(6, 3))}
    arrays.update((name, rng.normal(size=(3, 3))) for name in ("w_q", "w_k", "w_v", "w"))
    arrays["b"] = rng.normal(size=3)

    def call(op, t):
        return op(t["table"], ids, t["pos"], t["w_q"], t["w_k"], t["w_v"], t["w"], t["b"])

    return nlu_layer, oracles.nlu_layer_unfused, arrays, call


def _word_rows_case(rng, first_a, first_b):
    arrays = {"h_a": rng.normal(size=(6, 3)), "h_b": rng.normal(size=(5, 2))}
    return word_rows, oracles.word_rows_unfused, arrays, lambda op, t: op(t["h_a"], first_a, t["h_b"], first_b)


def _intent_head_case(rng, n):
    arrays = {"sentinel": rng.normal(size=(1, 3)), "rows": rng.normal(size=(n, 3)), "w": rng.normal(size=(3, 4)),
              "b": rng.normal(size=4)}
    return intent_head, oracles.intent_head_unfused, arrays, lambda op, t: op(t["sentinel"], t["rows"], t["w"], t["b"])


LAYER_CASES = {
    "encoder-one-frame": lambda rng: _encoder_case(rng, 1),
    "encoder-every-position": lambda rng: _encoder_case(rng, 6),
    "decoder-slice": lambda rng: _decoder_case(rng, [3, 0, 5], slice(3)),
    "decoder-repeat-ids": lambda rng: _decoder_case(rng, [2, 2, 1, 2], slice(4)),
    "decoder-one-row-beam-step": lambda rng: _decoder_case(rng, [4], [2]),
    "decoder-beam-step": lambda rng: _decoder_case(rng, [1, 3, 3, 0, 1], [5] * 5),
    "decoder-lists": lambda rng: _decoder_case(rng, [5, 2], [3, 0]),
    "nlu-one-id": lambda rng: _nlu_case(rng, [4]),
    "nlu-distinct-ids": lambda rng: _nlu_case(rng, [3, 0, 5]),
    "nlu-repeat-ids": lambda rng: _nlu_case(rng, [2, 2, 1, 2, 2, 6]),
    "word-rows-one-word": lambda rng: _word_rows_case(rng, [2], [4]),
    "word-rows-words": lambda rng: _word_rows_case(rng, [0, 1, 3, 4], [0, 2, 3, 4]),
    "word-rows-repeats": lambda rng: _word_rows_case(rng, [1, 1, 5], [0, 4, 4]),  # a row read twice adds up
    "intent-head-no-words": lambda rng: _intent_head_case(rng, 0),
    "intent-head-one-word": lambda rng: _intent_head_case(rng, 1),
    "intent-head-words": lambda rng: _intent_head_case(rng, 5),
}


@pytest.mark.parametrize("case", LAYER_CASES)
def test_a_layer_node_is_bit_identical_to_its_composition(case):
    rng = np.random.default_rng(sorted(LAYER_CASES).index(case))
    node, composition, arrays, call = LAYER_CASES[case](rng)
    results = []
    for op in (node, composition):
        tensors = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
        out = call(op, tensors)
        weights = np.random.default_rng(0).normal(size=out.data.shape)
        weights[:, 1] = -0.0  # a row added onto zeros once must come out +0.0, as np.add.at gives
        reduce_sum(mul(out, weights)).backward()
        results.append((out, tensors))
    (out, tensors), (ref, ref_tensors) = results
    assert out._parents == tuple(tensors.values())  # one node straight onto the leaves
    assert out.data.tobytes() == ref.data.tobytes()
    for name, tensor in tensors.items():
        got, want = tensor.grad, ref_tensors[name].grad
        assert got.tobytes() == want.tobytes(), name  # zero signs included
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("case", LAYER_CASES)
def test_a_layer_node_matches_finite_differences(case):
    rng = np.random.default_rng(20 + sorted(LAYER_CASES).index(case))
    node, _, arrays, call = LAYER_CASES[case](rng)
    weights = rng.normal(size=call(node, {k: Tensor(a) for k, a in arrays.items()}).data.shape)
    check_gradients(lambda t: reduce_sum(mul(call(node, t), weights)), arrays)


@pytest.mark.parametrize("case", LAYER_CASES)
def test_a_layer_node_records_no_parents_under_no_grad(case):
    node, _, arrays, call = LAYER_CASES[case](np.random.default_rng(1))
    tensors = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    recorded = call(node, tensors)
    with no_grad():
        out = call(node, tensors)
    assert recorded._parents and not out._parents and out._backward is None and not out.requires_grad
    assert out.data.tobytes() == recorded.data.tobytes()


def test_layer_nodes_refuse_rows_that_differ_instead_of_broadcasting():
    rng = np.random.default_rng(2)
    t = {name: Tensor(a) for name, a in _decoder_case(rng, [0], [0])[2].items()}
    w_in, one_position = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(1, 3)))

    def decoder(ids, pos):
        return decoder_layer(t["table"], ids, pos, t["w_q"], t["enc"], t["w"], t["b"])

    def nlu(ids, pos):
        return nlu_layer(t["table"], ids, pos, t["w_q"], t["w_q"], t["w_q"], t["w_q"], t["b"])

    cases = [
        lambda: encoder_layer(rng.normal(size=(7, 4)), w_in, t["b"], t["pos"]),  # past the last position
        lambda: encoder_layer(rng.normal(size=(2, 4)), w_in, t["b"], one_position),  # one row would broadcast
        lambda: decoder([0] * 7, t["pos"]),  # past the last position
        lambda: decoder([0, 1], one_position),  # one row would broadcast
        lambda: nlu([0] * 7, t["pos"]),  # past the last position
        lambda: nlu([0, 1], one_position),  # one row would broadcast
    ]
    for build in cases:
        with pytest.raises(DimensionError, match="cannot add shapes"):
            build()


def test_the_model_layers_refuse_more_rows_than_max_positions():
    model = tiny_model()
    limit = model.config.max_positions
    with pytest.raises(DimensionError):
        model.encode_features(tiny_features(frames=limit + 1))
    enc = model.encode_features(tiny_features(frames=limit))
    p = model.params
    with pytest.raises(DimensionError):  # the node teacher_forced builds
        decoder_layer(
            p["asr.emb"], [model.bos_id] * (limit + 1), p["asr.dec_pos"], p["asr.attn_q"], enc,
            p["asr.dec_w"], p["asr.dec_b"],
        )
    with pytest.raises(DimensionError):
        model.nlu_states([0] * (limit + 1))


# -- the model against its compositions at the widths it is trained at -------------------------
#
# The package multiplies with ``ndarray.dot`` and the compositions with ``@``; at the default
# widths a one-row operand is where a BLAS may pick another routine for one spelling than the other.

COMPOSED = ("encoder_layer", "decoder_layer", "nlu_layer", "word_rows", "intent_head", "linear")


def _compose(monkeypatch) -> None:
    """Every fused node the model calls but the two losses, swapped for its composition."""
    for name in COMPOSED:
        monkeypatch.setattr(slu.model, name, getattr(oracles, f"{name}_unfused"))


def _model_at_the_default_width(slot_head: str) -> JointModel:
    """``tiny_model`` at ``ModelConfig``'s default widths, 16 for each branch."""
    small = tiny_model(slot_head=slot_head)
    defaults = ModelConfig(feature_dim=small.config.feature_dim)
    config = dataclasses.replace(small.config, asr_hidden=defaults.asr_hidden, nlu_hidden=defaults.nlu_hidden)
    model = JointModel(config, small.asr_vocab, small.nlu_vocab, small.slot_tags, small.intents)
    model.init_params(5)
    return model


def _grad_bytes(model: JointModel) -> dict[str, bytes | None]:
    return {name: None if t.grad is None else t.grad.tobytes() for name, t in model.params.items()}


def test_a_one_row_decoder_states_call_is_bit_identical_to_its_composition(monkeypatch):
    # the beam's first step: one prefix, so the decoder and output layers multiply (1, 16) rows
    model = _model_at_the_default_width("linear")
    with no_grad():
        enc_rows = model.encode_features(model.subsample(tiny_features(2))).data
    results = []
    for composed in (False, True):
        if composed:
            _compose(monkeypatch)
        model.zero_grads()
        enc, p = Tensor(enc_rows, requires_grad=True), model.params
        hidden = slu.model.decoder_layer(  # teacher_forced's nodes at the beam's first step: position 0
            p["asr.emb"], [model.bos_id], p["asr.dec_pos"], p["asr.attn_q"], enc, p["asr.dec_w"], p["asr.dec_b"]
        )
        logits = slu.model.linear(hidden, p["asr.out_w"], p["asr.out_b"])
        assert hidden.shape == (1, 16)
        reduce_sum(mul(logits, np.random.default_rng(1).normal(size=logits.shape))).backward()
        results.append((hidden.data.tobytes(), logits.data.tobytes(), enc.grad.tobytes(), _grad_bytes(model)))
    assert results[0] == results[1]
    assert results[0][3]["asr.attn_q"] is not None  # the gradient reached the attention's query weights
    hidden, logits = model.decoder_states([model.bos_id], 0, enc_rows)  # the beam's array step: the same floats
    assert (hidden.tobytes(), logits.tobytes()) == results[0][:2]


@pytest.mark.parametrize("stop_asr_grad", [False, True], ids=["e2e", "two_stage"])
def test_a_one_word_crf_step_is_bit_identical_to_its_composition(stop_asr_grad, monkeypatch):
    # one word: the heads multiply (1, 32) rows, and the CRF reads one position
    model = _model_at_the_default_width("crf")
    example = tiny_example(model, ["boston"], ["B-toloc"], "find_flight", seed=3)
    results = []
    for composed in (False, True):
        if composed:
            _compose(monkeypatch)
        model.zero_grads()
        loss = joint_loss(model, example, stop_asr_grad)[0]
        loss.backward()
        results.append((loss.data.tobytes(), _grad_bytes(model)))
    assert len(example.first_a) == 1 and results[0] == results[1]
    assert results[0][1]["sl.trans"] is None  # one position: no transition is used


def test_subsample_features():
    feats = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(subsample_features(feats, 1), feats)
    halved = subsample_features(feats, 2)
    assert halved.shape == (2, 2)
    assert np.array_equal(halved, [[1, 2], [5, 6]])
    assert subsample_features(np.ones((7, 3)), 3).shape == (3, 3)
    assert np.array_equal(subsample_features(np.ones((7, 3)), 2), np.ones((4, 3)))
    with pytest.raises(ValidationError):
        subsample_features(feats, 0)


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_subsample_features_matches_per_group_loop(stride):
    rng = np.random.default_rng(stride)
    for frames in range(1, 3 * stride + 2):  # T < stride, divisible and ragged lengths
        feats = rng.normal(size=(frames, 5))
        expected = oracles.subsample_features_loop(feats, stride)
        assert np.array_equal(subsample_features(feats, stride), expected), frames


def test_serialize_slots_round_trip():
    assert serialize_slots(["show"], ["O"]) == ["show", "O"]
    assert serialize_slots(["to", "boston"], ["O", "B-toloc"]) == ["to", "O", "boston", "B-toloc"]
    words, slots = deserialize_slots(["to", "O", "boston", "B-toloc"])
    assert words == ["to", "boston"] and slots == ["O", "B-toloc"]
    with pytest.raises(ValidationError):
        serialize_slots(["a"], [])
    with pytest.raises(ValidationError):
        deserialize_slots(["a", "O", "b"])


@given(st.lists(st.tuples(st.text(min_size=1, max_size=4), st.text(min_size=1, max_size=4)), max_size=10))
@settings(max_examples=150, deadline=None)
def test_serialize_slots_inverse_property(pairs):
    words = [w for w, _ in pairs]
    slots = [s for _, s in pairs]
    seq = serialize_slots(words, slots)
    assert len(seq) == 2 * len(words)
    assert deserialize_slots(seq) == (words, slots)


def test_checkpoint_round_trip(tmp_path):
    model = tiny_model(seed=11, slot_head="crf")
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, beam_size=3)
    again, feature, beam = load_checkpoint(path)
    assert beam == 3
    assert again.config == model.config
    assert again.slot_tags == model.slot_tags
    assert again.intents == model.intents
    assert again.asr_vocab == model.asr_vocab
    for name, tensor in model.params.items():
        assert np.array_equal(again.params[name].data, tensor.data), name
    out_a = model.forward(tiny_example(model, WORDS))
    out_b = again.forward(tiny_example(again, WORDS))
    assert np.array_equal(out_a.slot_scores.data, out_b.slot_scores.data)


def test_checkpoint_file_keys_are_the_checkpoint_fields_in_order(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(tiny_model(seed=11, slot_head="crf"), path)
    assert list(json.loads(path.read_text())) == [f.name for f in dataclasses.fields(Checkpoint)]


def test_save_checkpoint_refuses_a_beam_below_one(tmp_path):
    with pytest.raises(ValidationError, match="beam_size must be >= 1, got 0"):
        save_checkpoint(tiny_model(), tmp_path / "ckpt.json", beam_size=0)
    assert not (tmp_path / "ckpt.json").exists()


def test_loading_a_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    model = tiny_model(seed=11, slot_head="crf")
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError("loading a checkpoint drew an initialisation")

    monkeypatch.setattr(JointModel, "init_params", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    again, _, _ = load_checkpoint(path)
    assert list(again.params) == list(model.params)  # save_checkpoint writes them in this order
    for name, tensor in model.params.items():
        assert np.array_equal(again.params[name].data, tensor.data), name


def test_checkpoint_with_stored_first_pooling_loads(tmp_path):
    # checkpoints written while ModelConfig had a word_pooling field store "first"
    model = tiny_model(seed=11)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    obj = json.loads(path.read_text())
    assert "word_pooling" not in obj["model"]
    obj["model"]["word_pooling"] = "first"
    path.write_text(json.dumps(obj))
    again, _, _ = load_checkpoint(path)
    assert again.config == model.config
    example = tiny_example(model, WORDS)  # examples do not depend on parameters
    out_a, out_b = model.forward(example), again.forward(example)
    for name in ("asr_logits", "slot_scores", "intent_logits"):
        assert np.array_equal(getattr(out_a, name).data, getattr(out_b, name).data), name
    assert np.array_equal(model.nlu_states(example.nlu_ids).data, again.nlu_states(example.nlu_ids).data)
    hcat_a, hcat_b = (identity_slot_head(m).forward(example).slot_scores for m in (model, again))
    assert np.array_equal(hcat_a.data, hcat_b.data)


def test_checkpoint_version_guard(tmp_path):
    model = tiny_model()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    obj = json.loads(path.read_text())
    obj["format_version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_model_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(feature_dim=4, slot_head="mlp")
    with pytest.raises(ValidationError):
        ModelConfig(feature_dim=4, subsample_stride=0)


def test_forward_rejects_alignment_word_mismatch():
    model = tiny_model()
    with pytest.raises(ValidationError):
        tiny_example(model, [])

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_subword_instance, tiny_example, tiny_features, tiny_model
from oracles import build_first_index_matrix, detokenize
from slu.errors import DimensionError, ParseError, ValidationError
from slu.model import load_checkpoint, save_checkpoint
from slu.subword import (
    BPE,
    WORDPIECE,
    SubwordVocab,
    TokenizationResult,
    load_vocab,
    merge_tokens,
    save_vocab,
    tokenize,
)


def test_word_in_vocab_is_single_token():
    vocab = SubwordVocab.create(WORDPIECE, {"show"})
    result = tokenize(["show"], vocab)
    assert result.tokens == ["show"]
    assert result.first_index == [0]
    assert np.array_equal(build_first_index_matrix(result), np.eye(1))


def test_greedy_longest_match_wordpiece():
    vocab = SubwordVocab.create(WORDPIECE, {"show", "fl", "##ights"})
    result = tokenize(["show", "flights"], vocab)
    assert result.tokens == ["show", "fl", "##ights"]
    assert result.first_index == [0, 1]


def test_unk_fallback_covers_whole_word():
    vocab = SubwordVocab.create(WORDPIECE, {"show"})
    result = tokenize(["zzz"], vocab)
    assert result.tokens == [vocab.unk]
    assert result.first_index == [0]


def test_greedy_dead_end_falls_back_to_unk():
    # "showx" consumes "show" greedily, then cannot cover "x"
    vocab = SubwordVocab.create(WORDPIECE, {"show", "##w", "sho"})
    assert tokenize(["showx"], vocab).tokens == [vocab.unk]


def test_bpe_marker_convention():
    vocab = SubwordVocab.create(BPE, {"▁aus", "tin", "▁show"})
    result = tokenize(["show", "austin"], vocab)
    assert result.tokens == ["▁show", "▁aus", "tin"]
    assert result.first_index == [0, 1]


def test_empty_word_rejected():
    vocab = SubwordVocab.create(WORDPIECE, {"a"})
    with pytest.raises(ValidationError):
        tokenize([""], vocab)


def test_first_index_matrix_examples():
    m = build_first_index_matrix(TokenizationResult(["a", "b", "c"], [0, 1]))
    assert m.shape == (3, 2)
    assert m[0, 0] == 1 and m[1, 1] == 1 and m.sum() == 2

    assert np.array_equal(build_first_index_matrix(TokenizationResult(list("abcd"), [0, 1, 2, 3])), np.eye(4))

    m = build_first_index_matrix(TokenizationResult(list("abcde"), [0, 2, 3]))
    expected = np.zeros((5, 3))
    expected[0, 0] = expected[2, 1] = expected[3, 2] = 1
    assert np.array_equal(m, expected)


def test_first_index_matrix_errors():
    # a TokenizationResult checks its first_index when built, so the model can gather by it
    for first_index in ([0, 3], [0, -1], [1, 1], [2, 1]):  # out of range, or not strictly increasing
        with pytest.raises(DimensionError):
            TokenizationResult(["a", "b", "c"], first_index)


def test_project_identity_and_row_selection():
    # the word projection the model applies is a row gather; the one-hot matrix states it as algebra
    h = np.arange(12.0).reshape(3, 4)
    one_piece_words = build_first_index_matrix(TokenizationResult(["a", "b", "c"], [0, 1, 2]))
    assert np.array_equal(one_piece_words, np.eye(3))
    assert np.array_equal(one_piece_words.T @ h, h)
    m = build_first_index_matrix(TokenizationResult(["a", "b", "##c"], [0, 1]))
    assert np.array_equal(m.T @ h, h[[0, 1]])


def test_project_shape_mismatch():
    # a word that starts past the last subword has no hidden row to gather
    with pytest.raises(DimensionError, match=r"first_index\[1\]=3 out of range for 3 tokens"):
        TokenizationResult(["a", "b", "c"], [0, 3])


@pytest.mark.parametrize("mode", ["first", "last", "mean"])
def test_pooling_matrix_checks_first_index_in_every_mode(mode, tmp_path):
    # a checkpoint may still store a pooling mode: "first" loads into a model whose caller
    # tokenizations are checked before any row is gathered; any other mode is refused at load
    path = tmp_path / "ckpt.json"
    save_checkpoint(tiny_model(seed=5), path)
    obj = json.loads(path.read_text())
    obj["model"]["word_pooling"] = mode
    path.write_text(json.dumps(obj))
    if mode != "first":
        with pytest.raises(ValidationError, match="model.word_pooling"):
            load_checkpoint(path)
        return
    model, _, _ = load_checkpoint(path)
    words = ["from", "austin"]
    tokens = tokenize(words, model.asr_vocab).tokens  # 3 ASR subwords
    frames = model.subsample(tiny_features())
    for first_index in ([0, 3], [0, -1], [1, 1], [2, 1]):  # out of range, or not strictly increasing
        with pytest.raises(DimensionError):
            model.prepare(frames, words, tok_a=TokenizationResult(tokens, first_index))


def test_prepare_checks_a_tokenization_changed_after_construction():
    model = tiny_model()
    words = ["show", "to"]
    frames = model.subsample(tiny_features())
    tok = tokenize(words, model.asr_vocab)
    good = list(tok.first_index)
    tok.first_index[1] = -1  # passed the check when built; would gather the last row
    with pytest.raises(DimensionError, match=r"first_index\[1\]=-1"):
        model.prepare(frames, words, tok_a=tok)
    tok.first_index[1] = good[1]
    example = model.prepare(frames, words, tok_a=tok)
    tok.first_index[1] = -1  # the example holds its own checked copy
    assert example.first_a == good
    model.forward(example)


def test_concat_hidden_shapes_and_zero_block():
    model = tiny_model(seed=1)
    for name, t in model.params.items():
        if name.startswith("nlu."):
            t.data = np.zeros_like(t.data)  # zero text-branch states
    words = ["show", "flights", "from", "austin", "to", "denver"]  # 8 ASR subwords, 6 NLU
    out = model.forward(tiny_example(model, words))
    fa, fb = model.config.asr_hidden, model.config.nlu_hidden
    assert np.array_equal(out.hb.data, np.zeros_like(out.hb.data))
    assert out.hcat.shape == (len(words), fa + fb)
    assert np.array_equal(out.hcat.data[:, fa:], np.zeros((len(words), fb)))
    first = tokenize(words, model.asr_vocab).first_index
    assert np.array_equal(out.hcat.data[:, :fa], out.ha.data[first])


def test_concat_hidden_word_count_mismatch():
    model = tiny_model()
    three_words = TokenizationResult(["▁show", "▁to", "▁york"], [0, 1, 2])
    with pytest.raises(DimensionError):
        model.prepare(model.subsample(tiny_features()), ["show", "to"], tok_a=three_words)


@pytest.mark.parametrize("kind", [BPE, WORDPIECE])
def test_detokenize_inverts_tokenize(kind):
    rng = random.Random(123)
    for _ in range(300):
        words, vocab = random_subword_instance(rng, kind)
        result = tokenize(words, vocab)
        assert detokenize(result, vocab) == words
        merged, first = merge_tokens(result.tokens, vocab)
        assert merged == words
        assert first == result.first_index


@given(
    st.sampled_from([BPE, WORDPIECE]),
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_detokenize_inverse_property(kind, words, vocab_seed):
    _, vocab = random_subword_instance(random.Random(vocab_seed), kind)
    result = tokenize(words, vocab)
    assert detokenize(result, vocab) == words


@pytest.mark.parametrize("kind", [BPE, WORDPIECE])
def test_matrix_algebra_properties(kind):
    rng = random.Random(99)
    for _ in range(200):
        words, vocab = random_subword_instance(rng, kind)
        result = tokenize(words, vocab)
        m = build_first_index_matrix(result)
        # columns one-hot, M^T M == identity
        assert np.array_equal(m.sum(axis=0), np.ones(len(words)))
        assert np.array_equal(m.T @ m, np.eye(len(words)))
        assert result.first_index == sorted(set(result.first_index))
        h = np.random.default_rng(0).normal(size=(result.num_tokens, 3))
        assert np.array_equal(m.T @ h, h[result.first_index])


def test_vocab_validation():
    with pytest.raises(ValidationError):
        SubwordVocab.create("charbpe", {"a"})
    with pytest.raises(ValidationError):
        SubwordVocab.create(WORDPIECE, {"a", "##"})
    # unk auto-added by the factory
    vocab = SubwordVocab.create(WORDPIECE, {"a"})
    assert vocab.unk in vocab.pieces


def test_vocab_file_round_trip(tmp_path):
    vocab = SubwordVocab.create(BPE, {"▁show", "tin", "▁aus"})
    path = tmp_path / "v.txt"
    save_vocab(vocab, path)
    again = load_vocab(path)
    assert again == vocab
    assert path.read_text().startswith("#kind: bpe\n")


def test_vocab_file_requires_header(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("show\nme\n")
    with pytest.raises(ParseError):
        load_vocab(path)

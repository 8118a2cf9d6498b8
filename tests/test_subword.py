import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_subword_instance
from oracles import build_first_index_matrix, detokenize
from slu.errors import DimensionError, ParseError, ValidationError
from slu.subword import (
    BPE,
    WORDPIECE,
    SubwordVocab,
    concat_hidden,
    first_index_matrix,
    load_vocab,
    merge_tokens,
    pooling_matrix,
    project_to_words,
    save_vocab,
    tokenize,
)


def test_word_in_vocab_is_single_token():
    vocab = SubwordVocab.create(WORDPIECE, {"show"})
    result = tokenize(["show"], vocab)
    assert result.tokens == ["show"]
    assert result.first_index == [0]
    assert np.array_equal(first_index_matrix(result.first_index, result.num_tokens), np.eye(1))


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
    m = first_index_matrix([0, 1], 3)
    assert m.shape == (3, 2)
    assert m[0, 0] == 1 and m[1, 1] == 1 and m.sum() == 2

    assert np.array_equal(first_index_matrix(range(4), 4), np.eye(4))

    m = first_index_matrix([0, 2, 3], 5)
    expected = np.zeros((5, 3))
    expected[0, 0] = expected[2, 1] = expected[3, 2] = 1
    assert np.array_equal(m, expected)


def test_first_index_matrix_errors():
    with pytest.raises(DimensionError):
        first_index_matrix([0, 5], 3)
    with pytest.raises(DimensionError):
        first_index_matrix([2, 1], 3)


def test_project_identity_and_row_selection():
    h = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(project_to_words(np.eye(3), h), h)
    m = first_index_matrix([0, 1], 3)
    assert np.array_equal(project_to_words(m, h), h[[0, 1]])


def test_project_shape_mismatch():
    with pytest.raises(DimensionError):
        project_to_words(np.eye(3), np.zeros((4, 2)))


def test_concat_hidden_shapes_and_zero_block():
    rng = np.random.default_rng(0)
    ma = first_index_matrix([0, 1, 3, 4], 6)
    mb = first_index_matrix([0, 2, 3, 5], 7)
    ha = rng.normal(size=(6, 2))
    hb = np.zeros((7, 3))
    cat = concat_hidden(ha, hb, ma, mb)
    assert cat.shape == (4, 5)
    assert np.array_equal(cat[:, 2:], np.zeros((4, 3)))
    assert np.array_equal(cat[:, :2], ha[[0, 1, 3, 4]])


def test_concat_hidden_word_count_mismatch():
    with pytest.raises(DimensionError):
        concat_hidden(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.eye(3))


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
        assert np.array_equal(project_to_words(m, h), h[result.first_index])


def test_pooling_matrix_modes():
    vocab = SubwordVocab.create(WORDPIECE, {"fl", "##ights", "show"})
    result = tokenize(["show", "flights"], vocab)
    first = pooling_matrix(result, "first")
    assert np.array_equal(first, first_index_matrix(result.first_index, result.num_tokens))
    last = pooling_matrix(result, "last")
    assert last[0, 0] == 1 and last[2, 1] == 1 and last.sum() == 2
    mean = pooling_matrix(result, "mean")
    assert np.allclose(mean[:, 1], [0, 0.5, 0.5])
    with pytest.raises(ValidationError):
        pooling_matrix(result, "median")


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

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_slot_head, random_subword_instance, tiny_example, tiny_model
from model_oracles import build_first_index_matrix, detokenize
from slu.errors import ParseError, ValidationError
from slu.model import load_checkpoint, save_checkpoint
from slu.subword import (
    BPE,
    WORDPIECE,
    SubwordVocab,
    load_vocab,
    merge_tokens,
    save_vocab,
    tokenize,
)
from slu.synth import asr_vocab, nlu_vocab


def test_word_in_vocab_is_single_token():
    vocab = SubwordVocab.create(WORDPIECE, {"show"})
    result = tokenize(["show"], vocab)
    assert result[0] == ["show"]
    assert result[1] == [0]
    assert np.array_equal(build_first_index_matrix(result), np.eye(1))


def test_greedy_longest_match_wordpiece():
    vocab = SubwordVocab.create(WORDPIECE, {"show", "fl", "##ights"})
    tokens, first_index = tokenize(["show", "flights"], vocab)
    assert tokens == ["show", "fl", "##ights"]
    assert first_index == [0, 1]


def test_unk_fallback_covers_whole_word():
    vocab = SubwordVocab.create(WORDPIECE, {"show"})
    tokens, first_index = tokenize(["zzz"], vocab)
    assert tokens == [vocab.unk]
    assert first_index == [0]


def test_greedy_dead_end_falls_back_to_unk():
    # "showx" consumes "show" greedily, then cannot cover "x"
    vocab = SubwordVocab.create(WORDPIECE, {"show", "##w", "sho"})
    assert tokenize(["showx"], vocab)[0] == [vocab.unk]


def test_bpe_marker_convention():
    vocab = SubwordVocab.create(BPE, {"▁aus", "tin", "▁show"})
    tokens, first_index = tokenize(["show", "austin"], vocab)
    assert tokens == ["▁show", "▁aus", "tin"]
    assert first_index == [0, 1]


@pytest.mark.parametrize("kind, pieces, words, tokens, first_index", [
    (BPE, {"▁show", "##s", "▁##", "s"}, ["show##s", "##s"], ["▁show", "##s", "▁##", "s"], [0, 2]),
    (WORDPIECE, {"▁a", "##b", "show", "##▁"}, ["▁ab", "show▁"], ["▁a", "##b", "show", "##▁"], [0, 2]),
    # the other kind's bare marker is a piece of its own
    (BPE, {"▁a", "##"}, ["a##"], ["▁a", "##"], [0]),
    (WORDPIECE, {"▁", "a", "##▁"}, ["▁", "a▁"], ["▁", "a", "##▁"], [0, 1]),
])
def test_the_other_conventions_marker_is_plain_text(tmp_path, kind, pieces, words, tokens, first_index):
    vocab = SubwordVocab.create(kind, pieces)
    save_vocab(vocab, tmp_path / "v.txt")
    assert load_vocab(tmp_path / "v.txt") == vocab
    assert tokenize(words, vocab) == (tokens, first_index)
    assert merge_tokens(tokens, vocab) == (words, first_index)


def test_the_synthetic_vocabularies_are_pinned():
    assert asr_vocab().sorted_pieces() == [
        "<unk>", "tin", "ver", "▁all", "▁aus", "▁boston", "▁delta", "▁den", "▁fares", "▁flights", "▁from",
        "▁goodbye", "▁is", "▁list", "▁monday", "▁new", "▁on", "▁show", "▁thanks", "▁that", "▁to", "▁tuesday",
        "▁united", "▁york",
    ]
    assert nlu_vocab().sorted_pieces() == [
        "##day", "##ton", "<unk>", "all", "austin", "bos", "delta", "denver", "fares", "flights", "from",
        "goodbye", "is", "list", "mon", "new", "on", "show", "thanks", "that", "to", "tuesday", "united", "york",
    ]


def test_empty_word_rejected():
    vocab = SubwordVocab.create(WORDPIECE, {"a"})
    with pytest.raises(ValidationError):
        tokenize([""], vocab)


def test_first_index_matrix_examples():
    m = build_first_index_matrix((["a", "b", "c"], [0, 1]))
    assert m.shape == (3, 2)
    assert m[0, 0] == 1 and m[1, 1] == 1 and m.sum() == 2

    assert np.array_equal(build_first_index_matrix((list("abcd"), [0, 1, 2, 3])), np.eye(4))

    m = build_first_index_matrix((list("abcde"), [0, 2, 3]))
    expected = np.zeros((5, 3))
    expected[0, 0] = expected[2, 1] = expected[3, 2] = 1
    assert np.array_equal(m, expected)


def test_project_identity_and_row_selection():
    # the word projection the model applies is a row gather; the one-hot matrix states it as algebra
    h = np.arange(12.0).reshape(3, 4)
    one_piece_words = build_first_index_matrix((["a", "b", "c"], [0, 1, 2]))
    assert np.array_equal(one_piece_words, np.eye(3))
    assert np.array_equal(one_piece_words.T @ h, h)
    m = build_first_index_matrix((["a", "b", "##c"], [0, 1]))
    assert np.array_equal(m.T @ h, h[[0, 1]])


@pytest.mark.parametrize("mode", ["first", "last", "mean"])
def test_a_stored_word_pooling_loads_only_as_first(mode, tmp_path):
    # a checkpoint may still store a pooling mode: "first" loads, any other mode is refused at load
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
    assert model.config == tiny_model(seed=5).config  # the stored key is dropped on load


def test_concat_hidden_shapes_and_zero_block():
    model = tiny_model(seed=1)
    for name, t in model.params.items():
        if name.startswith("nlu."):
            t.data = np.zeros_like(t.data)  # zero text-branch states
    words = ["show", "flights", "from", "austin", "to", "denver"]  # 8 ASR subwords, 6 NLU
    example = tiny_example(model, words)
    hcat = identity_slot_head(model).forward(example).slot_scores
    fa, fb = model.config.asr_hidden, model.config.nlu_hidden
    hb = model.nlu_states(example.nlu_ids).data
    assert np.array_equal(hb, np.zeros_like(hb))
    assert hcat.shape == (len(words), fa + fb)
    assert np.array_equal(hcat.data[:, fa:], np.zeros((len(words), fb)))
    first = tokenize(words, model.asr_vocab)[1]
    assert np.array_equal(hcat.data[:, :fa], model.teacher_forced(example)[0].data[:-1][first])


@pytest.mark.parametrize("kind", [BPE, WORDPIECE])
def test_detokenize_inverts_tokenize(kind):
    rng = random.Random(123)
    for _ in range(300):
        words, vocab = random_subword_instance(rng, kind)
        result = tokenize(words, vocab)
        assert detokenize(result, vocab) == words
        merged, first = merge_tokens(result[0], vocab)
        assert merged == words
        assert first == result[1]


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


def _assert_first_indices(first_index, num_pieces):
    assert all(0 <= row < num_pieces for row in first_index)
    assert all(a < b for a, b in zip(first_index, first_index[1:]))


@given(
    st.sampled_from([BPE, WORDPIECE]),
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), max_size=8),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_tokenize_and_merge_tokens_give_increasing_in_range_first_indices(kind, words, picks, vocab_seed):
    _, vocab = random_subword_instance(random.Random(vocab_seed), kind)
    subwords, first_index = tokenize(words, vocab)
    assert len(first_index) == len(words)
    _assert_first_indices(first_index, len(subwords))
    pieces = vocab.sorted_pieces()
    tokens = [pieces[i % len(pieces)] for i in picks]  # any piece sequence, as a beam may decode
    merged, first_index = merge_tokens(tokens, vocab)
    assert len(first_index) == len(merged) and first_index[:1] == ([0] if tokens else [])
    _assert_first_indices(first_index, len(tokens))


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
        assert result[1] == sorted(set(result[1]))
        h = np.random.default_rng(0).normal(size=(len(result[0]), 3))
        assert np.array_equal(m.T @ h, h[result[1]])


def test_vocab_validation():
    with pytest.raises(ValidationError):
        SubwordVocab.create("charbpe", {"a"})
    with pytest.raises(ValidationError, match="invalid piece '##': the wordpiece marker with no text"):
        SubwordVocab.create(WORDPIECE, {"a", "##"})
    with pytest.raises(ValidationError, match="invalid piece '▁': the bpe marker with no text"):
        SubwordVocab.create(BPE, {"a", "▁"})
    with pytest.raises(ValidationError, match="invalid empty piece ''"):
        SubwordVocab.create(BPE, {"a", ""})
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

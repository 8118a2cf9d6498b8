import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import joint_loss, tiny_example, tiny_features, tiny_model
from model_oracles import beam_search_reference, step_logprobs
import slu.decode
import slu.model
from slu.autodiff import Tensor, no_grad
from slu.data import Utterance
from slu.decode import beam_search_transcript, decode_corpus, decode_two_step
from slu.errors import DecodeError, ValidationError
from slu.model import Example, JointModel, ModelConfig
from slu.subword import BPE, WORDPIECE, SubwordVocab, merge_tokens, tokenize
from slu.synth import asr_vocab, lexicon, nlu_vocab


def micro_model(seed=0, max_positions=16):
    """Four ASR pieces so exhaustive search over sequences stays tiny."""
    asr = SubwordVocab.create(BPE, {"▁a", "▁b", "c"})
    nlu = SubwordVocab.create(WORDPIECE, {"a", "b", "##c"})
    config = ModelConfig(feature_dim=4, asr_hidden=4, nlu_hidden=3, subsample_stride=1, max_positions=max_positions)
    model = JointModel(config, asr, nlu, ["O", "B-x"], ["p", "q"])
    model.init_params(seed)
    return model


def greedy_reference(model, features, max_len):
    enc = model.encode_features(features)
    tokens = []
    logp = 0.0
    prev = model.bos_id
    for step in range(max_len):
        lp = step_logprobs(model, enc, prev, step)
        best = int(np.argmax(lp))
        logp += float(lp[best])
        if best == model.eos_id:
            return tokens, logp
        tokens.append(best)
        prev = best
    logp += float(step_logprobs(model, enc, prev, max_len)[model.eos_id])
    return tokens, logp


def exhaustive_reference(model, features, max_len):
    """Argmax over every token sequence up to the length bound, EOS included."""
    enc = model.encode_features(features)
    table = {}

    def lp(prev, step):
        if (prev, step) not in table:
            table[(prev, step)] = step_logprobs(model, enc, prev, step)
        return table[(prev, step)]

    best = None
    vocab = range(len(model.asr_pieces))
    for length in range(max_len + 1):
        for seq in itertools.product(vocab, repeat=length):
            prev_ids = [model.bos_id] + list(seq)
            score = sum(float(lp(prev_ids[i], i)[tok]) for i, tok in enumerate(seq))
            score += float(lp(prev_ids[-1], length)[model.eos_id])
            if best is None or score > best[1] or (score == best[1] and seq < best[0]):
                best = (seq, score)
    return list(best[0]), best[1]


def test_beam_one_is_greedy():
    for seed in range(5):
        model = micro_model(seed)
        feats = np.random.default_rng(seed).normal(size=(6, 4))
        with no_grad():
            beam_tokens, beam_logp, _ = beam_search_transcript(
                model, model.encode_features(feats), beam_size=1, max_len=5
            )
            greedy_tokens, greedy_logp = greedy_reference(model, feats, max_len=5)
        assert beam_tokens == greedy_tokens
        assert beam_logp == pytest.approx(greedy_logp, abs=1e-12)


def test_wide_beam_matches_exhaustive_argmax():
    max_len = 4
    for seed in range(4):
        model = micro_model(seed + 10)
        feats = np.random.default_rng(seed).normal(size=(5, 4))
        width = model.asr_output_size**max_len  # >= vocab^length: nothing is ever pruned
        with no_grad():
            beam_tokens, beam_logp, _ = beam_search_transcript(
                model, model.encode_features(feats), beam_size=width, max_len=max_len
            )
            exh_tokens, exh_logp = exhaustive_reference(model, feats, max_len)
        assert beam_logp == pytest.approx(exh_logp, abs=1e-10)
        assert beam_tokens == exh_tokens


def test_all_ties_pick_the_empty_transcript():
    max_len = 4
    model = micro_model(3)
    model.params["asr.out_w"].data[:] = 0.0
    model.params["asr.out_b"].data[:] = 0.0  # every step: uniform over V+1 outputs
    feats = np.random.default_rng(3).normal(size=(5, 4))
    expected = ([], -math.log(model.asr_output_size))
    width = model.asr_output_size**max_len
    with no_grad():
        enc = model.encode_features(feats)
        for beam_size in (1, 2, 3, width):
            assert beam_search_transcript(model, enc, beam_size, max_len)[:2] == expected
        assert exhaustive_reference(model, feats, max_len) == expected


def test_search_stops_once_no_live_prefix_can_win(monkeypatch):
    model = micro_model(4)
    model.params["asr.out_b"].data[model.eos_id] += 50.0
    calls = []
    decoder_states = model.decoder_states

    def counting_decoder_states(prev_ids, steps, enc):
        calls.append(len(prev_ids))
        return decoder_states(prev_ids, steps, enc)

    monkeypatch.setattr(model, "decoder_states", counting_decoder_states)
    with no_grad():
        enc = model.encode_features(np.random.default_rng(4).normal(size=(5, 4)))
        tokens, logp, _ = beam_search_transcript(model, enc, beam_size=5, max_len=40)
    assert calls == [1]
    assert tokens == [] and -1e-12 < logp <= 0.0


@pytest.mark.parametrize("beam_size", [1, 3])
@pytest.mark.parametrize("max_positions, max_len", [(16, 0), (1, 40)])
def test_a_search_that_takes_no_step_closes_the_empty_prefix(max_positions, max_len, beam_size):
    """With max_len 0, or max_positions 1, whose clamp makes max_len 0, the loop runs no step: the
    empty prefix is closed with step 0's EOS and is the hypothesis, with that step's decoder row."""
    model = micro_model(5, max_positions=max_positions)
    with no_grad():
        enc = model.encode_features(np.random.default_rng(5).normal(size=(1, 4)))
        tokens, logp, rows = beam_search_transcript(model, enc, beam_size, max_len)
        hidden, _ = model.decoder_states([model.bos_id], [0], enc)
        assert (tokens, logp) == ([], float(step_logprobs(model, enc, model.bos_id, 0)[model.eos_id]))
    assert rows.shape == (1, model.config.asr_hidden) and np.array_equal(rows, hidden.data)


def test_beam_size_validation():
    model = micro_model()
    with no_grad(), pytest.raises(DecodeError):
        beam_search_transcript(model, model.encode_features(np.zeros((4, 4))), beam_size=0)


def test_a_negative_max_len_is_refused_naming_it():
    model = micro_model()
    with no_grad(), pytest.raises(DecodeError, match="max_len must be >= 0, got -3"):
        beam_search_transcript(model, model.encode_features(np.zeros((4, 4))), beam_size=5, max_len=-3)
    with pytest.raises(DecodeError, match="got -3"):
        decode_two_step(model, np.zeros((4, 4)), max_len=-3)


def _hypothesis_example(model, frames, ids):
    """An ``Example`` of the transcript ``ids``, enough for ``teacher_forced`` (which reads only
    the frames and the decoder inputs), whatever words those ids would merge into."""
    return Example(frames, [model.bos_id] + ids, ids + [model.eos_id], [], [], [], [], None)


@pytest.mark.parametrize("variant, max_len", [
    ("random", 6),  # stops early or closes out at max_len
    ("eos-penalised", 4),  # always closes out at max_len
    ("eos-penalised", 40),  # closes out at max_positions - 1, the cut
])
def test_beam_rows_are_the_teacher_forced_rows_of_the_hypothesis(variant, max_len):
    lengths = set()
    for seed in range(6):
        model = micro_model(seed)
        if variant == "eos-penalised":
            model.params["asr.out_b"].data[model.eos_id] -= 50.0
        feats = np.random.default_rng(seed).normal(size=(5, 4))
        with no_grad():
            enc = model.encode_features(feats)
            for beam_size in (1, 3, 5):
                ids, _, rows = beam_search_transcript(model, enc, beam_size, max_len)
                want = model.teacher_forced(_hypothesis_example(model, feats, ids))[0].data
                assert rows.shape == want.shape == (len(ids) + 1, model.config.asr_hidden)
                assert np.abs(rows - want).max() <= 1e-12, (seed, beam_size)
                lengths.add(len(ids))
    if variant == "eos-penalised":  # beams narrower than the width never pick EOS before the close-out
        assert max(lengths) == min(max_len, model.config.max_positions - 1)
    else:
        assert len(lengths) > 1


def _step_two_outputs(monkeypatch, model):
    """Record each ``heads`` call of a decode: its example and its two outputs."""
    seen = []
    heads = model.heads

    def recording_heads(example, h_dec):
        seen.append((example, *heads(example, h_dec)))
        return seen[-1][1:]

    monkeypatch.setattr(model, "heads", recording_heads)
    return seen


def _assert_heads_match_forward(model, seen, result):
    (example, slot_scores, intent_logits), = seen
    with no_grad():
        out = model.forward(example)
    assert np.abs(slot_scores.data - out.slot_scores.data).max() <= 1e-12
    assert np.abs(intent_logits.data - out.intent_logits.data).max() <= 1e-12
    assert model.decode_slots(out.slot_scores) == result.slots
    assert model.intents[int(np.argmax(out.intent_logits.data[0]))] == result.intent


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_step_two_scores_equal_forward_on_the_hypothesis(monkeypatch, slot_head):
    ran = 0
    for seed in range(6):
        model = tiny_model(seed=seed, slot_head=slot_head)
        seen = _step_two_outputs(monkeypatch, model)
        for beam_size in (1, 3, 5):
            seen.clear()
            result = decode_two_step(model, tiny_features(seed, frames=10), beam_size=beam_size, max_len=8)
            if result.words:
                _assert_heads_match_forward(model, seen, result)
                ran += 1
    assert ran >= 10


def test_a_decode_makes_one_decoder_call_per_beam_step_and_no_teacher_forced_call(monkeypatch):
    model = tiny_model(seed=3)
    steps, forced = [], []
    decoder_states = model.decoder_states

    def counting_decoder_states(prev_ids, positions, enc):
        assert len(set(positions)) == 1  # one beam step: every live prefix at one position
        steps.append(positions[0])
        return decoder_states(prev_ids, positions, enc)

    monkeypatch.setattr(model, "decoder_states", counting_decoder_states)
    monkeypatch.setattr(model, "teacher_forced", lambda *args: forced.append(args))
    monkeypatch.setattr(model, "forward", lambda *args: forced.append(args))
    result = decode_two_step(model, tiny_features(4, frames=10), beam_size=3, max_len=8)
    assert result.words  # step two ran
    assert steps == list(range(len(steps))) and len(steps) >= len(result.asr_tokens) + 1
    assert forced == []


def test_decode_result_invariants():
    model = tiny_model(seed=2)
    result = decode_two_step(model, tiny_features(3, frames=10), beam_size=5, max_len=8)
    assert len(result.slots) == len(result.words)
    assert result.intent in model.intents
    assert all(tag in model.slot_tags for tag in result.slots)


def test_decode_deterministic():
    model = tiny_model(seed=4)
    feats = tiny_features(6, frames=12)
    a = decode_two_step(model, feats, beam_size=5, max_len=8)
    b = decode_two_step(model, feats, beam_size=5, max_len=8)
    assert (a.words, a.slots, a.intent, a.asr_logprob) == (b.words, b.slots, b.intent, b.asr_logprob)


def test_decode_encodes_features_once(monkeypatch):
    model = tiny_model(seed=3)
    calls = []
    encode = model.encode_features

    def counting_encode(frames):
        calls.append(1)
        return encode(frames)

    monkeypatch.setattr(model, "encode_features", counting_encode)
    result = decode_two_step(model, tiny_features(4, frames=10), beam_size=3, max_len=8)
    assert len(calls) == 1
    assert len(result.slots) == len(result.words)


def test_decode_tokenizes_the_nlu_transcript_once(monkeypatch):
    model = tiny_model(seed=3)
    calls = []

    def counting_tokenize(words, vocab):
        calls.append(vocab is model.nlu_vocab)
        return tokenize(words, vocab)

    monkeypatch.setattr(slu.model, "tokenize", counting_tokenize)
    result = decode_two_step(model, tiny_features(4, frames=10), beam_size=3, max_len=8)
    assert result.words  # step two ran
    assert calls == [True]


def _labels_apart(example):
    """``example``'s fields but its frames, read by identity, and its labels."""
    return {k: v for k, v in vars(example).items() if k not in ("frames", "tag_ids", "intent_id")}


@given(st.lists(st.sampled_from(lexicon()), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_the_hypothesis_of_a_transcripts_greedy_ids_is_its_prepared_example(words):
    model = tiny_model()
    frames = model.subsample(tiny_features())
    ids = [model.asr_pieces.index(t) for t in tokenize(words, model.asr_vocab).tokens]
    hyp_words, example = model.hypothesis(frames, ids)
    want = model.prepare(frames, words, ["O"] * len(words), "airfare")  # 12 words take at most 24 of 32 positions
    assert hyp_words == words and example.frames is frames
    assert _labels_apart(example) == _labels_apart(want)
    assert (example.tag_ids, example.intent_id) == ([], None)


def test_a_hypothesis_takes_its_first_asr_subwords_from_merge_tokens():
    model = tiny_model()
    frames = model.subsample(tiny_features())
    # a leading continuation piece opens a word, and the unknown piece always stands alone
    tokens = ["tin", "▁show", model.asr_vocab.unk, "▁to", "▁aus", "tin", model.asr_vocab.unk, "ver"]
    ids = [model.asr_pieces.index(t) for t in tokens]
    words, example = model.hypothesis(frames, ids)
    assert (words, example.first_a) == merge_tokens(tokens, model.asr_vocab)
    assert words == ["tin", "show", "<unk>", "to", "austin", "<unk>", "ver"]
    assert example.first_a == [0, 1, 2, 3, 4, 6, 7]
    assert example.asr_inputs == [model.bos_id] + ids and example.asr_targets == ids + [model.eos_id]
    nlu = tokenize(words, model.nlu_vocab)
    assert example.first_b == nlu.first_index
    assert example.nlu_ids == [model.nlu_pieces.index(t) for t in nlu.tokens]


def test_a_hypothesis_past_the_nlu_positions_keeps_the_longest_word_prefix_that_fits():
    model = tiny_model()
    frames = model.subsample(tiny_features())
    # austin and denver take two ASR subwords each, boston and monday two NLU subwords each: the
    # first 17 words take 18 ASR and exactly 32 NLU subwords, and denver's would make 33 of 32
    words = ["show", "austin", "boston"] + ["boston", "monday"] * 7 + ["denver", "to", "monday"]
    ids = [model.asr_pieces.index(t) for t in tokenize(words, model.asr_vocab).tokens]
    hyp_words, example = model.hypothesis(frames, ids)
    kept = words[:17]
    assert hyp_words == kept and example.frames is frames
    assert example.asr_inputs == [model.bos_id] + ids[:18] and example.asr_targets == ids[:18] + [model.eos_id]
    assert example.first_a == [0, 1, 3] + list(range(4, 18))
    nlu = tokenize(kept, model.nlu_vocab)
    assert len(nlu.tokens) == model.config.max_positions
    assert example.nlu_ids == [model.nlu_pieces.index(t) for t in nlu.tokens]
    assert example.first_b == [0, 1, 2] + list(range(4, 32, 2))
    assert (example.tag_ids, example.intent_id) == ([], None)


def test_an_empty_hypothesis_has_no_example():
    model = tiny_model()
    assert model.hypothesis(model.subsample(tiny_features()), []) == ([], None)


def test_decode_corpus_decodes_each_record_and_names_the_one_that_fails():
    model = tiny_model(seed=3)
    records = [Utterance(f"u{i}", ["show"], ["O"], "airfare") for i in range(3)]
    features = [tiny_features(seed, frames=10) for seed in (4, 5)] + [tiny_features(6, frames=80)]
    hyps = decode_corpus(model, records[:2], features[:2], beam_size=3)
    for rec, feats, hyp in zip(records, features, hyps):
        result = decode_two_step(model, feats, beam_size=3)
        assert hyp == Utterance(rec.id, result.words, result.slots, result.intent)
    # 80 frames at stride 2 are 40 encoder frames, past max_positions 32
    with pytest.raises(ValidationError, match="record 'u2': 40 frames exceed max_positions 32"):
        decode_corpus(model, records, features, beam_size=3)


def test_decode_crf_head_uses_viterbi_path():
    model = tiny_model(seed=5, slot_head="crf")
    result = decode_two_step(model, tiny_features(7, frames=10), beam_size=3, max_len=8)
    assert len(result.slots) == len(result.words)


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_step_two_reads_the_words_that_fit_the_nlu_positions(monkeypatch, slot_head):
    config = ModelConfig(feature_dim=20, slot_head=slot_head)
    model = JointModel(config, asr_vocab(), nlu_vocab(), ["O", "B-toloc"], ["find_flight", "airfare"])
    model.init_params()
    model.params["asr.out_b"].data[model.asr_pieces.index("▁boston")] = 50.0
    feats = np.random.default_rng(0).normal(size=(30, 20))
    seen = _step_two_outputs(monkeypatch, model)
    result = decode_two_step(model, feats)
    # 40 beam tokens, one word each, but two NLU subwords per word: 32 words fit 64 positions
    assert result.words == ["boston"] * 32 and len(result.slots) == 32
    boston = model.asr_pieces.index("▁boston")
    assert seen[0][0].asr_targets == [boston] * 32 + [model.eos_id]  # the ASR side is cut at the same word
    _assert_heads_match_forward(model, seen, result)  # over 41 beam rows, of which the cut example reads 32
    with no_grad():
        logp = beam_search_transcript(model, model.encode_features(model.subsample(feats)), 5)[1]
    assert (result.asr_tokens, result.asr_logprob) == (["▁boston"] * 40, logp)


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_decode_records_no_graph_and_leaves_params_alone(monkeypatch, slot_head):
    model = tiny_model(seed=5, slot_head=slot_head)
    assert all(t.requires_grad for t in model.params.values())
    arrays = {name: t.data for name, t in model.params.items()}
    nodes = []
    op = Tensor._op

    def recording_op(data, parents, backward):
        nodes.append(op(data, parents, backward))
        return nodes[-1]

    monkeypatch.setattr(Tensor, "_op", staticmethod(recording_op))
    result = decode_two_step(model, tiny_features(7, frames=10), beam_size=3, max_len=8)
    assert result.words  # step two ran, not only the beam search
    assert nodes and all(not node._parents and not node.requires_grad for node in nodes)
    for name, tensor in model.params.items():
        assert tensor.data is arrays[name] and tensor.grad is None, name


@pytest.mark.parametrize("variant", ["random", "all-ties", "eos-penalised"])
def test_beam_step_matches_the_reference_bit_for_bit(variant):
    closed_out = []  # per search: did it reach the max_len close-out (a decoder call at step max_len)?
    for seed in range(8):
        model = micro_model(seed)
        if variant == "all-ties":
            model.params["asr.out_w"].data[:] = 0.0
            model.params["asr.out_b"].data[:] = 0.0
        elif variant == "eos-penalised":  # no finished prefix stops the search early
            model.params["asr.out_b"].data[model.eos_id] -= 50.0
        steps = []
        decoder_states = model.decoder_states

        def recording_decoder_states(prev_ids, positions, enc):
            steps.extend(positions)
            return decoder_states(prev_ids, positions, enc)

        model.decoder_states = recording_decoder_states
        with no_grad():
            enc = model.encode_features(np.random.default_rng(seed).normal(size=(5, 4)))
            for beam_size in (1, 2, 3, 5, model.asr_output_size):
                for max_len in (0, 1, 4):
                    want = beam_search_reference(model, enc, beam_size, max_len)
                    steps.clear()
                    got = beam_search_transcript(model, enc, beam_size, max_len)
                    assert got[0] == want[0] and got[1] == want[1], (seed, beam_size, max_len)
                    closed_out.append(max(steps) == max_len)
    assert any(closed_out) and (variant != "eos-penalised" or all(closed_out))


def test_a_decode_that_raises_leaves_recording_on_for_training():
    model = tiny_model(seed=6)
    with pytest.raises(DecodeError, match="beam size"):
        decode_two_step(model, tiny_features(2, frames=10), beam_size=0)  # raises inside its no_grad block
    example = tiny_example(model, ["show", "flights", "to", "boston"], ["O", "O", "O", "B-toloc"], "find_flight")
    loss = joint_loss(model, example)[0]
    assert loss._parents and loss.requires_grad
    loss.backward()
    for name, tensor in model.params.items():
        assert tensor.grad is not None and tensor.grad.any(), name

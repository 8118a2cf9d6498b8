import numpy as np
import pytest

import oracles
import slu.model
from slu.audio import FeatureConfig
from slu.data import Utterance, build_manifest
from slu.decode import decode_two_step
from slu.errors import NumericError, ValidationError
from slu.model import JointModel, ModelConfig
from slu.synth import asr_vocab, build_corpus, nlu_vocab, utterance_audio, word_waveform
from slu.train import StageConfig, TrainConfig, corpus_features, evaluate_train_set, train

FEATURE = FeatureConfig()


def small_corpus(n=4, seed=1):
    return build_corpus(n, seed=seed)


def small_model(corpus, seed=0, stride=3, slot_head="linear"):
    tags = sorted({t for rec in corpus.records for t in rec.slots})
    intents = sorted(corpus.intent_vocabulary)
    config = ModelConfig(
        feature_dim=FEATURE.num_bands, asr_hidden=12, nlu_hidden=10,
        subsample_stride=stride, max_positions=64, slot_head=slot_head,
    )
    model = JointModel(config, asr_vocab(), nlu_vocab(), tags, intents)
    model.init_params(seed)
    return model


def test_loss_curve_deterministic():
    corpus = small_corpus()
    cfg = TrainConfig(seed=5, stages=[StageConfig("asr_pretrain", epochs=4, lr=0.05, momentum=0.9)])
    h1 = train(small_model(corpus, 2), corpus, cfg, FEATURE)
    h2 = train(small_model(corpus, 2), corpus, cfg, FEATURE)
    assert [row["loss"] for row in h1] == [row["loss"] for row in h2]


def test_asr_loss_nonincreasing_on_single_utterance():
    corpus = build_corpus(1, seed=3)
    cfg = TrainConfig(seed=0, stages=[StageConfig("asr_pretrain", epochs=10, lr=0.005)])
    history = train(small_model(corpus), corpus, cfg, FEATURE)
    losses = [row["loss"] for row in history]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_joint_loss_nonincreasing_on_single_utterance():
    corpus = build_corpus(1, seed=4)
    model = small_model(corpus)
    cfg = TrainConfig(
        seed=0,
        stages=[
            StageConfig("asr_pretrain", epochs=5, lr=0.01),
            StageConfig("joint_finetune", epochs=10, lr=0.002),
        ],
    )
    history = train(model, corpus, cfg, FEATURE)
    joint = [row["loss"] for row in history if row["stage"] == "joint_finetune"]
    assert all(b <= a + 1e-9 for a, b in zip(joint, joint[1:]))


def test_overfit_single_utterance_decodes_exactly():
    corpus = build_corpus(1, seed=6)
    rec = corpus.records[0]
    model = small_model(corpus, seed=1)
    cfg = TrainConfig(
        seed=2,
        stages=[
            StageConfig("asr_pretrain", epochs=150, lr=0.08, momentum=0.9),
            StageConfig("joint_finetune", epochs=120, lr=0.02, momentum=0.9),
        ],
    )
    train(model, corpus, cfg, FEATURE)
    feats = corpus_features(corpus, FEATURE)[0]
    result = decode_two_step(model, feats, beam_size=5)
    assert result.words == rec.words
    assert result.slots == rec.slots
    assert result.intent == rec.intent


# Largest relative epoch-loss gap measured between the fused loss nodes and their
# unfused compositions: 2.4e-15 over this schedule on corpus seeds 0-5 under both
# heads, and 3.9e-15 over the 200 epochs (about 10,000 momentum-SGD steps) of the
# smoke pipeline.  The bound leaves a margin of about 25x over the larger figure.
FUSION_LOSS_RTOL = 1e-13
# Largest parameter gap measured on the same runs: 2.0e-14 (smoke pipeline); margin 50x.
FUSION_PARAM_ATOL = 1e-12


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_fused_losses_train_like_their_unfused_compositions(slot_head, monkeypatch):
    corpus = build_corpus(6, seed=4)
    cfg = TrainConfig(
        seed=4,
        stages=[
            StageConfig("asr_pretrain", epochs=8, lr=0.05, momentum=0.9),
            StageConfig("joint_finetune", epochs=12, lr=0.02, momentum=0.9),
        ],
    )
    fused = small_model(corpus, seed=4, slot_head=slot_head)
    fused_history = train(fused, corpus, cfg, FEATURE)
    calls = {"nll_rows": 0, "crf_nll_t": 0}

    def counted(name, composition):
        def call(*args):
            calls[name] += 1
            return composition(*args)
        return call

    monkeypatch.setattr(slu.model, "nll_rows", counted("nll_rows", oracles.nll_rows_unfused))
    monkeypatch.setattr(slu.model, "crf_nll_t", counted("crf_nll_t", oracles.crf_nll_t_unfused))
    unfused = small_model(corpus, seed=4, slot_head=slot_head)
    unfused_history = train(unfused, corpus, cfg, FEATURE)
    assert calls["nll_rows"] > 0 and (calls["crf_nll_t"] > 0) == (slot_head == "crf")

    assert [(r["stage"], r["epoch"]) for r in fused_history] == [(r["stage"], r["epoch"]) for r in unfused_history]
    for a, b in zip(fused_history, unfused_history):
        assert abs(a["loss"] - b["loss"]) <= FUSION_LOSS_RTOL * abs(b["loss"]), (a, b)
    for name, tensor in fused.params.items():
        assert np.abs(tensor.data - unfused.params[name].data).max() <= FUSION_PARAM_ATOL, name
    for feats in corpus_features(corpus, FEATURE):
        a, b = decode_two_step(fused, feats, beam_size=3), decode_two_step(unfused, feats, beam_size=3)
        assert (a.words, a.slots, a.intent) == (b.words, b.slots, b.intent)


def test_train_tokenizes_each_record_once_per_vocabulary(monkeypatch):
    corpus = small_corpus(3)
    calls = []
    tokenize = slu.model.tokenize

    def counting_tokenize(words, vocab):
        calls.append(vocab.kind)
        return tokenize(words, vocab)

    monkeypatch.setattr(slu.model, "tokenize", counting_tokenize)
    cfg = TrainConfig(  # eval_every 0: no decode polls
        seed=0,
        stages=[
            StageConfig("asr_pretrain", epochs=2, lr=0.05),
            StageConfig("joint_finetune", epochs=3, lr=0.01),
        ],
    )
    train(small_model(corpus), corpus, cfg, FEATURE)
    assert len(calls) == 2 * len(corpus.records)


def test_speech_stages_build_no_nlu_graph(monkeypatch):
    corpus = small_corpus(2)
    model = small_model(corpus, seed=3)
    calls = []
    nlu_states = model.nlu_states

    def counting_nlu_states(*args):
        calls.append(1)
        return nlu_states(*args)

    monkeypatch.setattr(model, "nlu_states", counting_nlu_states)
    speech = [StageConfig("asr_pretrain", epochs=2, lr=0.05), StageConfig("asr_finetune", epochs=1, lr=0.05)]
    train(model, corpus, TrainConfig(seed=0, stages=speech), FEATURE)
    assert calls == []
    joint = [StageConfig("joint_finetune", epochs=1, lr=0.01)]
    train(model, corpus, TrainConfig(seed=0, stages=joint), FEATURE)
    assert len(calls) == len(corpus.records)


def test_stage_loss_selection():
    # the speech stages must not move NLU/head parameters
    corpus = small_corpus(2)
    model = small_model(corpus, seed=4)
    before = {n: t.data.copy() for n, t in model.params.items()}
    cfg = TrainConfig(seed=0, stages=[StageConfig("asr_finetune", epochs=2, lr=0.05)])
    train(model, corpus, cfg, FEATURE)
    for name, tensor in model.params.items():
        if name.startswith(("nlu.", "ic.", "sl.")):
            assert np.array_equal(tensor.data, before[name]), name
        if name.startswith("asr."):
            assert not np.array_equal(tensor.data, before[name]), name


def test_two_stage_mode_freezes_asr_during_joint():
    corpus = small_corpus(2)
    model = small_model(corpus, seed=5)
    pre = {n: t.data.copy() for n, t in model.params.items() if n.startswith("asr.")}
    cfg = TrainConfig(
        seed=0, mode="two_stage",
        stages=[StageConfig("joint_finetune", epochs=2, lr=0.05)],
    )
    train(model, corpus, cfg, FEATURE)
    # transcript loss still reaches the speech branch in the joint stage
    changed = any(not np.array_equal(model.params[n].data, pre[n]) for n in pre)
    assert changed


def test_pretrain_manifest_feeds_first_stage():
    target = small_corpus(2, seed=8)
    external = build_corpus(6, seed=9)
    model = small_model(target, seed=6)
    cfg = TrainConfig(
        seed=1,
        stages=[
            StageConfig("asr_pretrain", epochs=2, lr=0.05),
            StageConfig("asr_finetune", epochs=2, lr=0.05),
        ],
    )
    history = train(model, target, cfg, FEATURE, pretrain_manifest=external)
    assert len(history) == 4


def test_nan_divergence_aborts():
    corpus = small_corpus(2)
    model = small_model(corpus, seed=7)
    model.params["asr.out_w"].data[0, 0] = np.nan  # simulate a diverged state
    cfg = TrainConfig(seed=0, stages=[StageConfig("joint_finetune", epochs=2, lr=0.01)])
    with pytest.raises(NumericError):
        train(model, corpus, cfg, FEATURE)


def test_non_finite_gradient_names_parameter():
    from slu.autodiff import Tensor
    from slu.train import _Sgd

    weight = Tensor(np.zeros((2, 2)), requires_grad=True)
    weight.grad = np.full((2, 2), np.nan)
    opt = _Sgd({"sl.w": weight}, lr=0.1, momentum=0.0)
    with pytest.raises(NumericError, match="sl.w"):
        opt.step()


def test_empty_manifest_rejected():
    corpus = build_manifest([])
    model = small_model(small_corpus(1))
    cfg = TrainConfig(stages=[StageConfig("asr_pretrain", epochs=1, lr=0.1)])
    with pytest.raises(ValidationError):
        train(model, corpus, cfg, FEATURE)


def test_records_without_audio_rejected():
    manifest = build_manifest([Utterance("u0", ["show"], ["O"], "goodbye")])
    with pytest.raises(ValidationError, match="u0"):
        corpus_features(manifest, FEATURE)


def test_evaluate_train_set_reports_both_metrics():
    corpus = small_corpus(3)
    model = small_model(corpus, seed=8)
    feats = corpus_features(corpus, FEATURE)
    metrics = evaluate_train_set(model, corpus, feats, beam_size=2)
    assert set(metrics) == {"slots_edit_f1", "intent_accuracy"}
    assert 0.0 <= metrics["slots_edit_f1"] <= 1.0
    assert 0.0 <= metrics["intent_accuracy"] <= 1.0


def test_stage_config_validation():
    with pytest.raises(ValidationError):
        StageConfig("warmup", epochs=1, lr=0.1)
    with pytest.raises(ValidationError):
        StageConfig("asr_pretrain", epochs=1, lr=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(beam_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(mode="three_stage")


def test_corpus_records_carry_playable_audio():
    corpus = build_corpus(3, seed=2)
    for rec in corpus.records:
        clip = utterance_audio(rec.words)
        assert np.array_equal(clip.samples, np.asarray(rec.samples))
        assert np.abs(clip.samples).max() <= 1.0


def test_cached_word_waveform_is_read_only_and_utterances_are_copies():
    wave = word_waveform("boston")
    assert word_waveform("boston") is wave and not wave.flags.writeable
    clip = utterance_audio(["boston", "boston"])
    assert clip.samples.flags.writeable
    clip.samples[:] = 0.0
    assert np.abs(word_waveform("boston")).max() > 0.0

import collections
import json

import numpy as np
import pytest

import model_oracles as oracles
import slu.decode
import slu.model
from slu.audio import FeatureConfig
from slu.autodiff import Tensor
from slu.cli import main
from slu.data import Utterance, build_manifest
from slu.decode import decode_two_step
from slu.errors import NumericError, ValidationError
from slu.model import JointModel, ModelConfig, load_checkpoint, save_checkpoint
from slu.synth import asr_vocab, build_corpus, nlu_vocab, utterance_audio, word_waveform, write_corpus
from slu.train import StageConfig, TrainConfig, _Sgd, corpus_features, train

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


def train_fusion_schedule(corpus, slot_head, mode="e2e"):
    """A fresh model and its history after both stages of a short momentum-SGD schedule."""
    cfg = TrainConfig(
        seed=4,
        mode=mode,
        stages=[
            StageConfig("asr_pretrain", epochs=8, lr=0.05, momentum=0.9),
            StageConfig("joint_finetune", epochs=12, lr=0.02, momentum=0.9),
        ],
    )
    model = small_model(corpus, seed=4, slot_head=slot_head)
    return model, train(model, corpus, cfg, FEATURE)


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_fused_losses_train_like_their_unfused_compositions(slot_head, monkeypatch):
    corpus = build_corpus(6, seed=4)
    fused, fused_history = train_fusion_schedule(corpus, slot_head)
    calls = {"nll": 0, "crf_nll_t": 0}

    def counted(name, composition):
        def call(*args, **kwargs):
            calls[name] += 1
            return composition(*args, **kwargs)
        return call

    monkeypatch.setattr(slu.model, "nll", counted("nll", oracles.nll_unfused))
    monkeypatch.setattr(slu.model, "crf_nll_t", counted("crf_nll_t", oracles.crf_nll_t_unfused))
    unfused, unfused_history = train_fusion_schedule(corpus, slot_head)
    assert calls["nll"] > 0 and (calls["crf_nll_t"] > 0) == (slot_head == "crf")

    assert [(r["stage"], r["epoch"]) for r in fused_history] == [(r["stage"], r["epoch"]) for r in unfused_history]
    for a, b in zip(fused_history, unfused_history):
        assert abs(a["loss"] - b["loss"]) <= FUSION_LOSS_RTOL * abs(b["loss"]), (a, b)
    for name, tensor in fused.params.items():
        assert np.abs(tensor.data - unfused.params[name].data).max() <= FUSION_PARAM_ATOL, name
    for feats in corpus_features(corpus, FEATURE):
        a, b = decode_two_step(fused, feats, beam_size=3), decode_two_step(unfused, feats, beam_size=3)
        assert (a.words, a.slots, a.intent) == (b.words, b.slots, b.intent)


@pytest.mark.parametrize("mode", ["e2e", "two_stage"])
@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_layer_nodes_train_and_decode_bit_identically_to_their_compositions(slot_head, mode, monkeypatch):
    corpus = build_corpus(6, seed=4)
    features = corpus_features(corpus, FEATURE)

    def run():
        model, history = train_fusion_schedule(corpus, slot_head, mode)
        return model, history, [decode_two_step(model, feats, beam_size=3) for feats in features]

    fused, fused_history, fused_decodes = run()
    calls = collections.Counter()

    def counted(name, composition):
        def call(*args):
            calls[name] += 1
            return composition(*args)
        return call

    # the compositions multiply with ``@`` and reduce with ``.sum``, the nodes with ``.dot`` and ``np.add.reduce``
    names = {"encoder_layer", "decoder_layer", "nlu_layer", "word_rows", "intent_head", "linear"}
    for name in names:
        monkeypatch.setattr(slu.model, name, counted(name, getattr(oracles, f"{name}_unfused")))
    unfused, unfused_history, unfused_decodes = run()
    assert set(calls) == names

    def losses(history):
        return [(r["stage"], r["epoch"], r["loss"]) for r in history]

    assert losses(fused_history) == losses(unfused_history)
    for name, tensor in fused.params.items():
        assert np.array_equal(tensor.data, unfused.params[name].data), name
    assert fused_decodes == unfused_decodes  # words, slots, intent, subwords and asr_logprob


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


SGD_SHAPES = {"a.w": (3, 4), "a.b": (4,), "b.w": (2, 3), "b.b": (3,), "c.w": (4, 2), "c.b": (2,)}
# which parameters (by position) get a gradient on every step: gaps at the start,
# in the middle and at the end give the flat step several runs, or none
GRADIENT_PATTERNS = {
    "all": [0, 1, 2, 3, 4, 5],
    "none": [],
    "gap-start": [2, 3, 4, 5],
    "gap-middle": [0, 1, 3, 5],
    "gap-end": [0, 1, 2],
}


def sgd_params(seed=0):
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in SGD_SHAPES.items()}


def give_gradients(params, with_grad, rng):
    for i, tensor in enumerate(params.values()):
        tensor.grad = rng.normal(size=tensor.data.shape) if i in with_grad else None


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("pattern", GRADIENT_PATTERNS)
def test_sgd_matches_the_per_parameter_loop_bitwise(pattern, momentum):
    flat, loop = sgd_params(), sgd_params()
    opt = _Sgd(flat, lr=0.05, momentum=momentum)
    velocity = {name: np.zeros_like(t.data) for name, t in loop.items()}
    rng = np.random.default_rng(3)
    for step in range(5):
        with_grad = GRADIENT_PATTERNS[pattern] if step % 2 else range(len(SGD_SHAPES))  # alternate with full steps
        give_gradients(flat, with_grad, rng)
        for a, b in zip(flat.values(), loop.values()):
            b.grad = None if a.grad is None else a.grad.copy()
        opt.step()
        oracles.sgd_step_per_param(loop, velocity, lr=0.05, momentum=momentum)
        for name in SGD_SHAPES:
            assert flat[name].data.tobytes() == loop[name].data.tobytes(), (step, name)
            assert opt.velocity[name].tobytes() == velocity[name].tobytes(), (step, name)


def test_sgd_step_is_all_or_nothing_on_a_non_finite_gradient():
    params = sgd_params(1)
    opt = _Sgd(params, lr=0.05, momentum=0.9)
    rng = np.random.default_rng(4)
    give_gradients(params, range(len(SGD_SHAPES)), rng)
    opt.step()  # every velocity is now non-zero
    data = {name: t.data.copy() for name, t in params.items()}
    velocity = {name: v.copy() for name, v in opt.velocity.items()}
    give_gradients(params, GRADIENT_PATTERNS["gap-middle"], rng)  # runs a.w, a.b | b.b | c.b
    params["c.b"].grad[1] = np.nan  # in the last run
    params["b.b"].grad[0] = np.inf  # in an earlier run: the one the error names
    with pytest.raises(NumericError, match="'b.b'"):
        opt.step()
    for name, tensor in params.items():
        assert tensor.data.tobytes() == data[name].tobytes(), name
        assert opt.velocity[name].tobytes() == velocity[name].tobytes(), name


def test_sgd_parameters_are_views_of_one_buffer_updated_in_place():
    corpus = small_corpus(2)
    model = small_model(corpus, seed=9)
    before = {name: t.data.copy() for name, t in model.params.items()}
    opt = _Sgd(model.params, lr=0.05, momentum=0.9)
    tensors = list(model.params.values())
    buffer = tensors[0].data.base
    assert buffer is not None and buffer.ndim == 1
    offset = 0
    for name, tensor in model.params.items():
        assert tensor.data.base is buffer and np.array_equal(tensor.data, before[name]), name
        start = tensor.data.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
        assert start == offset * buffer.itemsize, name  # laid out in params order, with no gaps
        offset += tensor.data.size
        assert opt.velocity[name].shape == tensor.data.shape and not opt.velocity[name].any(), name
    assert offset == buffer.size
    arrays = {name: t.data for name, t in model.params.items()}
    give_gradients(model.params, range(len(tensors)), np.random.default_rng(5))
    opt.step()
    for name, tensor in model.params.items():
        assert tensor.data is arrays[name], name  # in place: the model's next pass, a decode too, reads the step
        assert not np.array_equal(tensor.data, before[name]), name


def test_a_new_stage_optimizer_reads_values_rebound_before_it_was_built():
    params = sgd_params(2)
    first = _Sgd(params, lr=0.05, momentum=0.9)
    give_gradients(params, range(len(SGD_SHAPES)), np.random.default_rng(6))
    first.step()
    rebound = np.full(SGD_SHAPES["b.w"], 0.25)
    params["b.w"].data = rebound  # e.g. a parameter set between two stages
    kept = {name: t.data.copy() for name, t in params.items()}
    second = _Sgd(params, lr=0.05, momentum=0.9)
    for name, tensor in params.items():
        assert np.array_equal(tensor.data, kept[name]) and not second.velocity[name].any(), name
    assert params["b.w"].data is not rebound
    give_gradients(params, [2], np.random.default_rng(7))
    second.step()
    assert params["b.w"].data.tobytes() == (rebound - 0.05 * params["b.w"].grad).tobytes()


def test_sgd_step_refuses_a_parameter_rebound_after_it_was_built():
    params = sgd_params(3)
    opt = _Sgd(params, lr=0.05, momentum=0.9)
    give_gradients(params, range(len(SGD_SHAPES)), np.random.default_rng(8))
    opt.step()  # every velocity is now non-zero
    params["b.w"].data = np.full(SGD_SHAPES["b.w"], 0.25)
    params["c.b"].data = np.zeros(SGD_SHAPES["c.b"])
    data = {name: t.data.copy() for name, t in params.items()}
    velocity = {name: v.copy() for name, v in opt.velocity.items()}
    with pytest.raises(ValidationError, match="'b.w'"):
        opt.step()
    for name, tensor in params.items():
        assert tensor.data.tobytes() == data[name].tobytes(), name
        assert opt.velocity[name].tobytes() == velocity[name].tobytes(), name


@pytest.mark.parametrize("stages", [1, 2])
def test_decoding_mid_training_equals_decoding_a_freshly_frozen_model(monkeypatch, tmp_path, stages):
    corpus = small_corpus(2)
    model = small_model(corpus, seed=7)
    polls = []
    decode = slu.decode.decode_two_step

    def checked(m, feats, beam_size):
        got = decode(m, feats, beam_size=beam_size)
        save_checkpoint(m, tmp_path / "snapshot.json")  # the current values, frozen as a checkpoint holds them
        snapshot, _, _ = load_checkpoint(tmp_path / "snapshot.json")
        assert got == decode(snapshot, feats, beam_size=beam_size)  # the log-probability too, bit for bit
        polls.append(m is model)
        return got

    monkeypatch.setattr(slu.decode, "decode_two_step", checked)
    joint = [StageConfig("joint_finetune", epochs=2, lr=0.05, momentum=0.9, eval_every=1)] * stages
    train(model, corpus, TrainConfig(seed=0, beam_size=2, stages=joint), FEATURE)
    assert polls == [True] * (2 * stages * len(corpus.records))  # every poll decodes the trained model itself


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


def test_a_training_logs_poll_figures_are_the_score_report_of_its_checkpoints_decode(tmp_path, capsys):
    paths = write_corpus(tmp_path / "corpus", 6, seed=11)
    config = {
        "seed": 3,
        "beam_size": 2,
        "model": {"asr_hidden": 8, "nlu_hidden": 8, "subsample_stride": 3},
        "stages": [
            {"stage": "asr_pretrain", "epochs": 20, "lr": 0.08, "momentum": 0.9},
            {"stage": "joint_finetune", "epochs": 6, "lr": 0.05, "momentum": 0.9, "eval_every": 1},
        ],
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    ckpt, hyps = tmp_path / "ckpt.json", tmp_path / "hyps.jsonl"
    assert main(["train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
                 "--out", str(ckpt)]) == 0
    assert main(["decode", "--ckpt", str(ckpt), "--manifest", str(paths.manifest), "--out", str(hyps)]) == 0
    capsys.readouterr()
    assert main(["score", "--refs", str(paths.manifest), "--hyps", str(hyps),
                 "--metrics", "slots-edit-f1,intent-f1"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = [json.loads(line) for line in ckpt.with_suffix(".log.jsonl").read_text().splitlines()]
    assert [row["epoch"] for row in rows if "slots_edit_f1" in row] == list(range(6))  # every joint epoch polled
    assert 0 < report["slots_edit_f1"]["f1"] < 1 and 0 < report["intent_f1"] < 1  # neither figure is trivial
    assert rows[-1]["slots_edit_f1"] == report["slots_edit_f1"]["f1"]
    assert rows[-1]["intent_accuracy"] == report["intent_f1"]


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
        assert np.array_equal(clip.samples, rec.clip.samples) and rec.clip.sample_rate == clip.sample_rate
        assert np.abs(clip.samples).max() <= 1.0


def test_cached_word_waveform_is_read_only_and_utterances_are_copies():
    wave = word_waveform("boston")
    assert word_waveform("boston") is wave and not wave.flags.writeable
    clip = utterance_audio(["boston", "boston"])
    assert clip.samples.flags.writeable
    clip.samples[:] = 0.0
    assert np.abs(word_waveform("boston")).max() > 0.0

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import contextlib
import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

import model_oracles
import oracles
from conftest import identity_slot_head, joint_loss, random_pair_corpus, random_subword_instance
from model_oracles import build_first_index_matrix, deserialize_slots, serialize_slots
from slu.audio import AudioClip, AugmentSpec, NoisePool, augment_corpus, read_wav, write_wav
from slu.autodiff import no_grad
from slu.cli import main as cli_main
from slu.data import Utterance, build_manifest, parse_manifest, write_manifest
from slu.decode import beam_search_transcript, decode_two_step
from slu.crf import crf_viterbi
from slu.metrics import corpus_wer, slots_edit_f1
from slu.model import JointModel, ModelConfig
from slu.subword import BPE, WORDPIECE, SubwordVocab, tokenize
from slu.synth import write_corpus, write_noise_dir, write_train_config


@contextlib.contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description} ({time.time() - start:.1f}s)")


def test_criterion_1_slots_edit_f1_matches_bruteforce():
    with criterion(1, "slots edit F1 equals brute-force alignment+tally on 1000 corpora"):
        start = time.time()
        rng = random.Random(20240817)
        for _ in range(1000):
            refs, hyps = random_pair_corpus(rng, rng.randint(1, 3), max_len=8, num_labels=4)
            report = slots_edit_f1(refs, hyps)
            expected = oracles.slots_edit_tallies(refs, hyps)
            got = {label: [t.tp, t.fp, t.fn] for label, t in report.per_label.items()}
            assert got == expected
            assert report.f1 == pytest.approx(oracles.f1_from_tallies(expected), abs=0)
        assert time.time() - start < 30.0


def test_criterion_2_wer_matches_quadratic_dp():
    with criterion(2, "WER equals the quadratic DP reference on 10000 pairs"):
        rng = random.Random(99)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(10000):
            ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            assert corpus_wer([ref], [hyp]) == oracles.lev_distance(ref, hyp) / len(ref)
        # aggregation over a corpus is permutation-invariant
        refs, hyps = random_pair_corpus(rng, 12)
        base = slots_edit_f1(refs, hyps)
        order = list(range(len(refs)))
        rng.shuffle(order)
        permuted = slots_edit_f1([refs[i] for i in order], [hyps[i] for i in order])
        assert permuted.f1 == base.f1
        assert {k: vars(v) for k, v in permuted.per_label.items()} == {
            k: vars(v) for k, v in base.per_label.items()
        }


def test_criterion_3_alignment_matrix_algebra():
    with criterion(3, "M^T M = I, projection = row gather, model hcat shape N x (Fa+Fb)"):
        rng = random.Random(7)
        np_rng = np.random.default_rng(7)
        fa, fb = 3, 4
        config = ModelConfig(feature_dim=2, asr_hidden=fa, nlu_hidden=fb, subsample_stride=1, max_positions=64)
        for i in range(1000):
            kind = BPE if i % 2 else WORDPIECE
            words, vocab = random_subword_instance(rng, kind)
            result = tokenize(words, vocab)
            m = build_first_index_matrix(result)
            n = len(words)
            assert np.array_equal(m.T @ m, np.eye(n))
            hidden = np_rng.normal(size=(len(result[0]), 3))
            assert np.array_equal(m.T @ hidden, hidden[result[1]])
            other_kind = WORDPIECE if kind == BPE else BPE
            _, other_vocab = random_subword_instance(rng, other_kind)
            result_b = tokenize(words, other_vocab)
            # the concatenation JointModel.forward builds from the two tokenizations
            model = JointModel(config, vocab, other_vocab, ["O"], ["x"])
            model.init_params(i)
            example = model.prepare(model.subsample(np_rng.normal(size=(3, 2))), words)
            cat = identity_slot_head(model).forward(example).slot_scores.data
            ha, hb = model.teacher_forced(example)[0].data[:-1], model.nlu_states(example.nlu_ids).data
            assert (ha.shape, hb.shape) == ((len(result[0]), fa), (len(result_b[0]), fb))
            assert cat.shape == (n, fa + fb)
            m_b = build_first_index_matrix(result_b)
            assert np.array_equal(cat, np.concatenate([m.T @ ha, m_b.T @ hb], axis=1))


def test_criterion_4_snr_fidelity_and_fivefold(tmp_path):
    with criterion(4, "re-measured SNR within 1e-6 dB; five-fold corpus; disjoint noise"):
        rng = np.random.default_rng(11)
        levels = [0.0, 10.0, 20.0, 30.0, 40.0]
        for i in range(100):
            length = int(rng.integers(800, 4000))
            clean = AudioClip(0.2 * np.sin(np.linspace(0, rng.uniform(50, 300), length)), 16000)
            noise = AudioClip(0.1 * rng.standard_normal(int(rng.integers(500, 3000))), 16000)
            target = levels[i % len(levels)]
            result = model_oracles.mix_at_snr_report(clean, noise, target)
            assert result.clipped == 0
            scaled = result.audio.samples - clean.samples
            assert abs(model_oracles.measured_snr_db(clean.samples, scaled) - target) < 1e-6

        wav_dir = tmp_path / "clean"
        wav_dir.mkdir()
        records = []
        for i in range(10):
            write_wav(AudioClip(0.3 * np.sin(np.linspace(0, 100 + 10 * i, 2000)), 16000),
                      wav_dir / f"u{i}.wav")
            records.append(Utterance(f"u{i}", ["hi"], ["O"], "greet", f"u{i}.wav"))
        manifest = build_manifest(records, wav_dir)
        noise_dir = tmp_path / "noise"
        noise_dir.mkdir()
        for i in range(12):
            write_wav(AudioClip(0.2 * rng.standard_normal(1600), 16000), noise_dir / f"n{i}.wav")
        pool = NoisePool.from_directory(noise_dir)
        assert not set(pool.train_noises) & set(pool.test_noises)
        spec = AugmentSpec(snr_levels_db=tuple(levels), noises_per_clip=5, seed=17)
        train_out, train_prov = augment_corpus(manifest, pool, spec, "train", tmp_path / "aug_train")
        test_out, test_prov = augment_corpus(manifest, pool, spec, "test", tmp_path / "aug_test")
        assert len(train_out.records) == 50 and len(test_out.records) == 50
        train_used = {p["noise"] for p in train_prov}
        test_used = {p["noise"] for p in test_prov}
        assert train_used <= set(pool.train_noises)
        assert test_used <= set(pool.test_noises)
        assert not train_used & test_used


def _gradcheck_model(seed: int, slot_head: str) -> tuple[JointModel, np.ndarray, list, list, str]:
    asr = SubwordVocab.create(BPE, {"▁a", "▁b", "cc", "▁d"})
    nlu = SubwordVocab.create(WORDPIECE, {"a", "b", "##cc", "d"})
    config = ModelConfig(feature_dim=4, asr_hidden=4, nlu_hidden=3,
                         subsample_stride=2, slot_head=slot_head, max_positions=12)
    model = JointModel(config, asr, nlu, ["O", "B-x", "B-y"], ["p", "q"])
    model.init_params(seed)
    rng = np.random.default_rng(seed + 1000)
    n_words = int(rng.integers(1, 4))
    words = [str(rng.choice(["a", "b", "d", "accd"])) for _ in range(n_words)]
    slots = [str(rng.choice(["O", "B-x", "B-y"])) for _ in range(n_words)]
    intent = str(rng.choice(["p", "q"]))
    features = rng.normal(size=(int(rng.integers(4, 9)), 4))
    return model, features, words, slots, intent


def test_criterion_5_gradient_checks():
    with criterion(5, "analytic vs central-difference gradients, rel err < 1e-4; stop-gradient exact"):
        h = 1e-4
        for seed in range(20):
            slot_head = "crf" if seed % 2 else "linear"
            model, feats, words, slots, intent = _gradcheck_model(seed, slot_head)
            example = model.prepare(model.subsample(feats), words, slots, intent)
            model.zero_grads()
            total, _, _ = joint_loss(model, example)
            total.backward()
            fd = model_oracles.finite_difference(
                lambda: joint_loss(model, example)[0].item(),
                {name: t.data for name, t in model.params.items()},
                h=h,
            )
            for name, tensor in model.params.items():
                analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd[name])), 1e-8)
                assert (np.abs(analytic - fd[name]) / denom).max() < 1e-4, (seed, name)

        def nlu_to_asr_grad(stop: bool) -> float:
            model, feats, words, slots, intent = _gradcheck_model(999, "linear")
            example = model.prepare(model.subsample(feats), words, slots, intent)
            model.zero_grads()
            out = model.forward(example, stop_asr_grad=stop)
            model.loss_nlu(out.slot_scores, out.intent_logits, example.tag_ids, example.intent_id).backward()
            return sum(
                float(np.abs(t.grad).sum())
                for n, t in model.params.items()
                if n.startswith("asr.") and t.grad is not None
            )

        assert nlu_to_asr_grad(stop=True) == 0.0
        assert nlu_to_asr_grad(stop=False) > 0.0


def test_criterion_6_crf_exactness():
    with criterion(6, "CRF logZ, path probabilities, Viterbi match enumeration (<=5 tags, <=6 positions)"):
        rng = np.random.default_rng(21)
        for k in range(1, 6):
            for n in range(1, 7):
                emissions = rng.normal(size=(n, k))
                crf = model_oracles.CrfScores(rng.normal(size=(k, k)), rng.normal(size=k), rng.normal(size=k))
                log_z, best, scores = model_oracles.crf_enumerate(emissions, crf.transitions, crf.start, crf.end)
                assert abs(model_oracles.crf_log_z(emissions, crf) - log_z) < 1e-10
                assert crf_viterbi(emissions, *crf) == best
                z = model_oracles.crf_log_z(emissions, crf)
                assert abs(sum(math.exp(s - z) for s in scores.values()) - 1.0) < 1e-10


def test_criterion_7_two_step_decoding():
    with criterion(7, "beam 1 equals greedy; width >= vocab^length equals exhaustive argmax"), no_grad():
        asr = SubwordVocab.create(BPE, {"▁a", "▁b", "c"})
        nlu = SubwordVocab.create(WORDPIECE, {"a", "b", "##c"})
        config = ModelConfig(feature_dim=4, asr_hidden=4, nlu_hidden=3, subsample_stride=1, max_positions=16)
        max_len = 4
        for seed in range(6):
            model = JointModel(config, asr, nlu, ["O", "B-x"], ["p", "q"])
            model.init_params(seed)
            feats = np.random.default_rng(seed).normal(size=(5, 4))
            enc = model.encode_features(feats)

            # greedy reference
            tokens, logp, prev = [], 0.0, model.bos_id
            for step in range(max_len + 1):
                lp = model_oracles.step_logprobs(model, enc, prev, step)
                pick = int(np.argmax(lp)) if step < max_len else model.eos_id
                logp += float(lp[pick])
                if pick == model.eos_id:
                    break
                tokens.append(pick)
                prev = pick
            beam_tokens, beam_logp, _ = beam_search_transcript(model, enc, beam_size=1, max_len=max_len)
            assert beam_tokens == tokens and beam_logp == pytest.approx(logp, abs=1e-12)

            # exhaustive argmax over all sequences up to the length bound
            table = {}

            def lp_at(prev_id, step):
                if (prev_id, step) not in table:
                    table[(prev_id, step)] = model_oracles.step_logprobs(model, enc, prev_id, step)
                return table[(prev_id, step)]

            import itertools

            best = None
            for length in range(max_len + 1):
                for seq in itertools.product(range(len(model.asr_pieces)), repeat=length):
                    prev_ids = [model.bos_id] + list(seq)
                    score = sum(float(lp_at(prev_ids[i], i)[tok]) for i, tok in enumerate(seq))
                    score += float(lp_at(prev_ids[-1], length)[model.eos_id])
                    if best is None or score > best[1] or (score == best[1] and seq < best[0]):
                        best = (seq, score)
            width = model.asr_output_size**max_len
            wide_tokens, wide_logp, _ = beam_search_transcript(
                model, model.encode_features(feats), beam_size=width, max_len=max_len
            )
            assert wide_tokens == list(best[0])
            assert wide_logp == pytest.approx(best[1], abs=1e-10)

            result = decode_two_step(model, feats, beam_size=3, max_len=max_len)
            assert len(result.slots) == len(result.words)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """The smoke pipeline, as ``scripts/run_smoke_pipeline.py`` runs it, once per
    slot head and only when a test asks for that head: ``smoke_run(head)`` trains
    the default config with that head, decodes the clean set and the test-split
    augmentation, and returns the log rows and each ``slu score`` JSON report."""
    runs = {}

    def run(slot_head):
        if slot_head not in runs:
            runs[slot_head] = _smoke_pipeline(tmp_path_factory.mktemp(f"smoke_{slot_head}"), slot_head)
        return runs[slot_head]

    return run


def _smoke_pipeline(root, slot_head):
    start = time.time()
    paths = write_corpus(root / "corpus", 50, seed=7)
    config_path = root / "corpus" / "train_config.json"
    write_train_config(config_path)
    config = json.loads(config_path.read_text())
    config["asr_vocab"] = "vocab_asr.txt"
    config["nlu_vocab"] = "vocab_nlu.txt"
    config["model"]["slot_head"] = slot_head
    config_path.write_text(json.dumps(config))
    ckpt = root / "ckpt.json"

    def slu(*argv):
        assert cli_main([str(a) for a in argv]) == 0, argv

    def decode_and_score(manifest, name):
        hyp = root / f"hyp_{name}.jsonl"
        slu("decode", "--ckpt", ckpt, "--manifest", manifest, "--out", hyp)
        report = root / f"report_{name}.json"
        slu("score", "--refs", manifest, "--hyps", hyp, "--metrics", "wer,slots-edit-f1,intent-f1", "--out", report)
        return hyp, json.loads(report.read_text())

    slu("train-toy", "--config", config_path, "--manifest", paths.manifest, "--out", ckpt)
    hyp_clean, report_clean = decode_and_score(paths.manifest, "clean")
    seconds = time.time() - start
    noise_dir = write_noise_dir(root / "noise", count=12, seed=3)
    slu("augment", "--manifest", paths.manifest, "--noise-dir", noise_dir, "--split", "test",
        "--snr", "0,10,20,30,40", "--seed", "17", "--out", root / "noisy")
    hyp_noisy, report_noisy = decode_and_score(root / "noisy" / "manifest.jsonl", "noisy")
    return {
        "config": config,
        "history": [json.loads(line) for line in ckpt.with_suffix(".log.jsonl").read_text().splitlines()],
        "seconds": seconds,  # train, clean decode and score
        "hyp_clean": hyp_clean,
        "report_clean": report_clean,
        "hyp_noisy": hyp_noisy,
        "report_noisy": report_noisy,
    }


def test_criterion_8_end_to_end_smoke(smoke_run):
    run = smoke_run("linear")  # the smoke config's head
    with criterion(8, "staged schedule reaches slots edit F1 >= 0.95 and intent acc >= 0.99; CLI round trip"):
        total_epochs = sum(stage["epochs"] for stage in run["config"]["stages"])
        assert total_epochs <= 500
        history = run["history"]
        assert len(history) <= 500
        reached = [row for row in history if row.get("slots_edit_f1", 0) >= 0.95
                   and row.get("intent_accuracy", 0) >= 0.99]
        assert reached, "training never reached the target metrics"
        report = run["report_clean"]
        assert report["slots_edit_f1"]["f1"] >= 0.95
        assert report["intent_f1"] >= 0.99
        assert run["seconds"] < 300.0


def test_smoke_pipeline_decisions_are_pinned(smoke_run):
    """The smoke pipeline's decodes, stop epoch and score reports, byte for byte.

    The hypothesis files hold words, slots and intents only, so they pin every
    decision without pinning float bits; checkpoints are not pinned, because
    their last bits depend on the BLAS.  A change that means to alter a
    decode updates these pins and says why.
    """
    _assert_smoke_pins(smoke_run("linear"), "cc000070bdedea22c9ffb670a1c5c89babd80d8e6929b58baa697b0d1ce14564",
                       "6e6b49db51de63ea39e3c03ab17b591d7cdaad048cfc98a0fd7b0115b0807910",
                       253 / 1110, 0.8303886925795053, 0.976)


def test_smoke_pipeline_crf_decisions_are_pinned(smoke_run):
    """The same pins for the smoke config with the CRF slot head: Viterbi
    decoding and the forward-backward loss node."""
    _assert_smoke_pins(smoke_run("crf"), "52c6d081f781377753169bf71c74abcd36c9f042310334f13bc71bb30307f0d2",
                       "32380a2fe2abb9afe62c6766cae619eebd1754cb64952191ab1137456ec1c9fd",
                       243 / 1110, 0.8283185840707965, 0.984)


def _assert_smoke_pins(run, hyp_noisy_sha256, report_noisy_sha256, noisy_wer, noisy_slots_f1, noisy_intent_f1):
    assert _sha256(run["hyp_clean"]) == "eee1bf691a3aff39cf91b8b09067cfc6335f586893e4dc8c8bf8559f36135ac4"
    assert _sha256(run["hyp_noisy"]) == hyp_noisy_sha256
    history = run["history"]
    assert len(history) == 200
    assert (history[-1]["stage"], history[-1]["epoch"]) == ("joint_finetune", 19)
    noisy = run["report_noisy"]
    assert noisy["wer"] == noisy_wer
    assert noisy["slots_edit_f1"]["f1"] == noisy_slots_f1
    assert noisy["intent_f1"] == noisy_intent_f1
    # both score reports, byte for byte: every per-label tally, not only the three scores above
    reports = run["hyp_clean"].parent
    assert _sha256(reports / "report_clean.json") == "76d71748766e040919d2e082d1057f7b3bef33bd1138ec8c43e9ed847ff10064"
    assert _sha256(reports / "report_noisy.json") == report_noisy_sha256


def test_criterion_9_round_trips(tmp_path):
    with criterion(9, "manifest, WAV (<= 1/32768), and serialized-slots round trips"):
        rng = random.Random(31)
        # manifest round trip on generated corpora
        for case in range(50):
            records = []
            for i in range(rng.randint(0, 6)):
                words = [rng.choice(["a", "bb", "ccc"]) for _ in range(rng.randint(1, 5))]
                slots = [rng.choice(["O", "B-x", "I-x", "y"]) for _ in words]
                records.append(Utterance(f"r{i}", words, slots, rng.choice(["p", "q"])))
            manifest = build_manifest(records)
            path = tmp_path / f"m{case}.jsonl"
            write_manifest(manifest, path)
            again = parse_manifest(path)
            assert again.records == manifest.records
            assert again.slot_vocabulary == manifest.slot_vocabulary
            assert again.intent_vocabulary == manifest.intent_vocabulary

        # WAV round trip within one quantization step
        np_rng = np.random.default_rng(5)
        for case in range(20):
            samples = np.clip(np_rng.normal(0, 0.4, size=int(np_rng.integers(10, 5000))), -1.0, 1.0)
            clip = AudioClip(samples, 16000)
            path = tmp_path / f"w{case}.wav"
            write_wav(clip, path)
            back = read_wav(path)
            assert back.samples.size == clip.samples.size
            assert np.abs(back.samples - clip.samples).max() <= 1 / 32768

        # serialize/deserialize inverse on generated pairs
        for _ in range(200):
            words = [rng.choice(["a", "b", "c"]) for _ in range(rng.randint(0, 8))]
            slots = [rng.choice(["O", "B-x", "I-x"]) for _ in words]
            seq = serialize_slots(words, slots)
            assert len(seq) == 2 * len(words)
            assert deserialize_slots(seq) == (words, slots)

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from slu import audio, cli
from slu.audio import AudioClip, FeatureConfig, write_wav
from slu.cli import main
from slu.data import Utterance, build_manifest, parse_manifest, write_manifest
from slu.model import JointModel, ModelConfig, save_checkpoint
from slu.subword import WORDPIECE, SubwordVocab, save_vocab
from slu.synth import asr_vocab, lexicon, nlu_vocab, utterance_audio, write_corpus, write_noise_dir

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ref_manifest(tmp_path):
    records = [
        Utterance("u0", ["show", "flights", "to", "boston"], ["O", "O", "O", "B-toloc"], "find_flight"),
        Utterance("u1", ["fares", "on", "monday"], ["O", "O", "B-day"], "airfare"),
    ]
    path = tmp_path / "refs.jsonl"
    write_manifest(build_manifest(records), path)
    return path


def test_usage_error_exit_code_and_synopsis(capsys):
    code, _, err = run(capsys, "score", "--refs", "r.jsonl")  # missing --hyps
    assert code == 2
    assert "usage" in err.lower()
    code, _, _ = run(capsys, "not-a-command")
    assert code == 2
    code, _, err = run(capsys, "score", "--refs", "a", "--hyps", "b", "--bogus")
    assert code == 2


def test_validate_ok(capsys, ref_manifest):
    code, out, _ = run(capsys, "validate", "--manifest", str(ref_manifest))
    assert code == 0
    report = json.loads(out)
    assert report["records"] == 2
    assert report["conflicting_words"] == 0


def test_validate_bad_manifest_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":"x","words":["a","b"],"slots":["O"],"intent":"i"}\n')
    code, _, err = run(capsys, "validate", "--manifest", str(bad))
    assert code == 2
    assert "x" in err


def test_missing_file_is_runtime_error(capsys):
    code, _, _ = run(capsys, "validate", "--manifest", "no/such/file.jsonl")
    assert code == 2 or code == 1  # parse layer may classify either way


def test_score_self_comparison(capsys, ref_manifest):
    code, out, _ = run(
        capsys, "score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest),
        "--metrics", "slots-edit-f1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["slots_edit_f1"]["f1"] == 1.0


def test_score_all_metrics_and_jobs(capsys, ref_manifest, tmp_path):
    hyp_records = [
        Utterance("u0", ["show", "flights", "to", "austin"], ["O", "O", "O", "B-toloc"], "find_flight"),
        Utterance("u1", ["fares", "on", "monday"], ["O", "O", "B-day"], "goodbye"),
    ]
    hyp_path = tmp_path / "hyps.jsonl"
    write_manifest(build_manifest(hyp_records), hyp_path)
    args = ["score", "--refs", str(ref_manifest), "--hyps", str(hyp_path),
            "--metrics", "wer,slots-edit-f1,span-f1,intent-f1"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    report = json.loads(out)
    assert report["wer"] == pytest.approx(1 / 7)
    assert report["intent_f1"] == 0.5
    assert report["slots_edit_f1"]["per_label"]["toloc"] == {"tp": 0, "fp": 1, "fn": 1}
    code, out2, _ = run(capsys, *args)
    assert out2 == out


def test_score_with_no_metric_exits_2(capsys, ref_manifest, tmp_path):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest),
                         "--metrics", ",", "--out", str(report))
    assert code == 2 and out == "" and not report.exists()
    assert len(err.strip().splitlines()) == 1 and "--metrics names no metric" in err


def test_score_unknown_metric(capsys, ref_manifest):
    code, _, err = run(capsys, "score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest),
                       "--metrics", "bleu")
    assert code == 2
    assert "bleu" in err


def test_score_mismatched_counts_exit_2(capsys, ref_manifest, tmp_path):
    one = tmp_path / "one.jsonl"
    write_manifest(build_manifest([Utterance("u9", ["a"], ["O"], "x")]), one)
    code, _, _ = run(capsys, "score", "--refs", str(ref_manifest), "--hyps", str(one))
    assert code == 2


@pytest.mark.parametrize("second, where, reason", [
    ({"id": "u1", "words": ["fares", "on", "monday"], "slots": ["O"], "intent": "airfare"},
     ":2", "record 'u1': words length 3 != slots length 1"),
    ({"id": "u0", "words": ["fares"], "slots": ["O"], "intent": "airfare"}, "", "duplicate record id 'u0'"),
])
def test_score_names_the_file_of_a_bad_hypothesis_record(capsys, ref_manifest, tmp_path, second, where, reason):
    # the refs hold records u0 and u1 too, so only the file says which side is at fault
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text(ref_manifest.read_text().splitlines()[0] + "\n" + json.dumps(second) + "\n")
    code, out, err = run(capsys, "score", "--refs", str(ref_manifest), "--hyps", str(hyps))
    assert (code, out) == (2, "")
    assert err == f"slu score: {hyps}{where}: {reason}\n"


def test_wer_subcommand(capsys, ref_manifest, tmp_path):
    code, out, _ = run(capsys, "wer", "--refs", str(ref_manifest), "--hyps", str(ref_manifest))
    assert code == 0
    assert json.loads(out) == {"wer": 0.0}
    hyp_path = tmp_path / "hyps.jsonl"
    write_manifest(build_manifest([
        Utterance("u0", ["show", "me", "to", "boston"], ["O", "O", "O", "B-toloc"], "find_flight"),
        Utterance("u1", ["fares", "monday", "please"], ["O", "B-day", "O"], "airfare"),
    ]), hyp_path)
    pair = ["--refs", str(ref_manifest), "--hyps", str(hyp_path)]
    code, out, _ = run(capsys, "wer", *pair)
    assert code == 0
    assert json.loads(out) == {"wer": 3 / 7}
    assert out == run(capsys, "score", *pair, "--metrics", "wer")[1]
    one = tmp_path / "one.jsonl"
    write_manifest(build_manifest([Utterance("u9", ["a"], ["O"], "x")]), one)
    code, _, err = run(capsys, "wer", "--refs", str(ref_manifest), "--hyps", str(one))
    assert code == 2
    assert err == "slu wer: ref/hyp record counts differ: 2 vs 1\n"


def _flights_hyps(path: Path) -> Path:
    """sample_data/flights.jsonl with "denver" read as "dallas", f003's "united" tagged O and f004's
    intent find_flight: one error of each kind, every word count kept, so span-f1 scores it too."""
    records = parse_manifest(REPO_ROOT / "sample_data" / "flights.jsonl").records
    edits = {"f002": {"words": ["list", "flights", "from", "dallas", "to", "new", "york"]},
             "f003": {"slots": ["O", "O", "O", "O", "B-day"]}, "f004": {"intent": "find_flight"}}
    write_manifest(build_manifest([dataclasses.replace(r, **edits.get(r.id, {})) for r in records]), path)
    return path


# SHA-256 of the stdout of `slu <key> --refs sample_data/flights.jsonl --hyps <_flights_hyps>`:
# `slu score` over every non-empty set of the four metrics, then --pretty, then `slu wer`
SCORE_STDOUT_SHA256 = {
    "score --metrics wer":
        "f6365f536b5cc2170bbda3dc9d5a97ab79b9e3f8e17ca044144b4a748b9bfc9a",
    "score --metrics slots-edit-f1":
        "99d13eee8adbc39a47371ee986c865dccb13bfffb8a78c4ee9b5708eec188dfe",
    "score --metrics span-f1":
        "f2a6a8683de6d6ddf361d7d5a85acc2c8ac237e264784c5d6ac130abd3fcde65",
    "score --metrics intent-f1":
        "b1654679c98ff52edc33eba0409d8182c22d035a05d42dac02e4121689307929",
    "score --metrics wer,slots-edit-f1":
        "616d7ff532c67c6daa6bca8a31d376c4a09cb5a59f07f148ca2c16738a5bf1d3",
    "score --metrics wer,span-f1":
        "89c0905a718ce51c9be674f4b0e353a58c0b66cbe43c7df1c7e9017cc8601b6c",
    "score --metrics wer,intent-f1":
        "3fef9d33b4a59b46037bdcd6e06fdfb92349ca122d00889abe33f34025fc0bbe",
    "score --metrics slots-edit-f1,span-f1":
        "79f1ed2627fac70d5c4f5bd375af373e6932a3fcbfc3c47acc7ed8b3fe624872",
    "score --metrics slots-edit-f1,intent-f1":
        "3569d5efb5dc3df7af287a16198c8c0aaf414acda1fbc48dd34d804a33102c2b",
    "score --metrics span-f1,intent-f1":
        "9c2ac8a6406586405e02f3a16e905a02e6848bc11be22a9c760a26173168b4bd",
    "score --metrics wer,slots-edit-f1,span-f1":
        "990aff8ec98623288f37161188da656a7c2494cd51580f49030dba3c1891c019",
    "score --metrics wer,slots-edit-f1,intent-f1":
        "0f14040eaba1785f44d87011f5994cad896f34a02ca78947d8678cc0c3cd1b98",
    "score --metrics wer,span-f1,intent-f1":
        "ef494996878675c1c29fc6972e3560531f25a4a6ff7599628f5e6c984a2bd781",
    "score --metrics slots-edit-f1,span-f1,intent-f1":
        "7a8633bc29cc2c30d9945316c4f5d5bd1b83cd6ab7f90010e63b953a02a62e79",
    "score --metrics wer,slots-edit-f1,span-f1,intent-f1":
        "85c6f143a88b759ef6fcf6fa963498a897ce512fdbbdc80ce5e63d28e685eccd",
    "score --metrics wer,slots-edit-f1,span-f1,intent-f1 --pretty":
        "28085a87c3240ea1a672b0f05512cde49276bf1e242203d969bec2287e76934d",
    "wer":
        "f6365f536b5cc2170bbda3dc9d5a97ab79b9e3f8e17ca044144b4a748b9bfc9a",
}


@pytest.mark.parametrize("argv", SCORE_STDOUT_SHA256)
def test_score_reports_are_pinned(capsys, tmp_path, argv):
    hyps = _flights_hyps(tmp_path / "hyps.jsonl")
    code, out, err = run(capsys, *argv.split(), "--refs", str(REPO_ROOT / "sample_data" / "flights.jsonl"),
                         "--hyps", str(hyps))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SCORE_STDOUT_SHA256[argv], out


def test_tokenize_jsonl(capsys, tmp_path, ref_manifest):
    vocab = SubwordVocab.create(
        WORDPIECE,
        {"show", "flights", "to", "bos", "##ton", "fares", "on", "monday"},
    )
    vocab_path = tmp_path / "v.txt"
    save_vocab(vocab, vocab_path)
    out_path = tmp_path / "toks.jsonl"
    code, _, _ = run(capsys, "tokenize", "--vocab", str(vocab_path),
                     "--manifest", str(ref_manifest), "--out", str(out_path))
    assert code == 0
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert rows[0]["id"] == "u0"
    assert rows[0]["tokens"] == ["show", "flights", "to", "bos", "##ton"]
    assert rows[0]["first_index"] == [0, 1, 2, 3]
    # without --out the same JSONL goes to stdout
    code, out, _ = run(capsys, "tokenize", "--vocab", str(vocab_path), "--manifest", str(ref_manifest))
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == rows


# `slu tokenize` on sample_data/flights.jsonl with each synthetic vocabulary: words split in two
# (den+ver, mon+##day) and four <unk> pieces per vocabulary
TOKENIZE_STDOUT_SHA256 = {
    "asr": "9602e61330d781456baf90f0c011e4ea49da669e075c127f6a8c4725b94a570a",
    "nlu": "a55d91ebc3f36cc01bd36b75abc729e83b5225efa26f3adf81a1f9c683836faa",
}


@pytest.mark.parametrize("side", TOKENIZE_STDOUT_SHA256)
def test_tokenize_outputs_are_pinned(capsys, tmp_path, side):
    vocab_path = tmp_path / "vocab.txt"
    save_vocab(asr_vocab() if side == "asr" else nlu_vocab(), vocab_path)
    argv = ("tokenize", "--vocab", str(vocab_path), "--manifest", str(REPO_ROOT / "sample_data" / "flights.jsonl"))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TOKENIZE_STDOUT_SHA256[side], out
    out_path = tmp_path / "tokens.jsonl"
    assert run(capsys, *argv, "--out", str(out_path)) == (0, "", "")
    assert out_path.read_bytes() == out.encode()


def test_tokenize_rejects_a_vocab_of_an_unknown_kind(capsys, tmp_path, ref_manifest):
    vocab_path = tmp_path / "v.txt"
    vocab_path.write_text("#kind: sentencepiece\nshow\n")
    out_path = tmp_path / "toks.jsonl"
    code, out, err = run(capsys, "tokenize", "--vocab", str(vocab_path),
                         "--manifest", str(ref_manifest), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"slu tokenize: {vocab_path}: unknown tokenizer kind 'sentencepiece'\n"
    assert not out_path.exists()


def test_augment_pipeline_and_determinism(capsys, tmp_path):
    wav_dir = tmp_path / "clean"
    wav_dir.mkdir()
    records = []
    rng = np.random.default_rng(0)
    for i in range(10):
        write_wav(AudioClip(0.3 * np.sin(np.linspace(0, 150 + 20 * i, 3200)), 16000),
                  wav_dir / f"u{i}.wav")
        records.append(Utterance(f"u{i}", ["hello"], ["O"], "greet", f"u{i}.wav"))
    manifest_path = tmp_path / "m.jsonl"
    write_manifest(build_manifest(records), manifest_path)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    for i in range(12):
        write_wav(AudioClip(0.25 * rng.standard_normal(2500), 16000), noise_dir / f"n{i}.wav")

    # manifest paths are relative to the manifest directory: move it next to wavs
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest(records), manifest_path)

    args = ["augment", "--manifest", str(manifest_path), "--noise-dir", str(noise_dir),
            "--split", "train", "--snr", "0,10,20,30,40", "--seed", "17"]
    code, out, _ = run(capsys, *args, "--out", str(tmp_path / "aug1"))
    assert code == 0
    assert json.loads(out)["records"] == 50
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "aug2"))
    assert code == 0
    m1 = (tmp_path / "aug1" / "manifest.jsonl").read_bytes()
    m2 = (tmp_path / "aug2" / "manifest.jsonl").read_bytes()
    assert m1 == m2
    p1 = json.loads((tmp_path / "aug1" / "provenance.json").read_text())
    p2 = json.loads((tmp_path / "aug2" / "provenance.json").read_text())
    assert p1 == p2
    for entry in p1[:5]:
        w1 = (tmp_path / "aug1" / f"{entry['id']}.wav").read_bytes()
        w2 = (tmp_path / "aug2" / f"{entry['id']}.wav").read_bytes()
        assert w1 == w2


def test_score_pretty_output(capsys, ref_manifest):
    code, out, _ = run(capsys, "score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest),
                       "--metrics", "wer,slots-edit-f1", "--pretty")
    assert code == 0
    assert "slots_edit_f1: 1.0000" in out
    assert "wer: 0.0000" in out
    assert "toloc" in out


def test_the_parser_is_built_once_and_reused(capsys, monkeypatch, ref_manifest):
    assert cli.build_parser() is cli.build_parser()
    good = ["score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest)]
    code, out, err = run(capsys, "score", "--refs", str(ref_manifest))  # missing --hyps
    assert code == 2 and out == "" and "--hyps" in err
    code, out, err = run(capsys, *good)
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a fresh parser per call
    assert run(capsys, *good) == (0, out, "")


def test_score_flags_do_not_carry_over_to_the_next_call(capsys, tmp_path, ref_manifest):
    good = ["score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest)]
    code, pretty, _ = run(capsys, *good, "--pretty")
    assert code == 0 and "wer:" in pretty
    code, out, _ = run(capsys, *good)
    assert code == 0 and json.loads(out)["wer"] == 0.0
    report = tmp_path / "report.json"
    assert run(capsys, *good, "--out", str(report)) == (0, out, "")
    assert report.read_text() == out
    report.unlink()
    assert run(capsys, *good) == (0, out, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.jsonl"]


def test_score_out_failure_prints_no_report(capsys, tmp_path, ref_manifest):
    taken = tmp_path / "taken"
    taken.mkdir()
    code, out, err = run(capsys, "score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest),
                         "--out", str(taken))
    assert code == 1 and out == ""
    assert err.startswith("slu score: ") and err.rstrip().endswith(repr(str(taken)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.jsonl", "taken"]
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize("taken", ["ckpt.log.jsonl", "ckpt.json"])
def test_train_toy_commits_its_checkpoint_and_log_together(capsys, tmp_path, taken):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    config_path = tmp_path / "corpus" / "cfg.json"
    config_path.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
    out_dir = tmp_path / "out"
    (out_dir / taken).mkdir(parents=True)
    code, out, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
                         "--out", str(out_dir / "ckpt.json"))
    assert code == 1 and out == ""
    assert err.startswith("slu train-toy: ") and err.endswith(f"{str(out_dir / taken)!r}\n")
    assert len(err.splitlines()) == 1
    assert [p.name for p in out_dir.iterdir()] == [taken]
    assert list((out_dir / taken).iterdir()) == []


def test_a_failed_train_toy_write_leaves_the_earlier_pair_whole(capsys, tmp_path, monkeypatch):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    config_path = tmp_path / "corpus" / "cfg.json"
    config_path.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
    out_dir = tmp_path / "out"
    argv = ["train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
            "--out", str(out_dir / "ckpt.json")]
    assert run(capsys, *argv)[0] == 0
    earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(earlier) == ["ckpt.json", "ckpt.log.jsonl"]

    def full_disk(model, path, *args):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli, "save_checkpoint", full_disk)
    config_path.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 2, "lr": 0.05}]}))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"slu train-toy: [Errno 28] No space left on device: {str(out_dir / 'ckpt.json')!r}\n"
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == earlier


def test_a_failed_train_toy_leaves_no_out_parent_it_made(capsys, tmp_path, monkeypatch):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    config_path = tmp_path / "corpus" / "cfg.json"
    config_path.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))

    def full_disk(model, path, *args):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli, "save_checkpoint", full_disk)
    ckpt = tmp_path / "new" / "run" / "ckpt.json"
    code, out, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
                         "--out", str(ckpt))
    assert (code, out) == (1, "")
    assert err == f"slu train-toy: [Errno 28] No space left on device: {str(ckpt)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_every_output_takes_the_mode_a_plain_write_gives_under_the_umask(capsys, tmp_path, ref_manifest, umask):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    config_path = tmp_path / "corpus" / "cfg.json"
    config_path.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
    before = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        assert run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
                       "--out", str(tmp_path / "run" / "ckpt.json"))[0] == 0
        assert run(capsys, "score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest),
                       "--out", str(tmp_path / "report.json"))[0] == 0
    finally:
        os.umask(before)
    modes = {p.name: p.stat().st_mode & 0o777 for p in [tmp_path / "report.json", *(tmp_path / "run").iterdir()]}
    assert modes == dict.fromkeys(["report.json", "ckpt.json", "ckpt.log.jsonl"], 0o666 & ~umask)
    assert (tmp_path / "plain.txt").stat().st_mode & 0o777 == 0o666 & ~umask


def test_console_entry_point_and_log_env(tmp_path, ref_manifest):
    import shutil
    import subprocess

    if shutil.which("slu") is None:
        pytest.skip("console script not installed")
    result = subprocess.run(
        ["slu", "validate", "--manifest", str(ref_manifest)],
        capture_output=True, text=True,
        env={"PATH": os.environ.get("PATH", ""), "SLU_LOG": "INFO"},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["records"] == 2
    assert "resolved config" in result.stderr


def test_every_repo_sample_manifest_validates(capsys):
    manifests = sorted((REPO_ROOT / "sample_data").glob("*.jsonl"))
    assert manifests, "sample_data should ship at least one manifest"
    for manifest in manifests:
        code, _, _ = run(capsys, "validate", "--manifest", str(manifest))
        assert code == 0, manifest


@pytest.mark.parametrize("slot_head", ["linear", "crf"])
def test_train_decode_rerun_is_byte_identical(capsys, tmp_path, slot_head):
    paths = write_corpus(tmp_path / "corpus", 6, seed=11)
    config = {
        "seed": 3,
        "beam_size": 2,
        "asr_vocab": "vocab_asr.txt",
        "nlu_vocab": "vocab_nlu.txt",
        "model": {"asr_hidden": 8, "nlu_hidden": 8, "subsample_stride": 3, "slot_head": slot_head},
        "stages": [
            {"stage": "asr_pretrain", "epochs": 2, "lr": 0.05, "momentum": 0.9},
            {"stage": "joint_finetune", "epochs": 2, "lr": 0.01, "momentum": 0.9},
        ],
    }
    config_path = tmp_path / "corpus" / "cfg.json"
    config_path.write_text(json.dumps(config))

    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"ckpt_{tag}.json"
        hyp = tmp_path / f"hyp_{tag}.jsonl"
        assert run(capsys, "train-toy", "--config", str(config_path),
                   "--manifest", str(paths.manifest), "--out", str(ckpt))[0] == 0
        assert run(capsys, "decode", "--ckpt", str(ckpt),
                   "--manifest", str(paths.manifest), "--out", str(hyp))[0] == 0
        outputs.append((ckpt.read_bytes(), ckpt.with_suffix(".log.jsonl").read_bytes(), hyp.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_toy_rejects_a_bad_record_before_training(capsys, tmp_path):
    wav_dir = tmp_path / "corpus"
    wav_dir.mkdir()
    # 40 words are 160 encoder frames at the default hop and stride, past max_positions 64
    transcripts = {"short0": ["show", "flights"], "long1": (list(lexicon()) * 2)[:40]}
    for name, words in transcripts.items():
        write_wav(utterance_audio(words), wav_dir / f"{name}.wav")
    records = [Utterance(name, words, ["O"] * len(words), "find_flight", f"{name}.wav")
               for name, words in transcripts.items()]
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest(records), manifest_path)
    config_path = wav_dir / "cfg.json"
    config_path.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
    ckpt = tmp_path / "ckpt.json"
    code, _, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(manifest_path),
                       "--out", str(ckpt))
    assert code == 2
    assert err.startswith("slu train-toy: record 'long1': ") and "160 frames exceed max_positions 64" in err
    assert not ckpt.exists() and not ckpt.with_suffix(".log.jsonl").exists()


def test_train_toy_rejects_a_record_past_the_nlu_positions(capsys, tmp_path):
    wav_dir = tmp_path / "corpus"
    wav_dir.mkdir()
    # at stride 12 this is 40 encoder frames and 41 decoder positions, but "boston" is two NLU subwords
    words = ["boston"] * 40
    write_wav(utterance_audio(words), wav_dir / "long.wav")
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest([Utterance("long", words, ["O"] * 40, "find_flight", "long.wav")]), manifest_path)
    config_path = wav_dir / "cfg.json"
    config_path.write_text(json.dumps({"model": {"subsample_stride": 12},
                                       "stages": [{"stage": "joint_finetune", "epochs": 1, "lr": 0.01}]}))
    ckpt = tmp_path / "ckpt.json"
    code, _, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(manifest_path),
                       "--out", str(ckpt))
    assert code == 2
    assert err.startswith("slu train-toy: record 'long': ") and "80 NLU subwords exceed max_positions 64" in err
    assert not ckpt.exists() and not ckpt.with_suffix(".log.jsonl").exists()


def test_train_toy_rejects_a_record_past_the_asr_decoder_positions(capsys, tmp_path):
    wav_dir = tmp_path / "corpus"
    wav_dir.mkdir()
    # "show" is one subword in both vocabularies: 70 of them take 71 ASR decoder positions
    words = ["show"] * 70
    write_wav(utterance_audio(words), wav_dir / "long.wav")
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest([Utterance("long", words, ["O"] * 70, "find_flight", "long.wav")]), manifest_path)
    config_path = wav_dir / "cfg.json"
    config_path.write_text(json.dumps({"model": {"subsample_stride": 16},
                                       "stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
    ckpt = tmp_path / "ckpt.json"
    code, _, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(manifest_path),
                       "--out", str(ckpt))
    assert code == 2
    assert err.startswith("slu train-toy: record 'long': ")
    assert "71 ASR decoder positions exceed max_positions 64" in err
    assert not ckpt.exists() and not ckpt.with_suffix(".log.jsonl").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"stage": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}, "unknown key 'stage'"),
        ({"stages": [{"stage": "joint_finetune", "epochs": 1, "lr": 0.01, "eval_every": 1,
                      "target_slots_f1": 0.5}]},
         "target_slots_f1 and target_intent_acc must be set together"),
        ({"stages": [{"stage": "asr_pretrain", "epochs": 3, "lr": 0.01, "eval_every": 2}]},
         "stage 'asr_pretrain': eval_every and early-stop targets apply only to joint_finetune"),
        ({"stages": [{"stage": "asr_finetune", "epochs": 3, "lr": 0.01, "eval_every": 1,
                      "target_slots_f1": 0.9, "target_intent_acc": 1.0}]},
         "stage 'asr_finetune': eval_every and early-stop targets apply only to joint_finetune"),
        ({"stages": [{"stage": "joint_finetune", "epochs": 3, "lr": 0.01, "eval_every": 0,
                      "target_slots_f1": 0.9, "target_intent_acc": 1.0}]},
         "early-stop targets need eval_every >= 1"),
        ({"model": {"word_pooling": "first"}, "stages": []}, "'word_pooling'"),
        *[({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05, "momentum": m}]}, "momentum must be in [0, 1)")
          for m in (1.5, -5.0, float("nan"))],
        *[({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": lr}]}, "lr must be finite and > 0")
          for lr in (float("inf"), float("nan"))],
        *[({"stages": [{"stage": "joint_finetune", "epochs": 3, "lr": 0.01, "eval_every": 1,
                        "target_slots_f1": 0.5, "target_intent_acc": 0.5, name: 2.0}]}, f"{name} must be in [0, 1]")
          for name in ("target_slots_f1", "target_intent_acc")],
        *[({"model": {"label_smoothing": s}, "stages": []}, "label_smoothing must be in [0, 1)")
          for s in (5.0, float("nan"))],
        ({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}, {"stage": "asr_finetune", "epoch": 1}]},
         "stages[1]: unknown key 'epoch'"),
        ({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": "x"}]}, "stages[0]: lr must be float, got str"),
        ({"stages": {"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}}, "stages must be list[StageConfig], got dict"),
        ({"feature": {"bands": 20}, "stages": []}, "feature: unknown key 'bands'"),
        ({"model": {"feature_dim": 20}, "stages": []}, "model: unknown key 'feature_dim'"),
        ({"asr_vocab": ["vocab_asr.txt"], "stages": []}, "asr_vocab must be str | None, got list"),
        ({"model": {"asr_hidden": 0}, "stages": []},
         "model: feature_dim, asr_hidden, nlu_hidden and max_positions must be >= 1"),
        ({"feature": {"num_bands": 0}, "stages": []}, "feature: feature config needs frame_length, hop >= 1"),
        ({"stages": [{"stage": "asr_pretrain", "epochs": -1, "lr": 0.05}]},
         "stages[0]: epochs and eval_every must be >= 0"),
    ],
    ids=["misspelt-top-level-key", "one-early-stop-target", "eval-every-on-speech-stage",
         "targets-on-speech-stage", "targets-never-polled", "model-word-pooling",
         "momentum-above-one", "momentum-negative", "momentum-nan", "lr-infinite", "lr-nan",
         "slots-f1-target-above-one", "intent-target-above-one", "label-smoothing-above-one", "label-smoothing-nan",
         "stage-unknown-key", "stage-lr-str", "stages-not-a-list", "feature-unknown-key", "model-feature-dim",
         "vocab-path-not-a-string", "model-asr-hidden-zero", "feature-num-bands-zero", "stage-epochs-negative"],
)
def test_train_toy_rejects_config_it_would_ignore(capsys, tmp_path, config, message):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    ckpt = tmp_path / "ckpt.json"
    code, _, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
                       "--out", str(ckpt))
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and message in err
    assert not ckpt.exists() and not ckpt.with_suffix(".log.jsonl").exists()


def test_pretrain_manifest_without_pretrain_stage_exits_2(capsys, tmp_path):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    # the pretraining corpus names WAVs that do not exist: reading its audio would exit 1, not 2
    pretrain = tmp_path / "pretrain.jsonl"
    write_manifest(build_manifest([Utterance("p0", ["show"], ["O"], "find_flight", "missing.wav")]), pretrain)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"stages": [{"stage": "joint_finetune", "epochs": 1, "lr": 0.01}]}))
    ckpt = tmp_path / "ckpt.json"
    code, _, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
                       "--pretrain-manifest", str(pretrain), "--out", str(ckpt))
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "none is configured" in err
    assert not ckpt.exists() and not ckpt.with_suffix(".log.jsonl").exists()


def test_an_empty_pretrain_manifest_exits_2_before_any_step(capsys, tmp_path):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    pretrain = tmp_path / "empty.jsonl"
    pretrain.write_text("")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
    ckpt = tmp_path / "ckpt.json"
    code, out, err = run(capsys, "train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
                         "--pretrain-manifest", str(pretrain), "--out", str(ckpt))
    assert (code, out) == (2, "")
    assert err == "slu train-toy: cannot pretrain on an empty pretraining manifest\n"
    assert not ckpt.exists() and not ckpt.with_suffix(".log.jsonl").exists()


def test_bad_config_and_checkpoint_exit_2(capsys, tmp_path, ref_manifest):
    bad_cfg = tmp_path / "cfg.json"
    bad_cfg.write_text("{not json")
    code, _, _ = run(capsys, "train-toy", "--config", str(bad_cfg), "--manifest", str(ref_manifest))
    assert code == 2
    bad_cfg.write_text(json.dumps({"model": {"asr_hidden": 8, "nosuch_knob": 1}, "stages": []}))
    code, _, _ = run(capsys, "train-toy", "--config", str(bad_cfg), "--manifest", str(ref_manifest))
    assert code == 2
    bad_ckpt = tmp_path / "ckpt.json"
    bad_ckpt.write_text('{"format_version": 1}')
    code, _, _ = run(capsys, "decode", "--ckpt", str(bad_ckpt), "--manifest", str(ref_manifest),
                     "--out", str(tmp_path / "h.jsonl"))
    assert code == 2


def test_augment_rejects_small_pool(capsys, tmp_path):
    wav_dir = tmp_path / "clean"
    wav_dir.mkdir()
    write_wav(AudioClip(0.3 * np.ones(1000), 16000), wav_dir / "u0.wav")
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest([Utterance("u0", ["a"], ["O"], "x", "u0.wav")]) , manifest_path)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    write_wav(AudioClip(0.2 * np.ones(500), 16000), noise_dir / "n0.wav")
    code, _, err = run(capsys, "augment", "--manifest", str(manifest_path),
                       "--noise-dir", str(noise_dir), "--split", "train",
                       "--seed", "0", "--out", str(tmp_path / "aug"))
    assert code == 2
    assert "pool" in err


@pytest.mark.parametrize(
    "fault, message",
    [
        ("silent-clean", "SNR is undefined for a silent clean signal"),
        ("silent-noise", "SNR is undefined for a silent noise signal"),
        ("rate-mismatch", "sample rate mismatch: clean 8000 Hz vs noise 16000 Hz"),
    ],
)
def test_augment_mix_error_names_the_record_and_the_noise(capsys, tmp_path, fault, message):
    wav_dir = tmp_path / "clean"
    wav_dir.mkdir()
    clean = 0.0 if fault == "silent-clean" else 0.3
    rate = 8000 if fault == "rate-mismatch" else 16000
    write_wav(AudioClip(clean * np.ones(1000), rate), wav_dir / "synth001.wav")
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest([Utterance("synth001", ["a"], ["O"], "x", "synth001.wav")]), manifest_path)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    noise = 0.0 if fault == "silent-noise" else 0.2
    for name in ("n0.wav", "n1.wav"):  # n0 is the train split's only file
        write_wav(AudioClip(noise * np.ones(500), 16000), noise_dir / name)
    out_dir = tmp_path / "aug"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("earlier run\n")
    code, _, err = run(capsys, "augment", "--manifest", str(manifest_path), "--noise-dir", str(noise_dir),
                       "--split", "train", "--snr", "10", "--seed", "0", "--out", str(out_dir))
    assert code == 2
    assert err.strip() == f"slu augment: record 'synth001', noise {noise_dir / 'n0.wav'}: {message}"
    assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("snr, level", [("nan", "nan"), ("0,inf", "inf"), ("301", "301"), ("10,-7000", "-7000")])
def test_augment_refuses_an_snr_level_beyond_300_db_before_reading_anything(capsys, tmp_path, snr, level):
    # neither the manifest nor the noise directory exists: the levels are checked first
    code, out, err = run(capsys, "augment", "--manifest", str(tmp_path / "m.jsonl"), "--noise-dir",
                         str(tmp_path / "noise"), "--split", "train", "--snr", snr, "--out", str(tmp_path / "aug"))
    assert (code, out) == (2, "")
    assert err == f"slu augment: SNR levels must lie within +-300 dB, got {level}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("snr, level", [("10,10", "10"), ("0,-0", "-0")])
def test_augment_rejects_a_repeated_snr_level_before_mixing(capsys, tmp_path, snr, level):
    wav_dir = tmp_path / "clean"
    wav_dir.mkdir()
    write_wav(AudioClip(0.3 * np.ones(1000), 16000), wav_dir / "synth001.wav")
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest([Utterance("synth001", ["a"], ["O"], "x", "synth001.wav")]), manifest_path)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    for name in ("n0.wav", "n1.wav"):
        write_wav(AudioClip(0.2 * np.ones(500), 16000), noise_dir / name)
    out_dir = tmp_path / "aug"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("earlier run\n")
    code, out, err = run(capsys, "augment", "--manifest", str(manifest_path), "--noise-dir", str(noise_dir),
                         "--split", "train", "--snr", snr, "--seed", "0", "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.strip().startswith(f"slu augment: SNR level {level} dB is repeated")
    assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("where", ["dotdot", "absolute", "nul"])
def test_augment_refuses_an_id_that_leaves_the_output_directory(capsys, tmp_path, where):
    record_id = {"dotdot": "../esc", "absolute": str(tmp_path / "abs" / "esc"), "nul": "a\0b"}[where]
    wav_dir = tmp_path / "clean"
    wav_dir.mkdir()
    write_wav(AudioClip(0.3 * np.ones(1000), 16000), wav_dir / "u0.wav")
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest([Utterance(record_id, ["a"], ["O"], "x", "u0.wav")]), manifest_path)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    for name in ("n0.wav", "n1.wav", "n2.wav", "n3.wav"):
        write_wav(AudioClip(0.2 * np.ones(500), 16000), noise_dir / name)
    work = tmp_path / "work"
    work.mkdir()
    code, out, err = run(capsys, "augment", "--manifest", str(manifest_path), "--noise-dir", str(noise_dir),
                         "--split", "train", "--snr", "0,10", "--seed", "0", "--out", str(work / "aug"))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and f"record {record_id!r}" in err
    assert list(work.iterdir()) == []  # no --out, and nothing beside it
    assert not (tmp_path / "abs").exists()


@pytest.mark.parametrize("ids, refused", [
    pytest.param(["a/b", "a/./b", "c//d", "c/d"], "a/./b", id="dot-part"),
    pytest.param(["c/d", "c//d"], "c//d", id="double-slash"),
    pytest.param(["./a"], "./a", id="leading-dot"),
    pytest.param(["a/"], "a/", id="trailing-slash"),
])
def test_augment_refuses_an_id_that_is_not_its_normal_path(capsys, tmp_path, ids, refused):
    # 'a/b' and 'a/./b' (or 'c//d' and 'c/d') name one WAV, so one record's mix would overwrite the other's
    wav_dir = tmp_path / "clean"
    wav_dir.mkdir()
    write_wav(AudioClip(0.3 * np.ones(1000), 16000), wav_dir / "u0.wav")
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest([Utterance(i, ["a"], ["O"], "x", "u0.wav") for i in ids]), manifest_path)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    for name in ("n0.wav", "n1.wav", "n2.wav", "n3.wav"):
        write_wav(AudioClip(0.2 * np.ones(500), 16000), noise_dir / name)
    work = tmp_path / "work"
    work.mkdir()
    code, out, err = run(capsys, "augment", "--manifest", str(manifest_path), "--noise-dir", str(noise_dir),
                         "--split", "train", "--snr", "0,10", "--seed", "0", "--out", str(work / "aug"))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and f"record {refused!r}" in err
    assert list(work.iterdir()) == []


def _augment_argv(tmp_path, out_dir):
    """An augment call on a two-record synthetic corpus and a 12-file noise pool, into out_dir."""
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    noise_dir = write_noise_dir(tmp_path / "noise", count=12)
    return ["augment", "--manifest", str(paths.manifest), "--noise-dir", str(noise_dir), "--split", "test",
            "--snr", "0,10", "--seed", "0", "--out", str(out_dir)]


def test_augment_moves_nothing_when_a_file_would_land_on_a_directory(capsys, tmp_path):
    out_dir = tmp_path / "aug"
    (out_dir / "provenance.json").mkdir(parents=True)
    code, out, err = run(capsys, *_augment_argv(tmp_path, out_dir))
    assert (code, out) == (1, "")
    assert err == f"slu augment: [Errno 21] Is a directory: {str(out_dir / 'provenance.json')!r}\n"
    assert [p.name for p in out_dir.iterdir()] == ["provenance.json"]
    assert list((out_dir / "provenance.json").iterdir()) == []


def test_augment_into_a_file_fails_before_reading_a_clip(capsys, tmp_path, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    argv = _augment_argv(tmp_path, taken)
    read, read_wav = [], audio.read_wav
    monkeypatch.setattr(audio, "read_wav", lambda path: read.append(path) or read_wav(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"slu augment: [Errno 17] File exists: {str(taken)!r}\n"
    assert read == []
    assert taken.read_text() == "not a directory\n"


_OVERWRITE_BASE = {
    "tokenize": {"--vocab": "corpus/vocab_asr.txt", "--manifest": "corpus/manifest.jsonl"},
    "score": {"--refs": "corpus/manifest.jsonl", "--hyps": "corpus/hyps.jsonl"},
    "decode": {"--ckpt": "ckpt.json", "--manifest": "corpus/manifest.jsonl"},
    "train-toy": {"--config": "corpus/cfg.json", "--manifest": "corpus/manifest.jsonl",
                  "--pretrain-manifest": "corpus/pretrain.jsonl"},
    "augment": {"--manifest": "corpus/manifest.jsonl", "--noise-dir": "noise"},
}


@pytest.mark.parametrize("command, flag, given, out_name", [
    ("tokenize", "--vocab", "corpus/vocab_asr.txt", "corpus/vocab_asr.txt"),
    ("tokenize", "--manifest", "corpus/manifest.jsonl", "corpus/manifest.jsonl"),
    ("score", "--refs", "corpus/manifest.jsonl", "corpus/manifest.jsonl"),
    ("score", "--hyps", "corpus/hyps.jsonl", "corpus/hyps.jsonl"),
    ("decode", "--ckpt", "ckpt.json", "ckpt.json"),
    ("decode", "--manifest", "corpus/manifest.jsonl", "corpus/manifest.jsonl"),
    ("train-toy", "--config", "corpus/cfg.json", "corpus/cfg.json"),
    ("train-toy", "--manifest", "corpus/manifest.jsonl", "corpus/manifest.jsonl"),
    ("train-toy", "--pretrain-manifest", "corpus/pretrain.jsonl", "corpus/pretrain.jsonl"),
    ("train-toy", "--manifest", "corpus/run.log.jsonl", "corpus/run.json"),  # the log written beside --out
    ("augment", "--manifest", "corpus/manifest.jsonl", "corpus"),
    ("augment", "--manifest", "corpus/provenance.json", "corpus"),
    ("augment", "--noise-dir", "noise", "noise"),  # its WAVs would join the pool
], ids=["tokenize-vocab", "tokenize-manifest", "score-refs", "score-hyps", "decode-ckpt", "decode-manifest",
        "train-toy-config", "train-toy-manifest", "train-toy-pretrain-manifest", "train-toy-log-over-manifest",
        "augment-manifest", "augment-provenance-over-manifest", "augment-noise-dir"])
def test_no_command_writes_over_its_own_input(capsys, tmp_path, command, flag, given, out_name):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    for copy in ("hyps.jsonl", "pretrain.jsonl", "run.log.jsonl", "provenance.json"):
        (tmp_path / "corpus" / copy).write_bytes(paths.manifest.read_bytes())
    (tmp_path / "corpus" / "cfg.json").write_text(
        json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
    _small_checkpoint(tmp_path / "ckpt.json")
    write_noise_dir(tmp_path / "noise", count=12)
    flags = {**_OVERWRITE_BASE[command], flag: given, "--out": out_name}
    argv = [command, *(item for key, value in flags.items() for item in (key, str(tmp_path / value)))]
    if command == "augment":
        argv += ["--split", "test", "--snr", "0,10"]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"slu {command}: --out {tmp_path / out_name} would write over {tmp_path / given}\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_the_input_guard_compares_paths_with_their_symlinks_followed(capsys, tmp_path, ref_manifest):
    link = tmp_path / "report.json"
    link.symlink_to(ref_manifest)
    argv = ["score", "--refs", str(ref_manifest), "--hyps", str(ref_manifest)]
    code, out, err = run(capsys, *argv, "--out", str(link))
    assert (code, out) == (2, "")
    assert err == f"slu score: --out {link} would write over {ref_manifest}\n"
    assert link.is_symlink()
    loop = tmp_path / "loop.json"
    loop.symlink_to(loop)
    code, out, err = run(capsys, *argv, "--out", str(loop))  # resolves to no input: the report replaces the link
    assert (code, err) == (0, "")
    assert loop.read_text() == out


def _assert_refused(capsys, root, argv, read):
    """argv exits 2 with one stderr line naming its --out and ``read``, and leaves every file under
    root as it was, with no dot-named entry (a stage or temp file) added."""
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"slu {argv[0]}: --out {argv[argv.index('--out') + 1]} would write over {read}\n"
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before
    assert list(root.rglob(".*")) == []


def _train_argv(tmp_path, out, **config):
    """A one-epoch train-toy call on a two-record synthetic corpus, into out."""
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    cfg = tmp_path / "corpus" / "cfg.json"
    cfg.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}], **config}))
    return ["train-toy", "--config", str(cfg), "--manifest", str(paths.manifest), "--out", str(out)]


def test_train_toy_refuses_to_write_over_the_vocabulary_its_config_names(capsys, tmp_path):
    vocab = tmp_path / "corpus" / "vocab_asr.txt"
    _assert_refused(capsys, tmp_path, _train_argv(tmp_path, vocab, asr_vocab="vocab_asr.txt"), read=vocab)


@pytest.mark.parametrize("target", ["config", "log", "directory"])
def test_train_toy_refuses_an_out_that_names_its_config_before_it_trains(capsys, tmp_path, monkeypatch, target):
    cfg = tmp_path / "corpus" / "cfg.json"
    # the log of --out cfg.log is cfg.log.jsonl, and --out cfg.json/ckpt.json commits into cfg.json
    out = {"config": cfg, "log": cfg.with_name("cfg.log"), "directory": cfg / "ckpt.json"}[target]
    argv = _train_argv(tmp_path, out)
    if target == "log":
        argv[argv.index("--config") + 1] = str(cfg.rename(cfg.with_name("cfg.log.jsonl")))
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    _assert_refused(capsys, tmp_path, argv, read=argv[argv.index("--config") + 1])
    assert trained == []


def test_decode_refuses_to_write_over_a_wav_its_manifest_names(capsys, tmp_path):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    wav = paths.wav_dir / "synth000.wav"
    argv = ["decode", "--ckpt", str(_small_checkpoint(tmp_path / "ckpt.json")), "--manifest", str(paths.manifest),
            "--out", str(wav)]
    _assert_refused(capsys, tmp_path, argv, read=wav)


def test_train_toy_refuses_to_write_over_a_wav_its_manifest_names(capsys, tmp_path):
    wav = tmp_path / "corpus" / "wavs" / "synth000.wav"
    _assert_refused(capsys, tmp_path, _train_argv(tmp_path, wav), read=wav)


def test_augment_refuses_a_mixed_wav_that_would_replace_the_clean_clip_it_read(capsys, tmp_path):
    out_dir = tmp_path / "out"
    argv = _augment_argv(tmp_path, out_dir)
    out_dir.mkdir()
    (out_dir / "x#snr10.wav").write_bytes((tmp_path / "corpus" / "wavs" / "synth000.wav").read_bytes())
    rec = parse_manifest(tmp_path / "corpus" / "manifest.jsonl").records[0]
    manifest = tmp_path / "in" / "manifest.jsonl"  # its one record x reads the clip that x#snr10.wav would replace
    write_manifest(build_manifest([dataclasses.replace(rec, id="x", audio="../out/x#snr10.wav")]), manifest)
    argv[argv.index("--manifest") + 1] = str(manifest)
    _assert_refused(capsys, tmp_path, argv, read=tmp_path / "in" / "../out/x#snr10.wav")


def _small_checkpoint(path, intents=("find_flight", "airfare")):
    """A randomly initialised checkpoint whose features match the default FeatureConfig."""
    config = ModelConfig(feature_dim=FeatureConfig().num_bands, asr_hidden=4, nlu_hidden=4)
    model = JointModel(config, asr_vocab(), nlu_vocab(), ["O", "B-toloc"], list(intents))
    model.init_params(0)
    save_checkpoint(model, path, beam_size=2)
    return path


def _decode_fails_cleanly(capsys, ckpt, manifest, out, *extra):
    code, _, err = run(capsys, "decode", "--ckpt", str(ckpt), "--manifest", str(manifest),
                       "--out", str(out), *extra)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
    return err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["params"]["asr.enc_w"].update(shape=[4, 20]), "parameter 'asr.enc_w': shape [4, 20]"),
        (lambda obj: obj["params"].pop("asr.enc_w"), "missing parameter 'asr.enc_w'"),
        (lambda obj: obj["params"]["sl.b"].update(data=["abc", "abc"]),
         "parameter 'sl.b': data must be list[float], got list[str]"),
        (lambda obj: obj["params"].update({"sl.extra": {"shape": [1], "data": [0.0]}}),
         "unexpected parameter 'sl.extra'"),
        (lambda obj: obj["params"]["sl.b"].update(data=[float("nan"), float("inf")]),
         "parameter 'sl.b': non-finite data"),
        (lambda obj: obj["feature"].update(num_bands=10), "feature.num_bands 10 != model.feature_dim 20"),
        (lambda obj: obj["model"].update(word_pooling="mean"), "model.word_pooling 'mean'"),
        (lambda obj: obj.update(beam_size=2.5), "beam_size must be int, got float"),
        (lambda obj: obj.update(beam_size=True), "beam_size must be int, got bool"),
        (lambda obj: obj.update(beam_size="3"), "beam_size must be int, got str"),
        (lambda obj: obj.update(slot_tags="OB"), "slot_tags must be list[str], got str"),
        (lambda obj: obj.update(slot_tags=[0, 1]), "slot_tags must be list[str], got list[int]"),
        (lambda obj: obj.update(intents=["airfare", "airfare"]), "intents lists 'airfare' more than once"),
        (lambda obj: obj.update(intents=None), "intents must be list[str], got NoneType"),
        (lambda obj: obj["asr_vocab"].update(pieces=[3, 1, 2]), "asr_vocab: pieces must be list[str], got list[int]"),
        (lambda obj: obj["nlu_vocab"].update(pieces="abc"), "nlu_vocab: pieces must be list[str], got str"),
        (lambda obj: obj["asr_vocab"].update(unk=0), "asr_vocab: unk must be str, got int"),
        (lambda obj: obj.update(format_version=True), "format_version must be int, got bool"),
        (lambda obj: obj.update(format_version=1.0), "format_version must be int, got float"),
        (lambda obj: obj.pop("format_version"), "malformed checkpoint: missing key 'format_version'"),
        (lambda obj: obj.update(step=3), "malformed checkpoint: unknown key 'step'"),
        (lambda obj: obj["feature"].update(bands=20), "feature: unknown key 'bands'"),
        (lambda obj: obj["nlu_vocab"].pop("kind"), "nlu_vocab: missing key 'kind'"),
        (lambda obj: obj["params"]["sl.b"].pop("shape"), "parameter 'sl.b': missing key 'shape'"),
    ],
    ids=["wrong-shape", "missing", "non-numeric", "extra", "non-finite", "feature-dim", "word-pooling-mean",
         "beam-size-float", "beam-size-bool", "beam-size-str", "slot-tags-str", "slot-tags-int",
         "intents-repeated", "intents-null", "asr-pieces-int", "nlu-pieces-str", "asr-unk-int",
         "format-version-true", "format-version-float", "format-version-missing", "top-level-unknown-key",
         "feature-unknown-key", "vocab-missing-key", "param-missing-key"],
)
def test_corrupt_checkpoint_param_exits_2(capsys, tmp_path, ref_manifest, edit, message):
    ckpt = _small_checkpoint(tmp_path / "ckpt.json")
    obj = json.loads(ckpt.read_text())
    edit(obj)
    ckpt.write_text(json.dumps(obj))
    err = _decode_fails_cleanly(capsys, ckpt, ref_manifest, tmp_path / "h.jsonl")
    assert str(ckpt) in err and message in err


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("model", [["feature_dim", 20]], "model must be a JSON object, got list"),
        ("asr_vocab", ["bpe"], "asr_vocab must be a JSON object, got list"),
        ("nlu_vocab", "wordpiece", "nlu_vocab must be a JSON object, got str"),
        ("params", ["sl.b"], "params must be a JSON object, got list"),
        ("params/sl.b", [0.0, 0.0], "parameter 'sl.b' must be a JSON object, got list"),
        ("params/asr.enc_w", None, "parameter 'asr.enc_w' must be a JSON object, got NoneType"),
        ("feature", 20, "feature must be a JSON object, got int"),
    ],
    ids=["model", "asr-vocab", "nlu-vocab", "params", "param-sl.b", "param-asr.enc_w", "feature"],
)
def test_checkpoint_section_that_is_not_an_object_is_named(capsys, tmp_path, ref_manifest, section, value, message):
    ckpt = _small_checkpoint(tmp_path / "ckpt.json")
    obj = json.loads(ckpt.read_text())
    parent, _, key = section.rpartition("/")
    (obj[parent] if parent else obj)[key] = value
    ckpt.write_text(json.dumps(obj))
    err = _decode_fails_cleanly(capsys, ckpt, ref_manifest, tmp_path / "h.jsonl")
    assert err == f"slu decode: {ckpt}: malformed checkpoint: {message}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["asr_vocab"].update(kind=["bpe"]), "asr_vocab: kind must be str, got list"),
        (lambda obj: obj["asr_vocab"].update(kind="sentencepiece"), "asr_vocab: unknown tokenizer kind 'sentencepiece'"),
        (lambda obj: obj["params"]["ic.b"].update(data=1), "parameter 'ic.b': data must be list[float], got int"),
        (lambda obj: obj["params"]["ic.b"].update(shape=[True]),
         "parameter 'ic.b': shape must be list[int], got list[bool]"),
        (lambda obj: obj["params"]["sl.b"].update(data=[True, 0.0]),
         "parameter 'sl.b': data must be list[float], got list[bool | float]"),
        (lambda obj: obj["params"]["sl.b"].update(data=[0.0, 0.0, 0.0]), "parameter 'sl.b': 3 values, shape [2] needs 2"),
    ],
    ids=["vocab-kind-list", "vocab-kind-unknown", "param-data-number", "param-shape-bool", "param-data-bool",
         "param-data-count"],
)
def test_checkpoint_value_the_format_does_not_allow_is_named(capsys, tmp_path, ref_manifest, edit, message):
    # one intent, so that ic.b has one value: a bare number or a shape of [true] would fit it
    ckpt = _small_checkpoint(tmp_path / "ckpt.json", intents=["find_flight"])
    obj = json.loads(ckpt.read_text())
    edit(obj)
    ckpt.write_text(json.dumps(obj))
    err = _decode_fails_cleanly(capsys, ckpt, ref_manifest, tmp_path / "h.jsonl")
    assert err == f"slu decode: {ckpt}: malformed checkpoint: {message}\n"


def test_decode_beam_size_flag_zero_exits_2(capsys, tmp_path, ref_manifest):
    ckpt = _small_checkpoint(tmp_path / "ckpt.json")
    err = _decode_fails_cleanly(capsys, ckpt, ref_manifest, tmp_path / "h.jsonl", "--beam-size", "0")
    assert "--beam-size must be >= 1" in err


def test_checkpoint_beam_size_zero_exits_2(capsys, tmp_path, ref_manifest):
    ckpt = _small_checkpoint(tmp_path / "ckpt.json")  # save_checkpoint itself refuses a beam of 0
    obj = json.loads(ckpt.read_text())
    obj["beam_size"] = 0
    ckpt.write_text(json.dumps(obj))
    err = _decode_fails_cleanly(capsys, ckpt, ref_manifest, tmp_path / "h.jsonl")
    assert "beam_size must be >= 1" in err


@pytest.mark.parametrize("command", ["decode", "augment", "train-toy"])
def test_a_wav_with_a_zero_sample_rate_is_named(capsys, tmp_path, command):
    paths = write_corpus(tmp_path / "corpus", 2, seed=5)
    wav = paths.wav_dir / "synth001.wav"
    blob = bytearray(wav.read_bytes())
    blob[24:28] = bytes(4)  # the fmt chunk's sample rate
    wav.write_bytes(bytes(blob))
    out = tmp_path / "out" / "result"
    if command == "decode":
        extra = ["--ckpt", str(_small_checkpoint(tmp_path / "ckpt.json"))]
    elif command == "augment":
        noise_dir = tmp_path / "noise"
        noise_dir.mkdir()
        for name in ("n0.wav", "n1.wav"):
            write_wav(AudioClip(0.2 * np.ones(500), 16000), noise_dir / name)
        extra = ["--noise-dir", str(noise_dir), "--split", "train", "--snr", "10"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"stages": [{"stage": "asr_pretrain", "epochs": 1, "lr": 0.05}]}))
        extra = ["--config", str(config)]
    code, out_text, err = run(capsys, command, "--manifest", str(paths.manifest), "--out", str(out), *extra)
    assert (code, out_text) == (1, "")
    assert err == f"slu {command}: {wav}: bad sample rate 0\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_checkpoint_int_past_the_digit_limit_exits_2(capsys, tmp_path, ref_manifest):
    ckpt = _small_checkpoint(tmp_path / "ckpt.json")
    obj = json.loads(ckpt.read_text())
    obj["beam_size"] = "BIG"
    ckpt.write_text(json.dumps(obj).replace('"BIG"', "9" * 5000))  # json.dumps of such an int raises
    err = _decode_fails_cleanly(capsys, ckpt, ref_manifest, tmp_path / "h.jsonl")
    assert err.startswith(f"slu decode: {ckpt}: invalid JSON: ")


def test_manifest_int_past_the_digit_limit_exits_2(capsys, tmp_path, ref_manifest):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(ref_manifest.read_text() + '{"id": ' + "9" * 5000 + "}\n")
    code, out, err = run(capsys, "validate", "--manifest", str(manifest))
    assert (code, out) == (2, "")
    assert err.startswith(f"slu validate: {manifest}:3: invalid JSON: ") and len(err.splitlines()) == 1


def test_decode_error_names_failing_record(capsys, tmp_path):
    ckpt = _small_checkpoint(tmp_path / "ckpt.json")
    wav_dir = tmp_path / "clean"
    wav_dir.mkdir()
    # 3 s at the default hop and stride is 100 encoder frames, past max_positions 64
    for name, seconds in (("short0", 0.3), ("long1", 3.0)):
        write_wav(AudioClip(0.3 * np.sin(np.linspace(0, 400, int(16000 * seconds))), 16000),
                  wav_dir / f"{name}.wav")
    records = [Utterance(name, ["show"], ["O"], "find_flight", f"{name}.wav") for name in ("short0", "long1")]
    manifest_path = wav_dir / "m.jsonl"
    write_manifest(build_manifest(records), manifest_path)
    err = _decode_fails_cleanly(capsys, ckpt, manifest_path, tmp_path / "h.jsonl", "--beam-size", "1")
    assert "record 'long1'" in err and "max_positions 64" in err


def test_decode_cuts_a_hypothesis_past_the_nlu_positions(capsys, tmp_path):
    write_wav(AudioClip(0.3 * np.sin(np.linspace(0, 40, 4800)), 16000), tmp_path / "u0.wav")
    manifest_path = tmp_path / "m.jsonl"
    write_manifest(build_manifest([Utterance("u0", ["boston"], ["O"], "find_flight", "u0.wav")]), manifest_path)
    ckpt = _small_checkpoint(tmp_path / "ckpt.json")
    obj = json.loads(ckpt.read_text())
    pieces = obj["asr_vocab"]["pieces"]
    bias = [-50.0] * (len(pieces) + 1)  # the last output is EOS
    bias[pieces.index("▁boston")] = 50.0
    obj["params"]["asr.out_b"]["data"] = bias
    ckpt.write_text(json.dumps(obj))
    # the beam emits "boston" up to its 40-token limit: 41 decoder positions, but 80 NLU
    # subwords, so step two reads the first 32 words, whose 64 subwords fit
    hyp = tmp_path / "h.jsonl"
    code, _, err = run(capsys, "decode", "--ckpt", str(ckpt), "--manifest", str(manifest_path),
                       "--out", str(hyp), "--beam-size", "1")
    assert (code, err) == (0, "")
    row = json.loads(hyp.read_text())
    assert row["words"] == ["boston"] * 32 and len(row["slots"]) == 32

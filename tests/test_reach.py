"""Reach guard: every function written in ``src/slu`` is called by some command.

All seven commands run over their documented flags on a six-utterance corpus
under ``sys.setprofile``; a function body that none of them enters fails the
test, unless ``UNREACHED`` lists it with the reason it stays.  Methods that
``dataclasses`` generates are not written in ``src/slu`` and are not counted.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path

import slu
from slu import cli
from slu.data import Utterance, build_manifest, parse_manifest, write_manifest
from slu.synth import write_corpus, write_noise_dir

MODULES = [importlib.import_module(f"slu.{info.name}") for info in pkgutil.iter_modules(slu.__path__)]

# Functions no command calls, each with the reason it stays.
UNREACHED = {
    "cli.entrypoint": "the console script `slu`; the commands run through main",
    "audio.write_wav": "writes one WAV file atomically; only synth.write_corpus and synth.write_noise_dir call it",
    "subword.save_vocab": "writes the vocab file format; only synth.write_corpus calls it",
    **{f"synth.{name}": "corpus and schedule synthesis, which only scripts/ (and tests) call"
       for name in ("word_waveform", "utterance_audio", "_fill", "build_corpus", "write_corpus",
                    "write_noise_dir", "default_train_config", "write_train_config")},
}


def _package_code() -> dict[str, object]:
    """The code of every function written in src/slu, by dotted name: module
    functions, methods, properties, and the functions defined inside them.
    Memoized functions are emptied, so that their bodies run again."""
    found = {}

    def add(name, code):
        if not code.co_name.startswith("<"):  # lambdas and comprehensions are parts of the function around them
            found[name] = code
        for const in code.co_consts:
            if inspect.iscode(const):
                add(f"{name}.{const.co_name}", const)

    def function_of(member):
        member = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
        if hasattr(member, "cache_clear"):
            member.cache_clear()
        member = inspect.unwrap(member) if callable(member) else member
        return member if inspect.isfunction(member) else None

    for module in MODULES:
        prefix = module.__name__.removeprefix("slu.")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    func = function_of(member)
                    if func is not None and func.__code__.co_filename == module.__file__:
                        add(f"{prefix}.{name}.{attr}", func.__code__)
            else:
                func = function_of(value)
                if func is not None and func.__code__.co_filename == module.__file__:
                    add(f"{prefix}.{name}", func.__code__)
    return found


def _command_lines(root: Path) -> list[list]:
    """Inputs for each command, written under ``root``, and the command lines that
    read them: both heads, both modes, a pretraining corpus, polls with early
    stopping, both vocab sources, and every score metric."""
    corpus = root / "corpus"
    manifest = write_corpus(corpus, 6, seed=7).manifest
    records = parse_manifest(manifest).records
    pretrain = corpus / "pretrain.jsonl"  # beside the manifest, so that its WAV paths hold
    write_manifest(build_manifest(records[:2]), pretrain)
    # hypotheses as long as their references, as span F1 needs: a word, a tag and an intent wrong
    hyps = root / "hyps.jsonl"
    write_manifest(build_manifest(
        Utterance(rec.id, ["boston"] + rec.words[1:], ["I-toloc"] + rec.slots[1:], rec.intent if i % 2 else "airfare")
        for i, rec in enumerate(records)
    ), hyps)
    lines = []
    for head, mode, vocabs in (("linear", "e2e", False), ("crf", "two_stage", True),
                               ("crf", "e2e", False), ("linear", "two_stage", True)):
        config = {
            "seed": 0, "beam_size": 2, "mode": mode,
            "feature": {"frame_length": 256, "hop": 160, "num_bands": 20},
            "model": {"asr_hidden": 4, "nlu_hidden": 4, "slot_head": head},
            "stages": [
                {"stage": "asr_pretrain", "epochs": 1, "lr": 0.05, "momentum": 0.9},
                {"stage": "asr_finetune", "epochs": 1, "lr": 0.05},
                {"stage": "joint_finetune", "epochs": 2, "lr": 0.01, "eval_every": 1,
                 "target_slots_f1": 0.0, "target_intent_acc": 0.0},
            ],
        }
        if vocabs:  # else the synthetic vocabularies
            config.update(asr_vocab="vocab_asr.txt", nlu_vocab="vocab_nlu.txt")
        config_path = corpus / f"{head}_{mode}.json"
        config_path.write_text(json.dumps(config))
        ckpt = root / f"{head}_{mode}.ckpt.json"
        lines += [
            ["train-toy", "--config", config_path, "--manifest", manifest, "--pretrain-manifest", pretrain,
             "--out", ckpt],
            ["decode", "--ckpt", ckpt, "--manifest", manifest, "--beam-size", 1 if vocabs else 3,
             "--out", root / f"{head}_{mode}.hyps.jsonl"],
        ]
    noise = write_noise_dir(root / "noise", count=10, seed=3)  # 5 test noises
    return lines + [
        ["augment", "--manifest", manifest, "--noise-dir", noise, "--split", "test", "--snr", "0,10,20,30,40",
         "--seed", 1, "--out", root / "noisy"],
        ["score", "--refs", manifest, "--hyps", hyps, "--metrics", "wer,slots-edit-f1,span-f1,intent-f1",
         "--pretty", "--out", root / "report.json"],
        ["score", "--refs", manifest, "--hyps", hyps],
        ["wer", "--refs", manifest, "--hyps", hyps],
        ["validate", "--manifest", manifest],
        ["tokenize", "--vocab", corpus / "vocab_nlu.txt", "--manifest", manifest],
        ["tokenize", "--vocab", corpus / "vocab_asr.txt", "--manifest", manifest, "--out", root / "tokens.jsonl"],
    ]


def test_the_commands_reach_every_function_in_the_package(tmp_path):
    lines = _command_lines(tmp_path)
    code = _package_code()
    # the walk sees operators, contextmanager and memoized functions, properties and staticmethods
    assert {"autodiff.Tensor.__add__", "autodiff.no_grad", "audio._hann", "model.JointModel.asr_output_size",
            "autodiff.Tensor._op", "errors.read_config"} <= set(code)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv in lines:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                status = cli.main([str(arg) for arg in argv])
            finally:
                sys.setprofile(previous)
        assert (status, stderr.getvalue()) == (0, ""), argv
    assert sorted(name for name, body in code.items() if body not in reached) == sorted(UNREACHED)

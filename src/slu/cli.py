"""Command-line entry point.

Exit codes: 0 success, 1 runtime error, 2 validation or usage error.
Verbosity is controlled by the SLU_LOG environment variable (DEBUG/INFO/...).
All randomness flows from --seed / config seeds, so re-running a pipeline
with identical flags reproduces its outputs byte for byte.  A failed command
leaves no partial artifact: a single output file is written to a temporary
file beside it and renamed into place (``ioutil.atomic_write_bytes``);
``augment``'s WAVs, manifest and provenance, and ``train-toy``'s checkpoint
and log, are written into a stage inside their directory and moved in only
when every one is written and none would land on a directory
(``ioutil.staged_dir``).  A failed commit leaves that directory as it was,
or removes it if the command made it; a repeated one replaces each file.
A command given an ``--out`` refuses, with exit code 2, to write over a file
it read, named by a flag, a config or a manifest, or the noise directory it
listed (``ioutil.refusing_to_overwrite_reads``).  The refusal comes at the
commit: after the work, but before anything is written.
The argument parser is built once per process and reused by every ``main``
call.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import audio, data, metrics, synth
from .decode import decode_corpus
from .errors import ParseError, SluError, ValidationError, read_config
from .ioutil import atomic_write_text, read_json, refusing_to_overwrite_reads, staged_dir
from .model import JointModel, ModelConfig, load_checkpoint, save_checkpoint
from .subword import load_vocab, tokenize
from .train import StageConfig, TrainConfig, corpus_features, train

log = logging.getLogger("slu")


def _setup_logging() -> None:
    level = os.environ.get("SLU_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slu", description="Spoken language understanding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a manifest and check its invariants")
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("tokenize", help="subword-tokenize a manifest")
    p.add_argument("--vocab", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="output JSONL path (default: stdout)")

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--metrics", default="wer,slots-edit-f1,intent-f1")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out", help="also write the JSON report to this path")

    p = sub.add_parser("wer", help="corpus word error rate only")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.set_defaults(metrics="wer", pretty=False, out=None)  # run as score --metrics wer

    p = sub.add_parser("augment", help="noise-augment a corpus at fixed SNR levels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--noise-dir", required=True)
    p.add_argument("--split", choices=("train", "test"), required=True)
    p.add_argument("--snr", default="0,10,20,30,40", help="comma-separated dB levels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-toy", help="train the toy joint model")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--pretrain-manifest")
    p.add_argument("--out", default="ckpt.json")

    p = sub.add_parser("decode", help="two-step decoding to a hypothesis manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--beam-size", type=int)
    p.add_argument("--out", required=True)
    return parser


def cmd_validate(args) -> int:
    manifest = data.parse_manifest(args.manifest)
    conflicts = data.find_slot_conflicts(manifest)
    for word, labels in conflicts.items():
        log.warning("word %r carries multiple slot labels: %s", word, ",".join(labels))
    print(
        json.dumps(
            {
                "records": len(manifest.records),
                "slot_labels": sorted(manifest.slot_vocabulary),
                "intents": sorted(manifest.intent_vocabulary),
                "conflicting_words": len(conflicts),
            }
        )
    )
    return 0


def cmd_tokenize(args) -> int:
    vocab = load_vocab(args.vocab)
    manifest = data.parse_manifest(args.manifest)
    lines = []
    for rec in manifest.records:
        tokens, first_index = tokenize(rec.words, vocab)
        lines.append(json.dumps({"id": rec.id, "tokens": tokens, "first_index": first_index}))
    text = "".join(line + "\n" for line in lines)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_score(args) -> int:
    names = [n.strip() for n in args.metrics.split(",") if n.strip()]
    if not names:
        raise ValidationError(f"--metrics names no metric; choose from {metrics.METRICS}")
    refs = data.parse_manifest(args.refs).records
    hyps = data.parse_manifest(args.hyps).records
    mismatched = len(refs) == len(hyps) and sum(r.id != h.id for r, h in zip(refs, hyps))
    if mismatched:  # unequal counts are score_report's error, raised next
        log.warning("scoring pairs by position, but %d record ids differ between files", mismatched)
    report = metrics.score_report(refs, hyps, names)
    if args.out:  # written before anything is printed, as every command does
        atomic_write_text(args.out, json.dumps(report) + "\n")
    if args.pretty:
        for key in ("wer", "span_f1", "intent_f1"):
            if key in report:
                print(f"{key:>14}: {report[key]:.4f}")
        if "slots_edit_f1" in report:
            print(f" slots_edit_f1: {report['slots_edit_f1']['f1']:.4f}")
            for label, tally in report["slots_edit_f1"]["per_label"].items():
                print(f"{label:>14}: tp={tally['tp']} fp={tally['fp']} fn={tally['fn']}")
    else:
        print(json.dumps(report))
    return 0


def cmd_augment(args) -> int:
    try:
        levels = tuple(float(s) for s in args.snr.split(","))
    except ValueError as exc:
        raise ValidationError(f"--snr must be comma-separated dB levels, got {args.snr!r}") from exc
    if not all(abs(level) <= 300 for level in levels):  # also rejects nan; 10 ** (level / 20) stays finite
        raise ValidationError(f"--snr levels must lie within +-300 dB, got {args.snr!r}")
    spec = audio.AugmentSpec(snr_levels_db=levels, noises_per_clip=len(levels), seed=args.seed)
    manifest = data.parse_manifest(args.manifest)
    pool = audio.NoisePool.from_directory(args.noise_dir)
    augmented, _ = audio.augment_corpus(manifest, pool, spec, args.split, args.out)
    print(json.dumps({"records": len(augmented.records), "out": str(Path(args.out))}))
    return 0


@dataclass
class TrainFile(TrainConfig):
    """A train config file: the ``TrainConfig`` keys, its stages still JSON, then the model set-up."""

    feature: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    asr_vocab: str | None = None  # paths relative to the config file; the synthetic vocabularies when None
    nlu_vocab: str | None = None


def _train_configs(path: Path):
    spec = read_config(TrainFile, read_json(path))
    spec.stages = [read_config(StageConfig, stage, f"stages[{i}]") for i, stage in enumerate(spec.stages)]
    feature = read_config(audio.FeatureConfig, spec.feature, "feature")
    model_cfg = read_config(ModelConfig, spec.model, "model", feature_dim=feature.num_bands)
    asr_vocab = synth.asr_vocab() if spec.asr_vocab is None else load_vocab(path.parent / spec.asr_vocab)
    nlu_vocab = synth.nlu_vocab() if spec.nlu_vocab is None else load_vocab(path.parent / spec.nlu_vocab)
    return spec, feature, model_cfg, asr_vocab, nlu_vocab  # spec is the TrainConfig


def cmd_train_toy(args) -> int:
    try:
        train_cfg, feature, model_cfg, asr_vocab, nlu_vocab = _train_configs(Path(args.config))
    except ValidationError as exc:
        raise ValidationError(f"{args.config}: bad train config: {exc}") from exc
    manifest = data.parse_manifest(args.manifest)
    pretrain = data.parse_manifest(args.pretrain_manifest) if args.pretrain_manifest else None
    slot_tags = sorted({tag for rec in manifest.records for tag in rec.slots})
    intents = sorted(manifest.intent_vocabulary)
    try:
        model = JointModel(model_cfg, asr_vocab, nlu_vocab, slot_tags, intents)
    except ValidationError as exc:  # its parameters are over the budget
        raise ValidationError(f"{args.config}: bad train config: model: {exc}") from exc
    history = train(model, manifest, train_cfg, feature, pretrain)
    out = Path(args.out)
    with staged_dir(out.parent) as stage:  # both files are written in full before either replaces its path
        save_checkpoint(model, stage / out.name, feature, train_cfg.beam_size)
        log_text = "".join(json.dumps(row) + "\n" for row in history)
        (stage / out.with_suffix(".log.jsonl").name).write_text(log_text, encoding="utf-8")
    final = history[-1] if history else {}
    print(json.dumps({"checkpoint": args.out, "epochs": len(history), "final": final}))
    return 0


def cmd_decode(args) -> int:
    model, feature, beam_size = load_checkpoint(args.ckpt)
    if args.beam_size is not None:
        if args.beam_size < 1:
            raise ValidationError(f"--beam-size must be >= 1, got {args.beam_size}")
        beam_size = args.beam_size
    manifest = data.parse_manifest(args.manifest)
    hyps = decode_corpus(model, manifest.records, corpus_features(manifest, feature), beam_size)
    atomic_write_text(args.out, "".join(data.record_to_json(hyp) + "\n" for hyp in hyps))
    print(json.dumps({"records": len(hyps), "out": args.out}))
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "tokenize": cmd_tokenize,
    "score": cmd_score,
    "wer": cmd_score,
    "augment": cmd_augment,
    "train-toy": cmd_train_toy,
    "decode": cmd_decode,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    empty = [name for name, value in vars(args).items() if value == []]  # argparse reads --flag=-- as []
    if empty:
        print(f"slu {args.command}: --{empty[0].replace('_', '-')} expected a value, got '--'", file=sys.stderr)
        return 2
    if log.isEnabledFor(logging.INFO):
        log.info("resolved config: %s", json.dumps(vars(args)))
    try:
        if getattr(args, "out", None):  # only a command given an output can write over an input
            with refusing_to_overwrite_reads(args.out):
                return _COMMANDS[args.command](args)
        return _COMMANDS[args.command](args)
    except (ValidationError, ParseError) as exc:
        print(f"slu {args.command}: {exc}", file=sys.stderr)
        return 2
    except (SluError, OSError) as exc:
        print(f"slu {args.command}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())

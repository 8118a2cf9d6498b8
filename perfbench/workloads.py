"""The three benchmark workloads: train, noisy-eval and score.

Each workload derives every generated input from the run seed, prepares it
in ``setup`` (timed as set-up, repeated to check that set-up is
deterministic), then runs ``flow`` -- one unit of timed work -- in a closed
loop with a single caller.  ``check`` validates the outputs outside the
timed section, ``per_flow_counts`` gives the denominators of the per-layer
ratios, and ``coverage`` cross-checks traced counts against work the
benchmark knows it did, so that a binding the tracer missed cannot read as
zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# Module attributes only, never ``from`` imports of functions: the tracer
# rewraps the bindings inside the slu modules, not copies held here.
from slu import audio, cli, data, decode, metrics, model as slu_model, synth, train as slu_train
from slu.errors import SluError

from clock import Clock

SNR_LEVELS = (0.0, 10.0, 20.0, 30.0, 40.0)
CORPUS_SIZE = 50
DECODED_PER_FLOW = (1 + len(SNR_LEVELS)) * CORPUS_SIZE  # clean plus one copy per SNR level
SCORE_METRICS = "wer,slots-edit-f1,intent-f1"


def derive(seed: int, what: str) -> int:
    """Independent, reproducible sub-seed for one generated input."""
    return random.Random(f"perfbench:{seed}:{what}").randrange(1 << 30)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Flow:
    """What one unit of timed work did.

    ``parts`` are the seconds of consecutive segments that together cover
    the flow, and ``probes`` the reference probe timed before each (see
    clock.py); every flow of one run has the same layout, segment i doing
    the same work each time.  ``ops`` are the indices of the segments that
    are the workload's operations (SGD steps, decode calls, score calls).
    """

    parts: list[float]
    probes: list[float]
    ops: range
    attempted: int
    failed: int
    items: int  # utterance-steps, decoded utterances, or scored pairs
    output: object  # compared across flows for determinism
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Time in the flow's segments, probes excluded."""
        return sum(self.parts)

    @property
    def elapsed(self) -> float:
        """Wall time of the flow, probes included."""
        return sum(self.parts) + sum(self.probes)


def _quiet(func, *args):
    """Call func with its stdout captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = func(*args)
    return result, buf.getvalue()


# -- train ----------------------------------------------------------------


class TrainWorkload:
    name = "train"
    why = ("slu.train.train with the CRF head on a fixed 3-stage schedule: forward, backward "
           "and SGD with no decoding (autodiff, model, crf, train)")
    items_name, items_unit = "train_utt_per_s", "utterance-steps/s"
    op_name = "train_step_ms"
    quality_unit = "nats"
    # (stage, epochs): joint steps cost about twice ASR steps, and they take
    # 60% of the steps rather than exactly half, so that the step-latency
    # median falls inside the joint-step population, not in the gap between
    # the two.
    SCHEDULE = (("asr_pretrain", 3), ("asr_finetune", 1), ("joint_finetune", 6))

    def setup(self, work: Path, seed: int) -> dict:
        paths = synth.write_corpus(work / "corpus", CORPUS_SIZE, seed=derive(seed, "corpus"))
        manifest = data.parse_manifest(paths.manifest)
        defaults = synth.default_train_config()
        stage_defaults = {s["stage"]: s for s in defaults["stages"]}
        stages = [
            slu_train.StageConfig(
                stage=stage,
                epochs=epochs,
                lr=stage_defaults[stage]["lr"],
                momentum=stage_defaults[stage]["momentum"],
            )
            for stage, epochs in self.SCHEDULE
        ]
        feature = audio.FeatureConfig(**defaults["feature"])
        return {
            "manifest": manifest,
            "feature": feature,
            "model_config": slu_model.ModelConfig(
                feature_dim=feature.num_bands, **{**defaults["model"], "slot_head": "crf"}
            ),
            "train_config": slu_train.TrainConfig(
                seed=derive(seed, "init"), beam_size=defaults["beam_size"], stages=stages
            ),
            "slot_tags": sorted({tag for rec in manifest.records for tag in rec.slots}),
            "intents": sorted(manifest.intent_vocabulary),
            "steps": sum(epochs for _, epochs in self.SCHEDULE) * len(manifest.records),
            "digest": file_digest(paths.manifest, paths.asr_vocab, paths.nlu_vocab),
        }

    def flow(self, state: dict, work: Path) -> Flow:
        model = slu_model.JointModel(
            state["model_config"], synth.asr_vocab(), synth.nlu_vocab(),
            state["slot_tags"], state["intents"],
        )
        model.init_params(state["train_config"].seed)
        # Every SGD step starts with zero_grads; marks there split the
        # train() call into steps.  Segment 0 is feature extraction and
        # set-up inside train(); segment i is SGD step i (the last one also
        # holds train()'s return).
        clock = Clock()
        steps = 0
        zero_grads = model.zero_grads

        def marked_zero_grads():
            nonlocal steps
            clock.mark()
            steps += 1
            zero_grads()

        model.zero_grads = marked_zero_grads
        failed = 0
        history: list[dict] = []
        clock.mark()
        try:
            history = slu_train.train(model, state["manifest"], state["train_config"], state["feature"])
        except SluError:
            failed = state["steps"]
        clock.mark()
        losses = [row["loss"] for row in history]
        return Flow(
            *clock.segments(),
            ops=range(1, steps + 1),
            attempted=state["steps"],
            failed=failed,
            items=steps,
            output=history,
            quality={
                "train_first_loss": losses[0] if losses else math.nan,
                "train_final_loss": losses[-1] if losses else math.nan,
            },
        )

    def check(self, state: dict, flows: list[Flow], root: Path) -> list[str]:
        problems = []
        history = flows[0].output
        epochs = sum(epochs for _, epochs in self.SCHEDULE)
        if len(history) != epochs:
            problems.append(f"history has {len(history)} epochs, expected {epochs}")
        losses = [row["loss"] for row in history]
        if not all(math.isfinite(loss) for loss in losses):
            problems.append("an epoch loss is not finite")
        elif losses and not losses[-1] < losses[0]:
            problems.append(f"final loss {losses[-1]} not below first {losses[0]}")
        if any(f.output != history for f in flows[1:]):
            problems.append("loss history differs between flows with the same seed")
        if any(f.items != state["steps"] for f in flows):
            problems.append("a flow ran a different number of SGD steps")
        return problems

    def per_flow_counts(self, state: dict) -> dict[str, int]:
        return {"utts": state["steps"], "pairs": 0}

    def coverage(self, tracer, flows: int, state: dict) -> list[str]:
        steps = flows * state["steps"]
        expected = {
            "train.train": flows,
            "model.JointModel.zero_grads": steps,
            "autodiff.Tensor.backward": steps,
        }
        return [
            f"{name}: {tracer.calls(name)} calls, expected {want}"
            for name, want in expected.items()
            if tracer.calls(name) != want
        ]


# -- noisy-eval -----------------------------------------------------------


class NoisyEvalWorkload:
    name = "noisy-eval"
    why = ("load checkpoint, augment at 0-40 dB, features, beam-5 decode of 50 clean + 250 noisy "
           "utterances, score: beam search dominates, no backward")
    items_name, items_unit = "eval_utt_per_s", "utterances/s"
    op_name = "decode_ms"
    quality_unit = "ratio"

    def setup(self, work: Path, seed: int) -> dict:
        corpus = synth.write_corpus(work / "corpus", CORPUS_SIZE, seed=derive(seed, "corpus"))
        noise_dir = synth.write_noise_dir(work / "noise", count=12, seed=derive(seed, "noise"))
        config = synth.default_train_config()
        config["seed"] = derive(seed, "init")
        config["asr_vocab"] = corpus.asr_vocab.name
        config["nlu_vocab"] = corpus.nlu_vocab.name
        config_path = corpus.manifest.parent / "train_config.json"
        config_path.write_text(json.dumps(config))
        ckpt = work / "ckpt.json"
        code, _ = _quiet(cli.main, [
            "train-toy", "--config", str(config_path), "--manifest", str(corpus.manifest),
            "--out", str(ckpt),
        ])
        if code != 0:
            raise RuntimeError(f"slu train-toy exited with {code}")
        return {
            "manifest_path": corpus.manifest,
            "noise_dir": noise_dir,
            "ckpt": ckpt,
            "augment_seed": derive(seed, "augment"),
            "digest": file_digest(ckpt, ckpt.with_suffix(".log.jsonl"), corpus.manifest),
        }

    def flow(self, state: dict, work: Path) -> Flow:
        noisy_dir = work / "noisy"
        clock = Clock()
        clock.mark()
        model, feature, beam_size = slu_model.load_checkpoint(state["ckpt"])
        clean = data.parse_manifest(state["manifest_path"])
        pool = audio.NoisePool.from_directory(state["noise_dir"])
        spec = audio.AugmentSpec(
            snr_levels_db=SNR_LEVELS, noises_per_clip=len(SNR_LEVELS), seed=state["augment_seed"]
        )
        noisy, provenance = audio.augment_corpus(clean, pool, spec, "test", noisy_dir)
        sets = {
            "clean": (clean, slu_train.corpus_features(clean, feature)),
            "noisy": (noisy, slu_train.corpus_features(noisy, feature)),
        }
        # Segment 0 is loading, augmentation and features; segment i is
        # decode i (with microseconds of loop bookkeeping); the last one is
        # scoring.
        failed = 0
        hyps: dict[str, list] = {}
        for name, (manifest, features) in sets.items():
            hyps[name] = []
            for rec, feats in zip(manifest.records, features):
                clock.mark()
                try:
                    result = decode.decode_two_step(model, feats, beam_size=beam_size)
                    hyp = (result.words, result.slots, result.intent)
                except SluError:
                    failed += 1
                    hyp = ([], [], "")
                hyps[name].append(hyp)
        clock.mark()
        decoded = sum(len(hyp_list) for hyp_list in hyps.values())
        quality = {}
        for name, (manifest, _) in sets.items():
            refs = [(rec.words, rec.slots) for rec in manifest.records]
            pairs = [(words, slots) for words, slots, _ in hyps[name]]
            quality[f"{name}_slots_edit_f1"] = metrics.slots_edit_f1(refs, pairs).f1
            quality[f"{name}_wer"] = metrics.corpus_wer([r[0] for r in refs], [p[0] for p in pairs])
            quality[f"{name}_intent_acc"] = metrics.intent_accuracy(
                [rec.intent for rec in manifest.records], [intent for _, _, intent in hyps[name]]
            )
        clock.mark()
        output = {
            "hyps": hyps,
            "noisy_ids": [rec.id for rec in noisy.records],
            "provenance": [(p["source_id"], p["snr_db"]) for p in provenance],
            "clean_count": len(clean.records),
        }
        shutil.rmtree(noisy_dir)
        return Flow(*clock.segments(), range(1, decoded + 1), decoded, failed, decoded, output, quality)

    def check(self, state: dict, flows: list[Flow], root: Path) -> list[str]:
        problems = []
        first = flows[0]
        q = first.quality
        if q["clean_slots_edit_f1"] < 0.95:
            problems.append(f"clean slots edit F1 {q['clean_slots_edit_f1']:.4f} < 0.95")
        if q["clean_intent_acc"] < 0.99:
            problems.append(f"clean intent accuracy {q['clean_intent_acc']:.4f} < 0.99")
        out = first.output
        n = out["clean_count"]
        if len(out["noisy_ids"]) != len(SNR_LEVELS) * n:
            problems.append(f"augmented corpus has {len(out['noisy_ids'])} records, expected {len(SNR_LEVELS) * n}")
        by_source: dict[str, list[float]] = {}
        for source, level in out["provenance"]:
            by_source.setdefault(source, []).append(level)
        if len(by_source) != n or any(levels != list(SNR_LEVELS) for levels in by_source.values()):
            problems.append("augmented records do not follow the SNR ladder per source")
        expected_ids = [f"{source}#snr{level:g}" for source, level in out["provenance"]]
        if out["noisy_ids"] != expected_ids:
            problems.append("augmented record ids do not match {id}#snr{level}")
        if any(f.output != out for f in flows[1:]):
            problems.append("hypotheses differ between flows with the same seed")
        return problems

    def per_flow_counts(self, state: dict) -> dict[str, int]:
        return {"utts": DECODED_PER_FLOW, "pairs": DECODED_PER_FLOW}

    def coverage(self, tracer, flows: int, state: dict) -> list[str]:
        decoded = flows * DECODED_PER_FLOW
        expected = {
            "decode.decode_two_step": decoded,
            "decode.beam_search_transcript": decoded,
            "audio.augment_corpus": flows,
            "model.load_checkpoint": flows,
        }
        return [
            f"{name}: {tracer.calls(name)} calls, expected {want}"
            for name, want in expected.items()
            if tracer.calls(name) != want
        ]


# -- score ----------------------------------------------------------------


class ScoreWorkload:
    name = "score"
    why = ("slu score over seeded short (2-7 word) and long (20-40 word) pairs: manifest parsing "
           "and alignment metrics, no model")
    items_name, items_unit = "score_pairs_per_s", "pairs/s"
    op_name = "score_call_ms"
    quality_unit = "ratio"
    # 200 calls, so that the p95 call latency has 10 calls beyond it.
    CHUNKS = 200
    PAIRS_PER_CHUNK = 6
    ORACLE_SAMPLE = 48

    def setup(self, work: Path, seed: int) -> dict:
        rng = random.Random(derive(seed, "pairs"))
        pool = synth.build_corpus(20 * len(synth.TEMPLATES), seed=derive(seed, "templates"), with_audio=False)
        lexicon = synth.lexicon()
        tags = sorted({tag for rec in pool.records for tag in rec.slots})
        intents = sorted(pool.intent_vocabulary)
        pairs, chunk_paths = [], []
        for c in range(self.CHUNKS):
            # Every chunk holds as many short pairs as long ones, in seeded order.
            chunk = []
            for i in range(self.PAIRS_PER_CHUNK):
                parts = rng.sample(pool.records, 1 if i % 2 == 0 else rng.randint(4, 7))
                words = [w for rec in parts for w in rec.words]
                slots = [s for rec in parts for s in rec.slots]
                ref = data.Utterance(f"p{len(pairs) + i:05d}", words, slots, parts[0].intent)
                chunk.append((ref, _corrupt(ref, rng, lexicon, tags, intents)))
            rng.shuffle(chunk)
            pairs += chunk
            chunk_paths.append(_write_pairs(work / f"chunk{c:03d}", chunk))
        sample = rng.sample(pairs, self.ORACLE_SAMPLE)
        return {
            "chunks": chunk_paths,
            "sample": sample,
            "sample_paths": _write_pairs(work / "oracle_sample", sample),
            "pairs": len(pairs),
            "digest": file_digest(*(p for paths in chunk_paths for p in paths)),
        }

    def flow(self, state: dict, work: Path) -> Flow:
        # Segment i is score call i, with reading back its report.
        reports = []
        failed = 0
        clock = Clock()
        for refs, hyps in state["chunks"]:
            clock.mark()
            code, printed = _quiet(cli.main, [
                "score", "--refs", str(refs), "--hyps", str(hyps), "--metrics", SCORE_METRICS,
            ])
            if code != 0:
                failed += 1
                reports.append(None)
            else:
                reports.append(json.loads(printed.splitlines()[-1]))
        clock.mark()
        ok = [r for r in reports if r is not None]
        quality = {
            "score_mean_wer": sum(r["wer"] for r in ok) / max(len(ok), 1),
            "score_mean_slots_edit_f1": sum(r["slots_edit_f1"]["f1"] for r in ok) / max(len(ok), 1),
            "score_mean_intent_f1": sum(r["intent_f1"] for r in ok) / max(len(ok), 1),
        }
        return Flow(*clock.segments(), range(len(reports)), len(reports), failed, state["pairs"], reports, quality)

    def check(self, state: dict, flows: list[Flow], root: Path) -> list[str]:
        problems = []
        if any(f.output != flows[0].output for f in flows[1:]):
            problems.append("score reports differ between passes over the same files")
        problems += _oracle_check(state, root)
        return problems

    def per_flow_counts(self, state: dict) -> dict[str, int]:
        return {"utts": 0, "pairs": state["pairs"]}

    def coverage(self, tracer, flows: int, state: dict) -> list[str]:
        pairs = flows * state["pairs"]
        expected = {
            "metrics.align": 2 * pairs,
            "cli.cmd_score": flows * len(state["chunks"]),
            "data.parse_manifest": 2 * flows * len(state["chunks"]),
        }
        problems = [
            f"{name}: {tracer.calls(name)} calls, expected {want}"
            for name, want in expected.items()
            if tracer.calls(name) != want
        ]
        if tracer.counters.get("data.records_parsed", 0) != 2 * pairs:
            problems.append("data.records_parsed disagrees with the pairs scored")
        return problems


def _corrupt(ref, rng: random.Random, lexicon, tags, intents):
    """About 15% word edits (deletions, substitutions, insertions), plus slot
    tag and intent errors."""
    words, slots = [], []
    for word, slot in zip(ref.words, ref.slots):
        roll = rng.random()
        if roll >= 0.05:  # otherwise deleted
            if roll < 0.10:
                word = rng.choice([w for w in lexicon if w != word])
            if rng.random() < 0.10:
                slot = rng.choice(tags)
            words.append(word)
            slots.append(slot)
        if rng.random() < 0.05:
            words.append(rng.choice(lexicon))
            slots.append("O")
    if not words:
        words, slots = [rng.choice(lexicon)], ["O"]
    intent = ref.intent
    if rng.random() < 0.10:
        intent = rng.choice([i for i in intents if i != intent])
    return data.Utterance(ref.id, words, slots, intent)


def _write_pairs(stem: Path, pairs) -> tuple[Path, Path]:
    refs, hyps = stem.with_name(stem.name + "_refs.jsonl"), stem.with_name(stem.name + "_hyps.jsonl")
    data.write_manifest(data.build_manifest([r for r, _ in pairs]), refs)
    data.write_manifest(data.build_manifest([h for _, h in pairs]), hyps)
    return refs, hyps


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_check(state: dict, root: Path) -> list[str]:
    """slu score on a seeded sample must equal the independent test oracles."""
    oracles = _load_oracles(root)
    refs_path, hyps_path = state["sample_paths"]
    code, printed = _quiet(cli.main, [
        "score", "--refs", str(refs_path), "--hyps", str(hyps_path), "--metrics", SCORE_METRICS,
    ])
    if code != 0:
        return [f"slu score on the oracle sample exited with {code}"]
    report = json.loads(printed.splitlines()[-1])
    sample = state["sample"]
    refs = [(r.words, r.slots) for r, _ in sample]
    hyps = [(h.words, h.slots) for _, h in sample]
    problems = []
    edits = sum(oracles.lev_distance(r[0], h[0]) for r, h in zip(refs, hyps))
    want_wer = edits / sum(len(r[0]) for r in refs)
    if report["wer"] != want_wer:
        problems.append(f"wer {report['wer']} != oracle {want_wer}")
    tallies = oracles.slots_edit_tallies(refs, hyps)
    got = {label: [t["tp"], t["fp"], t["fn"]] for label, t in report["slots_edit_f1"]["per_label"].items()}
    if got != tallies:
        problems.append(f"slots edit tallies {got} != oracle {tallies}")
    if report["slots_edit_f1"]["f1"] != oracles.f1_from_tallies(tallies):
        problems.append("slots edit F1 differs from the oracle")
    want_intent = oracles.confusion_f1([r.intent for r, _ in sample], [h.intent for _, h in sample])
    if report["intent_f1"] != want_intent:
        problems.append(f"intent F1 {report['intent_f1']} != oracle {want_intent}")
    return problems


WORKLOADS = {w.name: w for w in (TrainWorkload(), NoisyEvalWorkload(), ScoreWorkload())}

"""Fail-clean contract of the CLI under mutated inputs.

A tiny valid corpus (manifest, WAVs, vocabularies), train config, checkpoint
and noise directory are built once.  Each example mutates one of those
inputs, at the byte level or at the JSON level, or replaces the ``--snr``
value, and runs one command through ``cli.main``.  Whatever the input, the
command must exit 0, 1 (I/O) or 2 (bad input), print at most the one-line
``slu <cmd>: ...`` message on stderr, and leave no ``--out`` file behind
when ``decode``, ``tokenize``, ``score``, ``augment`` or ``train-toy`` fails.
An ``augment`` that succeeds leaves one WAV per augmented record.
A failure on a mutated WAV names that file, or the record it belongs to.
A config or checkpoint with one JSON node swapped for a value of another type
loads or fails naming the swapped key (or, inside ``params``, the parameter).
A size too large to allocate, or an int too large for a float, fails naming
its key or the parameter it would size, before anything is allocated for it.
Every field that ``errors.read_config`` fills from JSON has an annotation
whose type the reader checks, or is listed with the reason it is not.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import pkgutil
import re
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import slu
from slu.audio import FeatureConfig
from slu.cli import main
from slu.data import parse_manifest
from slu.errors import ValidationError, read_config
from slu.model import JointModel, ModelConfig, save_checkpoint
from slu.synth import asr_vocab, nlu_vocab, write_corpus, write_noise_dir

# Input files under the base directory, by target name.
FILES = {
    "manifest": "corpus/manifest.jsonl",
    "vocab": "corpus/vocab_nlu.txt",
    "config": "corpus/cfg.json",
    "ckpt": "corpus/ckpt.json",
    "wav": "corpus/wavs/synth000.wav",
    "wav2": "corpus/wavs/synth001.wav",
    "noise": "noise/noise00.wav",
}
# The commands that read each target.
READERS = {
    "manifest": ("validate", "tokenize", "score", "wer", "decode", "augment", "train-toy"),
    "vocab": ("tokenize", "train-toy"),
    "config": ("train-toy",),
    "ckpt": ("decode",),
    "wav": ("decode", "augment", "train-toy"),
    "wav2": ("decode", "augment", "train-toy"),
    "noise": ("augment",),
    "snr": ("augment",),
}
JSON_TARGETS = ("manifest", "config", "ckpt")
# Audio targets: a failure must name the file, or (for the corpus WAVs) its record.
AUDIO_RECORDS = {"wav": "synth000", "wav2": "synth001", "noise": None}
WAV_HEADER = 44
LOG_LINE = re.compile(r"^(DEBUG|INFO|WARNING|ERROR|CRITICAL) ")


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fail_clean")
    paths = write_corpus(root / "corpus", 2, seed=5)
    shutil.copy(paths.manifest, root / "corpus" / "hyps.jsonl")
    write_noise_dir(root / "noise", count=4, seed=3)
    config = {
        "seed": 1,
        "beam_size": 1,
        "asr_vocab": "vocab_asr.txt",
        "nlu_vocab": "vocab_nlu.txt",
        "model": {"asr_hidden": 4, "nlu_hidden": 4},
        "stages": [
            {"stage": "asr_pretrain", "epochs": 1, "lr": 0.05},
            {"stage": "joint_finetune", "epochs": 1, "lr": 0.01},
        ],
    }
    (root / FILES["config"]).write_text(json.dumps(config))
    manifest = parse_manifest(paths.manifest)
    model = JointModel(
        ModelConfig(feature_dim=FeatureConfig().num_bands, asr_hidden=4, nlu_hidden=4),
        asr_vocab(),
        nlu_vocab(),
        sorted({tag for rec in manifest.records for tag in rec.slots}),
        sorted(manifest.intent_vocabulary),
    )
    model.init_params(0)
    save_checkpoint(model, root / FILES["ckpt"], beam_size=1)
    return root


def _argv(command: str, root: Path, snr: str) -> tuple[list[str], Path | None]:
    """The command line for one command, and the --out file or directory a
    failed run must not leave behind (None for no --out)."""
    corpus, out = root / "corpus", root / "out"
    manifest = str(corpus / "manifest.jsonl")
    if command == "validate":
        return ["validate", "--manifest", manifest], None
    if command == "tokenize":
        target = out / "tokens.jsonl"
        return ["tokenize", "--vocab", str(root / FILES["vocab"]), "--manifest", manifest,
                "--out", str(target)], target
    if command == "score":
        target = out / "report.json"
        return ["score", "--refs", manifest, "--hyps", str(corpus / "hyps.jsonl"),
                "--out", str(target)], target
    if command == "wer":
        return ["wer", "--refs", manifest, "--hyps", str(corpus / "hyps.jsonl")], None
    if command == "decode":
        target = out / "hyps.jsonl"
        return ["decode", "--ckpt", str(root / FILES["ckpt"]), "--manifest", manifest,
                "--out", str(target)], target
    if command == "augment":
        return ["augment", "--manifest", manifest, "--noise-dir", str(root / "noise"),
                "--split", "train", f"--snr={snr}", "--seed", "1", "--out", str(out / "aug")], out / "aug"
    assert command == "train-toy"
    target = out / "ckpt.json"
    return ["train-toy", "--config", str(root / FILES["config"]), "--manifest", manifest,
            "--out", str(target)], target


def _json_paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def _mutate_json(text: str, jsonl: bool, pick: int, value, delete: bool) -> str:
    obj = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    paths = list(_json_paths(obj))
    path = paths[pick % len(paths)]
    if not path:
        obj = value
    else:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    if jsonl:
        return "".join(json.dumps(line) + "\n" for line in (obj if isinstance(obj, list) else [obj]))
    return json.dumps(obj)


def _mutate(blob: bytes, target: str, mutation: tuple) -> bytes:
    kind = mutation[0]
    if kind == "truncate":
        return blob[: mutation[1] % (len(blob) + 1)]
    if kind in ("overwrite", "insert"):
        _, pos, chunk = mutation
        pos %= WAV_HEADER if target in ("wav", "noise") else len(blob) + 1
        end = pos + (len(chunk) if kind == "overwrite" else 0)
        return blob[:pos] + chunk + blob[end:]
    if kind == "prefix":
        return mutation[1] + blob
    if kind == "replace":
        return mutation[1]
    assert kind == "json"
    _, pick, value, delete = mutation
    return _mutate_json(blob.decode(), target == "manifest", pick, value, delete).encode()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), 0.5]) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=4,
)
byte_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("overwrite"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("prefix"), st.sampled_from([b"\xff\xfe", b"\xef\xbb\xbf", b"\x00", b"RIFF"])),
    st.tuples(st.just("replace"), st.binary(max_size=8)),
)
json_mutations = st.tuples(st.just("json"), st.integers(0, 1 << 16), json_values, st.booleans())
snr_values = st.one_of(
    st.text(alphabet="0123456789,.-ae ", max_size=8),
    st.sampled_from(["", ",", "nan", "inf,0", "10,10", "-5"]),
)


@st.composite
def cases(draw):
    target = draw(st.sampled_from(sorted(READERS)))
    command = draw(st.sampled_from(READERS[target]))
    if target == "snr":
        return command, target, ("snr", draw(snr_values))
    strategy = byte_mutations | json_mutations if target in JSON_TARGETS else byte_mutations
    return command, target, draw(strategy)


@given(case=cases())
@example(case=("score", "manifest", ("prefix", b"\xff\xfe")))
@example(case=("train-toy", "config", ("json", 0, [], False)))
@example(case=("train-toy", "config", ("json", 1, -1, False)))  # seed
@example(case=("train-toy", "config", ("json", 6, 4.5, False)))  # model.asr_hidden
@example(case=("train-toy", "config", ("json", 11, 0.5, False)))  # stages[0].epochs
@example(case=("decode", "ckpt", ("json", 0, [], False)))
@example(case=("decode", "ckpt", ("json", 0, "x", False)))
@example(case=("augment", "snr", ("snr", "a,b")))
@example(case=("augment", "snr", ("snr", "")))
@example(case=("augment", "snr", ("snr", "--")))
@example(case=("decode", "wav", ("replace", b"RIFF\x00\x00")))
@example(case=("augment", "wav2", ("replace", b"RIFF\x00\x00")))  # after the first record's WAVs
@example(case=("train-toy", "wav", ("overwrite", 24, b"\x00\x00\x00\x00")))  # sample rate 0
@example(case=("augment", "noise", ("overwrite", 24, b"\x00\x00\x00\x00")))
@example(case=("decode", "ckpt", ("json", 8, 10**6, False)))  # model.max_positions
@example(case=("decode", "ckpt", ("json", 8, 10**9, False)))
@example(case=("train-toy", "config", ("json", 6, 10**5, False)))  # model.asr_hidden
@example(case=("decode", "ckpt", ("json", 1519, 10**9, False)))  # feature.frame_length
@example(case=("train-toy", "config", ("json", 12, 10**400, False)))  # stages[0].lr
@example(case=("decode", "ckpt", ("json", 1515, 10**400, False)))  # params['sl.b'].data[0]
@example(case=("augment", "manifest", ("json", 16, "./synth000", False)))  # records[1].id names synth000's WAVs
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_fail_cleanly(base, case):
    command, target, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(base, root, dirs_exist_ok=True)
        snr = "0,10"
        if target == "snr":
            snr = mutation[1]
        else:
            path = root / FILES[target]
            path.write_bytes(_mutate(path.read_bytes(), target, mutation))
        argv, out = _argv(command, root, snr)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2)
        message = [line for line in stderr.getvalue().splitlines() if not LOG_LINE.match(line)]
        if code == 0:
            assert message == []
            if command == "augment":  # one WAV per augmented record: no record's mix overwrote another's
                records = (out / "manifest.jsonl").read_text().splitlines()
                assert len(list(out.rglob("*.wav"))) == len(records)
        else:
            assert len(message) == 1 and message[0].startswith(f"slu {command}: "), message
            if target in AUDIO_RECORDS:
                record = AUDIO_RECORDS[target]
                assert str(path) in message[0] or (record and f"record {record!r}" in message[0]), message
            if out is not None:  # nor a temporary file or directory next to it
                assert not out.exists() and not (out.parent.exists() and any(out.parent.iterdir()))


# Values too large to allocate for, or to hold in a float, by the JSON node they replace, each
# with the parameter or key its refusal names (test_mutated_inputs_fail_cleanly has them as examples).
OVERSIZED = [
    pytest.param("ckpt", ("model", "max_positions"), 10**6, "'asr.enc_pos'", id="ckpt-max_positions-10**6"),
    pytest.param("ckpt", ("model", "max_positions"), 10**9, "'asr.enc_pos'", id="ckpt-max_positions-10**9"),
    pytest.param("config", ("model", "asr_hidden"), 10**5, "'asr.dec_w'", id="config-asr_hidden-10**5"),
    pytest.param("ckpt", ("feature", "frame_length"), 10**9, "frame_length", id="ckpt-frame_length-10**9"),
    pytest.param("config", ("stages", 0, "lr"), 10**400, "lr", id="config-lr-10**400"),
    pytest.param("ckpt", ("params", "sl.b", "data", 0), 10**400, "'sl.b'", id="ckpt-sl.b-data-10**400"),
]


@pytest.mark.parametrize("target, node, value, name", OVERSIZED)
def test_an_oversized_value_is_named_before_anything_is_allocated_for_it(base, tmp_path, target, node, value, name):
    shutil.copytree(base, tmp_path, dirs_exist_ok=True)
    path = tmp_path / FILES[target]
    pick = list(_json_paths(json.loads(path.read_text()))).index(node)
    path.write_bytes(_mutate(path.read_bytes(), target, ("json", pick, value, False)))
    argv, out = _argv(READERS[target][0], tmp_path, "0,10")
    stderr = io.StringIO()
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = [line for line in stderr.getvalue().splitlines() if not LOG_LINE.match(line)]
    assert code == 2 and len(message) == 1 and name in message[0], message
    assert peak < 32 << 20, peak
    assert not out.exists()


SWAP_VALUES = ([], "x", 1, None, {})


def _json_kind(value) -> str:
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) else type(value).__name__


@given(target=st.sampled_from(("config", "ckpt")), pick=st.integers(0, 1 << 16), value=st.sampled_from(SWAP_VALUES))
@example(target="config", pick=0, value="x")  # seed
@example(target="config", pick=8, value=[])  # stages[0]
@example(target="ckpt", pick=1, value=[])  # model
@settings(max_examples=80, deadline=None)
def test_a_json_node_swapped_for_another_type_is_named(base, target, pick, value):
    command = READERS[target][0]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(base, root, dirs_exist_ok=True)
        path = root / FILES[target]
        obj = json.loads(path.read_text())
        # every node but the top level and the numbers of a parameter's data
        nodes = [node for node in _json_paths(obj) if node and "data" not in node[:-1]]
        node = nodes[pick % len(nodes)]
        parent = obj
        for key in node[:-1]:
            parent = parent[key]
        assume(_json_kind(parent[node[-1]]) != _json_kind(value))
        parent[node[-1]] = value
        path.write_text(json.dumps(obj))
        argv, out = _argv(command, root, "0,10")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        message = [line for line in stderr.getvalue().splitlines() if not LOG_LINE.match(line)]
        assert code in (0, 2), message
        if code:
            keys = [key for key in node if isinstance(key, str)]  # the swapped key, or within params the parameter
            name = repr(node[1]) if node[0] == "params" and len(node) > 1 else keys[-1]
            assert len(message) == 1 and str(path) in message[0] and name in message[0], (node, value, message)
            assert not out.exists() and not (out.parent.exists() and any(out.parent.iterdir()))


# The annotations whose JSON types read_config checks, alone or joined by " | ".
CHECKED_ANNOTATIONS = {"int", "float", "str", "dict", "list", "list[str]", "list[int]", "list[float]", "None"}
# Fields that read_config fills without checking their type, each with the reason.
UNCHECKED_FIELDS = {
    "Utterance.clip": "given by the caller; a manifest record may not hold it",
    "TrainFile.stages": "the reader checks the list; its items are read one at a time as StageConfig",
}


def _read_config_classes() -> dict[str, type]:
    """Every class that src/slu passes to read_config, by name."""
    found = {}
    for info in pkgutil.iter_modules(slu.__path__):
        module = importlib.import_module(f"slu.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "read_config":
                cls = eval(ast.unparse(node.args[0]), vars(module))
                found[cls.__name__] = cls
    return found


def test_read_config_checks_the_type_of_every_field_it_reads():
    classes = _read_config_classes()
    assert {"Checkpoint", "_StoredParam", "_StoredVocab", "TrainFile", "StageConfig", "Utterance"} <= set(classes)
    unchecked = {
        f"{name}.{f.name}"
        for name, cls in classes.items()
        for f in dataclasses.fields(cls)
        if f.init and not set(f.type.split(" | ")) <= CHECKED_ANNOTATIONS
    }
    assert unchecked == set(UNCHECKED_FIELDS)


def _admits(annotation: str, value) -> bool:
    """Whether JSON ``value`` has a type of ``annotation``: an int is a float unless no float can
    hold it, and a bool is no number."""
    for part in annotation.split(" | "):
        outer, _, inner = part.partition("[")
        if outer == "list" and inner:
            ok = type(value) is list and all(_admits(inner[:-1], item) for item in value)
        elif part == "float" and type(value) is int:
            ok = abs(value) <= sys.float_info.max
        else:
            ok = type(value) in {"int": (int,), "float": (float,), "str": (str,), "dict": (dict,),
                                 "list": (list,), "None": (type(None),)}[part]
        if ok:
            return True
    return False


@pytest.mark.parametrize("annotation", sorted(CHECKED_ANNOTATIONS) + ["float | None", "list[str] | None"])
def test_read_config_admits_exactly_the_json_types_of_an_annotation(annotation):
    probe = dataclasses.make_dataclass("Probe", [("x", annotation)])
    for value in (0, 1.5, True, "s", None, {}, [], ["s"], [0], [1.5], [True], [None], ["s", 0], [[]],
                  10**400, -(10**400), [1.5, 10**400]):
        if _admits(annotation, value):
            assert read_config(probe, {"x": value}, "probe").x is value
        else:
            shown = "a JSON object" if annotation == "dict" else annotation
            with pytest.raises(ValidationError, match=re.escape(f"probe: x must be {shown}, got ")):
                read_config(probe, {"x": value}, "probe")

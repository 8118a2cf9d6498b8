"""Deterministic synthetic corpora for demos and end-to-end smoke tests.

Every lexicon word gets a fixed two-tone signature, so an utterance's audio
is the concatenation of word waveforms and the transcript is recoverable
from the spectrogram.  Templates cover three intents and four slot labels,
including one multi-word slot value to exercise I- tags.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioClip, write_wav
from .data import Manifest, Utterance, build_manifest, write_manifest
from .ioutil import atomic_write_text
from .subword import BPE, MARKERS, WORDPIECE, SubwordVocab, save_vocab

SAMPLE_RATE = 16000
WORD_SECONDS = 0.12

CITIES = ["boston", "austin", "denver", "new york"]
DAYS = ["monday", "tuesday"]
AIRLINES = ["delta", "united"]

# (intent, template) where UPPERCASE placeholders expand to slot values.
TEMPLATES = [
    ("find_flight", ["show", "flights", "to", "CITY"]),
    ("find_flight", ["list", "flights", "from", "CITY", "to", "CITY2"]),
    ("find_flight", ["show", "AIRLINE", "flights", "to", "CITY"]),
    ("airfare", ["fares", "to", "CITY", "on", "DAY"]),
    ("airfare", ["show", "fares", "from", "CITY"]),
    ("goodbye", ["thanks", "goodbye"]),
    ("goodbye", ["that", "is", "all", "thanks"]),
]

_SLOT_FOR = {"CITY": "toloc", "CITY2": "fromloc", "AIRLINE": "airline", "DAY": "day"}
# "from CITY to CITY2" wants fromloc on the first city; handled per template below.
_TEMPLATE_SLOTS = {
    1: {"CITY": "fromloc", "CITY2": "toloc"},
}


@functools.cache
def lexicon() -> tuple[str, ...]:
    words: list[str] = []
    for _, template in TEMPLATES:
        for item in template:
            if item.isupper():
                continue
            if item not in words:
                words.append(item)
    for value in CITIES + DAYS + AIRLINES:
        for w in value.split():
            if w not in words:
                words.append(w)
    return tuple(words)


@functools.cache
def word_waveform(word: str) -> np.ndarray:
    """Fixed two-tone signature; identical across runs and platforms.

    Tone pairs are laid out on a (low band, high band) grid so no two words
    share both spectral bands.  Cached per word (read-only): every utterance
    is built from the same few dozen lexicon words.
    """
    index = lexicon().index(word)
    f1 = 450.0 + 400.0 * (index % 9)
    f2 = 4450.0 + 400.0 * (index // 9)
    t = np.arange(int(SAMPLE_RATE * WORD_SECONDS)) / SAMPLE_RATE
    envelope = np.hanning(t.size) * 0.6 + 0.4
    wave = 0.22 * envelope * (np.sin(2 * np.pi * f1 * t) + 0.8 * np.sin(2 * np.pi * f2 * t))
    wave.flags.writeable = False
    return wave


def utterance_audio(words) -> AudioClip:
    return AudioClip(np.concatenate([word_waveform(w) for w in words]), SAMPLE_RATE)


def _fill(template_idx: int, rng: random.Random) -> tuple[list[str], list[str], str]:
    intent, template = TEMPLATES[template_idx]
    slot_map = _TEMPLATE_SLOTS.get(template_idx, {})
    words: list[str] = []
    slots: list[str] = []
    for item in template:
        if not item.isupper():
            words.append(item)
            slots.append("O")
            continue
        label = slot_map.get(item, _SLOT_FOR[item])
        if item.startswith("CITY"):
            value = rng.choice(CITIES)
        elif item == "DAY":
            value = rng.choice(DAYS)
        else:
            value = rng.choice(AIRLINES)
        parts = value.split()
        words.extend(parts)
        slots.extend([f"B-{label}"] + [f"I-{label}"] * (len(parts) - 1))
    return words, slots, intent


def build_corpus(num_utterances: int = 50, seed: int = 7, with_audio: bool = True) -> Manifest:
    """In-memory corpus; records carry their ``AudioClip`` instead of a file path."""
    rng = random.Random(seed)
    records = []
    for i in range(num_utterances):
        words, slots, intent = _fill(i % len(TEMPLATES), rng)
        clip = utterance_audio(words) if with_audio else None
        records.append(Utterance(f"synth{i:03d}", words, slots, intent, None, clip))
    return build_manifest(records)


def _vocab(kind: str, heads: dict[str, str]) -> SubwordVocab:
    """One piece per lexicon word, except that a word in ``heads`` splits into its head and the rest."""
    initial, cont = MARKERS[kind]
    pieces = {initial + heads.get(word, word) for word in lexicon()}
    pieces |= {cont + word[len(head):] for word, head in heads.items()}
    return SubwordVocab.create(kind, pieces)


def asr_vocab() -> SubwordVocab:
    """BPE pieces; two words split so that the two tokenizations' subword counts differ."""
    return _vocab(BPE, {"austin": "aus", "denver": "den"})


def nlu_vocab() -> SubwordVocab:
    """WordPiece pieces, split at two other words."""
    return _vocab(WORDPIECE, {"boston": "bos", "monday": "mon"})


@dataclass
class CorpusPaths:
    manifest: Path
    asr_vocab: Path
    nlu_vocab: Path
    wav_dir: Path


def write_corpus(out_dir: str | Path, num_utterances: int = 50, seed: int = 7) -> CorpusPaths:
    """Write manifest, WAVs, and both vocab files under out_dir."""
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_corpus(num_utterances, seed, with_audio=True)
    records = []
    for rec in manifest.records:
        rel = f"wavs/{rec.id}.wav"
        write_wav(rec.clip, out_dir / rel)
        records.append(Utterance(rec.id, rec.words, rec.slots, rec.intent, rel))
    on_disk = build_manifest(records, out_dir)
    paths = CorpusPaths(
        manifest=out_dir / "manifest.jsonl",
        asr_vocab=out_dir / "vocab_asr.txt",
        nlu_vocab=out_dir / "vocab_nlu.txt",
        wav_dir=wav_dir,
    )
    write_manifest(on_disk, paths.manifest)
    save_vocab(asr_vocab(), paths.asr_vocab)
    save_vocab(nlu_vocab(), paths.nlu_vocab)
    return paths


def write_noise_dir(out_dir: str | Path, count: int = 12, seed: int = 3) -> Path:
    """Small pool of synthetic environmental noises (band-limited random walks)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(count):
        steps = rng.normal(0.0, 0.02, size=SAMPLE_RATE)  # 1 s of drifting noise
        walk = np.cumsum(steps)
        walk -= walk.mean()
        peak = np.abs(walk).max()
        samples = 0.4 * walk / (peak if peak > 0 else 1.0)
        write_wav(AudioClip(samples, SAMPLE_RATE), out_dir / f"noise{i:02d}.wav")
    return out_dir


def default_train_config() -> dict:
    """Schedule used by the smoke pipeline; JSON-serializable."""
    return {
        "seed": 17,
        "beam_size": 5,
        "mode": "e2e",
        "model": {
            "asr_hidden": 16,
            "nlu_hidden": 16,
            "subsample_stride": 3,
            "slot_head": "linear",
            "max_positions": 64,
            "label_smoothing": 0.1,
        },
        "feature": {"frame_length": 256, "hop": 160, "num_bands": 20},
        "stages": [
            {"stage": "asr_pretrain", "epochs": 120, "lr": 0.08, "momentum": 0.9},
            {"stage": "asr_finetune", "epochs": 60, "lr": 0.05, "momentum": 0.9},
            {
                "stage": "joint_finetune",
                "epochs": 320,
                "lr": 0.01,
                "momentum": 0.9,
                "eval_every": 20,
                "target_slots_f1": 0.97,
                "target_intent_acc": 1.0,
            },
        ],
    }


def write_train_config(path: str | Path) -> None:
    atomic_write_text(path, json.dumps(default_train_config(), indent=2) + "\n")

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import finite_difference
from slu.autodiff import Tensor
from slu.data import Utterance, build_manifest
from slu.model import Example, JointModel, ModelConfig
from slu.subword import BPE, BPE_MARKER, WORDPIECE, WORDPIECE_MARKER, SubwordVocab
from slu.synth import asr_vocab, nlu_vocab

SLOT_LABELS = ["toloc", "fromloc", "airline", "day"]
WORD_POOL = ["show", "flights", "to", "from", "boston", "austin", "on", "monday", "list", "me"]


def random_words(rng: random.Random, max_len: int = 8) -> list[str]:
    return [rng.choice(WORD_POOL) for _ in range(rng.randint(1, max_len))]


def random_tagging(rng: random.Random, n: int, num_labels: int = 4) -> list[str]:
    labels = SLOT_LABELS[:num_labels]
    slots = []
    for _ in range(n):
        if rng.random() < 0.55:
            slots.append("O")
        else:
            prefix = "B-" if rng.random() < 0.7 else "I-"
            slots.append(prefix + rng.choice(labels))
    return slots


def random_pair_corpus(rng: random.Random, utterances: int, max_len: int = 8, num_labels: int = 4):
    """Parallel (ref, hyp) corpora whose hypotheses are corrupted references."""
    refs, hyps = [], []
    for _ in range(utterances):
        words = random_words(rng, max_len)
        slots = random_tagging(rng, len(words), num_labels)
        h_words, h_slots = [], []
        for w, s in zip(words, slots):
            roll = rng.random()
            if roll < 0.12:
                continue  # deletion
            if roll < 0.28:
                w = rng.choice(WORD_POOL)  # substitution
            h_slots.append(s if rng.random() < 0.7 else random_tagging(rng, 1, num_labels)[0])
            h_words.append(w)
            if rng.random() < 0.1:
                h_words.append(rng.choice(WORD_POOL))
                h_slots.append(random_tagging(rng, 1, num_labels)[0])
        refs.append((words, slots))
        hyps.append((h_words, h_slots))
    return refs, hyps


def random_subword_instance(rng: random.Random, kind: str):
    """A vocab covering a tiny alphabet plus random words over it."""
    alphabet = "abcd"
    if kind == BPE:
        initial, cont = lambda p: BPE_MARKER + p, lambda p: p
    else:
        initial, cont = lambda p: p, lambda p: WORDPIECE_MARKER + p
    pieces = set()
    for ch in alphabet:
        pieces.add(initial(ch))
        pieces.add(cont(ch))
    for _ in range(rng.randrange(10)):
        chunk = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 4)))
        pieces.add(initial(chunk) if rng.random() < 0.5 else cont(chunk))
    vocab = SubwordVocab.create(kind, pieces)
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        for _ in range(rng.randint(1, 8))
    ]
    return words, vocab


def tiny_model(seed: int = 0, slot_head: str = "linear") -> JointModel:
    config = ModelConfig(
        feature_dim=6,
        asr_hidden=5,
        nlu_hidden=4,
        subsample_stride=2,
        slot_head=slot_head,
        max_positions=32,
    )
    model = JointModel(
        config,
        asr_vocab(),
        nlu_vocab(),
        ["O", "B-toloc", "I-toloc", "B-day"],
        ["airfare", "find_flight", "goodbye"],
    )
    model.init_params(seed)
    return model


def tiny_features(seed: int = 0, frames: int = 12) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(frames, 6))


def tiny_example(model: JointModel, words, slots=None, intent=None, seed: int = 0) -> Example:
    return model.prepare(model.subsample(tiny_features(seed)), words, slots, intent)


def joint_loss(model: JointModel, example: Example, stop_asr_grad: bool = False):
    """(total, asr term, nlu term) of one joint-stage step, built as ``slu.train`` builds it."""
    out = model.forward(example, stop_asr_grad)
    asr = model.loss_asr(out.asr_logits, example.asr_targets)
    nlu = model.loss_nlu(out.slot_scores, out.intent_logits, example.tag_ids, example.intent_id)
    return asr + nlu, asr, nlu


def check_gradients(build, arrays, h=1e-5, tol=1e-6):
    """Compare analytic gradients of build(tensors).backward() to FD; returns the tensors.

    A gradient left as None counts as zeros here."""
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build(tensors)
    loss.backward()
    fd = finite_difference(lambda: build({k: Tensor(t.data) for k, t in tensors.items()}).item(), {k: t.data for k, t in tensors.items()}, h)
    for name, t in tensors.items():
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.allclose(got, fd[name], rtol=tol, atol=tol), name
    return tensors


def assert_fused_matches(fused, unfused, scale=0.0, tol=1e-12):
    """Within ``tol`` relative to the larger of the unfused array's largest entry and
    ``scale`` (the upstream gradient): a gradient that cancels to about zero, as
    with one class, has no relative precision of its own."""
    if unfused is None:
        assert fused is None
        return
    unfused = np.asarray(unfused)
    assert fused.shape == unfused.shape
    bound = tol * max(np.abs(unfused).max(), scale)
    assert np.abs(fused - unfused).max() <= bound


@pytest.fixture
def one_utterance_manifest():
    words = ["show", "flights", "to", "boston"]
    return build_manifest(
        [Utterance("u0", words, ["O", "O", "O", "B-toloc"], "find_flight")]
    )

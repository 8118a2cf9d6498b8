"""WAV I/O, SNR-controlled noise mixing, corpus augmentation, and features.

The augmentation protocol draws a fixed number of noise files per clean
utterance (without replacement, seeded per record id) and pairs noise k with
SNR level k, so a five-level spec yields a five-fold corpus.  Train and test
noise pools never share files.
"""

from __future__ import annotations

import functools
import io
import json
import logging
import math
import random
import wave
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

import numpy as np

from .data import Manifest, Utterance, build_manifest, write_manifest
from .errors import AudioFormatError, ValidationError
from .ioutil import atomic_write_bytes, staged_dir

log = logging.getLogger(__name__)

PCM_SCALE = 32768.0
DEFAULT_SNR_LEVELS = (0.0, 10.0, 20.0, 30.0, 40.0)
# The longest frame, in samples, that a feature config may ask for; its window is allocated whole.
MAX_FRAME_LENGTH = 2**16


@dataclass
class AudioClip:
    samples: np.ndarray  # float64 amplitudes in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise AudioFormatError("audio clip must be a non-empty mono sample vector")
        if self.sample_rate <= 0:
            raise AudioFormatError(f"bad sample rate {self.sample_rate}")


def read_wav(path: str | Path) -> AudioClip:
    """Read a 16-bit PCM mono WAV; amplitudes are scaled by 1/32768."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getcomptype() != "NONE":
                raise AudioFormatError(f"{path}: compressed WAV not supported")
            if fh.getnchannels() != 1:
                raise AudioFormatError(f"{path}: expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
            rate = fh.getframerate()
            if rate == 0:  # the fmt chunk stores it unsigned
                raise AudioFormatError(f"{path}: bad sample rate {rate}")
            frames = fh.getnframes()
            if frames == 0:
                raise AudioFormatError(f"{path}: empty data chunk")
            raw = fh.readframes(frames)
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: not a readable WAV file: {exc}") from exc
    except (EOFError, RuntimeError) as exc:  # wave's errors for chunks cut short or overrunning the file
        raise AudioFormatError(f"{path}: not a readable WAV file: truncated or inconsistent chunks") from exc
    if len(raw) != 2 * frames:
        raise AudioFormatError(f"{path}: data chunk truncated: {len(raw)} of {2 * frames} bytes")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= PCM_SCALE
    return AudioClip(samples, rate)


def wav_bytes(clip: AudioClip) -> bytes:
    scaled = clip.samples * PCM_SCALE
    np.rint(scaled, out=scaled)
    ints = np.clip(scaled, -32768, 32767, out=scaled).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(ints.tobytes())
    return buf.getvalue()


def write_wav(clip: AudioClip, path: str | Path) -> None:
    """Write 16-bit PCM mono; round trip error is at most 1/32768 per sample."""
    atomic_write_bytes(path, wav_bytes(clip))


def rms(samples: np.ndarray) -> float:
    if samples.size == 0:
        raise ValidationError("RMS of an empty signal is undefined")
    return float(np.sqrt(np.mean(samples**2)))


def fit_length(samples: np.ndarray, length: int) -> np.ndarray:
    """Loop (tile) or truncate a signal to an exact length; a truncation is a
    read-only view of ``samples``."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValidationError("cannot fit an empty signal")
    if samples.size < length:
        return np.tile(samples, math.ceil(length / samples.size))[:length]
    view = samples[:length]
    view.flags.writeable = False
    return view


@dataclass
class MixResult:
    audio: AudioClip
    gain: float
    clipped: int


def _mixer(clean: AudioClip):
    """Add noise to ``clean`` at an exact SNR, as a function of the noise and
    the SNR; the clip's RMS is taken once, here.

    The noise is looped or truncated to the clean clip's length first, and
    the gain is computed from the fitted segment, so re-measuring the SNR of
    (clean, scaled noise) returns the target exactly (pre-clipping).  Samples
    pushed outside [-1, 1] are hard-clipped and counted.
    """
    clean_rms = rms(clean.samples)

    def mix(noise: AudioClip, snr_db: float) -> MixResult:
        if clean.sample_rate != noise.sample_rate:
            raise ValidationError(
                f"sample rate mismatch: clean {clean.sample_rate} Hz vs noise {noise.sample_rate} Hz"
            )
        if clean_rms == 0.0:
            raise ValidationError("SNR is undefined for a silent clean signal")
        fitted = fit_length(noise.samples, clean.samples.size)
        noise_rms = rms(fitted)
        if noise_rms == 0.0:
            raise ValidationError("SNR is undefined for a silent noise signal")
        gain = clean_rms / (noise_rms * 10.0 ** (snr_db / 20.0))
        mixed = gain * fitted
        mixed += clean.samples
        clipped = 0
        if np.abs(mixed).max() > 1.0:  # the count's three temporaries only when a sample clips
            clipped = int(np.count_nonzero((mixed < -1.0) | (mixed > 1.0)))
            log.warning("mix at %.1f dB clipped %d samples", snr_db, clipped)
            mixed = np.clip(mixed, -1.0, 1.0)
        return MixResult(AudioClip(mixed, clean.sample_rate), gain, clipped)

    return mix


@dataclass
class NoisePool:
    train_noises: tuple[str, ...]
    test_noises: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.train_noises) & set(self.test_noises)
        if overlap:
            raise ValidationError(f"train/test noise files overlap: {sorted(overlap)[:3]}")

    def split(self, name: str) -> tuple[str, ...]:
        if name == "train":
            return self.train_noises
        if name == "test":
            return self.test_noises
        raise ValidationError(f"unknown split {name!r}, expected 'train' or 'test'")

    @classmethod
    def from_directory(cls, directory: str | Path) -> "NoisePool":
        """Build a pool from the sorted WAVs of one flat directory, split
        alternately, which keeps the two halves disjoint and deterministic."""
        files = [str(p) for p in sorted(Path(directory).glob("*.wav"))]
        return cls(tuple(files[0::2]), tuple(files[1::2]))


@dataclass
class AugmentSpec:
    snr_levels_db: tuple[float, ...] = DEFAULT_SNR_LEVELS
    noises_per_clip: int = len(DEFAULT_SNR_LEVELS)
    seed: int = 0

    def __post_init__(self):
        if self.noises_per_clip != len(self.snr_levels_db):
            raise ValidationError(
                "noises_per_clip must equal the number of SNR levels "
                f"({self.noises_per_clip} vs {len(self.snr_levels_db)})"
            )
        for i, level in enumerate(self.snr_levels_db):
            if level in self.snr_levels_db[:i]:  # by value: 0 and -0 are one level and one record id
                raise ValidationError(f"SNR level {level:g} dB is repeated in {list(self.snr_levels_db)}")


def record_clip(rec: Utterance, base_dir: Path | None) -> AudioClip:
    """The record's in-memory clip, else its WAV file, relative to base_dir."""
    if rec.clip is not None:
        return rec.clip
    if rec.audio is None:
        raise ValidationError(f"record {rec.id!r} has no audio")
    path = Path(rec.audio)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    return read_wav(path)


def augment_corpus(
    manifest: Manifest,
    pool: NoisePool,
    spec: AugmentSpec,
    split: str,
    out_dir: str | Path,
) -> tuple[Manifest, list[dict]]:
    """Mix every record with sampled noises at the requested SNR ladder.

    Emits ``noises_per_clip`` records per input record with ids and WAVs
    ``{id}#snr{level}`` under out_dir (an absolute id, one with a ``..``
    part, one holding a NUL character, or one that is not its own normal
    path, such as ``a/./b`` or ``a//b``, is refused), and returns the
    augmented manifest (its ``base_dir`` is out_dir) plus a provenance entry
    per output record.  The noise draw is seeded per (seed, record id), so
    results do not depend on order.

    The mixed WAVs, ``manifest.jsonl`` and ``provenance.json`` are written
    into a stage beside out_dir and moved in only when every record has been
    mixed, so a call that raises leaves out_dir as it was.
    """
    noise_files = pool.split(split)
    if len(noise_files) < spec.noises_per_clip:
        raise ValidationError(
            f"{split} noise pool has {len(noise_files)} files, need {spec.noises_per_clip}"
        )
    noise_cache: dict[str, AudioClip] = {}
    records: list[Utterance] = []
    provenance: list[dict] = []
    with staged_dir(out_dir) as stage:
        for rec in manifest.records:
            if Path(rec.id).is_absolute() or ".." in Path(rec.id).parts:  # its WAVs would land outside the stage
                raise ValidationError(f"record {rec.id!r}: an id may not be an absolute path or hold a '..' part")
            if "\0" in rec.id:  # no file name may hold one
                raise ValidationError(f"record {rec.id!r}: an id may not hold a NUL character")
            if (normal := PurePosixPath(rec.id).as_posix()) != rec.id:  # else 'a/./b' and 'a/b' share WAVs
                raise ValidationError(f"record {rec.id!r}: an id must be written as its normal path {normal!r}")
            if "/" in rec.id:  # the id names a subdirectory, which holds all of the record's WAVs
                (stage / rec.id).parent.mkdir(parents=True, exist_ok=True)
            mix = _mixer(record_clip(rec, manifest.base_dir))  # the clean clip's RMS is taken once
            rng = random.Random(f"{spec.seed}:{rec.id}")
            chosen = rng.sample(list(noise_files), spec.noises_per_clip)
            for noise_file, level in zip(chosen, spec.snr_levels_db):
                if noise_file not in noise_cache:
                    noise_cache[noise_file] = read_wav(noise_file)
                noise = noise_cache[noise_file]
                try:
                    mixed = mix(noise, level)
                except ValidationError as exc:
                    raise ValidationError(f"record {rec.id!r}, noise {noise_file}: {exc}") from exc
                new_id = f"{rec.id}#snr{level:g}"
                wav_name = f"{new_id}.wav"
                (stage / wav_name).write_bytes(wav_bytes(mixed.audio))
                records.append(Utterance(new_id, list(rec.words), list(rec.slots), rec.intent, wav_name))
                provenance.append(
                    {
                        "id": new_id,
                        "source_id": rec.id,
                        "noise": noise_file,
                        "snr_db": level,
                        "gain": mixed.gain,
                        "clipped": mixed.clipped,
                    }
                )
        augmented = build_manifest(records, Path(out_dir))
        write_manifest(augmented, stage / "manifest.jsonl")
        (stage / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n", encoding="utf-8")
    return augmented, provenance


@dataclass
class FeatureConfig:
    frame_length: int = 256
    hop: int = 160
    num_bands: int = 20

    def __post_init__(self):
        if self.frame_length > MAX_FRAME_LENGTH:
            raise ValidationError(f"frame_length must be <= {MAX_FRAME_LENGTH}, got {self.frame_length}")
        if min(self.frame_length, self.hop) < 1 or not 1 <= self.num_bands <= self.frame_length // 2 + 1:
            raise ValidationError(
                "feature config needs frame_length, hop >= 1 and "
                f"1 <= num_bands <= frame_length // 2 + 1, got {self}"
            )


@functools.cache
def _hann(frame_length: int) -> np.ndarray:
    window = np.hanning(frame_length)
    window.flags.writeable = False
    return window


def log_power_features(clip: AudioClip, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Banded log-power spectrogram, standardized per utterance (time x bands).

    Frames are Hann-windowed, ``1 + (n - frame_length) // hop`` of them (a clip
    shorter than one frame is zero-padded to one); bands split the FFT bins as
    ``np.array_split`` does, so the first ``bins % num_bands`` are one bin wider.
    A band's mean is its bins' sum divided by its width, and the standardization
    takes the floats of ``(f - f.mean()) / (f.std() + 1e-8)`` from one centred array.
    """
    x = clip.samples
    length, num_bands = config.frame_length, config.num_bands
    if x.size < length:
        x = np.pad(x, (0, length - x.size))
    count = 1 + (x.size - length) // config.hop
    step = x.strides[0]
    frames = np.lib.stride_tricks.as_strided(x, (count, length), (config.hop * step, step), writeable=False)
    power = np.abs(np.fft.rfft(frames * _hann(length), axis=1))
    power *= power
    bins = power.shape[1]
    width, wide = divmod(bins, num_bands)
    cut = wide * (width + 1)  # one sum per band, each over its own bins in order
    feats = np.empty((count, num_bands))
    power[:, :cut].reshape(count, wide, width + 1).sum(axis=2, out=feats[:, :wide])
    power[:, cut:].reshape(count, num_bands - wide, width).sum(axis=2, out=feats[:, wide:])
    feats[:, :wide] /= width + 1
    feats[:, wide:] /= width
    feats += 1e-10
    np.log(feats, out=feats)
    feats -= feats.sum() / feats.size
    feats /= np.sqrt((feats * feats).sum() / feats.size) + 1e-8
    return feats

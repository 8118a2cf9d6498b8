import itertools
import math
import wave

import numpy as np
import pytest

from model_oracles import log_power_features_reference, measured_snr_db, mix_at_snr, mix_at_snr_report
from slu.audio import (
    AudioClip,
    AugmentSpec,
    FeatureConfig,
    NoisePool,
    augment_corpus,
    fit_length,
    log_power_features,
    read_wav,
    rms,
    wav_bytes,
    write_wav,
    _hann,
)
from slu.data import Utterance, build_manifest
import slu.audio
from slu.errors import AudioFormatError, ValidationError
from slu.synth import utterance_audio


def tone(freq=440.0, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(rate * seconds)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def test_wav_round_trip(tmp_path):
    clip = tone()
    path = tmp_path / "t.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert back.samples.size == clip.samples.size
    assert np.abs(back.samples - clip.samples).max() <= 1 / 32768


def test_wav_round_trip_at_full_scale(tmp_path):
    clip = AudioClip(np.array([1.0, -1.0, 0.0, 0.99997]), 16000)
    path = tmp_path / "t.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert np.abs(back.samples - clip.samples).max() <= 1 / 32768


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(b"\x00\x00\x00\x00" * 10)
    with pytest.raises(AudioFormatError, match="mono"):
        read_wav(path)


def test_wrong_bit_depth_rejected(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(16000)
        fh.writeframes(b"\x00" * 10)
    with pytest.raises(AudioFormatError, match="16-bit"):
        read_wav(path)


def test_empty_data_chunk_rejected(tmp_path):
    path = tmp_path / "empty.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
    with pytest.raises(AudioFormatError, match="empty"):
        read_wav(path)


def test_zero_sample_rate_names_the_file(tmp_path):
    path = tmp_path / "rate0.wav"
    write_wav(tone(seconds=0.01), path)
    blob = bytearray(path.read_bytes())
    blob[24:28] = bytes(4)  # the fmt chunk's sample rate
    path.write_bytes(bytes(blob))
    with pytest.raises(AudioFormatError) as info:
        read_wav(path)
    assert str(info.value) == f"{path}: bad sample rate 0"


def test_not_a_wav_rejected(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"definitely not RIFF")
    with pytest.raises(AudioFormatError):
        read_wav(path)


def test_rms_values():
    assert rms(np.full(100, 0.5)) == pytest.approx(0.5)
    assert rms(np.zeros(10)) == 0.0
    sine = tone(freq=100.0, seconds=1.0, amp=1.0)  # 100 periods
    assert rms(sine.samples) == pytest.approx(1 / math.sqrt(2), abs=1e-3)
    with pytest.raises(ValidationError):
        rms(np.array([]))


def test_fit_length_loops_and_truncates():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(fit_length(x, 7), [1, 2, 3, 1, 2, 3, 1])
    assert np.array_equal(fit_length(x, 2), [1, 2])


@pytest.mark.parametrize("size", [1, 3, 7, 160])
def test_fit_length_equals_the_tiled_signal_bit_for_bit(size):
    samples = np.random.default_rng(size).standard_normal(size)
    for length in sorted({1, max(size - 1, 1), size, size + 1, 3 * size + 2}):
        want = np.tile(samples, math.ceil(length / size))[:length]
        got = fit_length(samples, length)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), length


def test_fit_length_truncation_is_a_read_only_view():
    samples = np.arange(10.0)
    view = fit_length(samples, 4)
    assert np.shares_memory(view, samples)
    with pytest.raises(ValueError):
        view[0] = -1.0
    assert samples.flags.writeable and samples[0] == 0.0


def test_mix_gain_examples():
    clean = tone(freq=300, amp=0.3)
    noise = AudioClip(np.resize([0.3, -0.3], clean.samples.size), 16000)
    # equal RMS at 0 dB -> unit gain
    r0 = mix_at_snr_report(clean, AudioClip(noise.samples * rms(clean.samples) / rms(noise.samples), 16000), 0.0)
    assert r0.gain == pytest.approx(1.0)
    # equal RMS at 20 dB -> gain 0.1
    r20 = mix_at_snr_report(clean, AudioClip(noise.samples * rms(clean.samples) / rms(noise.samples), 16000), 20.0)
    assert r20.gain == pytest.approx(0.1)


def test_mix_measured_snr_and_linearity():
    rng = np.random.default_rng(0)
    clean = AudioClip(0.25 * np.sin(np.linspace(0, 200, 4000)), 16000)
    noise = AudioClip(0.2 * rng.standard_normal(1500), 16000)
    for target in (0.0, 10.0, 20.0, 30.0, 40.0):
        result = mix_at_snr_report(clean, noise, target)
        assert result.clipped == 0
        scaled = result.audio.samples - clean.samples  # linearity: mix - clean == g * noise
        assert measured_snr_db(clean.samples, scaled) == pytest.approx(target, abs=1e-6)
    low = mix_at_snr_report(clean, noise, 0.0)
    high = mix_at_snr_report(clean, noise, 40.0)
    assert rms(high.audio.samples - clean.samples) < rms(low.audio.samples - clean.samples)


def test_mix_errors():
    clean = tone()
    silent = AudioClip(np.zeros(100), 16000)
    with pytest.raises(ValidationError):
        mix_at_snr(clean, silent, 10.0)
    with pytest.raises(ValidationError):
        mix_at_snr(silent, clean, 10.0)
    with pytest.raises(ValidationError):
        mix_at_snr(clean, AudioClip(np.ones(10) * 0.1, 8000), 10.0)


def test_mix_counts_clipping():
    clean = AudioClip(np.full(100, 0.9), 16000)
    noise = AudioClip(np.full(100, 0.9), 16000)
    result = mix_at_snr_report(clean, noise, 0.0)
    assert result.clipped == 100
    assert result.audio.samples.max() <= 1.0


def test_noise_pool_disjointness():
    with pytest.raises(ValidationError):
        NoisePool(("a.wav",), ("a.wav", "b.wav"))
    pool = NoisePool(("a.wav",), ("b.wav",))
    assert pool.split("train") == ("a.wav",)
    with pytest.raises(ValidationError):
        pool.split("dev")


def test_noise_pool_from_flat_directory(tmp_path):
    for i in range(6):
        write_wav(tone(freq=200 + 50 * i, seconds=0.05), tmp_path / f"n{i}.wav")
    pool = NoisePool.from_directory(tmp_path)
    assert len(pool.train_noises) == 3 and len(pool.test_noises) == 3
    assert not set(pool.train_noises) & set(pool.test_noises)


def test_augment_spec_requires_matched_lengths():
    with pytest.raises(ValidationError):
        AugmentSpec(snr_levels_db=(0.0, 10.0), noises_per_clip=5)


@pytest.mark.parametrize(
    "levels, repeated",
    [((10.0, 10.0), "10"), ((0.0, -0.0), "-0"), ((0.0, 10.0, 20.0, 10), "10")],
    ids=["same", "signed-zero", "int-and-float"],
)
def test_augment_spec_rejects_a_repeated_snr_level(levels, repeated):
    with pytest.raises(ValidationError, match=rf"SNR level {repeated} dB is repeated"):
        AugmentSpec(snr_levels_db=levels, noises_per_clip=len(levels))


def _noise_dir(tmp_path, count=12):
    rng = np.random.default_rng(5)
    d = tmp_path / "noise"
    d.mkdir(parents=True)
    for i in range(count):
        write_wav(AudioClip(0.3 * rng.standard_normal(2000), 16000), d / f"n{i}.wav")
    return d


def _clean_manifest(tmp_path, n=10):
    wavs = tmp_path / "clean"
    wavs.mkdir()
    records = []
    for i in range(n):
        write_wav(tone(freq=250 + 30 * i, seconds=0.2, amp=0.3), wavs / f"u{i}.wav")
        records.append(Utterance(f"u{i}", ["hello"], ["O"], "greet", f"u{i}.wav"))
    return build_manifest(records, wavs)


def test_augment_five_fold(tmp_path):
    manifest = _clean_manifest(tmp_path, 10)
    pool = NoisePool.from_directory(_noise_dir(tmp_path))
    spec = AugmentSpec(seed=17)
    out, provenance = augment_corpus(manifest, pool, spec, "train", tmp_path / "aug")
    assert len(out.records) == 50
    assert len(provenance) == 50
    ids = [r.id for r in out.records]
    assert len(set(ids)) == 50
    assert all("#snr" in i for i in ids)
    # source ids recoverable by prefix; SNR ladder attached per source
    for i in range(10):
        mine = [p for p in provenance if p["source_id"] == f"u{i}"]
        assert sorted(p["snr_db"] for p in mine) == [0.0, 10.0, 20.0, 30.0, 40.0]
    # train noises only
    used = {p["noise"] for p in provenance}
    assert used <= set(pool.train_noises)
    assert not used & set(pool.test_noises)


def test_augment_deterministic_and_job_independent(tmp_path):
    manifest = _clean_manifest(tmp_path, 4)
    pool = NoisePool.from_directory(_noise_dir(tmp_path))
    spec = AugmentSpec(seed=3)
    out1, prov1 = augment_corpus(manifest, pool, spec, "test", tmp_path / "a1")
    out2, prov2 = augment_corpus(manifest, pool, spec, "test", tmp_path / "a2")
    assert [r.id for r in out1.records] == [r.id for r in out2.records]
    assert prov1 == prov2
    for rec in out1.records:
        b1 = (tmp_path / "a1" / rec.audio).read_bytes()
        b2 = (tmp_path / "a2" / rec.audio).read_bytes()
        assert b1 == b2


def test_an_in_memory_record_keeps_its_own_rate(tmp_path):
    manifest = build_manifest([Utterance("slow", ["hello"], ["O"], "greet", clip=tone(seconds=0.2, rate=8000))])
    pool = NoisePool.from_directory(_noise_dir(tmp_path))  # 16 kHz noises
    with pytest.raises(ValidationError) as err:
        augment_corpus(manifest, pool, AugmentSpec(seed=1), "test", tmp_path / "aug")
    assert "record 'slow'" in str(err.value) and "clean 8000 Hz vs noise 16000 Hz" in str(err.value)
    assert not (tmp_path / "aug").exists()


def test_augment_takes_each_clean_rms_once_and_mixes_as_mix_at_snr_report(tmp_path, monkeypatch):
    manifest = _clean_manifest(tmp_path, 4)
    pool = NoisePool.from_directory(_noise_dir(tmp_path))
    spec = AugmentSpec(seed=3)
    measured = []

    def counting_rms(samples):
        measured.append(samples)
        return rms(samples)

    monkeypatch.setattr(slu.audio, "rms", counting_rms)
    out, provenance = augment_corpus(manifest, pool, spec, "test", tmp_path / "aug")
    monkeypatch.undo()
    assert len(measured) == 4 + 4 * spec.noises_per_clip  # one per clean clip, one per fitted noise
    for rec, entry in zip(out.records, provenance, strict=True):
        clean = read_wav(manifest.base_dir / f"{entry['source_id']}.wav")
        mixed = mix_at_snr_report(clean, read_wav(entry["noise"]), entry["snr_db"])
        assert (tmp_path / "aug" / rec.audio).read_bytes() == wav_bytes(mixed.audio)
        assert (entry["gain"], entry["clipped"]) == (mixed.gain, mixed.clipped)


def test_augment_leaves_its_cached_noises_unchanged(tmp_path, monkeypatch):
    wavs = tmp_path / "clean"
    wavs.mkdir()
    records = []
    for i, size in enumerate((1000, 2000, 3000)):  # shorter than, as long as and longer than each noise
        write_wav(AudioClip(0.3 * np.sin(np.linspace(0, 40 + i, size)), 16000), wavs / f"u{i}.wav")
        records.append(Utterance(f"u{i}", ["hello"], ["O"], "greet", f"u{i}.wav"))
    manifest = build_manifest(records, wavs)
    pool = NoisePool.from_directory(_noise_dir(tmp_path))
    read = []

    def recording_read_wav(path):
        clip = read_wav(path)
        read.append((str(path), clip, clip.samples.copy()))
        return clip

    monkeypatch.setattr(slu.audio, "read_wav", recording_read_wav)
    _, provenance = augment_corpus(manifest, pool, AugmentSpec(seed=3), "test", tmp_path / "aug")
    noises = [path for path, _, _ in read if path in pool.test_noises]
    assert sorted(noises) == sorted({entry["noise"] for entry in provenance})  # each read once, then cached
    for _, clip, before in read:
        assert clip.samples.tobytes() == before.tobytes()


def test_augment_names_the_record_of_a_silent_clean_clip(tmp_path):
    wavs = tmp_path / "clean"
    wavs.mkdir()
    write_wav(tone(seconds=0.05), wavs / "loud.wav")
    write_wav(AudioClip(np.zeros(400), 16000), wavs / "quiet.wav")
    manifest = build_manifest(
        [Utterance("loud", ["a"], ["O"], "x", "loud.wav"), Utterance("quiet", ["a"], ["O"], "x", "quiet.wav")], wavs
    )
    pool = NoisePool.from_directory(_noise_dir(tmp_path))
    with pytest.raises(ValidationError, match=r"record 'quiet', noise .*silent clean signal"):
        augment_corpus(manifest, pool, AugmentSpec(seed=0), "train", tmp_path / "o")
    # the loud record's five WAVs were mixed first, and went with the stage
    assert not (tmp_path / "o").exists()
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
    with pytest.raises(ValidationError, match="sample rate"):  # checked before the clean clip's RMS
        mix_at_snr_report(AudioClip(np.zeros(400), 8000), tone(), 10.0)


def test_augment_writes_an_id_holding_a_slash_into_a_subdirectory(tmp_path):
    wavs = tmp_path / "clean"
    wavs.mkdir()
    write_wav(tone(seconds=0.05), wavs / "u0.wav")
    manifest = build_manifest([Utterance("spk/u0", ["a"], ["O"], "x", "u0.wav")], wavs)
    pool = NoisePool.from_directory(_noise_dir(tmp_path))
    out, _ = augment_corpus(manifest, pool, AugmentSpec(seed=0), "train", tmp_path / "o")
    assert [rec.audio for rec in out.records] == [f"spk/u0#snr{level}.wav" for level in (0, 10, 20, 30, 40)]
    assert sorted(p.name for p in (tmp_path / "o" / "spk").iterdir()) == sorted(
        rec.audio.removeprefix("spk/") for rec in out.records
    )


def test_augment_requires_audio_and_enough_noises(tmp_path):
    pool = NoisePool.from_directory(_noise_dir(tmp_path, count=6))
    manifest = build_manifest([Utterance("nosound", ["a"], ["O"], "x")])
    with pytest.raises(ValidationError, match="pool"):
        augment_corpus(manifest, pool, AugmentSpec(seed=0), "train", tmp_path / "o")
    big_pool = NoisePool.from_directory(_noise_dir(tmp_path / "more", count=12))
    with pytest.raises(ValidationError, match="nosound"):
        augment_corpus(manifest, big_pool, AugmentSpec(seed=0), "train", tmp_path / "o")


def test_log_power_features_shape_and_determinism():
    clip = tone(seconds=0.3)
    config = FeatureConfig(frame_length=256, hop=160, num_bands=20)
    feats = log_power_features(clip, config)
    expected_frames = 1 + (clip.samples.size - 256) // 160
    assert feats.shape == (expected_frames, 20)
    assert np.array_equal(feats, log_power_features(clip, config))
    assert np.isfinite(feats).all()


def test_log_power_features_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    corpus_clip = utterance_audio(["show", "flights", "to", "boston"])
    for frame_length in (64, 256, 401):
        for num_bands, hop, size in itertools.product(
            (1, 7, 20, frame_length // 2 + 1),
            (frame_length // 3, frame_length, frame_length + 7),
            (1, frame_length - 1, frame_length, frame_length + 1, None),
        ):
            config = FeatureConfig(frame_length, hop, num_bands)
            clip = corpus_clip if size is None else AudioClip(0.3 * rng.standard_normal(size), 16000)
            got = log_power_features(clip, config)
            want = log_power_features_reference(clip, config)
            assert got.shape == want.shape, (config, size)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (config, size)


def test_log_power_features_window_is_shared_and_read_only():
    window = _hann(256)
    assert _hann(256) is window and np.array_equal(window, np.hanning(256))
    with pytest.raises(ValueError):
        window[0] = 1.0

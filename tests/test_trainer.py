"""Voicing, noise mixing, manifest and the training loop."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from lvrc import trainer
from lvrc.audio import AudioBuffer, save_wav
from lvrc.config import paper_config, toy_config
from lvrc.errors import ConfigError
from lvrc.features import frame_signal
from lvrc.model import CodecModel
from lvrc.trainer import (
    LR_DECAY_STEPS,
    ClipDataset,
    learning_rate,
    mix_noise,
    noise_burst,
    parse_manifest,
    synthetic_clip,
    train,
    voicing_per_frame,
    voicing_score,
)


class TestVoicing:
    def test_pure_sine_scores_high(self):
        sr = 16000
        t = np.arange(int(0.08 * sr)) / sr
        assert voicing_score(0.5 * np.sin(2 * np.pi * 200.0 * t), sr) >= 0.95

    def test_white_noise_scores_low(self):
        sr = 16000
        low = 0
        for seed in range(100):
            x = np.random.default_rng(seed).normal(0, 0.3, int(0.08 * sr))
            low += voicing_score(x, sr) <= 0.4
        assert low >= 97

    def test_silence_scores_zero(self):
        assert voicing_score(np.zeros(1280), 16000) == 0.0

    def test_clamped_to_unit_interval(self):
        sr = 8000
        rng = np.random.default_rng(3)
        for _ in range(20):
            frame = rng.normal(0, 0.2, 640) + 0.3 * np.sin(
                2 * np.pi * rng.uniform(60, 380) * np.arange(640) / sr
            )
            assert 0.0 <= voicing_score(frame, sr) <= 1.0


def reference_voicing_score(frame, sample_rate):
    """One frame, one lag at a time: the loop the batched voicing_score must match bit for bit."""
    frame = np.asarray(frame, dtype=np.float64)
    if np.sqrt(np.mean(frame**2)) < 1e-4:
        return 0.0
    lag_min = max(2, sample_rate // 400)
    lag_max = min(sample_rate // 50, len(frame) - 1)
    if lag_max <= lag_min:
        return 0.0
    frame = frame - frame.mean()
    best = 0.0
    for lag in range(lag_min, lag_max + 1):
        a, b = frame[lag:], frame[:-lag]
        denom = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
        if denom <= 0:
            continue
        best = max(best, float(np.dot(a, b)) / denom)
    return float(np.clip(best, 0.0, 1.0))


class TestVoicingMatchesPerFrameLoop:
    @pytest.mark.parametrize("preset", [toy_config, paper_config], ids=["toy", "paper"])
    def test_clips_alone_and_batched(self, preset):
        feat = preset().model
        sr, n = feat.sample_rate, feat.sample_rate // 2
        rng = np.random.default_rng(5)
        clips = np.stack([synthetic_clip(rng, sr, n) for _ in range(3)]
                         + [np.zeros(n), rng.normal(0.0, 3e-5, n)])  # silent, near-silent
        batched = voicing_per_frame(clips, feat)
        assert batched.max() > 0.8 and np.all(batched[3:] == 0.0)
        for clip, scores in zip(clips, batched):
            frames = frame_signal(clip, feat.window_length, feat.hop_length)
            want = np.array([reference_voicing_score(f, sr) for f in frames])
            assert np.array_equal(scores, want)
            assert np.array_equal(voicing_per_frame(clip, feat), want)

    @pytest.mark.parametrize("frames_per_call", [1, 7, 64])
    def test_frame_blocks_keep_every_score(self, monkeypatch, frames_per_call):
        # a row longer than a call is voiced in blocks of its frames; the
        # reflect-padded edge frames and the frames at block boundaries
        # keep their bits, for one row and for a stack of clips
        feat = toy_config().model
        sr, window, hop = feat.sample_rate, feat.window_length, feat.hop_length
        rng = np.random.default_rng(6)
        clip = synthetic_clip(rng, sr, 2 * sr + 37)
        want = voicing_score(frame_signal(clip, window, hop), sr)
        monkeypatch.setattr(trainer, "VOICING_CHUNK_SAMPLES", frames_per_call * hop)
        assert np.array_equal(voicing_per_frame(clip, feat), want)
        pair = [want, voicing_score(frame_signal(clip[::-1], window, hop), sr)]
        assert np.array_equal(voicing_per_frame(np.stack([clip, clip[::-1]]), feat), pair)

    def test_voicing_memory_does_not_grow_with_the_file(self, monkeypatch):
        feat = toy_config().model
        sr = feat.sample_rate
        monkeypatch.setattr(trainer, "VOICING_CHUNK_SAMPLES", sr)
        clip = np.random.default_rng(7).normal(0.0, 0.1, 20 * sr)
        tracemalloc.start()
        try:
            voicing_per_frame(clip, feat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one-second blocks peak near 1.5x the file (the padded copy beside
        # one block); the whole file framed at once peaks near 8x
        assert peak < 3 * clip.nbytes

    # widths with no lag (W - 1 < lag_min), exactly one (W - 1 == lag_min), two, many
    @pytest.mark.parametrize("sr,width", [(8000, 20), (8000, 21), (8000, 22), (8000, 161),
                                          (16000, 40), (16000, 41), (16000, 42), (16000, 639)])
    def test_frame_widths(self, sr, width):
        rng = np.random.default_rng(width)
        t = np.arange(width) / sr
        frames = rng.normal(0.0, 0.1, (2, 3, width)) + np.sin(2 * np.pi * 300.0 * t)
        frames[0, 1] = 0.0
        got = voicing_score(frames, sr)
        assert got.shape == (2, 3)
        assert np.array_equal(got, [[reference_voicing_score(f, sr) for f in row]
                                    for row in frames])
        assert voicing_score(frames[1, 2], sr) == got[1, 2]


def measured_snr_db(mixed, clean):
    noise = mixed - clean
    return 10.0 * np.log10(np.sum(clean**2) / np.sum(noise**2))


class TestMixNoise:
    def test_zero_db_equal_powers(self):
        rng = np.random.default_rng(0)
        clean = 0.1 * np.sin(2 * np.pi * 100 * np.arange(8000) / 8000)
        noise = rng.normal(0, 0.05, 8000)
        mixed = mix_noise(clean, noise, 0.0, rng)
        assert measured_snr_db(mixed, clean) == pytest.approx(0.0, abs=0.01)

    def test_silent_clean_unchanged(self):
        rng = np.random.default_rng(2)
        clean = np.zeros(500)
        assert mix_noise(clean, rng.normal(0, 1, 500), 10.0, rng) is clean

    def test_requested_snr_achieved_over_draws(self):
        # amplitudes kept small so the mix never clips (no renormalization)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            clean = 0.1 * rng.standard_normal(4000)
            noise = 0.5 * rng.standard_normal(6000)
            target = float(rng.uniform(0.0, 40.0))
            mixed = mix_noise(clean, noise, target, rng)
            assert np.max(np.abs(mixed)) <= 1.0
            worst = max(worst, abs(measured_snr_db(mixed, clean) - target))
        assert worst <= 0.01

    def test_clipping_mix_renormalized_to_peak(self):
        rng = np.random.default_rng(5)
        clean = 0.9 * np.sin(2 * np.pi * 150 * np.arange(4000) / 8000)
        noise = 0.9 * rng.standard_normal(4000)
        mixed = mix_noise(clean, noise, 0.0, rng)
        assert np.max(np.abs(mixed)) == pytest.approx(1.0, abs=1e-12)


class TestManifest:
    def test_parse_and_split_guard(self, tmp_path):
        wav = tmp_path / "a.wav"
        save_wav(wav, AudioBuffer(np.zeros(100), 8000))
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{wav}\t-\ttrain\n{wav}\t\tdev\n")
        with pytest.raises(ConfigError):
            parse_manifest(manifest)

    def test_parse_entries(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("# comment\nclean.wav\tnoise.wav\ttrain\nother.wav\t-\tdev\n")
        entries = parse_manifest(manifest)
        assert len(entries) == 2
        assert entries[0].noise_path == "noise.wav"
        assert entries[1].noise_path is None

    def test_bad_split_rejected(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.wav\t-\ttest\n")
        with pytest.raises(ConfigError):
            parse_manifest(manifest)


def short_cfg(**overrides):
    cfg = toy_config()
    cfg.train.steps = 120
    cfg.train.lr = 2e-3
    cfg.train.batch_size = 8
    cfg.train.checkpoint_interval = 60
    for key, value in overrides.items():
        setattr(cfg.train, key, value)
    cfg.validate()
    return cfg


class TestTrainingLoop:
    def test_smoke_nll_decreases(self, tmp_path):
        cfg = short_cfg(nu=0.0)
        dataset = ClipDataset.synthetic(cfg, n_clips=16)
        result = train(cfg, tmp_path / "run", dataset=dataset)
        assert not result.halted
        nll = [m["nll"] for m in result.metrics]
        assert np.mean(nll[-3:]) < np.mean(nll[:3])

    def test_metrics_csv_schema(self, tmp_path):
        cfg = short_cfg(steps=20, checkpoint_interval=20)
        dataset = ClipDataset.synthetic(cfg, n_clips=8)
        result = train(cfg, tmp_path / "run", dataset=dataset)
        header = open(result.metrics_path).readline().strip()
        assert header == "step,nll,jvar,sigma_mean,sparsity,grad_norm,skipped"
        assert len(result.metrics) == 20
        assert all(m["grad_norm"] > 0.0 and m["skipped"] == 0 for m in result.metrics)

    def test_metrics_count_each_steps_skipped_updates(self, tmp_path, monkeypatch):
        """A non-finite gradient at step 2 shows as that step's NaN grad_norm
        and one skipped update; the other steps read 0."""
        forward = CodecModel.teacher_forced
        calls = []

        def poisoned(self, *args, **kwargs):
            res = forward(self, *args, **kwargs)
            calls.append(1)
            if len(calls) == 2:
                self.out_b.grad[0] = np.nan
            return res

        monkeypatch.setattr(CodecModel, "teacher_forced", poisoned)
        cfg = short_cfg(steps=3, checkpoint_interval=3)
        result = train(cfg, tmp_path / "run", dataset=ClipDataset.synthetic(cfg, n_clips=4))
        assert [m["skipped"] for m in result.metrics] == [0, 1, 0]
        assert [np.isnan(m["grad_norm"]) for m in result.metrics] == [False, True, False]

    def test_resume_into_another_metrics_layout_rejected(self, tmp_path):
        """A metrics.csv whose header is not METRICS_HEADER stops a resume in
        its directory with a FormatError; the run's files keep their bytes."""
        from lvrc.errors import FormatError

        cfg = short_cfg(steps=2, checkpoint_interval=2)
        dataset = ClipDataset.synthetic(cfg, n_clips=4)
        result = train(cfg, tmp_path / "run", dataset=dataset)
        metrics = tmp_path / "run" / "metrics.csv"
        old = "".join(",".join(line.split(",")[:5]) + "\r\n"
                      for line in metrics.read_text().splitlines())
        metrics.write_text(old)
        before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
        cfg.train.steps = 4
        with pytest.raises(FormatError, match="header 'step,nll,jvar,sigma_mean,sparsity'"):
            train(cfg, tmp_path / "run", dataset=dataset, resume_from=result.checkpoint_path)
        assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before

    def test_reproducible_and_resumable(self, tmp_path):
        cfg_a = short_cfg(steps=30, checkpoint_interval=15)
        dataset = ClipDataset.synthetic(cfg_a, n_clips=8)

        full = train(cfg_a, tmp_path / "full", dataset=dataset)
        rerun = train(cfg_a, tmp_path / "rerun", dataset=dataset)
        assert [m["nll"] for m in full.metrics] == [m["nll"] for m in rerun.metrics]

        cfg_b = short_cfg(steps=15, checkpoint_interval=15)
        half = train(cfg_b, tmp_path / "half", dataset=dataset)
        cfg_c = short_cfg(steps=30, checkpoint_interval=15)
        resumed = train(cfg_c, tmp_path / "resumed", dataset=dataset,
                        resume_from=half.checkpoint_path)
        # the step right after the checkpoint reproduces the full run bit-exactly
        full_by_step = {m["step"]: m["nll"] for m in full.metrics}
        for m in resumed.metrics:
            assert m["nll"] == full_by_step[m["step"]]

        # a resume in the same directory replaces the rows past its checkpoint
        again = train(cfg_a, tmp_path / "rerun", dataset=dataset,
                      resume_from=rerun.checkpoint_series[0])
        assert [m["step"] for m in again.metrics] == list(range(16, 31))
        assert ((tmp_path / "rerun" / "metrics.csv").read_bytes()
                == (tmp_path / "full" / "metrics.csv").read_bytes())

    def test_learning_rate_depends_on_step_alone(self):
        tc = short_cfg(lr=2e-3).train
        assert learning_rate(tc, 1) == 2e-3
        assert learning_rate(tc, 1 + LR_DECAY_STEPS) == pytest.approx(1e-3, rel=1e-15)
        longer = short_cfg(lr=2e-3, steps=4000).train
        assert [learning_rate(longer, t) for t in range(1, 200)] == [
            learning_rate(tc, t) for t in range(1, 200)
        ]

    @pytest.mark.parametrize("dropped", ["adam_step", "adam_v/out.w", "adam_m/out.w"])
    def test_resume_without_optimizer_state_rejected(self, tmp_path, dropped):
        self.check_resume_rejected(tmp_path, lambda arrays: arrays.pop(dropped), dropped)

    def test_resume_with_negative_optimizer_step_rejected(self, tmp_path):
        def negate(arrays):
            arrays["adam_step"] = np.array([-3], dtype=np.int64)
        self.check_resume_rejected(tmp_path, negate, "step -3 is negative")

    @staticmethod
    def check_resume_rejected(tmp_path, edit, message):
        """A 2-step checkpoint, `edit`ed in place, fails to resume to step 4
        with a FormatError whose message holds `message`."""
        from lvrc.container import read_container, write_container
        from lvrc.errors import FormatError
        from lvrc.model import CHECKPOINT_MAGIC

        cfg = short_cfg(steps=2, checkpoint_interval=2)
        dataset = ClipDataset.synthetic(cfg, n_clips=4)
        path = train(cfg, tmp_path / "run", dataset=dataset).checkpoint_path
        digest, arrays = read_container(path, CHECKPOINT_MAGIC)
        edit(arrays)
        write_container(path, CHECKPOINT_MAGIC, digest, arrays)
        cfg.train.steps = 4
        with pytest.raises(FormatError, match=re.escape(message)):
            train(cfg, tmp_path / "resumed", dataset=dataset, resume_from=path)

    def test_checkpoint_binds_to_config(self, tmp_path):
        from lvrc.errors import DigestError

        cfg = short_cfg(steps=10, checkpoint_interval=10)
        dataset = ClipDataset.synthetic(cfg, n_clips=8)
        result = train(cfg, tmp_path / "run", dataset=dataset)
        other = toy_config()
        other.model.n_mix = 8
        other.model.mel_fmax = 1500.0
        model = CodecModel(other.model, seed=0)
        with pytest.raises(DigestError):
            model.load_checkpoint(result.checkpoint_path, expected_digest=other.digest())


class TestDataset:
    def test_batches_deterministic(self):
        cfg = short_cfg(steps=5)
        dataset = ClipDataset.synthetic(cfg, n_clips=8)
        a_audio, a_mels, a_voic = dataset.batch(3)
        b_audio, b_mels, b_voic = dataset.batch(3)
        assert np.array_equal(a_audio, b_audio)
        assert np.array_equal(a_mels, b_mels)
        assert np.array_equal(a_voic, b_voic)

    def test_contains_voiced_and_unvoiced_material(self):
        cfg = short_cfg()
        dataset = ClipDataset.synthetic(cfg, n_clips=32)
        v = dataset.voicing
        assert (v > 0.8).mean() > 0.2
        assert (v < 0.5).mean() > 0.05

    @pytest.mark.parametrize("clips_per_call", [1, 4, None])  # None: the default cap
    def test_voicing_is_each_clips_own(self, monkeypatch, clips_per_call):
        cfg = short_cfg()
        feat = cfg.model
        if clips_per_call is not None:
            n = cfg.clip_samples
            monkeypatch.setattr(trainer, "VOICING_CHUNK_SAMPLES", clips_per_call * n)
        dataset = ClipDataset.synthetic(cfg, n_clips=6, n_noises=0)
        per_clip = [voicing_per_frame(c, feat) for c in dataset.clips]
        assert np.array_equal(dataset.voicing, per_clip)

    def test_voicing_memory_does_not_grow_with_the_dataset(self, monkeypatch):
        cfg = short_cfg()
        n = cfg.clip_samples
        monkeypatch.setattr(trainer, "VOICING_CHUNK_SAMPLES", 2 * n)
        rng = np.random.default_rng(3)
        clips = rng.normal(0.0, 0.1, (48, n))  # the dataset's own form: not copied
        tracemalloc.start()
        try:
            ClipDataset(cfg, clips, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two clips per call peak near 29 clips' worth of samples; all 48 at once near 490
        assert peak < 48 * n * 8

    def test_empty_noise_rejected(self):
        cfg = short_cfg()
        clip = synthetic_clip(np.random.default_rng(0), cfg.model.sample_rate, 1280)
        with pytest.raises(ConfigError, match="noise has no samples"):
            ClipDataset(cfg, [clip], [np.ones(50), np.zeros(0)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_noise_burst_has_requested_length(self, n):
        x = noise_burst(np.random.default_rng(n), n)
        assert x.shape == (n,) and np.all(np.isfinite(x))

    def test_short_noise_segment_fits_its_clip(self):
        # seed 182 draws a noise segment shorter than the smoothing kernel
        clip = synthetic_clip(np.random.default_rng(182), 8000, 1280)
        assert clip.shape == (1280,)

    def test_from_manifest(self, tmp_path):
        cfg = short_cfg(steps=2)
        sr = cfg.model.sample_rate
        rng = np.random.default_rng(0)
        wav = tmp_path / "c.wav"
        save_wav(wav, AudioBuffer(rng.uniform(-0.5, 0.5, sr), sr))
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{wav}\t-\ttrain\n")
        dataset = ClipDataset.from_manifest(cfg, parse_manifest(manifest))
        assert len(dataset.clips) >= 1
        assert dataset.clip_len == int(cfg.train.clip_seconds * sr)

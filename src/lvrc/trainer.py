"""Data pipeline, voicing score, noise augmentation and the training loop.

The trainer consumes either a manifest of WAV files or the built-in
synthetic dataset (harmonic tones with vibrato plus filtered noise
bursts), mixes noise at a random SNR per clip, and minimizes the
teacher-forced NLL plus the predictive-variance regularizer. Metrics go
to a CSV (step, nll, jvar, sigma_mean, sparsity, grad_norm, skipped) that
a resume cuts back to its checkpoint; checkpoints carry the optimizer
state so training resumes bit-exactly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, load_wav
from .config import CodecConfig, ModelConfig, TrainConfig, read_text
from .errors import ConfigError, FormatError, NumericError
from .features import frame_count, frame_signal, log_mel_features
from .model import CodecModel
from .neural import Adam, prune_update

# grad_norm: the global L2 norm of the gradients Adam reads; skipped: how many
# parameters Adam skipped this step for a non-finite gradient
METRICS_HEADER = ["step", "nll", "jvar", "sigma_mean", "sparsity", "grad_norm", "skipped"]
# Signal samples whose frames `voicing_per_frame` scores per call (voicing
# holds ~9x those samples: ~18 MiB).
VOICING_CHUNK_SAMPLES = 1 << 18


def load_wav_at(path, sample_rate: int) -> AudioBuffer:
    """The WAV at `path`; ConfigError naming the file if it is not at `sample_rate`."""
    buf = load_wav(path)
    if buf.sample_rate != sample_rate:
        raise ConfigError(f"{path}: rate {buf.sample_rate} != configured rate {sample_rate}")
    return buf


# ---------------------------------------------------------------------------
# voicing and noise mixing
# ---------------------------------------------------------------------------

def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # np.dot's bits; einsum's differ
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def voicing_score(frames: np.ndarray, sample_rate: int) -> np.ndarray:
    """Peak normalized autocorrelation over 50-400 Hz pitch lags, in [0, 1].

    Frames (..., W) score as (...), each bit for bit as if alone; a lag with a zero
    denominator is skipped. A frame scores 0 if its RMS is below 1e-4 or W allows
    fewer than two lags. It should span two periods of 50 Hz (2 * sample_rate / 50).
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)  # C-ordered rows keep 1-D bits
    rows = frames.reshape(-1, frames.shape[-1])
    best = np.zeros(len(rows))
    lags = range(max(2, sample_rate // 400), min(sample_rate // 50, rows.shape[1] - 1) + 1)
    if len(lags) > 1:
        silent = np.sqrt(np.mean(rows**2, axis=1)) < 1e-4
        x = rows - rows.mean(axis=1, keepdims=True)
        for lag in lags:
            a, b = x[:, lag:], x[:, :-lag]
            denom = np.sqrt(_row_dot(a, a) * _row_dot(b, b))
            r = np.divide(_row_dot(a, b), denom, out=np.zeros_like(denom), where=denom > 0)
            best = np.maximum(best, r)
        best[silent] = 0.0
    return np.clip(best, 0.0, 1.0).reshape(frames.shape[:-1])


def voicing_per_frame(samples: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Voicing of each mel-frontend frame of samples (..., L), shape (..., n_frames).

    Each call scores about `VOICING_CHUNK_SAMPLES` samples' worth of frames:
    as many whole rows as fit, or one row's frames a block at a time when a
    row is longer, so neither a long signal nor a pool of clips is ever
    framed whole.
    """
    window, hop, sr = cfg.window_length, cfg.hop_length, cfg.sample_rate
    samples = np.asarray(samples, dtype=np.float64)
    lead, length = samples.shape[:-1], samples.shape[-1]
    rows = samples.reshape(math.prod(lead), length)
    n_frames = frame_count(length, window, hop)
    rows_per_call = max(1, VOICING_CHUNK_SAMPLES // max(length, 1))
    frames_per_call = max(1, VOICING_CHUNK_SAMPLES // hop)
    out = np.empty((len(rows), n_frames))
    for r in range(0, len(rows), rows_per_call):
        frames = frame_signal(rows[r : r + rows_per_call], window, hop)  # a view
        for lo in range(0, n_frames, frames_per_call):
            block = slice(lo, lo + frames_per_call)
            out[r : r + rows_per_call, block] = voicing_score(frames[:, block], sr)
    return out.reshape(lead + (n_frames,))


def mix_noise(clean: np.ndarray, noise: np.ndarray, snr_db: float,
              rng: np.random.Generator) -> np.ndarray:
    """Add noise to clean (L,) at snr_db dB; peak-normalize only if the mix clips.

    The noise is looped or randomly cropped to the clip length. Digital
    silence, in the clean clip or in the noise, returns clean unchanged.
    """
    p_clean = float(np.mean(clean**2))
    if p_clean == 0.0:
        return clean

    length = len(clean)
    src = noise
    if len(src) < length:
        reps = -(-length // max(len(src), 1))
        src = np.tile(src, reps)
    if len(src) > length:
        start = int(rng.integers(0, len(src) - length + 1))
        src = src[start : start + length]
    p_noise = float(np.mean(src**2))
    if p_noise == 0.0:
        return clean
    scale = math.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed = clean + scale * src
    peak = np.max(np.abs(mixed))
    if peak > 1.0:
        mixed = mixed / peak
    return mixed


# ---------------------------------------------------------------------------
# synthetic toy data
# ---------------------------------------------------------------------------

TONE_PITCHES = (220.0,)
HARMONIC_ROLLOFF = 4.0  # harmonic h has amplitude h**-HARMONIC_ROLLOFF
BURST_MS, GAP_MS = 45.0, 25.0  # `tone_burst_train`'s tone and silence lengths
VOICED_FRACTION = 0.7  # share of a synthetic clip's segments that are tones
CLICK_RATE = 10.0  # clicks per second in a synthetic clip


def harmonic_tone(rng: np.random.Generator, sample_rate: int, n_samples: int,
                  f0: float | None = None, vibrato: bool = True) -> np.ndarray:
    """Harmonic tone with optional 5 Hz vibrato; amplitude ~ 1/h**HARMONIC_ROLLOFF.

    Without an explicit f0, the pitch is drawn from TONE_PITCHES, which
    holds one pitch (220 Hz), with ~1% jitter, so every toy tone has the
    same identifiable pitch class.
    """
    if f0 is None:
        f0 = float(rng.choice(TONE_PITCHES) * (1.0 + rng.uniform(-0.01, 0.01)))
    t = np.arange(n_samples) / sample_rate
    if vibrato:
        depth = rng.uniform(0.0, 0.01)
        inst = f0 * (1.0 + depth * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi)))
    else:
        inst = np.full(n_samples, f0)
    phase = 2 * np.pi * np.cumsum(inst) / sample_rate
    out = np.zeros(n_samples)
    h = 1
    while h * f0 < 0.45 * sample_rate and h <= 6:
        out += (h ** -HARMONIC_ROLLOFF) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
        h += 1
    out *= 0.45 / max(np.max(np.abs(out)), 1e-9)
    # onsets stay sharp (the analysis filterbank smears them anyway); a
    # one-millisecond edge just avoids DC steps
    ramp = min(8, max(n_samples // 4, 1))
    env = np.ones(n_samples)
    env[:ramp] = np.linspace(0, 1, ramp)
    env[-ramp:] = np.linspace(1, 0, ramp)
    return out * env


def tone_burst_train(rng: np.random.Generator, sample_rate: int, n_samples: int,
                     f0: float) -> np.ndarray:
    """Repeated short tone bursts at one pitch, separated by silence.

    Matches the onset-rich structure of the training clips; useful as a
    decode test signal whose pitch must come from the conditioning.
    """
    out = np.zeros(n_samples)
    burst = int(BURST_MS * sample_rate / 1000.0)
    gap = int(GAP_MS * sample_rate / 1000.0)
    pos = 0
    while pos + burst <= n_samples:
        out[pos : pos + burst] = harmonic_tone(rng, sample_rate, burst, f0=f0,
                                               vibrato=False)
        pos += burst + gap
    return out


def noise_burst(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """Smoothed white noise burst at moderate amplitude."""
    x = rng.normal(0.0, 1.0, n_samples)
    # the centered slice of the full convolution: mode="same" returns the
    # kernel's length, not n_samples, when n_samples < 5
    x = np.convolve(x, np.ones(5) / 5.0)[2 : 2 + n_samples]
    return 0.12 * x / max(np.max(np.abs(x)), 1e-9)


def synthetic_clip(rng: np.random.Generator, sample_rate: int, n_samples: int) -> np.ndarray:
    """Short voiced tone segments among noise bursts and gaps, plus rare clicks.

    Segments are kept short so clips are onset-rich: right after each tone
    onset the past waveform carries no pitch, which forces the model to
    read pitch from the conditioning. The clicks are impulsive outliers: a
    maximum-likelihood fit must keep heavy predictive tails to afford
    them, which is what the variance regularizer counteracts on the
    predictable (voiced) parts.
    """
    out = np.zeros(n_samples)
    pos = 0
    while pos < n_samples:
        seg = int(rng.integers(n_samples // 5, max(n_samples // 3, n_samples // 5 + 1)))
        seg = min(seg, n_samples - pos)
        draw = rng.random()
        if draw < VOICED_FRACTION:
            out[pos : pos + seg] = harmonic_tone(rng, sample_rate, seg)
        elif draw < VOICED_FRACTION + 0.5 * (1.0 - VOICED_FRACTION):
            out[pos : pos + seg] = noise_burst(rng, seg)
        # else: leave a silent gap
        pos += seg
    for _ in range(rng.poisson(CLICK_RATE * n_samples / sample_rate)):
        at = int(rng.integers(0, n_samples))
        amp = rng.uniform(0.25, 0.6) * rng.choice((-1.0, 1.0))
        out[at : at + 2] += amp
    return np.clip(out, -1.0, 1.0)


class ClipDataset:
    """Fixed pool of equal-length clips with per-step noise augmentation.

    The clips are one (n_clips, L) array, cut to whole band steps; a list
    of equal-length clips is stacked into it. Voicing scores are computed
    once on the clean clips; mel features are recomputed per step because
    they see the mixed signal.
    """

    def __init__(self, cfg: CodecConfig, clips: np.ndarray, noises: list[np.ndarray]):
        clips = np.asarray(clips, dtype=np.float64)
        if clips.ndim != 2 or len(clips) == 0:
            raise ConfigError("dataset needs at least one clip")
        if any(len(x) == 0 for x in noises):  # mix_noise needs a sample to tile
            raise ConfigError("noise has no samples")
        n = clips.shape[1] - clips.shape[1] % cfg.model.n_bands
        self.cfg = cfg
        self.clips = clips[:, :n]
        self.noises = [np.asarray(x, dtype=np.float64) for x in noises]
        self.clip_len = n
        self.voicing = voicing_per_frame(self.clips, cfg.model)

    @classmethod
    def synthetic(cls, cfg: CodecConfig, n_clips: int = 48, n_noises: int = 12,
                  seed: int | None = None) -> "ClipDataset":
        seed = cfg.train.seed if seed is None else seed
        rng = np.random.default_rng([seed, 0xDA7A])
        sr, n = cfg.model.sample_rate, cfg.clip_samples
        clips = [synthetic_clip(rng, sr, n) for _ in range(n_clips)]
        noises = [noise_burst(rng, n) for _ in range(n_noises)]
        return cls(cfg, clips, noises)

    @classmethod
    def from_manifest(cls, cfg: CodecConfig, entries) -> "ClipDataset":
        clips, noises = [], []
        sr, n = cfg.model.sample_rate, cfg.clip_samples
        for entry in entries:
            if entry.split != "train":
                continue
            samples = load_wav_at(entry.clean_path, sr).samples
            if len(samples) < n:
                samples = np.pad(samples, (0, n - len(samples)))
            for lo in range(0, len(samples) - n + 1, n):
                clips.append(samples[lo : lo + n])
            if entry.noise_path:
                noise = load_wav_at(entry.noise_path, sr).samples
                if len(noise) == 0:
                    raise ConfigError(f"{entry.noise_path}: noise file has no samples")
                noises.append(noise)
        return cls(cfg, clips, noises)

    def batch(self, step: int):
        """Deterministic batch for a step: (audio (B,L), mels (B,F,M), voicing (B,F))."""
        tc = self.cfg.train
        rng = np.random.default_rng([tc.seed, 0xBA7C4, step])
        idx = rng.integers(0, len(self.clips), size=tc.batch_size)
        sr = self.cfg.model.sample_rate
        audio = np.empty((tc.batch_size, self.clip_len))
        for row, i in enumerate(idx):
            mixed = self.clips[i]
            if self.noises:
                j = int(rng.integers(0, len(self.noises)))
                snr = float(rng.uniform(tc.snr_min, tc.snr_max))
                mixed = mix_noise(mixed, self.noises[j], snr, rng)
            audio[row] = mixed
        mels = np.stack([
            log_mel_features(AudioBuffer(a, sr), self.cfg.model) for a in audio
        ])
        return audio, mels, self.voicing[idx]


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass
class ManifestEntry:
    clean_path: str
    noise_path: str | None
    split: str


def parse_manifest(path) -> list[ManifestEntry]:
    """Newline-delimited records: clean_path <tab> noise_path <tab> split.

    An empty or '-' noise path means no paired noise. A path may not
    appear in both splits.
    """
    entries = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 tab-separated fields")
        clean, noise, split = (p.strip() for p in parts)
        if split not in ("train", "dev"):
            raise ConfigError(f"{path}:{lineno}: split must be train or dev")
        entries.append(ManifestEntry(clean, noise if noise not in ("", "-") else None, split))
    by_split: dict[str, set] = {"train": set(), "dev": set()}
    for e in entries:
        by_split[e.split].add(e.clean_path)
    overlap = by_split["train"] & by_split["dev"]
    if overlap:
        raise ConfigError(f"paths in both splits: {sorted(overlap)[:3]}")
    return entries


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    metrics: list[dict]
    final_step: int
    halted: bool
    checkpoint_series: list[str] = None
    halt_reason: str | None = None


LR_DECAY_STEPS = 500  # see train(): chosen on the toy held-out NLL curve


def learning_rate(tc: TrainConfig, step: int) -> float:
    """Adam step size for 1-based `step`: lr / (1 + (step - 1) / LR_DECAY_STEPS).

    It depends on the step number alone, never on `tc.steps`, so a run
    resumed under a longer schedule retraces the uninterrupted one.
    """
    return tc.lr / (1.0 + (step - 1) / LR_DECAY_STEPS)


def pruning_sparsity(tc: TrainConfig, step: int) -> float:
    """Target sparsity at `step`: the cubic ramp of WaveRNN (arXiv 1802.08435),
    0 through `prune_start`, `target_sparsity` from `prune_end` on."""
    if step <= tc.prune_start:
        return 0.0
    if step >= tc.prune_end:
        return tc.target_sparsity
    frac = (step - tc.prune_start) / (tc.prune_end - tc.prune_start)
    return tc.target_sparsity * (1.0 - (1.0 - frac) ** 3)


def _metrics_rows_through(path: str, step: int) -> list[str]:
    """The complete rows of metrics CSV `path` for steps <= `step`; [] if it is absent.

    FormatError if its header is not METRICS_HEADER, so a resume never
    writes rows of two layouts into one file.
    """
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        lines = fh.readlines()
    if lines and lines[0].rstrip("\r\n").split(",") != METRICS_HEADER:
        raise FormatError(f"{path}: header {lines[0].strip()!r} is not "
                          f"{','.join(METRICS_HEADER)!r}")
    # a row cut short by a crash has no line end
    return [row for row in lines[1:] if row.endswith("\n") and int(row.split(",", 1)[0]) <= step]


def train(cfg: CodecConfig, out_dir, dataset: ClipDataset | None = None,
          resume_from: str | None = None) -> TrainResult:
    """Run the training loop; deterministic for a given config and seed.

    Writes checkpoint files and a metrics CSV into out_dir; a resume
    keeps the CSV's rows through its checkpoint and appends from there.
    `model.ckpt` is written at the start step, fresh or resumed, again
    every `checkpoint_interval` steps (each also kept as
    `model_step<n>.ckpt`) and at the last step. A non-finite loss halts
    training with `halted` set and the error's message in `halt_reason`
    (for a non-finite loss: nll, jvar, max |h| and max |raw|).
    `model.ckpt` then holds the last of those saves, at worst the start
    step's, so it always loads and resumes, and `metrics.csv` keeps the
    rows of the steps before the halt.

    Adam's step size decays as 1/t (`learning_rate`), as in LPCNet's
    training. At a constant step size the iterate keeps wandering on the
    toy task: a nu=0 run's held-out NLL moves by 0.35 nats on average
    from one 100-step checkpoint to the next, so the iterate a run stops
    on is a draw, not a result. LR_DECAY_STEPS = 500 was chosen on that
    curve (nu=0, seed 2024, lr 2e-3, 16 held-out clips) over steps
    3100-4000, against a constant lr and decays of 250, 1000 and 2000:
    it ties 250 for the lowest mean (-3.35 nats, against -2.88 at a
    constant lr) and has the smallest checkpoint-to-checkpoint moves
    (0.09 nats). It was not measured on the paper preset.
    """
    cfg.validate()
    tc = cfg.train
    os.makedirs(out_dir, exist_ok=True)
    dataset = dataset or ClipDataset.synthetic(cfg)
    model = CodecModel(cfg.model, seed=tc.seed)
    optimizer = Adam(lr=tc.lr)
    params = model.parameters()
    digest = cfg.digest()

    start_step = 0
    if resume_from is not None:
        start_step, arrays = model.load_checkpoint(resume_from, expected_digest=digest)
        optimizer.load_state(arrays, params)

    metrics_path = os.path.join(out_dir, "metrics.csv")
    metrics: list[dict] = []
    # a resume keeps the rows through its checkpoint; the steps after it run again
    kept = _metrics_rows_through(metrics_path, start_step) if resume_from is not None else []
    metrics_fh = open(metrics_path, "w", newline="")
    writer = csv.writer(metrics_fh)
    writer.writerow(METRICS_HEADER)
    metrics_fh.writelines(kept)

    ckpt_path = os.path.join(out_dir, "model.ckpt")
    series: list[str] = []
    halt_reason = None
    step = start_step

    def save(step_now, keep=False):
        extra = optimizer.state_arrays()
        model.save_checkpoint(ckpt_path, digest, step_now, extra)
        if keep:
            kept = os.path.join(out_dir, f"model_step{step_now}.ckpt")
            model.save_checkpoint(kept, digest, step_now, extra)
            series.append(kept)

    save(start_step)  # so a halt before the first interval still leaves one
    try:
        for step in range(start_step + 1, tc.steps + 1):
            audio, mels, voicing = dataset.batch(step)
            model.zero_grads()
            res = model.teacher_forced(
                audio, mels, nu=tc.nu, regularizer=tc.regularizer,
                var_floor=tc.var_floor, reg_bands=tc.reg_bands, voicing=voicing,
                gamma0=tc.baseline_gamma0,
            )
            grad_norm = math.sqrt(sum(float(np.sum(np.square(p.grad))) for p in params))
            skipped = optimizer.skipped_updates
            optimizer.lr = learning_rate(tc, step)
            optimizer.step(params)
            if (tc.pruning and step > tc.prune_start
                    and (step - tc.prune_start) % tc.prune_interval == 0):
                for p in model.prunable_parameters():
                    prune_update(p, pruning_sparsity(tc, step))
            prunable = model.prunable_parameters()
            total = sum(p.value.size for p in prunable)
            masked = sum(int(p.value.size - p.mask.sum()) if p.mask is not None else 0
                         for p in prunable)
            row = {
                "step": step,
                "nll": res["nll"],
                "jvar": res["jvar"],
                "sigma_mean": float(res["sigma"].mean()),
                "sparsity": masked / total if total else 0.0,
                "grad_norm": grad_norm,
                "skipped": optimizer.skipped_updates - skipped,
            }
            metrics.append(row)
            writer.writerow([row[k] for k in METRICS_HEADER])
            if step % tc.checkpoint_interval == 0:
                save(step, keep=True)
    except NumericError as exc:
        halt_reason = str(exc)
    finally:
        metrics_fh.close()
    halted = halt_reason is not None
    if not halted:
        save(step)
    return TrainResult(ckpt_path, metrics_path, metrics, step, halted, series, halt_reason)

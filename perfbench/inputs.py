"""Seeded test signals owned by the benchmark.

Every workload input comes from here, never from ``lvrc.trainer``'s
synthetic-data helpers, so a change to the training-data generator cannot
change what a workload measures. Signals are built from four kinds of
segment: harmonic tones at several pitches with vibrato, band-pass
filtered noise bursts, silent gaps, and sparse clicks laid over the top.

Each signal has fixed voiced / noise / silence shares. Voicing analysis
exits early on silent frames, so the silent share sets how much voicing
work an utterance costs; fixing it keeps a workload's cost independent of
the seed. Only numpy is used.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

PITCHES_HZ = (110.0, 147.0, 196.0, 262.0)
SEGMENT_MS = 40.0


@dataclass(frozen=True)
class Shares:
    """Fractions of a signal that are tone, noise and silence (sum to 1)."""

    voiced: float
    noise: float
    silence: float

    def __post_init__(self):
        if abs(self.voiced + self.noise + self.silence - 1.0) > 1e-9:
            raise ValueError("shares must sum to 1")


def harmonic_tone(rng: np.random.Generator, sample_rate: int, n: int) -> np.ndarray:
    """Tone at one of PITCHES_HZ (+-2 %) with 5 Hz vibrato and 1/h**2 harmonics."""
    f0 = float(rng.choice(PITCHES_HZ)) * (1.0 + rng.uniform(-0.02, 0.02))
    t = np.arange(n) / sample_rate
    depth = rng.uniform(0.002, 0.02)
    inst = f0 * (1.0 + depth * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi)))
    phase = 2 * np.pi * np.cumsum(inst) / sample_rate
    out = np.zeros(n)
    h = 1
    while h * f0 < 0.45 * sample_rate and h <= 8:
        out += h**-2.0 * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
        h += 1
    return rng.uniform(0.25, 0.5) * out / max(np.max(np.abs(out)), 1e-9)


def noise_burst(rng: np.random.Generator, sample_rate: int, n: int) -> np.ndarray:
    """White noise through a random Hann-windowed band-pass FIR, exactly n samples."""
    taps = 31
    lo = rng.uniform(0.02, 0.2)
    hi = min(lo + rng.uniform(0.05, 0.25), 0.49)
    k = np.arange(taps) - (taps - 1) / 2
    fir = (2 * hi * np.sinc(2 * hi * k) - 2 * lo * np.sinc(2 * lo * k)) * np.hanning(taps)
    x = np.convolve(rng.normal(0.0, 1.0, n + taps - 1), fir, mode="valid")
    return rng.uniform(0.05, 0.15) * x / max(np.max(np.abs(x)), 1e-9)


def signal(rng: np.random.Generator, sample_rate: int, n: int, shares: Shares,
           clicks_per_s: float = 4.0) -> np.ndarray:
    """n samples of 40 ms segments in shuffled order with the exact given shares.

    Segment counts are rounded per kind so the shares hold to within one
    segment; the last segment absorbs any remainder of n.
    """
    seg = max(int(sample_rate * SEGMENT_MS / 1000.0), 1)
    n_seg = max(n // seg, 1)
    n_voiced = int(round(shares.voiced * n_seg))
    n_noise = min(int(round(shares.noise * n_seg)), n_seg - n_voiced)
    kinds = np.array([0] * n_voiced + [1] * n_noise + [2] * (n_seg - n_voiced - n_noise))
    rng.shuffle(kinds)
    out = np.zeros(n)
    for i, kind in enumerate(kinds):
        lo = i * seg
        hi = n if i == n_seg - 1 else lo + seg
        if kind == 0:
            out[lo:hi] = harmonic_tone(rng, sample_rate, hi - lo)
        elif kind == 1:
            out[lo:hi] = noise_burst(rng, sample_rate, hi - lo)
    for at in rng.integers(0, n, size=rng.poisson(clicks_per_s * n / sample_rate)):
        out[at : at + 2] += rng.uniform(0.2, 0.5) * rng.choice((-1.0, 1.0))
    return np.clip(out, -1.0, 1.0)


def signals(seed: int, tag: str, count: int, sample_rate: int, n: int,
            shares: Shares) -> list[np.ndarray]:
    """`count` independent signals; the same (seed, tag) always gives the same list."""
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    return [signal(rng, sample_rate, n, shares) for _ in range(count)]


def pcm16_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """16-bit PCM mono RIFF/WAVE bytes, written without the program's own writer."""
    pcm = np.clip(np.round(np.clip(samples, -1.0, 1.0) * 32768.0), -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, 2 * sample_rate, 2, 16)
    return b"".join([b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE", b"fmt ", fmt,
                     b"data", struct.pack("<I", len(payload)), payload])

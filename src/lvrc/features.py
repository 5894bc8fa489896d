"""Framing and log mel spectrum extraction.

Frames are centered on the hop grid: the signal is reflect-padded by half
a window at each edge, so frame t covers samples centered at t*hop and a
signal of length L yields floor(L/hop) + 1 frames (empty if L is shorter
than one window). Mel energies use triangular filters on the mel scale,
each normalized to unit weight sum, and are floored before the natural log.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .audio import AudioBuffer
from .config import MEL_FMIN, ModelConfig
from .errors import ConfigError

LOG_FLOOR = 1e-10  # mel energies are floored here before the log


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: ModelConfig) -> np.ndarray:
    """Triangular mel filters, shape (n_mels, fft_size//2 + 1).

    Designed once per distinct setting and shared: the array is read-only.
    """
    return _mel_filterbank(cfg.sample_rate, cfg.fft_size, cfg.resolved_fmax(), cfg.n_mels)


@lru_cache(maxsize=16)
def _mel_filterbank(sample_rate: int, n_fft: int, fmax: float, n_mels: int) -> np.ndarray:
    n_freqs = n_fft // 2 + 1
    freqs = np.linspace(0.0, sample_rate / 2.0, n_freqs)

    mel_pts = np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(fmax), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)

    fb = np.zeros((n_mels, n_freqs))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (freqs - lo) / max(ctr - lo, 1e-12)
        falling = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
        total = fb[m].sum()
        if total > 0:
            fb[m] /= total
    fb.setflags(write=False)
    return fb


def filter_center_frequencies(cfg: ModelConfig) -> np.ndarray:
    """Center frequency (Hz) of each triangular filter."""
    mel_pts = np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(cfg.resolved_fmax()), cfg.n_mels + 2)
    return mel_to_hz(mel_pts[1:-1])


def frame_count(length: int, window: int, hop: int) -> int:
    """Frames `frame_signal` cuts from `length` samples."""
    return 0 if length < window else (length + 2 * (window // 2) - window) // hop + 1


def frame_signal(samples: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Center-aligned frames of (..., L) samples: (..., n_frames, window), none if L < window.

    A read-only view of the reflect-padded signal, so no frame is copied
    until a caller copies out the block of frames it works on.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-1] < window:
        return np.zeros(samples.shape[:-1] + (0, window))
    half = window // 2
    padded = np.pad(samples, [(0, 0)] * (samples.ndim - 1) + [(half, half)], mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(padded, window, axis=-1)[..., ::hop, :]


@lru_cache(maxsize=16)
def _analysis_window(length: int) -> np.ndarray:
    """Periodic Hann window: scipy.signal.windows.hann(length, sym=False), bit for bit.

    scipy's general_cosine written out; np.hanning differs in the last bit.
    (scipy returns [1.0] for length 1, a window no frame can use.)
    """
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, length + 1))[:-1]
    win.setflags(write=False)
    return win


def log_mel_features(audio: AudioBuffer, cfg: ModelConfig) -> np.ndarray:
    """Log mel spectra, shape (n_frames, n_mels), natural log of floored energies."""
    if audio.sample_rate != cfg.sample_rate:
        raise ConfigError(
            f"audio rate {audio.sample_rate} != configured rate {cfg.sample_rate}"
        )
    frames = frame_signal(audio.samples, cfg.window_length, cfg.hop_length)
    if len(frames) == 0:
        return np.zeros((0, cfg.n_mels))
    win = _analysis_window(cfg.window_length)
    spectra = np.fft.rfft(frames * win, n=cfg.fft_size, axis=1)
    power = spectra.real**2 + spectra.imag**2
    mel = power @ mel_filterbank(cfg).T
    return np.log(np.maximum(mel, LOG_FLOOR))

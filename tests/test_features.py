"""Log mel frontend: framing rule, floor, tuning peaks, scaling law."""

import numpy as np
import pytest
from scipy.signal.windows import hann

from lvrc.audio import AudioBuffer
from lvrc.config import ModelConfig, paper_config, toy_config
from lvrc.errors import ConfigError
from lvrc.features import (
    LOG_FLOOR,
    _analysis_window,
    filter_center_frequencies,
    frame_count,
    frame_signal,
    log_mel_features,
    mel_filterbank,
)

PAPER = ModelConfig()  # 16 kHz, 80 ms window, 20 ms hop, 160 mels


def test_silence_hits_log_floor():
    audio = AudioBuffer(np.zeros(16000), 16000)
    mels = log_mel_features(audio, PAPER)
    assert np.all(mels == np.log(LOG_FLOOR))


def test_1khz_sine_peaks_at_nearest_center():
    t = np.arange(16000) / 16000.0
    audio = AudioBuffer(0.99 * np.sin(2 * np.pi * 1000.0 * t), 16000)
    mels = log_mel_features(audio, PAPER)
    centers = filter_center_frequencies(PAPER)
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    peaks = np.argmax(mels, axis=1)
    # every steady frame peaks at the filter whose center is nearest 1 kHz
    assert np.all(np.abs(peaks - expected_bin) <= 1)
    assert np.median(peaks) == expected_bin


def test_one_second_gives_50hz_frame_rate():
    audio = AudioBuffer(np.random.default_rng(0).uniform(-0.5, 0.5, 16000), 16000)
    mels = log_mel_features(audio, PAPER)
    assert abs(len(mels) - 50) <= 1


def test_frame_count_rule_random_lengths():
    rng = np.random.default_rng(7)
    window, hop = PAPER.window_length, PAPER.hop_length
    for _ in range(25):
        n = int(rng.integers(window, 5 * 16000))
        frames = frame_signal(np.zeros(n), window, hop)
        assert len(frames) == n // hop + 1


@pytest.mark.parametrize("window,hop", [(1280, 320), (7, 3), (8, 3), (1, 1)])
def test_frame_count_is_frame_signals_count(window, hop):
    for n in range(0, 3 * window + 2 * hop):
        assert frame_count(n, window, hop) == frame_signal(np.zeros(n), window, hop).shape[0]


def test_too_short_yields_empty():
    audio = AudioBuffer(np.ones(PAPER.window_length - 1) * 0.1, 16000)
    assert log_mel_features(audio, PAPER).shape == (0, PAPER.n_mels)


def test_scaling_shifts_log_energies():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.4, 0.4, 16000)
    a = log_mel_features(AudioBuffer(x, 16000), PAPER)
    b = log_mel_features(AudioBuffer(np.clip(2.0 * x, -1, 1), 16000), PAPER)
    unfloored = a > np.log(LOG_FLOOR) + 1e-9
    shift = b[unfloored] - a[unfloored]
    assert np.allclose(shift, 2.0 * np.log(2.0), atol=1e-6)


def test_finite_for_any_finite_input():
    rng = np.random.default_rng(9)
    for scale in (1e-8, 1.0):
        audio = AudioBuffer(np.clip(rng.normal(0, scale, 7777), -1, 1), 16000)
        mels = log_mel_features(audio, PAPER)
        assert np.all(np.isfinite(mels))


def test_rate_mismatch_rejected():
    with pytest.raises(ConfigError):
        log_mel_features(AudioBuffer(np.zeros(8000), 8000), PAPER)


def test_fft_size_is_next_power_of_two_over_window():
    assert (PAPER.window_length, PAPER.fft_size) == (1280, 2048)
    toy = toy_config().model
    assert (toy.window_length, toy.fft_size) == (640, 1024)


def test_filterbank_rows_normalized():
    fb = mel_filterbank(PAPER)
    assert fb.shape == (PAPER.n_mels, PAPER.fft_size // 2 + 1)
    sums = fb.sum(axis=1)
    assert np.allclose(sums[sums > 0], 1.0, atol=1e-12)
    assert np.all(fb >= 0.0)


def test_frames_centered_on_hop_grid():
    window, hop = 8, 4
    x = np.arange(32, dtype=float)
    frames = frame_signal(x, window, hop)
    # frame t covers samples centered at t*hop
    assert frames[2, window // 2] == 2 * hop


@pytest.mark.parametrize("length", [PAPER.window_length - 1, PAPER.window_length, 16001])
def test_batched_framing_is_row_by_row(length):
    x = np.random.default_rng(length).uniform(-0.5, 0.5, (2, 3, length))
    frames = frame_signal(x, PAPER.window_length, PAPER.hop_length)
    rows = [[frame_signal(r, PAPER.window_length, PAPER.hop_length) for r in b] for b in x]
    assert frames.shape == (2, 3) + rows[0][0].shape
    assert np.array_equal(frames, rows)


@pytest.mark.parametrize("length", [toy_config().model.window_length,
                                    paper_config().model.window_length, 2, 401])
def test_analysis_window_is_scipy_periodic_hann(length):
    assert np.array_equal(_analysis_window(length), hann(length, sym=False))

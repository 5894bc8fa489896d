"""Pseudo-QMF filterbank: prototype quality, round-trip fidelity, and the
prototype search against the scipy functions it ports."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.signal.windows import kaiser

from lvrc.config import paper_config, toy_config
from lvrc.errors import ConfigError
from lvrc.filterbank import (
    KAISER_BETA,
    Filterbank,
    FilterbankSpec,
    _kaiser,
    _minimize_bounded,
    _unscaled_prototype,
    design_prototype,
    snr_db,
)


@pytest.fixture(scope="module")
def bank():
    return Filterbank(FilterbankSpec(n_bands=4, prototype_taps=192))


class TestPrototype:
    def test_sums_to_dc_gain_target(self):
        spec = FilterbankSpec(n_bands=4, prototype_taps=192)
        proto = design_prototype(spec)
        assert abs(proto.sum() - spec.dc_sum_target) <= 1e-6

    def test_symmetric(self):
        proto = design_prototype(FilterbankSpec(n_bands=4, prototype_taps=192))
        assert np.array_equal(proto, proto[::-1])

    def test_stopband_attenuation(self):
        spec = FilterbankSpec(n_bands=4, prototype_taps=192)
        proto = design_prototype(spec)
        w = 1.5 * spec.cutoff
        n = np.arange(len(proto))
        response = abs(np.sum(proto * np.exp(-1j * w * n)))
        dc = proto.sum()
        assert -20 * np.log10(response / dc) >= 60.0

    def test_tap_count_validation(self):
        with pytest.raises(ConfigError):
            FilterbankSpec(n_bands=4, prototype_taps=30).validate()


def _reference_prototype(taps, n_bands, beta):
    """The prototype search on scipy: windows.kaiser and minimize_scalar(bounded)."""
    n = np.arange(taps)
    win = kaiser(taps, beta)

    def windowed_sinc(ratio):
        return ratio * np.sinc(ratio * (n - (taps - 1) / 2.0)) * win

    def flatness(ratio):
        p = windowed_sinc(ratio)
        w = np.linspace(0.0, np.pi / n_bands, 257)
        mag_lo = np.abs(np.exp(-1j * np.outer(w, n)) @ p)
        mag_hi = np.abs(np.exp(-1j * np.outer(np.pi / n_bands - w, n)) @ p)
        d = mag_lo**2 + mag_hi**2
        return (d.max() - d.min()) / d.mean()

    base = 1.0 / (2 * n_bands)
    grid = np.linspace(base * 1.0001, base * 1.35, 64)
    i = int(np.argmin([flatness(r) for r in grid]))
    result = minimize_scalar(flatness, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
                             method="bounded", options={"xatol": 1e-9})
    return windowed_sinc(result.x)


# Objectives that reach the branches of bounded Brent: smooth and kinked
# minima, plateaus and steps that tie, ripples with many local minima.
BRENT_OBJECTIVES = {
    "quadratic": (lambda x: (x - 0.3) ** 2, (-1.0, 2.0)),
    "kink": (lambda x: abs(x - 1.234567), (0.0, 3.0)),
    "plateau": (lambda x: max(abs(x) - 0.5, 0.0), (-2.0, 1.0)),
    "staircase": (lambda x: float(np.floor(8.0 * abs(x - 0.1))), (-1.0, 1.0)),
    "ripple": (lambda x: np.sin(40.0 * x) + 0.1 * x * x, (-3.0, 3.0)),
    "quartic": (lambda x: (x - 2.0) ** 4, (0.0, 5.0)),
}

PRESET_BANKS = [(c.model.fb_taps, c.model.n_bands, KAISER_BETA) for c in (toy_config(), paper_config())]


class TestScipyPorts:
    """The numpy/scipy.special ports return scipy.signal's and scipy.optimize's bits."""

    @pytest.mark.parametrize("taps,beta", [(96, 9.0), (192, 9.0), (64, 8.0), (97, 5.5)])
    def test_kaiser_window(self, taps, beta):
        assert np.array_equal(_kaiser(taps, beta), kaiser(taps, beta))

    @pytest.mark.parametrize("name", sorted(BRENT_OBJECTIVES))
    @pytest.mark.parametrize("maxiter", [500, 7])
    def test_bounded_brent(self, name, maxiter):
        func, bounds = BRENT_OBJECTIVES[name]
        expected = minimize_scalar(func, bounds=bounds, method="bounded",
                                   options={"xatol": 1e-9, "maxiter": maxiter}).x
        assert _minimize_bounded(func, *bounds, xatol=1e-9, maxiter=maxiter) == expected

    @pytest.mark.parametrize("setting", PRESET_BANKS + [(64, 2, 8.0), (96, 8, 9.0), (128, 4, 8.0)])
    def test_prototype_search(self, setting):
        assert np.array_equal(_unscaled_prototype(*setting), _reference_prototype(*setting))


def reference_filters(bank):
    """Analysis and synthesis filters of the cosine-modulated bank, band by band."""
    taps, n_bands = bank.spec.prototype_taps, bank.spec.n_bands
    phase = (np.arange(taps) - (taps - 1) / 2.0) * np.pi / (2 * n_bands)
    analysis, synthesis = [], []
    for k in range(n_bands):
        quadrant = (-1.0) ** k * np.pi / 4.0
        analysis.append(2.0 * bank.prototype * np.cos((2 * k + 1) * phase + quadrant))
        synthesis.append(2.0 * bank.prototype * np.cos((2 * k + 1) * phase - quadrant))
    return analysis, synthesis


def reference_analyze(bank, x):
    """Direct form: full-rate convolution with each analysis filter, then keep every Nth output."""
    n_bands, taps = bank.spec.n_bands, bank.spec.prototype_taps
    m = (len(x) + n_bands - 1) // n_bands + taps // n_bands
    padded = np.concatenate([x, np.zeros(m * n_bands - len(x))])
    return np.stack([np.convolve(padded, h)[: m * n_bands : n_bands] for h in reference_filters(bank)[0]])


def reference_synthesize(bank, bands):
    """Direct form: zero-stuff each band to the full rate, convolve with its filter, sum."""
    n_bands = bank.spec.n_bands
    out = 0.0
    for band, g in zip(bands, reference_filters(bank)[1]):
        upsampled = np.zeros(len(band) * n_bands)
        upsampled[::n_bands] = band
        out = out + np.convolve(upsampled, g)
    return out


@pytest.mark.parametrize("taps,n_bands", [setting[:2] for setting in PRESET_BANKS])
def test_polyphase_matches_direct_form(taps, n_bands):
    bank = Filterbank(FilterbankSpec(n_bands=n_bands, prototype_taps=taps))
    rng = np.random.default_rng(taps)
    for length in (1, n_bands - 1, 1280, 1283, 16001):
        x = rng.uniform(-1.0, 1.0, length)
        bands, expected = bank.analyze(x).bands, reference_analyze(bank, x)
        assert bands.shape == expected.shape
        assert np.max(np.abs(bands - expected)) <= 1e-14
        out, expected = bank.synthesize(bands), reference_synthesize(bank, bands)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-14
        rows = rng.uniform(-1.0, 1.0, (3, length))
        assert np.array_equal(bank.analyze(rows).bands, np.stack([bank.analyze(r).bands for r in rows]))


class TestRoundTrip:
    def test_zero_in_zero_out(self, bank):
        bands = bank.analyze(np.zeros(4000))
        assert np.all(bands.bands == 0.0)
        assert np.all(bank.synthesize(bands) == 0.0)

    def test_white_noise_snr(self, bank):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.9, 0.9, 16000 * 2)
        rebuilt = bank.round_trip(x)
        assert snr_db(x, rebuilt) >= 40.0

    def test_low_sine_energy_in_band0(self, bank):
        t = np.arange(16000)
        x = np.sin(2 * np.pi * 100.0 * t / 16000.0)
        bands = bank.analyze(x).bands
        energy = np.sum(bands**2, axis=1)
        assert energy[0] / energy.sum() >= 0.99

    def test_linearity(self, bank):
        rng = np.random.default_rng(2)
        x, y = rng.normal(0, 0.2, (2, 2048))
        a, b = 1.7, -0.4
        mixed = bank.analyze(a * x + b * y).bands
        separate = a * bank.analyze(x).bands + b * bank.analyze(y).bands
        assert np.allclose(mixed, separate, atol=1e-9)
        s_mixed = bank.synthesize(mixed)
        s_sep = a * bank.synthesize(bank.analyze(x)) + b * bank.synthesize(bank.analyze(y))
        assert np.allclose(s_mixed, s_sep, atol=1e-9)

    def test_band_energy_bounded(self, bank):
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.uniform(-0.8, 0.8, 12000)
            bands = bank.analyze(x).bands
            assert np.sum(bands**2) <= (1.0 + 1e-3) * np.sum(x**2)

    def test_group_delay_alignment(self, bank):
        # an impulse round-trips to a peak at exactly group_delay
        x = np.zeros(4096)
        x[1000] = 1.0
        rebuilt = bank.synthesize(bank.analyze(x))
        assert int(np.argmax(np.abs(rebuilt))) == 1000 + bank.group_delay

    def test_band_count_checked(self, bank):
        with pytest.raises(ConfigError):
            bank.synthesize(np.zeros((3, 10)))

    def test_band_rate_metadata(self, bank):
        bands = bank.analyze(np.zeros(4000), sample_rate=16000)
        assert bands.band_rate == 4000.0

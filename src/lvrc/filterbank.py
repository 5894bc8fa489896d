"""Cosine-modulated pseudo-QMF analysis/synthesis filterbank.

N critically sampled bands from a single Kaiser-windowed sinc prototype.
Band b is the prototype modulated to center (b + 0.5) * pi / N with the
standard +/- pi/4 phase terms, so adjacent-band aliasing cancels between
analysis and synthesis. The sinc frequency is tuned (coarse grid plus
bounded refinement) for power-complementary flatness at the band edge
pi/(2N); the prototype is scaled to sum to sqrt(N), which makes the
analysis-synthesis cascade unit gain at DC. The cascade group delay is
taps - 1 samples and is exposed so callers can align.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import i0

from .errors import ConfigError

DEFAULT_TAPS = 192
KAISER_BETA = 9.0


@dataclass
class FilterbankSpec:
    n_bands: int = 4
    prototype_taps: int = DEFAULT_TAPS

    def validate(self) -> None:
        if self.n_bands < 2:
            raise ConfigError("need at least 2 bands")
        if self.prototype_taps % (2 * self.n_bands) != 0:
            raise ConfigError("prototype_taps must be divisible by 2*n_bands")

    @property
    def cutoff(self) -> float:
        """Band-edge frequency pi/(2N) in rad/sample."""
        return np.pi / (2 * self.n_bands)

    @property
    def dc_sum_target(self) -> float:
        """The prototype sums to sqrt(N) for a unit-gain cascade."""
        return float(np.sqrt(self.n_bands))


def _kaiser(taps: int, beta: float) -> np.ndarray:
    """Symmetric Kaiser window: scipy.signal.windows.kaiser(taps, beta), bit for bit."""
    alpha = (taps - 1) / 2.0
    n = np.arange(taps, dtype=np.float64)
    return i0(beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / i0(beta)


def _windowed_sinc(ratio: float, window: np.ndarray) -> np.ndarray:
    n = np.arange(len(window)) - (len(window) - 1) / 2.0
    return ratio * np.sinc(ratio * n) * window


def _minimize_bounded(func, lo: float, hi: float, xatol: float, maxiter: int) -> float:
    """Bounded Brent minimization of a scalar function on [lo, hi].

    A port of scipy.optimize.minimize_scalar(method="bounded"): the same
    steps in the same order, so it returns the same x bit for bit.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + (xm - xf == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf


def design_prototype(spec: FilterbankSpec) -> np.ndarray:
    """Kaiser-windowed sinc lowpass for the band edge pi/(2N).

    The sinc frequency is chosen so the response is ~3 dB down at the
    band edge (power-complementary crossover); a plain sinc at pi/(2N)
    would cross at -6 dB and leave a large distortion ripple.
    """
    spec.validate()
    proto = _unscaled_prototype(spec.prototype_taps, spec.n_bands, KAISER_BETA)
    return proto * spec.dc_sum_target / proto.sum()


@lru_cache(maxsize=8)
def _unscaled_prototype(taps: int, n_bands: int, beta: float) -> np.ndarray:
    """design_prototype's optimizer run, done once per distinct setting.

    The ratio minimizes the ripple of |P(w)|^2 + |P(pi/N - w)|^2 over the
    crossover region: a coarse grid, then bounded Brent between the grid
    neighbours of the best point. The DFT rows at w and at pi/N - w do not
    depend on the ratio, so they are built once.
    """
    window = _kaiser(taps, beta)
    n = np.arange(taps)
    w = np.linspace(0.0, np.pi / n_bands, 257)
    dft_lo = np.exp(-1j * np.outer(w, n))
    dft_hi = np.exp(-1j * np.outer(np.pi / n_bands - w, n))

    def ripple(ratio: float) -> float:
        p = _windowed_sinc(ratio, window)
        d = np.abs(dft_lo @ p) ** 2 + np.abs(dft_hi @ p) ** 2
        return (d.max() - d.min()) / d.mean()

    base = 1.0 / (2 * n_bands)
    grid = np.linspace(base * 1.0001, base * 1.35, 64)
    i = int(np.argmin([ripple(r) for r in grid]))
    ratio = _minimize_bounded(ripple, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                              xatol=1e-9, maxiter=500)
    proto = _windowed_sinc(ratio, window)
    proto.setflags(write=False)
    return proto


@dataclass
class BandSignals:
    """Equal-length critically sampled band sequences, shape (..., n_bands, M)."""

    bands: np.ndarray
    band_rate: float


class Filterbank:
    """Analysis/synthesis pair built from one prototype.

    `filters` holds the synthesis filters, one row per band; the analysis
    filters are those rows time-reversed. Both directions run on the taps/N
    polyphase blocks F_q = filters[:, qN:(q+1)N], so analysis computes only
    the outputs it keeps and synthesis never zero-stuffs.
    """

    def __init__(self, spec: FilterbankSpec | None = None):
        self.spec = spec or FilterbankSpec()
        self.prototype = design_prototype(self.spec)
        taps = self.spec.prototype_taps
        k = np.arange(self.spec.n_bands)[:, None]
        phase = (np.arange(taps) - (taps - 1) / 2.0) * np.pi / (2 * self.spec.n_bands)
        self.filters = 2.0 * self.prototype * np.cos((2 * k + 1) * phase - (-1.0) ** k * np.pi / 4.0)

    @property
    def group_delay(self) -> int:
        """Total analysis+synthesis delay in samples."""
        return self.spec.prototype_taps - 1

    def analyze(self, samples: np.ndarray, sample_rate: float = 0.0) -> BandSignals:
        """Split (..., L) samples into (..., n_bands, M) critically sampled bands.

        M = ceil(L/N) + taps/N, so the tail is fully represented. Each row
        of a batch gets the same bands as when it is analyzed alone.
        """
        samples = np.asarray(samples, dtype=np.float64)
        n_bands, taps = self.spec.n_bands, self.spec.prototype_taps
        n_blocks = taps // n_bands
        lead, length = samples.shape[:-1], samples.shape[-1]
        m = (length + n_bands - 1) // n_bands + n_blocks
        padded = np.zeros(lead + ((m + n_blocks - 1) * n_bands,))
        padded[..., taps - 1 : taps - 1 + length] = samples
        blocks = padded.reshape(lead + (-1, n_bands))
        bands = blocks[..., :m, :] @ self.filters[:, :n_bands].T
        for q in range(1, n_blocks):
            bands += blocks[..., q : q + m, :] @ self.filters[:, q * n_bands : (q + 1) * n_bands].T
        return BandSignals(np.swapaxes(bands, -1, -2),
                           band_rate=sample_rate / n_bands if sample_rate else 0.0)

    def synthesize(self, bands: BandSignals | np.ndarray) -> np.ndarray:
        """Recombine bands; returns the full convolution (length M*N + taps - 1).

        synthesize(analyze(x)) reproduces x delayed by group_delay samples.
        """
        arr = bands.bands if isinstance(bands, BandSignals) else np.asarray(bands, dtype=np.float64)
        n_bands, taps = self.spec.n_bands, self.spec.prototype_taps
        if arr.shape[0] != n_bands:
            raise ConfigError(f"expected {n_bands} bands, got {arr.shape[0]}")
        m = arr.shape[1]
        out = np.zeros((m + taps // n_bands, n_bands))
        for q in range(taps // n_bands):
            out[q : q + m] += arr.T @ self.filters[:, q * n_bands : (q + 1) * n_bands]
        return out.ravel()[: m * n_bands + taps - 1]

    def round_trip(self, samples: np.ndarray) -> np.ndarray:
        """Analysis + synthesis, delay-compensated to align with the input."""
        rebuilt = self.synthesize(self.analyze(samples))
        return rebuilt[self.group_delay : self.group_delay + len(samples)]


def snr_db(reference: np.ndarray, test: np.ndarray) -> float:
    """Signal-to-noise ratio of test against reference, in dB."""
    reference = np.asarray(reference, dtype=np.float64)
    noise = np.asarray(test, dtype=np.float64) - reference
    denom = np.sum(noise**2)
    if denom == 0:
        return np.inf
    return float(10.0 * np.log10(np.sum(reference**2) / denom))

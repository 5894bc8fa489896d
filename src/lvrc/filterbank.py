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

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError

KAISER_BETA = 9.0


# Cephes i0's Chebyshev coefficients: exp(-x) I0(x) in x/2 - 2 on [0, 8], and
# exp(-x) sqrt(x) I0(x) in 32/x - 2 above 8.
_I0_A = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17, -2.43127984654795469359e-16,
    1.71539128555513303061e-15, -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12, -1.72682629144155570723e-11,
    9.67580903537323691224e-11, -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8, -2.67079385394061173391e-7,
    1.11738753912010371815e-6, -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4, -5.76375574538582365885e-4,
    1.63947561694133579842e-3, -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2, -9.49010970480476444210e-2,
    1.71620901522208775349e-1, -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)
_I0_B = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18, 4.46562142029675999901e-17,
    3.46122286769746109310e-17, -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15, -9.55484669882830764870e-15,
    -4.15056934728722208663e-14, 1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12, -1.32158118404477131188e-11,
    -3.14991652796324136454e-11, 1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-9, 2.26666899049817806459e-8, 2.04891858946906374183e-7,
    2.89137052083475648297e-6, 6.88975834691682398426e-5, 3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)


def _chbevl(x: float, coefs) -> float:
    """The Chebyshev series `coefs` at x by Clenshaw's recurrence (Cephes chbevl)."""
    b0, b1, b2 = coefs[0], 0.0, 0.0
    for c in coefs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0(x: float) -> float:
    """Modified Bessel function I0: a port of Cephes i0, equal to
    scipy.special.i0 bit for bit.

    Python floats and the C library's exp, as in the C; np.i0 evaluates the
    same series with numpy's exp, which differs in the last bit.
    """
    x = abs(x)
    if x <= 8.0:
        return math.exp(x) * _chbevl(x / 2.0 - 2.0, _I0_A)
    return math.exp(x) * _chbevl(32.0 / x - 2.0, _I0_B) / math.sqrt(x)


def _kaiser(taps: int, beta: float) -> np.ndarray:
    """Symmetric Kaiser window: scipy.signal.windows.kaiser(taps, beta), bit for bit.

    Its I0 is `_i0`, a Cephes port equal to scipy.special.i0 bit for bit,
    one element at a time: the window has at most a few hundred taps.
    """
    alpha = (taps - 1) / 2.0
    n = np.arange(taps, dtype=np.float64)
    args = beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)
    return np.array([_i0(a) for a in args.tolist()]) / _i0(beta)


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


def design_prototype(n_bands: int, taps: int) -> np.ndarray:
    """Kaiser-windowed sinc lowpass for the band edge pi/(2N), summing to sqrt(N).

    The sinc frequency is chosen so the response is ~3 dB down at the
    band edge (power-complementary crossover); a plain sinc at pi/(2N)
    would cross at -6 dB and leave a large distortion ripple. ConfigError
    unless n_bands >= 2 and taps is a multiple of 2 * n_bands.
    """
    if n_bands < 2 or taps % (2 * n_bands) != 0:
        raise ConfigError("need n_bands >= 2 and taps a multiple of 2*n_bands")
    proto = _unscaled_prototype(taps, n_bands, KAISER_BETA)
    return proto * np.sqrt(n_bands) / proto.sum()


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


class Filterbank:
    """Analysis/synthesis pair built from one prototype.

    `filters` holds the synthesis filters, one row per band; the analysis
    filters are those rows time-reversed. Both directions run on the taps/N
    polyphase blocks F_q = filters[:, qN:(q+1)N], so analysis computes only
    the outputs it keeps and synthesis never zero-stuffs.
    """

    def __init__(self, n_bands: int, taps: int):
        self.n_bands, self.taps = n_bands, taps
        self.prototype = design_prototype(n_bands, taps)
        k = np.arange(n_bands)[:, None]
        phase = (np.arange(taps) - (taps - 1) / 2.0) * np.pi / (2 * n_bands)
        self.filters = 2.0 * self.prototype * np.cos((2 * k + 1) * phase - (-1.0) ** k * np.pi / 4.0)

    @property
    def group_delay(self) -> int:
        """Total analysis+synthesis delay in samples."""
        return self.taps - 1

    def analyze(self, samples: np.ndarray) -> np.ndarray:
        """Split (..., L) samples into (..., n_bands, M) critically sampled bands.

        M = ceil(L/N) + taps/N, so the tail is fully represented. Each row
        of a batch gets the same bands as when it is analyzed alone.
        """
        samples = np.asarray(samples, dtype=np.float64)
        n_bands, taps = self.n_bands, self.taps
        n_blocks = taps // n_bands
        lead, length = samples.shape[:-1], samples.shape[-1]
        m = (length + n_bands - 1) // n_bands + n_blocks
        padded = np.zeros(lead + ((m + n_blocks - 1) * n_bands,))
        padded[..., taps - 1 : taps - 1 + length] = samples
        blocks = padded.reshape(lead + (-1, n_bands))
        bands = blocks[..., :m, :] @ self.filters[:, :n_bands].T
        for q in range(1, n_blocks):
            bands += blocks[..., q : q + m, :] @ self.filters[:, q * n_bands : (q + 1) * n_bands].T
        return np.swapaxes(bands, -1, -2)

    def synthesize(self, bands: np.ndarray) -> np.ndarray:
        """Recombine bands; returns the full convolution (length M*N + taps - 1).

        synthesize(analyze(x)) reproduces x delayed by group_delay samples.
        """
        arr = np.asarray(bands, dtype=np.float64)
        n_bands, taps = self.n_bands, self.taps
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

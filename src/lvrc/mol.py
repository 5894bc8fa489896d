"""Mixture-of-logistics predictive distribution.

Parameterization, stable log-likelihood, sampling, closed-form mixture
variance, the two predictive-variance regularizers (linear and log) and
the broad-baseline mixture variant. `head_terms` is the training head's
one forward/backward: it constrains the raw output once and returns the
NLL, the mixture variance and the regularizer with their exact gradients
w.r.t. the unconstrained parameters.

All functions are vectorized: parameter arrays carry the mixture axis
last, and an arbitrary batch shape in front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

S_MIN = 1e-4
S_MAX = 10.0
UNIFORM_EPS = 1e-7

_PI2_3 = np.pi**2 / 3.0


@dataclass
class MoLParams:
    """Constrained mixture parameters: weights on the simplex, positive scales."""

    gammas: np.ndarray
    mus: np.ndarray
    scales: np.ndarray

    @property
    def batch_shape(self) -> tuple:
        return self.gammas.shape[:-1]


@dataclass
class RawMoLParams:
    """Unconstrained parameters: weight logits, locations, log scales."""

    logits: np.ndarray
    locs: np.ndarray
    log_scales: np.ndarray

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_mix: int) -> "RawMoLParams":
        """Split a (..., 3K) projection output into (logits, locs, log_scales)."""
        if flat.shape[-1] != 3 * n_mix:
            raise ValueError(f"expected trailing dim {3 * n_mix}, got {flat.shape[-1]}")
        return cls(
            logits=flat[..., :n_mix],
            locs=flat[..., n_mix : 2 * n_mix],
            log_scales=flat[..., 2 * n_mix :],
        )


@dataclass
class BaselineSpec:
    """Designer-set broad component mixed in during training only."""

    gamma0: float
    mu0: float = 0.0
    s0: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.gamma0 < 1.0:
            raise ConfigError("gamma0 must be in [0, 1)")


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def constrain(raw: RawMoLParams) -> MoLParams:
    """Map unconstrained parameters to valid mixture parameters.

    Weights via softmax, scales via exp clamped to [S_MIN, S_MAX],
    locations passed through.
    """
    for arr in (raw.logits, raw.locs, raw.log_scales):
        if not np.all(np.isfinite(arr)):
            raise NumericError("raw mixture parameters must be finite")
    return MoLParams(
        gammas=softmax(raw.logits),
        mus=np.asarray(raw.locs, dtype=np.float64).copy(),
        scales=np.clip(np.exp(raw.log_scales), S_MIN, S_MAX),
    )


def logistic_log_pdf(x, mus, scales):
    """Elementwise log density of the logistic distribution, stable in the tails."""
    z = (np.asarray(x, dtype=np.float64)[..., None] - mus) / scales
    return -z - 2.0 * softplus(-z) - np.log(scales)


def _log_weighted_pdfs(x, p: MoLParams):
    return np.log(p.gammas) + logistic_log_pdf(x, p.mus, p.scales)


def log_prob(x, p: MoLParams):
    """log sum_k gamma_k * logistic(x; mu_k, s_k), via log-sum-exp."""
    w = _log_weighted_pdfs(x, p)
    m = np.max(w, axis=-1)
    return m + np.log(np.sum(np.exp(w - m[..., None]), axis=-1))


def sample_noise(rng: np.random.Generator, calls: int, batch: int) -> np.ndarray:
    """The random input of `calls` calls of `sample` on `batch` mixtures, (calls, 2, batch).

    Row [c, 0] holds call c's component uniforms and row [c, 1] its
    standard logistic variates ln(u / (1 - u)), with u clipped to
    [UNIFORM_EPS, 1 - UNIFORM_EPS]. The uniforms are drawn in that order,
    call after call: the same stream as drawing each call's component
    uniforms and then its logistic uniforms.
    """
    noise = rng.random((calls, 2, batch))
    u = np.clip(noise[:, 1], UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    noise[:, 1] = np.log(u) - np.log1p(-u)
    return noise


def sample(flat: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Draws from mixtures given as flat (..., 3K) output-layer rows.

    Each row holds K weight logits, K locations and K log scales, as in
    `RawMoLParams.from_flat`. `noise` is one call's (2, ...) slice of
    `sample_noise`; there is one draw per column of it, and the rows
    broadcast against the columns (one row serves them all). The component
    k is the first whose cumulative softmax weight exceeds the uniform,
    and the draw is mu_k + s_k * variate, with s_k = exp(log scale)
    clamped to [S_MIN, S_MAX]. Draws equal those from the `constrain`ed
    parameters; only the chosen component's scale is computed.
    """
    if not np.isfinite(flat).all():
        raise NumericError("raw mixture parameters must be finite")
    k = flat.shape[-1] // 3
    rows = flat.reshape(-1, 3 * k)
    logits = np.asarray(rows[:, :k], dtype=np.float64)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    cum = np.cumsum(e / e.sum(axis=1, keepdims=True), axis=1)
    u_comp, variate = noise.reshape(2, -1)
    # counting over the first K - 1 sums caps k at K - 1 if rounding leaves the total below u
    pick = (u_comp[:, None] >= cum[:, :-1]).sum(axis=1)
    at = np.arange(len(rows))
    s_k = np.minimum(np.maximum(np.exp(rows[at, 2 * k + pick]), S_MIN), S_MAX)
    return (rows[at, k + pick] + s_k * variate).reshape(noise.shape[1:])


def sample_n(p: MoLParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n iid draws from a single (unbatched) mixture with positive weights."""
    if p.batch_shape != ():
        raise ValueError("sample_n expects unbatched parameters")
    flat = np.concatenate([np.log(p.gammas), p.mus, np.log(p.scales)])
    return sample(flat, sample_noise(rng, 1, n)[0])


def mixture_mean(p: MoLParams):
    return np.sum(p.gammas * p.mus, axis=-1)


def mixture_variance(p: MoLParams):
    """sigma_q^2 = sum_k gamma_k (s_k^2 pi^2/3 + mu_k^2) - (sum_k gamma_k mu_k)^2."""
    second = np.sum(p.gammas * (p.scales**2 * _PI2_3 + p.mus**2), axis=-1)
    return second - mixture_mean(p) ** 2


def jvar_linear(p: MoLParams) -> float:
    """Mean predictive variance over the batch."""
    var = np.asarray(mixture_variance(p))
    if var.size == 0:
        raise ValueError("empty batch")
    return float(np.mean(var))


def jvar_log(p: MoLParams, a: float) -> float:
    """Mean of ln(sigma_q + a) over the batch; a provides the floor."""
    if a <= 0:
        raise ConfigError("floor a must be positive")
    var = np.asarray(mixture_variance(p))
    if var.size == 0:
        raise ValueError("empty batch")
    return float(np.mean(np.log(np.sqrt(np.maximum(var, 0.0)) + a)))


def baseline_log_prob(x, raw: RawMoLParams, spec: BaselineSpec, mode: str):
    """Log density of the mixture augmented with a fixed broad component.

    Train mode evaluates gamma0 * q0 + (1 - gamma0) * sum_k gamma_k q_k,
    where the K learned weights sum to 1 - gamma0. Infer mode drops the
    broad component and renormalizes by 1/(1 - gamma0), which is exactly
    the plain K-component mixture. gamma0 = 0 reproduces log_prob
    bit-for-bit in both modes.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    main = log_prob(x, constrain(raw))
    if mode == "infer":
        return main
    return _with_baseline(x, main, spec)


def _with_baseline(x, main, spec: BaselineSpec):
    """Train-mode log density given main = log q(x) of the learned mixture."""
    log_g0 = np.log(spec.gamma0) if spec.gamma0 > 0.0 else -np.inf
    z0 = (np.asarray(x, dtype=np.float64) - spec.mu0) / spec.s0
    base_log_pdf = -z0 - 2.0 * softplus(-z0) - np.log(spec.s0)
    return np.logaddexp(log_g0 + base_log_pdf, np.log1p(-spec.gamma0) + main)


def scale_active(raw: RawMoLParams) -> np.ndarray:
    """Clamp mask: 1 where the exp link of a scale is inside [S_MIN, S_MAX], else 0."""
    s_raw = np.exp(np.asarray(raw.log_scales, dtype=np.float64))
    return ((s_raw > S_MIN) & (s_raw < S_MAX)).astype(np.float64)


def nll_grad(x, p: MoLParams, active: np.ndarray):
    """Negative log-likelihood and its exact gradient w.r.t. raw parameters.

    `p` is the constrained mixture and `active` its clamp mask. Returns
    (nll, d_logits, d_locs, d_log_scales), each with the batch shape of x
    (gradients carry the trailing mixture axis).
    """
    w = _log_weighted_pdfs(x, p)
    m = np.max(w, axis=-1, keepdims=True)
    e = np.exp(w - m)
    denom = np.sum(e, axis=-1, keepdims=True)
    nll = -(m[..., 0] + np.log(denom[..., 0]))
    resp = e / denom

    z = (np.asarray(x, dtype=np.float64)[..., None] - p.mus) / p.scales
    th = np.tanh(0.5 * z)

    d_logits = p.gammas - resp
    d_locs = -resp * th / p.scales
    d_log_scales = -resp * (z * th - 1.0) * active
    return nll, d_logits, d_locs, d_log_scales


def variance_grad(p: MoLParams, active: np.ndarray):
    """Mixture variance and its gradient w.r.t. raw parameters."""
    mean = mixture_mean(p)
    var = mixture_variance(p)
    centered = p.mus - mean[..., None]

    d_logits = p.gammas * (p.scales**2 * _PI2_3 + centered**2 - var[..., None])
    d_locs = 2.0 * p.gammas * centered
    d_log_scales = 2.0 * _PI2_3 * p.gammas * p.scales**2 * active
    return var, d_logits, d_locs, d_log_scales


def reg_grad(p: MoLParams, active: np.ndarray, a: float, regularizer: str):
    """Per-element regularization term and gradient w.r.t. raw parameters.

    'linear' is sigma_q^2; 'log' is ln(sigma_q + a).
    """
    var, dl, dm, ds = variance_grad(p, active)
    if regularizer == "linear":
        return var, dl, dm, ds
    if regularizer == "log":
        sigma = np.sqrt(np.maximum(var, 0.0))
        term = np.log(sigma + a)
        scale = (1.0 / (2.0 * sigma * (sigma + a)))[..., None]
        return term, scale * dl, scale * dm, scale * ds
    raise ConfigError(f"unknown regularizer {regularizer!r}")


@dataclass
class HeadTerms:
    """Per-element terms of the teacher-forced objective.

    Gradients are w.r.t. the raw parameters and are held in RawMoLParams.
    """

    nll: np.ndarray  # (..., N)
    d_nll: RawMoLParams  # (..., N, K)
    var: np.ndarray  # (..., N) mixture variance on every band
    reg: np.ndarray  # (..., reg_bands)
    d_reg: RawMoLParams  # (..., reg_bands, K)


def head_terms(x, raw: RawMoLParams, reg_bands: int, a: float = 1e-4,
               regularizer: str = "log", baseline: BaselineSpec | None = None) -> HeadTerms:
    """NLL, mixture variance and regularizer with their gradients, from one constrain.

    x has shape (..., N) with one target per band; raw carries the mixture
    axis after it. The regularizer covers the first `reg_bands` bands.
    With a baseline of gamma0 > 0 the NLL is that of the train-mode
    density, and its gradient is the plain mixture's scaled by
    (1 - gamma0) q(x) / q_train(x), the learned components' share of it.
    """
    p = constrain(raw)
    active = scale_active(raw)
    nll, dl, dm, ds = nll_grad(x, p, active)
    if baseline is not None and baseline.gamma0 > 0.0:
        main = -nll
        nll = -_with_baseline(x, main, baseline)
        w = np.exp(np.log1p(-baseline.gamma0) + main + nll)[..., None]
        dl, dm, ds = w * dl, w * dm, w * ds
    low = MoLParams(p.gammas[..., :reg_bands, :], p.mus[..., :reg_bands, :],
                    p.scales[..., :reg_bands, :])
    term, rl, rm, rs = reg_grad(low, active[..., :reg_bands, :], a, regularizer)
    return HeadTerms(nll, RawMoLParams(dl, dm, ds), mixture_variance(p),
                     term, RawMoLParams(rl, rm, rs))

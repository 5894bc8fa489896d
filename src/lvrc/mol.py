"""Mixture-of-logistics predictive distribution.

Parameterization, stable log-likelihood, sampling, the closed-form
mixture moments, the two predictive-variance regularizers (linear and
log) and the training-only broad baseline component.

The unconstrained form is the output layer's flat (..., 3K) row: K weight
logits, K locations and K log scales. `constrain` and `sample` read such
rows, and gradients w.r.t. them come back in the same (..., 3K) layout.
`head_terms` is the training head's one forward/backward: it constrains
the rows and takes the mixture moments once, and returns the NLL, the
mixture variance and the regularizer, with their exact gradients unless
asked for none.

The baseline q0 is a fixed logistic (BASELINE_MU0, BASELINE_S0). With a
weight gamma0 > 0, `head_terms` scores the targets under gamma0 q0 +
(1 - gamma0) q, which bounds an outlier's NLL. Inference drops q0 and
renormalizes: the plain mixture q, which `log_prob` and `sample` use.

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
BASELINE_MU0 = 0.0
BASELINE_S0 = 5.0

_PI2_3 = np.pi**2 / 3.0


@dataclass
class MoLParams:
    """Constrained mixture parameters: weights on the simplex, positive scales."""

    gammas: np.ndarray
    mus: np.ndarray
    scales: np.ndarray


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _n_mix(flat) -> int:
    width = flat.shape[-1]
    if width == 0 or width % 3:
        raise ValueError(f"expected a trailing dim of 3K, got {width}")
    return width // 3


def constrain(flat: np.ndarray) -> MoLParams:
    """Map flat (..., 3K) rows to valid mixture parameters.

    Weights via softmax of the logits, scales via exp of the log scales
    clamped to [S_MIN, S_MAX], locations passed through. Non-finite rows
    give non-finite parameters; `teacher_forced` reports them by its loss.
    """
    k = _n_mix(flat)
    return MoLParams(
        gammas=softmax(flat[..., :k]),
        mus=np.asarray(flat[..., k : 2 * k], dtype=np.float64).copy(),
        scales=np.clip(np.exp(flat[..., 2 * k :]), S_MIN, S_MAX),
    )


def logistic_log_pdf(x, mus, scales):
    """Elementwise log density of the logistic distribution, stable in the tails."""
    z = (np.asarray(x, dtype=np.float64)[..., None] - mus) / scales
    return -z - 2.0 * softplus(-z) - np.log(scales)


def _log_weighted_pdfs(x, p: MoLParams):
    return np.log(p.gammas) + logistic_log_pdf(x, p.mus, p.scales)


def _logsumexp(w):
    """log sum exp over the mixture axis, with the shifted exponentials and their sum."""
    m = np.max(w, axis=-1, keepdims=True)
    e = np.exp(w - m)
    denom = np.sum(e, axis=-1, keepdims=True)
    return m[..., 0] + np.log(denom[..., 0]), e, denom


def log_prob(x, p: MoLParams):
    """log sum_k gamma_k * logistic(x; mu_k, s_k), via log-sum-exp."""
    return _logsumexp(_log_weighted_pdfs(x, p))[0]


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

    Each row holds K weight logits, K locations and K log scales, the
    layout `constrain` reads. `noise` is one call's (2, ...) slice of
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


def mixture_moments(p: MoLParams):
    """(mean, variance), the variance being
    sigma_q^2 = sum_k gamma_k (s_k^2 pi^2/3 + mu_k^2) - (sum_k gamma_k mu_k)^2."""
    second = np.sum(p.gammas * (p.scales**2 * _PI2_3 + p.mus**2), axis=-1)
    mean = np.sum(p.gammas * p.mus, axis=-1)
    return mean, second - mean**2


def reg_term(var, a: float, regularizer: str):
    """Per-element regularizer of the mixture variance: 'linear' is sigma_q^2,
    'log' is ln(sigma_q + a)."""
    if regularizer == "linear":
        return var
    if regularizer == "log":
        return np.log(np.sqrt(np.maximum(var, 0.0)) + a)
    raise ConfigError(f"unknown regularizer {regularizer!r}")


def _with_baseline(x, main, gamma0: float):
    """Train-mode log density log(gamma0 q0(x) + (1 - gamma0) q(x)), given
    main = log q(x) of the learned mixture and gamma0 > 0."""
    base_log_pdf = logistic_log_pdf(x, BASELINE_MU0, BASELINE_S0)[..., 0]
    return np.logaddexp(np.log(gamma0) + base_log_pdf, np.log1p(-gamma0) + main)


def nll_grad(x, p: MoLParams, active: np.ndarray):
    """Negative log-likelihood and its exact gradient w.r.t. the flat rows.

    `p` is the constrained mixture and `active` its clamp mask. Returns
    (nll, d): nll has the batch shape of x, and d the (..., 3K) layout.
    """
    lse, e, denom = _logsumexp(_log_weighted_pdfs(x, p))
    resp = e / denom

    z = (np.asarray(x, dtype=np.float64)[..., None] - p.mus) / p.scales
    th = np.tanh(0.5 * z)

    return -lse, np.concatenate([p.gammas - resp, -resp * th / p.scales,
                                 -resp * (z * th - 1.0) * active], axis=-1)


def variance_grad(p: MoLParams, active: np.ndarray, mean, var):
    """Gradient of the mixture variance w.r.t. the flat rows, given `mixture_moments(p)`."""
    centered = p.mus - mean[..., None]
    return np.concatenate([
        p.gammas * (p.scales**2 * _PI2_3 + centered**2 - var[..., None]),
        2.0 * p.gammas * centered,
        2.0 * _PI2_3 * p.gammas * p.scales**2 * active,
    ], axis=-1)


def reg_grad(p: MoLParams, active: np.ndarray, mean, var, a: float, regularizer: str):
    """Per-element `reg_term` and its gradient w.r.t. the flat rows, given
    `mixture_moments(p)`."""
    d = variance_grad(p, active, mean, var)
    term = reg_term(var, a, regularizer)
    if regularizer == "log":
        sigma = np.sqrt(np.maximum(var, 0.0))
        d *= (1.0 / (2.0 * sigma * (sigma + a)))[..., None]
    return term, d


@dataclass
class HeadTerms:
    """Per-element terms of the teacher-forced objective.

    Gradients are w.r.t. the flat rows, in their (..., 3K) layout, and
    are None when the head was asked for none.
    """

    nll: np.ndarray  # (..., N)
    var: np.ndarray  # (..., N) mixture variance on every band
    reg: np.ndarray  # (..., reg_bands)
    d_nll: np.ndarray | None = None  # (..., N, 3K)
    d_reg: np.ndarray | None = None  # (..., reg_bands, 3K)


def head_terms(x, flat: np.ndarray, reg_bands: int, a: float = 1e-4,
               regularizer: str = "log", gamma0: float = 0.0,
               grads: bool = True) -> HeadTerms:
    """NLL, mixture variance and regularizer, and their gradients, from one
    constrain and one `mixture_moments`.

    x has shape (..., N) with one target per band; flat carries the (3K)
    row axis after it. The regularizer covers the first `reg_bands` bands.
    With a baseline weight gamma0 > 0 the NLL is that of the train-mode
    density, and its gradient is the plain mixture's scaled by
    (1 - gamma0) q(x) / q_train(x), the learned components' share of it.
    Without `grads` the same terms come from the same expressions, and no
    gradient is computed.
    """
    p = constrain(flat)
    mean, var = mixture_moments(p)
    low = MoLParams(p.gammas[..., :reg_bands, :], p.mus[..., :reg_bands, :],
                    p.scales[..., :reg_bands, :])
    if grads:
        # the clip leaves exactly the in-range scales strictly inside it
        active = ((p.scales > S_MIN) & (p.scales < S_MAX)).astype(np.float64)
        nll, d_nll = nll_grad(x, p, active)
        reg, d_reg = reg_grad(low, active[..., :reg_bands, :], mean[..., :reg_bands],
                              var[..., :reg_bands], a, regularizer)
    else:
        nll, d_nll = -log_prob(x, p), None
        reg, d_reg = reg_term(var[..., :reg_bands], a, regularizer), None
    if gamma0 > 0.0:
        main = -nll
        nll = -_with_baseline(x, main, gamma0)
        if grads:
            d_nll = np.exp(np.log1p(-gamma0) + main + nll)[..., None] * d_nll
    return HeadTerms(nll, var, reg, d_nll, d_reg)

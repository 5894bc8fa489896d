"""Minimal differentiable-layer toolkit on numpy arrays.

Dense, block-diagonal dense, GRU cell (fused sequence helpers for
training, a fused single step for decoding),
causal dilated / non-causal / transpose 1-D convolutions, Adam with
pruning-mask enforcement, and the cubic magnitude-pruning schedule.
Backward functions return exact analytic gradients; the finite-difference
test suite is the correctness contract. Sequence arrays are (batch, time,
channels); weight matrices are (out, in); convolution kernels are
(kernel, out, in).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError


@dataclass
class Parameter:
    """Trainable array with its gradient accumulator and optional pruning mask."""

    name: str
    value: np.ndarray
    grad: np.ndarray = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def apply_mask(self) -> None:
        if self.mask is not None:
            self.value *= self.mask

    @property
    def sparsity(self) -> float:
        if self.mask is None:
            return 0.0
        return float(1.0 - self.mask.mean())


def init_weight(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=np.float64) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# dense and block-diagonal dense
# ---------------------------------------------------------------------------

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """y = x @ w.T + b over the trailing axis."""
    y = x @ w.T
    if b is not None:
        y = y + b
    return y

def dense_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    """Returns (dx, dw, db) for y = x @ w.T + b."""
    dx = dy @ w
    dw = _matmul_weight_grad(x, w, dy)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    return dx, dw, db


def block_diagonal_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Blockwise y = x @ W.T with w of shape (blocks, out_b, in_b).

    Output block j depends only on input block j; total parameter count is
    out*in/blocks of the dense equivalent. blocks == 1 takes the dense
    path and matches dense_forward bit for bit.
    """
    blocks, out_b, in_b = w.shape
    if blocks == 1:
        return dense_forward(x, w[0], b)
    lead = x.shape[:-1]
    xb = x.reshape(*lead, blocks, in_b)
    y = np.einsum("...ki,koi->...ko", xb, w).reshape(*lead, blocks * out_b)
    if b is not None:
        y = y + b
    return y

def block_diagonal_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    blocks, out_b, in_b = w.shape
    if blocks == 1:
        dx, dw, db = dense_backward(x, w[0], dy)
        return dx, dw[None], db
    lead = x.shape[:-1]
    dyb = dy.reshape(-1, blocks, out_b)
    dx = np.einsum("nko,koi->nki", dyb, w).reshape(*lead, blocks * in_b)
    dw = _matmul_weight_grad(x, w, dy)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    return dx, dw, db


def _matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return dense_forward(x, w) if w.ndim == 2 else block_diagonal_forward(x, w)

def _matmul_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    if w.ndim == 2:
        return dense_backward(x, w, dy)
    return block_diagonal_backward(x, w, dy)


def _matmul_weight_grad(x: np.ndarray, w: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dw of _matmul_backward alone, for an input that needs no gradient."""
    if w.ndim == 2:
        return dy.reshape(-1, dy.shape[-1]).T @ x.reshape(-1, x.shape[-1])
    blocks, out_b, in_b = w.shape
    return np.einsum("nko,nki->koi", dy.reshape(-1, blocks, out_b), x.reshape(-1, blocks, in_b))


def block_parameter_count(size_out: int, size_in: int, blocks: int) -> int:
    if size_out % blocks or size_in % blocks:
        raise ConfigError("dims must be divisible by the block count")
    return (size_out // blocks) * (size_in // blocks) * blocks


# ---------------------------------------------------------------------------
# GRU cell
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return expit(x)


class GRUCell:
    """Standard GRU: z, r gates and candidate, h' = (1-z)*h + z*cand.

    With blocks > 1 the six gate matrices are block-diagonal (the pruned
    deployment structure); blocks == 1 is the dense layout.
    """

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator,
                 blocks: int = 1, name: str = "gru", dtype=np.float64):
        if blocks > 1 and (hidden % blocks or input_dim % blocks):
            raise ConfigError("hidden and input dims must be divisible by blocks")
        self.input_dim = input_dim
        self.hidden = hidden
        self.blocks = blocks
        self.params: dict[str, Parameter] = {}

        def make(tag, rows, cols):
            if blocks == 1:
                value = init_weight(rng, (rows, cols), cols, rows, dtype)
            else:
                rb, cb = rows // blocks, cols // blocks
                value = init_weight(rng, (blocks, rb, cb), cb, rb, dtype)
            p = Parameter(f"{name}.{tag}", value)
            self.params[tag] = p
            return p

        for gate in ("z", "r", "h"):
            make(f"U{gate}", hidden, input_dim)
            make(f"R{gate}", hidden, hidden)
            self.params[f"b{gate}"] = Parameter(f"{name}.b{gate}", np.zeros(hidden, dtype))

    def _w(self, tag):
        return self.params[tag].value

    def input_gates(self, x: np.ndarray, bias: bool = True) -> np.ndarray:
        """Input-side gate pre-activations U x (+ b) for x (..., D), laid out for `step`.

        The last axis holds block after block the block's z, r and
        candidate pre-activations (hb values each), 3H in all. The products
        are linear in x, so a caller can split an input and add the parts'
        gates, with the bias in one part only.
        """
        lead = x.shape[:-1]
        blocks = self.blocks
        xb = x.reshape(-1, blocks, x.shape[-1] // blocks).transpose(1, 0, 2)
        y = xb @ self._stacked_t("Uz", "Ur", "Uh")  # (blocks, rows, 3hb)
        if bias:
            y += np.concatenate([self._w(f"b{g}").reshape(blocks, 1, -1) for g in "zrh"], axis=2)
        return y.transpose(1, 0, 2).reshape(*lead, 3 * self.hidden)

    def step_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The recurrent matrices as `step` reads them, built once per decode.

        [Rz; Rr] stacked as (blocks, hb, 2hb) and Rh as (blocks, hb, hb),
        each pre-transposed for right-multiplication by the state; dense
        is blocks = 1. The arrays are copies, so rebuild them after a
        weight update.
        """
        return self._stacked_t("Rz", "Rr"), self._stacked_t("Rh")

    def step(self, gates: np.ndarray, h: np.ndarray, weights) -> np.ndarray:
        """One update of state h (B, H) from input-gate pre-activations (B, 3H).

        `gates` is laid out as `input_gates` returns it and `weights` is
        `step_weights()`. Per step this does one matmul over [Rz; Rr],
        one sigmoid over both gates and one matmul over Rh.
        """
        rzr, rh = weights
        blocks, hb, _ = rh.shape
        batch = h.shape[0]
        g = gates.reshape(batch, blocks, 1, 3 * hb)
        h4 = h.reshape(batch, blocks, 1, hb)
        zr = _sigmoid(g[..., : 2 * hb] + h4 @ rzr)
        z, r = zr[..., :hb], zr[..., hb:]
        cand = np.tanh(g[..., 2 * hb :] + (r * h4) @ rh)
        return ((1.0 - z) * h4 + z * cand).reshape(batch, self.hidden)

    def _stacked_t(self, *tags):
        """Gate matrices as one contiguous (blocks, in_b, sum of out_b) array for
        right-multiplication, side by side per block; dense is one block."""
        wts = (self._transposed_gate(tag) for tag in tags)
        return np.concatenate([wt if wt.ndim == 3 else wt[None] for wt in wts], axis=2)

    def _transposed_gate(self, tag):
        """Gate matrix prepared for right-multiplication by the state."""
        w = self._w(tag)
        return w.T if w.ndim == 2 else w.transpose(0, 2, 1)

    @staticmethod
    def _apply_t(h, wt):
        """h @ W.T given the pre-transposed W (dense or block layout)."""
        if wt.ndim == 2:
            return h @ wt
        blocks, in_b, out_b = wt.shape
        hb = h.reshape(h.shape[0], blocks, in_b)
        return np.einsum("bki,kio->bko", hb, wt).reshape(h.shape[0], blocks * out_b)

    def forward_sequence(self, xs: np.ndarray, h0: np.ndarray):
        """Run over (B, T, D); returns (states (B, T, H), cache).

        Input-to-gate products for every step are batched into three large
        multiplies before the sequential loop; the z and r recurrences are
        fused into one multiply per step.
        """
        batch, steps, _ = xs.shape
        uz = _matmul(xs, self._w("Uz")) + self._w("bz")
        ur = _matmul(xs, self._w("Ur")) + self._w("br")
        uh = _matmul(xs, self._w("Uh")) + self._w("bh")

        hs = np.empty((batch, steps, self.hidden), dtype=xs.dtype)
        zs = np.empty_like(hs)
        rs = np.empty_like(hs)
        cands = np.empty_like(hs)
        h = h0
        hidden = self.hidden
        rh_t = self._transposed_gate("Rh")
        rzr_t = self._stacked_t("Rz", "Rr")  # (nb, hb, 2hb)
        blocked = rh_t.ndim == 3
        if not blocked:
            rzr_t = rzr_t[0]  # (H, 2H)
        for t in range(steps):
            a = self._apply_t(h, rzr_t)
            if blocked:  # per-block layout interleaves the z and r halves
                a = a.reshape(batch, self.blocks, 2, -1)
                az = a[:, :, 0].reshape(batch, hidden)
                ar = a[:, :, 1].reshape(batch, hidden)
            else:
                az, ar = a[:, :hidden], a[:, hidden:]
            z = _sigmoid(uz[:, t] + az)
            r = _sigmoid(ur[:, t] + ar)
            cand = np.tanh(uh[:, t] + self._apply_t(r * h, rh_t))
            h_new = (1.0 - z) * h + z * cand
            zs[:, t], rs[:, t], cands[:, t], hs[:, t] = z, r, cand, h_new
            h = h_new
        cache = (xs, h0, hs, zs, rs, cands)
        return hs, cache

    def backward_sequence(self, d_hs: np.ndarray, cache):
        """Backprop through time; accumulates weight grads, returns (dxs, dh0)."""
        xs, h0, hs, zs, rs, cands = cache
        batch, steps, _ = xs.shape
        # dx = da @ W contractions inside the loop, weight grads batched after
        rz, rr, rh = self._w("Rz"), self._w("Rr"), self._w("Rh")
        rh_flat = rh if rh.ndim == 2 else None
        rzr = np.concatenate([rz, rr], axis=0) if rz.ndim == 2 else None

        h_prevs = np.concatenate([h0[:, None, :], hs[:, :-1]], axis=1)
        # elementwise factors hoisted out of the sequential loop
        sig_z = zs * (1.0 - zs)
        sig_r = rs * (1.0 - rs)
        dtanh = 1.0 - cands**2
        c_minus_h = cands - h_prevs
        one_minus_z = 1.0 - zs

        daz = np.empty_like(zs)
        dar = np.empty_like(zs)
        dah = np.empty_like(zs)
        dzr = np.empty((batch, 2 * self.hidden), dtype=xs.dtype)
        dh = np.zeros((batch, self.hidden), dtype=xs.dtype)
        for t in range(steps - 1, -1, -1):
            h_prev = h_prevs[:, t]
            dtot = d_hs[:, t] + dh
            da_h = dtot * zs[:, t] * dtanh[:, t]
            if rh_flat is not None:
                drh = da_h @ rh_flat
            else:
                drh = block_diagonal_backward(rs[:, t] * h_prev, rh, da_h)[0]
            da_r = drh * h_prev * sig_r[:, t]
            da_z = dtot * c_minus_h[:, t] * sig_z[:, t]
            if rzr is not None:
                dzr[:, : self.hidden] = da_z
                dzr[:, self.hidden :] = da_r
                dh_rec = dzr @ rzr
            else:
                dh_rec = (
                    block_diagonal_backward(h_prev, rr, da_r)[0]
                    + block_diagonal_backward(h_prev, rz, da_z)[0]
                )
            dh = dtot * one_minus_z[:, t] + drh * rs[:, t] + dh_rec
            daz[:, t], dar[:, t], dah[:, t] = da_z, da_r, da_h

        rh_prev = rs * h_prevs
        dxs = np.zeros_like(xs)
        for tag, da, inp in (
            ("z", daz, h_prevs),
            ("r", dar, h_prevs),
            ("h", dah, rh_prev),
        ):
            dx_u, dw_u, db = _matmul_backward(xs, self._w(f"U{tag}"), da)
            dxs += dx_u
            self.params[f"U{tag}"].grad += dw_u
            self.params[f"R{tag}"].grad += _matmul_weight_grad(inp, self._w(f"R{tag}"), da)
            self.params[f"b{tag}"].grad += db
        return dxs, dh

    def weight_parameter_count(self) -> int:
        """Gate matrix entries only (biases excluded)."""
        return sum(p.value.size for tag, p in self.params.items() if not tag.startswith("b"))


# ---------------------------------------------------------------------------
# 1-D convolutions over (batch, time, channels)
# ---------------------------------------------------------------------------

def _shift_right(x: np.ndarray, amount: int) -> np.ndarray:
    """x delayed by `amount` steps, zero history."""
    if amount == 0:
        return x
    out = np.zeros_like(x)
    out[:, amount:] = x[:, :-amount]
    return out

def _shift_left(x: np.ndarray, amount: int) -> np.ndarray:
    if amount == 0:
        return x
    out = np.zeros_like(x)
    out[:, :-amount] = x[:, amount:]
    return out


def causal_conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """y[t] = w[0] @ x[t - dilation] + w[1] @ x[t] + b, zero left padding."""
    if dilation < 1:
        raise ConfigError("dilation must be >= 1")
    return _shift_right(x, dilation) @ w[0].T + x @ w[1].T + b

def causal_conv_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, dilation: int):
    x_hist = _shift_right(x, dilation)
    dw = np.stack([
        np.tensordot(dy, x_hist, axes=([0, 1], [0, 1])),
        np.tensordot(dy, x, axes=([0, 1], [0, 1])),
    ])
    db = dy.sum(axis=(0, 1))
    dx = _shift_left(dy @ w[0], dilation) + dy @ w[1]
    return dx, dw, db


def noncausal_conv3_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel-3 centered conv: y[t] = w0 x[t-1] + w1 x[t] + w2 x[t+1] + b."""
    return _shift_right(x, 1) @ w[0].T + x @ w[1].T + _shift_left(x, 1) @ w[2].T + b

def noncausal_conv3_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    dw = np.stack([
        np.tensordot(dy, _shift_right(x, 1), axes=([0, 1], [0, 1])),
        np.tensordot(dy, x, axes=([0, 1], [0, 1])),
        np.tensordot(dy, _shift_left(x, 1), axes=([0, 1], [0, 1])),
    ])
    db = dy.sum(axis=(0, 1))
    dx = _shift_left(dy @ w[0], 1) + dy @ w[1] + _shift_right(dy @ w[2], 1)
    return dx, dw, db


def transpose_conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel 2, stride 2 upsampling: y[2t + j] = w[j] @ x[t] + b; doubles length."""
    batch, steps, _ = x.shape
    out = np.empty((batch, 2 * steps, w.shape[1]), dtype=x.dtype)
    out[:, 0::2] = x @ w[0].T
    out[:, 1::2] = x @ w[1].T
    return out + b

def transpose_conv_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    d_even, d_odd = dy[:, 0::2], dy[:, 1::2]
    dw = np.stack([
        np.tensordot(d_even, x, axes=([0, 1], [0, 1])),
        np.tensordot(d_odd, x, axes=([0, 1], [0, 1])),
    ])
    db = dy.sum(axis=(0, 1))
    dx = d_even @ w[0] + d_odd @ w[1]
    return dx, dw, db


# ---------------------------------------------------------------------------
# optimizer and pruning
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction; masked entries are re-zeroed after each step.

    Steps whose gradient is non-finite are skipped per parameter and
    counted in `skipped_updates`.
    """

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.skipped_updates = 0
        self.slots: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: list[Parameter]) -> None:
        self.step_count += 1
        t = self.step_count
        for p in params:
            if not np.all(np.isfinite(p.grad)):
                self.skipped_updates += 1
                continue
            if p.name not in self.slots:
                self.slots[p.name] = (np.zeros_like(p.value), np.zeros_like(p.value))
            m, v = self.slots[p.name]
            m += (1.0 - self.beta1) * (p.grad - m)
            v += (1.0 - self.beta2) * (p.grad**2 - v)
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.apply_mask()

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, (m, v) in self.slots.items():
            out[f"adam_m/{name}"] = m
            out[f"adam_v/{name}"] = v
        return out

    def load_state(self, arrays: dict[str, np.ndarray], params: list[Parameter],
                   step_count: int) -> None:
        self.step_count = step_count
        for p in params:
            m_key, v_key = f"adam_m/{p.name}", f"adam_v/{p.name}"
            if m_key in arrays:
                self.slots[p.name] = (arrays[m_key].astype(p.value.dtype).copy(),
                                      arrays[v_key].astype(p.value.dtype).copy())


@dataclass
class PruningSchedule:
    """Cubic ramp from zero to target_sparsity between start and end steps."""

    start_step: int
    end_step: int
    target_sparsity: float = 0.92
    interval: int = 10

    def __post_init__(self):
        if not 0.0 <= self.target_sparsity <= 1.0:
            raise ConfigError("target_sparsity must be in [0, 1]")
        if self.end_step < self.start_step:
            raise ConfigError("end_step must be >= start_step")

    def sparsity_at(self, step: int) -> float:
        if step <= self.start_step:
            return 0.0
        if step >= self.end_step:
            return self.target_sparsity
        frac = (step - self.start_step) / (self.end_step - self.start_step)
        return self.target_sparsity * (1.0 - (1.0 - frac) ** 3)

    def due(self, step: int) -> bool:
        return self.start_step < step and (step - self.start_step) % self.interval == 0


def prune_update(param: Parameter, schedule: PruningSchedule, step: int) -> np.ndarray:
    """Mask the smallest-magnitude fraction per the schedule; monotone."""
    sparsity = schedule.sparsity_at(step)
    n = param.value.size
    n_zero = int(round(sparsity * n))
    mask = np.ones(n, dtype=param.value.dtype)
    if n_zero > 0:
        order = np.argpartition(np.abs(param.value).ravel(), n_zero - 1)[:n_zero]
        mask[order] = 0.0
    mask = mask.reshape(param.value.shape)
    if param.mask is not None:
        mask = mask * param.mask  # once masked, always masked
    param.mask = mask
    param.apply_mask()
    return mask

"""Minimal differentiable-layer toolkit on numpy arrays.

One dense kernel whose weight is (out, in) or block-diagonal (blocks,
out_b, in_b), dense being one block on the same code; a GRU cell whose
training sequence and decode step run one update, its sigmoid
1/(1+exp(-x)) in place on numpy arrays, the sequence in buffers it
reuses from call to call; one tap-delay 1-D convolution (causal
dilated and centered kernels are sets of tap delays) and the stride-2
transpose convolution; Adam with pruning-mask enforcement, and the
magnitude-pruning mask update. A parameter makes its gradient
accumulator on first use, so a model that only runs forward holds each
weight once. Backward functions return exact analytic gradients; the
finite-difference test suite is the correctness contract. Sequence
arrays are (batch, time, channels); convolution kernels are (kernel,
out, in).
"""

from __future__ import annotations

import numpy as np

from .container import entry
from .errors import ConfigError, FormatError


class Parameter:
    """Trainable array with its gradient accumulator and optional pruning mask.

    The accumulator is made on first use, as zeros shaped like `value`:
    `p.grad += d` in a backward pass, or Adam reading it. A model that only
    runs forward (decode, eval, a checkpoint load) so holds each weight
    once, and `zero_grad` on an accumulator never made makes none.
    """

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.mask: np.ndarray | None = None
        self._grad: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray) -> None:
        self._grad = g

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def apply_mask(self) -> None:
        if self.mask is not None:
            self.value *= self.mask


def init_weight(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# dense and block-diagonal dense: one kernel, dense is one block
# ---------------------------------------------------------------------------

def _blocks(w: np.ndarray) -> np.ndarray:
    """w as (blocks, out_b, in_b); a dense (out, in) matrix is one block."""
    return w if w.ndim == 3 else w[None]

def _split(x: np.ndarray, blocks: int) -> np.ndarray:
    """(..., blocks*n) -> (blocks, rows, n), rows in x's own order."""
    return x.reshape(-1, blocks, x.shape[-1] // blocks).transpose(1, 0, 2)

def _merge(y: np.ndarray, lead: tuple) -> np.ndarray:
    """(blocks, rows, n) -> (*lead, blocks*n), the inverse of `_split`."""
    return y.transpose(1, 0, 2).reshape(*lead, -1)

def _weight_grad(xb: np.ndarray, dyb: np.ndarray, shape) -> np.ndarray:
    """dw of y = x @ W.T from split x and dy (blocks, rows, ·), in W's shape."""
    return (dyb.transpose(0, 2, 1) @ xb).reshape(shape)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """y = x @ w.T + b over the trailing axis.

    w is (out, in), or block-diagonal (blocks, out_b, in_b): output block
    j then depends only on input block j, with out*in/blocks weights in
    all. Dense is one block of the same matmul.
    """
    wb = _blocks(w)
    y = _merge(_split(x, len(wb)) @ wb.transpose(0, 2, 1), x.shape[:-1])
    if b is not None:
        y = y + b
    return y

def dense_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    """Returns (dx, dw, db) for y = dense_forward(x, w, b); dw has w's shape."""
    wb = _blocks(w)
    dyb = _split(dy, len(wb))
    dx = _merge(dyb @ wb, x.shape[:-1])
    dw = _weight_grad(_split(x, len(wb)), dyb, w.shape)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# GRU cell
# ---------------------------------------------------------------------------

class GRUCell:
    """Standard GRU: z, r gates and candidate, h' = (1-z)*h + z*cand.

    The input has the state's size H, and the parameters are named
    `gru.<tag>`.

    The six gate matrices are block-diagonal with `blocks` blocks (the
    pruned deployment structure); dense is one block on the same code.
    Inside, arrays are split per block as (blocks, batch, ·); `step` and
    `forward_sequence` both run `_update`, the latter writing into buffers
    the cell keeps.

    Those sequence buffers stay with the cell and are reused while
    (batch, steps) stays the same, until `release` frees them. The
    states and cache that `forward_sequence` returns are views of them:
    they stay valid until the next `forward_sequence` on this cell, and
    one `backward_sequence` uses the cache up. `CodecModel.teacher_forced`
    is the only caller that holds a cache across other work.
    """

    def __init__(self, hidden: int, rng: np.random.Generator, blocks: int = 1):
        if blocks < 1 or hidden % blocks:
            raise ConfigError("blocks must be >= 1 and divide the hidden dim")
        self.hidden = hidden
        self.blocks = blocks
        self.params: dict[str, Parameter] = {}

        def make(tag, rows, cols):
            rb, cb = rows // blocks, cols // blocks
            shape = (rows, cols) if blocks == 1 else (blocks, rb, cb)
            self.params[tag] = Parameter(f"gru.{tag}", init_weight(rng, shape, cb, rb))

        for gate in ("z", "r", "h"):
            make(f"U{gate}", hidden, hidden)
            make(f"R{gate}", hidden, hidden)
            self.params[f"b{gate}"] = Parameter(f"gru.b{gate}", np.zeros(hidden))
        self._seq_key = None
        self._seq: dict[str, np.ndarray] = {}
        self._live_cache = None  # the token of the one cache backward may use

    def _w(self, tag):
        return self.params[tag].value

    def _stacked_t(self, *tags):
        """Gate matrices as one contiguous (blocks, in_b, sum of out_b) array for
        right-multiplication, side by side per block."""
        return np.concatenate([_blocks(self._w(tag)).transpose(0, 2, 1) for tag in tags], axis=2)

    def input_gates(self, x: np.ndarray, bias: bool = True) -> np.ndarray:
        """Input-side gate pre-activations U x (+ b) for x (..., D), laid out for `step`.

        The last axis holds block after block the block's z, r and
        candidate pre-activations (hb values each), 3H in all. The products
        are linear in x, so a caller can split an input and add the parts'
        gates, with the bias in one part only.
        """
        return _merge(self._split_gates(x, bias), x.shape[:-1])

    def _split_gates(self, x, bias=True, out=None):
        """`input_gates` before the merge: (blocks, rows, 3hb), rows in x's order."""
        y = np.matmul(_split(x, self.blocks), self._stacked_t("Uz", "Ur", "Uh"), out=out)
        if bias:
            y += np.concatenate([self._w(f"b{g}").reshape(self.blocks, 1, -1) for g in "zrh"],
                                axis=2)
        return y

    def step_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The recurrent matrices as `_update` reads them, built once per sequence.

        [Rz; Rr] stacked as (blocks, hb, 2hb) and Rh as (blocks, hb, hb),
        each pre-transposed for right-multiplication by the state; dense
        is blocks = 1. The arrays are copies, so rebuild them after a
        weight update.
        """
        return self._stacked_t("Rz", "Rr"), self._stacked_t("Rh")

    def step(self, gates: np.ndarray, h: np.ndarray, weights) -> np.ndarray:
        """One update of state h (B, H) from input-gate pre-activations (B, 3H).

        `gates` is laid out as `input_gates` returns it and `weights` is
        `step_weights()`. A gate pre-activation below the sigmoid's
        overflow point gives a gate of exactly 0 and numpy's overflow
        warning; a caller that steps in a loop silences it once around the
        loop, as `CodecModel.generate` does (see `_update`).
        """
        h_new = self._update(_split(gates, self.blocks), _split(h, self.blocks), weights)[3]
        return _merge(h_new, h.shape[:-1])

    @staticmethod
    def _update(g, h, weights, out=(None,) * 5):
        """The GRU update on split gates g (blocks, B, 3hb) and state h (blocks, B, hb).

        One matmul over [Rz; Rr], one sigmoid over both gates and one
        matmul over Rh; returns (z, r, cand, h_new), each (blocks, B, hb).
        `out` may name arrays for zr, cand and h_new and two (blocks, B, hb)
        scratch arrays to write into; each left None is allocated.

        The sigmoid is 1/(1+exp(-x)), computed in place on zr in the
        arrays' dtype, within eps of scipy's expit. Where exp(-x)
        overflows (x below about -709 in float64, -88.7 in float32) the
        gate is exactly 0, as expit's is, and numpy warns of the overflow.
        `np.errstate` costs more than a B=1 sigmoid, so this does not
        silence it per call: `forward_sequence` and `CodecModel.generate`
        each silence it once around their step loops.
        """
        rzr, rh = weights
        hb = rh.shape[-1]
        zr, cand, h_new, one_minus_z, z_cand = out
        zr = np.add(g[..., : 2 * hb], h @ rzr, out=zr)
        np.exp(np.negative(zr, out=zr), out=zr)
        zr += 1.0
        np.reciprocal(zr, out=zr)
        z, r = zr[..., :hb], zr[..., hb:]
        cand = np.tanh(np.add(g[..., 2 * hb :], (r * h) @ rh, out=cand), out=cand)
        h_new = np.multiply(np.subtract(1.0, z, out=one_minus_z), h, out=h_new)
        h_new += np.multiply(z, cand, out=z_cand)
        return z, r, cand, h_new

    def _buffers(self, batch: int, steps: int) -> dict[str, np.ndarray]:
        """The sequence arrays for (batch, steps), kept while the shape stays.

        The forward pass fills the input gates (three units of
        batch*steps*hidden values), z and r (two), cand and the states (one
        each): seven units, its peak when it allocated them per call. "zr"
        and "cand" are time-major, (steps, blocks, batch, ·), so step t is
        one contiguous slice; the states are (B, T, H) as returned, and
        "hs" views them per block as (blocks, B, T, hb). The backward pass
        adds its own buffers on first use and reuses the dead gates.
        """
        key = (batch, steps)
        if key != self._seq_key:
            self.release()  # free the old shape's arrays before allocating
            blocks, hb = self.blocks, self.hidden // self.blocks
            states = np.empty((batch, steps, self.hidden))
            self._seq = {
                "gates": np.empty((blocks, batch * steps, 3 * hb)),
                "zr": np.empty((steps, blocks, batch, 2 * hb)),
                "cand": np.empty((steps, blocks, batch, hb)),
                "states": states,
                "hs": states.reshape(batch, steps, blocks, hb).transpose(2, 0, 1, 3),
            }
            self._seq_key = key
        return self._seq

    def release(self) -> None:
        """Free the sequence buffers; the next `forward_sequence` allocates them anew.

        Arrays a caller still holds, such as returned states, stay valid.
        """
        self._seq, self._seq_key, self._live_cache = {}, None, None

    def forward_sequence(self, xs: np.ndarray, h0: np.ndarray):
        """Run over (B, T, D); returns (states (B, T, H), cache).

        The input gates of every step come from one product before the
        sequential loop; each step is `_update`, writing straight into the
        cell's buffers. The states and the cache are views of those
        buffers, valid until the next `forward_sequence` on this cell.
        """
        batch, steps, _ = xs.shape
        blocks, hb = self.blocks, self.hidden // self.blocks
        buf = self._buffers(batch, steps)
        zr, cand, hs = buf["zr"], buf["cand"], buf["hs"]
        gates = self._split_gates(xs, out=buf["gates"]).reshape(blocks, batch, steps, 3 * hb)
        weights = self.step_weights()
        h0 = h = _split(h0, blocks).copy()  # h0 may be a view of the states it precedes
        scratch = np.empty_like(h), np.empty_like(h)
        with np.errstate(over="ignore"):  # a saturated gate is exactly 0 (see _update)
            for t in range(steps):
                out = (zr[t], cand[t], hs[:, :, t], *scratch)
                h = self._update(gates[:, :, t], h, weights, out)[3]
        self._live_cache = token = object()
        return buf["states"], (xs, h0, token)

    def backward_sequence(self, d_hs: np.ndarray, cache):
        """Backprop through time; accumulates weight grads, returns (dxs, dh0).

        `cache` must come from the last `forward_sequence` on this cell and
        is used up: the pass overwrites the forward buffers it reads. dxs
        is a buffer of the cell too, valid until the next backward. Per
        step one product over [Rz; Rr] and one over Rh carry the state
        gradient back; the weight gradients are batched after the loop.
        """
        xs, h0, token = cache
        if token is not self._live_cache:
            raise ValueError("stale GRU cache: forward_sequence ran again, or it was used")
        self._live_cache = None
        buf = self._seq
        gates, zr, cands, hs = buf["gates"], buf["zr"], buf["cand"], buf["hs"]
        steps, blocks, batch, hb = cands.shape
        if "dzr" not in buf:
            buf["one_minus_z"], buf["dah"] = np.empty_like(cands), np.empty_like(cands)
            buf["dzr"] = np.empty_like(zr)
            buf["dxs"] = np.empty(xs.shape, xs.dtype)
            buf["dx_u"] = np.empty((blocks, batch * steps, xs.shape[-1] // blocks), xs.dtype)
        one_minus_z, dzr, dah = buf["one_minus_z"], buf["dzr"], buf["dah"]
        rzr = np.concatenate([_blocks(self._w("Rz")), _blocks(self._w("Rr"))], axis=1)
        rh = _blocks(self._w("Rh"))
        d_hs = d_hs.reshape(batch, steps, blocks, hb).transpose(1, 2, 0, 3)  # time-major
        zs, rs = zr[..., :hb], zr[..., hb:]
        # elementwise factors hoisted out of the sequential loop; the first
        # three take the dead input gates' memory, tanh' takes cand's
        sig_z, sig_r, c_minus_h = gates.reshape(3, steps, blocks, batch, hb)
        np.multiply(zs, np.subtract(1.0, zs, out=one_minus_z), out=sig_z)
        np.multiply(rs, np.subtract(1.0, rs, out=sig_r), out=sig_r)
        np.subtract(cands[0], h0, out=c_minus_h[0])
        np.subtract(cands[1:], hs[:, :, :-1].transpose(2, 0, 1, 3), out=c_minus_h[1:])
        dtanh = np.subtract(1.0, np.square(cands, out=cands), out=cands)

        dtot = np.empty_like(h0)
        dh = np.zeros_like(h0)
        for t in range(steps - 1, -1, -1):
            np.add(d_hs[t], dh, out=dtot)
            da_h, da_z, da_r = dah[t], dzr[t, ..., :hb], dzr[t, ..., hb:]
            np.multiply(np.multiply(dtot, zs[t], out=da_h), dtanh[t], out=da_h)
            drh = da_h @ rh
            h_prev = hs[:, :, t - 1] if t else h0
            np.multiply(np.multiply(drh, h_prev, out=da_r), sig_r[t], out=da_r)
            np.multiply(np.multiply(dtot, c_minus_h[t], out=da_z), sig_z[t], out=da_z)
            dh = dtot * one_minus_z[t] + drh * rs[t] + dzr[t] @ rzr

        # the weight-gradient rows stay (B, T) b-major, and dxs sums three U
        # products in z, r, h order: a fused (3H, in) product rounds otherwise.
        # The b-major rows go into the buffers the loop is done with.
        daz, dar, dah_rows = gates.reshape(3, blocks, batch, steps, hb)
        h_prevs = one_minus_z.reshape(blocks, batch, steps, hb)
        rh_prevs = cands.reshape(blocks, batch, steps, hb)
        b_major = (1, 2, 0, 3)
        np.copyto(daz, dzr[..., :hb].transpose(b_major))
        np.copyto(dar, dzr[..., hb:].transpose(b_major))
        np.copyto(dah_rows, dah.transpose(b_major))
        h_prevs[:, :, 0] = h0
        h_prevs[:, :, 1:] = hs[:, :, :-1]
        np.multiply(rs.transpose(b_major), h_prevs, out=rh_prevs)
        rows = (blocks, -1, hb)
        dxs, dx_u = buf["dxs"], buf["dx_u"]
        dxs[...] = 0.0
        dxs_split = _split(dxs, blocks)
        for tag, da, inp in (("z", daz, h_prevs), ("r", dar, h_prevs), ("h", dah_rows, rh_prevs)):
            da = da.reshape(rows)
            u = self._w(f"U{tag}")
            dxs_split += np.matmul(da, _blocks(u), out=dx_u)
            self.params[f"U{tag}"].grad += _weight_grad(_split(xs, blocks), da, u.shape)
            self.params[f"R{tag}"].grad += _weight_grad(inp.reshape(rows), da,
                                                        self._w(f"R{tag}").shape)
            self.params[f"b{tag}"].grad += da.sum(axis=1).reshape(-1)
        return dxs, _merge(dh, (batch,))


# ---------------------------------------------------------------------------
# 1-D convolutions over (batch, time, channels)
# ---------------------------------------------------------------------------

def _shift(x: np.ndarray, delay: int) -> np.ndarray:
    """x delayed by `delay` steps with zero fill; a negative delay advances it."""
    if delay == 0:
        return x
    out = np.zeros_like(x)
    if delay > 0:
        out[:, delay:] = x[:, :-delay]
    else:
        out[:, :delay] = x[:, -delay:]
    return out


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, delays) -> np.ndarray:
    """y[t] = sum_j w[j] @ x[t - delays[j]] + b, zero padded, the taps summed in order.

    Causal dilation d is delays (d, 0), and a centered kernel 3 is (1, 0, -1).
    """
    y = _shift(x, delays[0]) @ w[0].T
    for w_j, d in zip(w[1:], delays[1:]):
        y += _shift(x, d) @ w_j.T
    y += b
    return y

def conv_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, delays):
    """Returns (dx, dw, db) for y = conv_forward(x, w, b, delays)."""
    dw = np.stack([np.tensordot(dy, _shift(x, d), axes=([0, 1], [0, 1])) for d in delays])
    db = dy.sum(axis=(0, 1))
    dx = _shift(dy @ w[0], -delays[0])
    for w_j, d in zip(w[1:], delays[1:]):
        dx += _shift(dy @ w_j, -d)
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

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; masked entries are re-zeroed after each step.

    Steps whose gradient is non-finite are skipped per parameter and
    counted in `skipped_updates`.
    """

    def __init__(self, lr=1e-3):
        self.lr = lr
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
            m += (1.0 - ADAM_BETA1) * (p.grad - m)
            v += (1.0 - ADAM_BETA2) * (p.grad**2 - v)
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.apply_mask()

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"adam_step": np.array([self.step_count], dtype=np.int64)}
        for name, (m, v) in self.slots.items():
            out[f"adam_m/{name}"] = m
            out[f"adam_v/{name}"] = v
        return out

    def load_state(self, arrays: dict[str, np.ndarray], params: list[Parameter]) -> None:
        """Restore the step count and the moment slots; FormatError, with
        nothing changed, if the step is missing or negative, or a slot is
        missing one of its pair or its shape is not its parameter's. A
        parameter with neither entry has no slot, as one never updated."""
        step_count = int(entry(arrays, "adam_step", 1)[0])
        if step_count < 0:
            raise FormatError(f"optimizer step {step_count} is negative")
        slots = {}
        for p in params:
            m_key, v_key = f"adam_m/{p.name}", f"adam_v/{p.name}"
            if m_key in arrays or v_key in arrays:
                m, v = entry(arrays, m_key), entry(arrays, v_key)
                if m.shape != p.value.shape or v.shape != p.value.shape:
                    raise FormatError(f"optimizer state shape mismatch for {p.name}")
                slots[p.name] = (m.astype(p.value.dtype), v.astype(p.value.dtype))
        self.step_count = step_count
        self.slots.update(slots)


def prune_update(param: Parameter, sparsity: float) -> np.ndarray:
    """Mask the smallest-magnitude `sparsity` fraction of `param`; monotone."""
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

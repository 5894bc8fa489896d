"""Conditioning stack and multi-band WaveGRU.

The conditioning stack maps log mel frames (frame rate R) to vectors at
8R through one non-causal kernel-3 input layer, three causal dilated
kernel-2 convolutions (dilations 1, 2, 4) and three stride-2 transpose
convolutions, followed by a linear projection to the GRU state size; the
result is tiled in time up to the band sample rate S/N. At every GRU
step the previous N band samples are projected and added to the
conditioning vector, the GRU advances, and a linear head emits N*(K*3)
values: per band, K weight logits, K locations and K log scales of a
mixture of logistics. Training is teacher forced; generation feeds the
sampled band values back and recombines bands with the synthesis
filterbank. Since the GRU's input gates are linear in the input,
generation computes the conditioning's share once per conditioning frame
and adds only the previous samples' share at each step.

The model is float64: its parameters, training, teacher forcing, the
conditioning stack and checkpoints. Only generation's step loop runs in
another dtype, float32 by default, on float32 copies made once per call;
`generate(..., dtype=np.float64)` runs it in float64.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import mol
from .audio import AudioBuffer
from .config import ModelConfig
from .container import entry, read_container, write_container
from .errors import ConfigError, FormatError, NumericError
from .filterbank import Filterbank
from .neural import (
    GRUCell,
    Parameter,
    conv_backward,
    conv_forward,
    dense_backward,
    dense_forward,
    init_weight,
    transpose_conv_backward,
    transpose_conv_forward,
)

CHECKPOINT_MAGIC = b"LVRW"
# The fixed affine map of log mels into the conditioning stack's input layer.
MEL_OFFSET, MEL_SCALE = 11.5, 0.125
# The conditioning stack's tanh layers in order as (tag, `conv_forward` tap
# delays), None marking a stride-2 transpose convolution; "proj" follows.
_LAYERS = (("in", (1, 0, -1)), ("dil0", (1, 0)), ("dil1", (2, 0)), ("dil2", (4, 0)),
           ("up0", None), ("up1", None), ("up2", None))
# Conditioning rows per chunk of a forward-only teacher-forced pass; a row
# covers tile_factor steps, so a chunk is 160 steps at the toy preset and
# 320 at the paper's, and the GRU buffers hold those steps alone.
FORWARD_CHUNK_ROWS = 32


class ConditioningStack:
    """Mel frames (B, F, M) -> conditioning vectors (B, F*8, H)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        c, h, in_ch = cfg.cond_channels, cfg.gru_state, cfg.n_mels
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}

        def param(tag, w):
            self.params[f"{tag}.w"] = Parameter(f"cond.{tag}.w", w)
            self.params[f"{tag}.b"] = Parameter(f"cond.{tag}.b", np.zeros(w.shape[-2]))

        for tag, delays in _LAYERS:
            kernel = 2 if delays is None else len(delays)
            param(tag, init_weight(rng, (kernel, c, in_ch), in_ch * kernel, c))
            in_ch = c
        param("proj", init_weight(rng, (h, c), c, h))

    def _wb(self, tag):
        return self.params[f"{tag}.w"].value, self.params[f"{tag}.b"].value

    def forward(self, mels: np.ndarray):
        """Returns (conditioning (B, F*8, H), cache for backward)."""
        if mels.shape[1] == 0:
            raise ConfigError("conditioning requires at least one mel frame")
        x = (mels + MEL_OFFSET) * MEL_SCALE
        acts = [x]  # the input and each tanh layer's output
        for tag, delays in _LAYERS:
            w, b = self._wb(tag)
            y = transpose_conv_forward(x, w, b) if delays is None else conv_forward(x, w, b, delays)
            x = np.tanh(y)
            acts.append(x)
        w, b = self._wb("proj")
        return dense_forward(x, w, b), acts

    def backward(self, d_cond: np.ndarray, acts) -> None:
        """Accumulates parameter gradients for a forward pass, walking `_LAYERS` back."""
        dx, dw, db = dense_backward(acts[-1], self._wb("proj")[0], d_cond)
        self._add_grads("proj", dw, db)
        for i, (tag, delays) in reversed(list(enumerate(_LAYERS))):
            x, w = acts[i], self._wb(tag)[0]  # layer i maps acts[i] to acts[i + 1]
            dy = dx * (1.0 - acts[i + 1] ** 2)
            dx, dw, db = (transpose_conv_backward(x, w, dy) if delays is None
                          else conv_backward(x, w, dy, delays))
            self._add_grads(tag, dw, db)

    def _add_grads(self, tag, dw, db) -> None:
        self.params[f"{tag}.w"].grad += dw
        self.params[f"{tag}.b"].grad += db


class CodecModel:
    """Conditioning stack + WaveGRU + synthesis filterbank."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng([seed, 0xC0DEC])
        h, n, k = cfg.gru_state, cfg.n_bands, cfg.n_mix

        self.cond = ConditioningStack(cfg, rng)
        self.gru = GRUCell(h, rng, blocks=cfg.gru_blocks)
        self.in_proj_w = Parameter("in_proj.w", init_weight(rng, (h, n), n, h))
        self.in_proj_b = Parameter("in_proj.b", np.zeros(h))
        self.out_w = Parameter("out.w", init_weight(rng, (n * k * 3, h), h, n * k * 3))
        self.out_b = Parameter("out.b", np.zeros(n * k * 3))
        self.filterbank = Filterbank(n, cfg.fb_taps)
        self.hop = cfg.hop_length

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Parameter]:
        out = list(self.cond.params.values())
        out.extend(self.gru.params.values())
        out.extend([self.in_proj_w, self.in_proj_b, self.out_w, self.out_b])
        return out

    def prunable_parameters(self) -> list[Parameter]:
        """Hidden-layer weight matrices outside the GRU gates (those are
        block-diagonal in pruned deployments), biases excluded."""
        return [p for p in self.parameters()
                if p.name.endswith(".w") and not p.name.startswith("gru.")]

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def weights_checksum(self) -> str:
        digest = hashlib.sha256()
        for p in sorted(self.parameters(), key=lambda p: p.name):
            digest.update(p.name.encode())
            digest.update(np.ascontiguousarray(p.value).tobytes())
        return digest.hexdigest()

    def save_checkpoint(self, path, digest: bytes, step: int, extra: dict | None = None) -> None:
        arrays = {f"param/{p.name}": p.value for p in self.parameters()}
        for p in self.parameters():
            if p.mask is not None:
                arrays[f"mask/{p.name}"] = p.mask
        arrays["step"] = np.array([step], dtype=np.int64)
        if extra:
            arrays.update(extra)
        write_container(path, CHECKPOINT_MAGIC, digest, arrays)

    def load_checkpoint(self, path, expected_digest: bytes | None = None):
        """Read weights, masks and step; a rejected checkpoint changes nothing."""
        digest, arrays = read_container(path, CHECKPOINT_MAGIC, expected_digest)
        params = self.parameters()
        for p in params:
            if entry(arrays, f"param/{p.name}").shape != p.value.shape:
                raise FormatError(f"checkpoint shape mismatch for {p.name}")
            mask = arrays.get(f"mask/{p.name}")
            if mask is not None and mask.shape != p.value.shape:
                raise FormatError(f"checkpoint mask shape mismatch for {p.name}")
        step = int(entry(arrays, "step", 1)[0])
        if step < 0:
            raise FormatError(f"checkpoint step {step} is negative")
        for p in params:
            p.value = arrays[f"param/{p.name}"].astype(np.float64)  # the file's views: copy once
            mask = arrays.get(f"mask/{p.name}")
            p.mask = None if mask is None else mask.astype(np.float64)
        return step, arrays

    # -- forward pieces ------------------------------------------------------

    def _frame_of_step(self, n_steps: int, n_frames: int) -> np.ndarray:
        """Mel frame index containing each GRU step (frames are hop-centered)."""
        sample_pos = np.arange(n_steps) * self.cfg.n_bands
        return np.clip(np.round(sample_pos / self.hop).astype(np.int64), 0, n_frames - 1)

    def _steps(self, prev, x, cond, h0, head):
        """in_proj plus the tiled conditioning (step t reads row t // tile of
        cond), the GRU from h0, the output layer and `mol.head_terms(x, ...,
        *head)` over previous samples prev and targets x (B, T, N). Returns
        (states, GRU cache, flat rows, HeadTerms); the first two view GRU buffers.
        """
        tile = self.cfg.tile_factor
        xs = dense_forward(prev, self.in_proj_w.value, self.in_proj_b.value)
        for j in range(tile):  # added in place for each offset j within a row
            xs_j = xs[:, j::tile]
            xs_j += cond[:, : xs_j.shape[1]]
        hs, gru_cache = self.gru.forward_sequence(xs, h0)
        flat = dense_forward(hs, self.out_w.value, self.out_b.value)
        return hs, gru_cache, flat, mol.head_terms(x, flat.reshape(*x.shape, -1), *head)

    def _forward_chunks(self, prev, x, cond, h, head):
        """`_steps` over chunks of `FORWARD_CHUNK_ROWS` conditioning rows, the
        state carried across. Returns the whole (B, T, ·) NLL, variance and
        regularizer terms, and the maxima of |states| and |flat rows|.
        """
        batch, steps, n_bands = x.shape
        tile = self.cfg.tile_factor
        span = FORWARD_CHUNK_ROWS * tile
        whole = [np.empty((batch, steps, n)) for n in (n_bands, n_bands, head[0])]
        peak_h = peak_raw = 0.0
        for lo in range(0, steps, span):
            part = slice(lo, lo + span)
            hs, _, flat, terms = self._steps(prev[:, part], x[:, part], cond[:, lo // tile :],
                                             h, head)
            for w, a in zip(whole, (terms.nll, terms.var, terms.reg)):
                w[:, part] = a
            peak_h = np.maximum(peak_h, np.abs(hs).max())  # NaN-propagating maxima
            peak_raw = np.maximum(peak_raw, np.abs(flat).max())
            h = hs[:, -1]  # forward_sequence copies h0 before it writes the states
        self.gru.release()  # no backward follows, so the buffers go back now
        return (*whole, (peak_h, peak_raw))

    def teacher_forced(self, audio, mels, nu: float = 0.0, regularizer: str = "log",
                       var_floor: float = 1e-4, reg_bands: int = 2,
                       voicing: np.ndarray | None = None, compute_grads: bool = True,
                       gamma0: float = 0.0):
        """Teacher-forced objective over a batch of equal-length clips.

        Returns a dict with the scalar loss, its NLL and variance terms
        (nats per band sample), per-element sigma_q on the regularized
        bands ("sigma") and on every band ("sigma_all"), each step's
        voicing weight ("weights", (B, T), ones without `voicing`), and —
        when compute_grads — parameter gradients accumulated into the model.

        The loss is mean(-log q) over all bands and steps plus
        nu * mean(voicing * reg_term) over the first `reg_bands` bands,
        with the voicing (B, frames) of the mel frame containing each step.
        With gamma0 > 0, q is the train-mode density with the broad
        baseline mixed in (`mol.head_terms`).

        Without compute_grads the steps run in chunks (`_forward_chunks`),
        so the GRU buffers and head rows are held for one chunk at a time;
        the outputs keep the gradient pass's bits.
        """
        cfg = self.cfg
        mels = np.asarray(mels, dtype=np.float64)
        if mels.ndim == 2:
            mels = mels[None]
        audio = np.atleast_2d(audio)
        bands = self.filterbank.analyze(audio)[..., : audio.shape[-1] // cfg.n_bands]
        batch, n_bands, steps = bands.shape
        if steps == 0:
            raise ConfigError(f"audio needs at least {n_bands} samples, one per band")
        if not 1 <= reg_bands <= n_bands:
            raise ConfigError(f"reg_bands must be in 1..{n_bands}, got {reg_bands}")
        cond, acts = self.cond.forward(mels)
        tile = cfg.tile_factor
        if cond.shape[1] * tile < steps:
            raise ConfigError("conditioning shorter than the audio")

        x = bands.transpose(0, 2, 1)  # (B, T, N) targets
        prev = np.concatenate([np.zeros((batch, 1, n_bands)), x[:, :-1]], axis=1)
        h0 = np.zeros((batch, cfg.gru_state))
        head = (reg_bands, var_floor, regularizer, gamma0, compute_grads)
        if compute_grads:
            hs, gru_cache, flat, terms = self._steps(prev, x, cond, h0, head)
            nll, var, reg = terms.nll, terms.var, terms.reg
        else:
            acts = None  # no backward reads the layer outputs
            nll, var, reg, peaks = self._forward_chunks(prev, x, cond, h0, head)
        neg_ll = float(nll.mean())
        loss = neg_ll
        sigma_all = np.sqrt(np.maximum(var, 0.0))

        if voicing is None:
            weights = np.ones((batch, steps))
        else:
            voicing = np.asarray(voicing, dtype=np.float64)
            frame_idx = self._frame_of_step(steps, voicing.shape[1])
            weights = voicing[:, frame_idx]
        jvar = float(np.mean(weights[..., None] * reg))
        if nu != 0.0:
            loss = neg_ll + nu * jvar
        if not np.isfinite(loss):
            if compute_grads:  # the chunks kept their running maxima
                peaks = np.abs(hs).max(), np.abs(flat).max()
            raise NumericError(f"non-finite loss (nll={neg_ll}, jvar={jvar}); "
                               f"max |h|={peaks[0]:.3g}, max |raw|={peaks[1]:.3g}")

        result = {
            "loss": loss,
            "nll": neg_ll,
            "jvar": jvar,
            # a contiguous copy: sums over a strided view round in another order
            "sigma": np.ascontiguousarray(sigma_all[..., :reg_bands]),
            "sigma_all": sigma_all,
            "weights": weights,
            "steps": steps,
        }
        if not compute_grads:
            return result

        d_raw = terms.d_nll * (1.0 / nll.size)
        if nu != 0.0:
            wr = weights[..., None, None] * (nu / reg.size)
            d_raw[:, :, :reg_bands] += wr * terms.d_reg

        d_hs, dw, db = dense_backward(hs, self.out_w.value, d_raw.reshape(flat.shape))
        self.out_w.grad += dw
        self.out_b.grad += db
        d_xs, _ = self.gru.backward_sequence(d_hs, gru_cache)
        _, dw, db = dense_backward(prev, self.in_proj_w.value, d_xs)
        self.in_proj_w.grad += dw
        self.in_proj_b.grad += db
        # each conditioning frame's gradient sums its steps' in offset order
        d_cond = np.zeros_like(cond)
        for j in range(tile):
            d_j = d_xs[:, j::tile]
            d_cond[:, : d_j.shape[1]] += d_j
        self.cond.backward(d_cond, acts)
        return result

    def generate(self, mels: np.ndarray, rng: np.random.Generator, seconds: float,
                 dtype=np.float32) -> AudioBuffer:
        """Autoregressive sampling for `seconds` of audio.

        Per step and band the mixture component is chosen first, then the
        logistic is sampled by transforming a uniform; band samples are
        clamped to [-1, 1] before being fed back. Output length is
        seconds * sample_rate rounded to the nearest sample, then down to a
        multiple of n_bands, so `seconds = frames * hop / sample_rate` gives
        exactly frames * hop samples.

        The step loop runs in `dtype`: the GRU state, the fed-back samples
        and `dtype` copies of the input gates, the recurrent matrices and
        the output layer, made once per call. float32 halves the bytes each
        step reads; float64 is the loop the model was trained in. The
        conditioning stack runs in float64, the parameters are not
        touched, and the band samples and the output are float64.
        """
        cfg = self.cfg
        steps = round(seconds * cfg.sample_rate) // cfg.n_bands
        # the layer outputs are dropped here and cond once its gates are made:
        # the step loop reads neither
        cond = self.cond.forward(np.asarray(mels, dtype=np.float64)[None])[0]
        tile = cfg.tile_factor
        if cond.shape[1] * tile < steps:
            raise ConfigError(
                f"conditioning covers {cond.shape[1] * tile} steps, need {steps}"
            )
        # Everything but the previous samples' share of the input gates is
        # known before the loop: the conditioning's gates once per frame,
        # and in_proj folded into U so the samples add an (N, 3H) product.
        gru = self.gru

        def cast(a):  # no copy when `a` is already `dtype`
            return a.astype(dtype, copy=False)

        cond_gates = cast(gru.input_gates(cond[0] + self.in_proj_b.value))
        del cond
        fold = cast(gru.input_gates(self.in_proj_w.value.T, bias=False))
        weights = [cast(w) for w in gru.step_weights()]
        out_w, out_b = cast(self.out_w.value), cast(self.out_b.value)
        h = np.zeros((1, cfg.gru_state), dtype)
        prev = np.zeros(cfg.n_bands, dtype)
        noise = mol.sample_noise(rng, steps, cfg.n_bands)
        rows = np.empty((steps, cfg.n_bands))
        for t in range(steps):
            h = gru.step((cond_gates[t // tile] + prev @ fold)[None], h, weights)
            flat = dense_forward(h, out_w, out_b).reshape(cfg.n_bands, -1)
            sample = np.minimum(np.maximum(mol.sample(flat, noise[t]), -1.0), 1.0)
            rows[t] = sample
            prev = sample.astype(dtype)
        waveform = self.filterbank.synthesize(rows.T)
        delay = self.filterbank.group_delay
        out = waveform[delay : delay + steps * cfg.n_bands]
        return AudioBuffer(out, cfg.sample_rate)

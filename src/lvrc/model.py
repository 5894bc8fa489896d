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
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import mol
from .audio import AudioBuffer
from .config import ModelConfig
from .container import entry, read_container, write_container
from .errors import ConfigError, FormatError, NumericError
from .filterbank import Filterbank, FilterbankSpec
from .neural import (
    GRUCell,
    Parameter,
    causal_conv_backward,
    causal_conv_forward,
    dense_backward,
    dense_forward,
    init_weight,
    noncausal_conv3_backward,
    noncausal_conv3_forward,
    transpose_conv_backward,
    transpose_conv_forward,
)

CHECKPOINT_MAGIC = b"LVRW"
_DILATIONS = (1, 2, 4)


class ConditioningStack:
    """Mel frames (B, F, M) -> conditioning vectors (B, F*8, H)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64):
        c, h, m = cfg.cond_channels, cfg.gru_state, cfg.n_mels
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}

        def conv_param(tag, kernel, out_ch, in_ch):
            w = init_weight(rng, (kernel, out_ch, in_ch), in_ch * kernel, out_ch, dtype)
            self.params[f"{tag}.w"] = Parameter(f"cond.{tag}.w", w)
            self.params[f"{tag}.b"] = Parameter(f"cond.{tag}.b", np.zeros(out_ch, dtype))

        conv_param("in", 3, c, m)
        for i in range(3):
            conv_param(f"dil{i}", 2, c, c)
        for i in range(3):
            conv_param(f"up{i}", 2, c, c)
        self.params["proj.w"] = Parameter("cond.proj.w", init_weight(rng, (h, c), c, h, dtype))
        self.params["proj.b"] = Parameter("cond.proj.b", np.zeros(h, dtype))

    def _wb(self, tag):
        return self.params[f"{tag}.w"].value, self.params[f"{tag}.b"].value

    def forward(self, mels: np.ndarray):
        """Returns (conditioning (B, F*8, H), cache for backward)."""
        if mels.shape[1] == 0:
            raise ConfigError("conditioning requires at least one mel frame")
        x = (mels + self.cfg.mel_offset) * self.cfg.mel_scale
        acts = [x]
        w, b = self._wb("in")
        x = np.tanh(noncausal_conv3_forward(x, w, b))
        acts.append(x)
        for i, dil in enumerate(_DILATIONS):
            w, b = self._wb(f"dil{i}")
            x = np.tanh(causal_conv_forward(x, w, b, dil))
            acts.append(x)
        for i in range(3):
            w, b = self._wb(f"up{i}")
            x = np.tanh(transpose_conv_forward(x, w, b))
            acts.append(x)
        w, b = self._wb("proj")
        cond = dense_forward(x, w, b)
        return cond, acts

    def backward(self, d_cond: np.ndarray, acts) -> None:
        """Accumulates parameter gradients for a forward pass."""
        w, _ = self._wb("proj")
        dx, dw, db = dense_backward(acts[7], w, d_cond)
        self.params["proj.w"].grad += dw
        self.params["proj.b"].grad += db
        for i in range(2, -1, -1):
            dx = dx * (1.0 - acts[4 + i + 1] ** 2)
            w, _ = self._wb(f"up{i}")
            dx, dw, db = transpose_conv_backward(acts[4 + i], w, dx)
            self.params[f"up{i}.w"].grad += dw
            self.params[f"up{i}.b"].grad += db
        for i in range(2, -1, -1):
            dx = dx * (1.0 - acts[1 + i + 1] ** 2)
            w, _ = self._wb(f"dil{i}")
            dx, dw, db = causal_conv_backward(acts[1 + i], w, dx, _DILATIONS[i])
            self.params[f"dil{i}.w"].grad += dw
            self.params[f"dil{i}.b"].grad += db
        dx = dx * (1.0 - acts[1] ** 2)
        w, _ = self._wb("in")
        _, dw, db = noncausal_conv3_backward(acts[0], w, dx)
        self.params["in.w"].grad += dw
        self.params["in.b"].grad += db


class CodecModel:
    """Conditioning stack + WaveGRU + synthesis filterbank."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.dtype = np.float64 if cfg.dtype == "float64" else np.float32
        rng = np.random.default_rng([seed, 0xC0DEC])
        h, n, k = cfg.gru_state, cfg.n_bands, cfg.n_mix

        self.cond = ConditioningStack(cfg, rng, self.dtype)
        self.gru = GRUCell(h, h, rng, blocks=cfg.gru_blocks, name="gru", dtype=self.dtype)
        self.in_proj_w = Parameter("in_proj.w", init_weight(rng, (h, n), n, h, self.dtype))
        self.in_proj_b = Parameter("in_proj.b", np.zeros(h, self.dtype))
        self.out_w = Parameter("out.w", init_weight(rng, (n * k * 3, h), h, n * k * 3, self.dtype))
        self.out_b = Parameter("out.b", np.zeros(n * k * 3, self.dtype))
        self.filterbank = Filterbank(FilterbankSpec(n_bands=n, prototype_taps=cfg.fb_taps))
        self.hop = cfg.sample_rate // cfg.frame_rate

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
        digest, arrays = read_container(path, CHECKPOINT_MAGIC, expected_digest)
        for p in self.parameters():
            value = entry(arrays, f"param/{p.name}")
            if value.shape != p.value.shape:
                raise FormatError(f"checkpoint shape mismatch for {p.name}")
            p.value = value.astype(self.dtype).copy()
            mask_key = f"mask/{p.name}"
            p.mask = arrays[mask_key].astype(self.dtype).copy() if mask_key in arrays else None
        step = int(entry(arrays, "step", 1)[0])
        if step < 0:
            raise FormatError(f"checkpoint step {step} is negative")
        return step, arrays

    # -- forward pieces ------------------------------------------------------

    def _frame_of_step(self, n_steps: int, n_frames: int) -> np.ndarray:
        """Mel frame index containing each GRU step (frames are hop-centered)."""
        sample_pos = np.arange(n_steps) * self.cfg.n_bands
        return np.clip(np.round(sample_pos / self.hop).astype(np.int64), 0, n_frames - 1)

    def teacher_forced(self, audio, mels, nu: float = 0.0, regularizer: str = "log",
                       var_floor: float = 1e-4, reg_bands: int = 2,
                       voicing: np.ndarray | None = None, compute_grads: bool = True,
                       baseline: mol.BaselineSpec | None = None):
        """Teacher-forced objective over a batch of equal-length clips.

        Returns a dict with the scalar loss, its NLL and variance terms
        (nats per band sample), per-element sigma_q on the regularized
        bands ("sigma") and on every band ("sigma_all"), and — when
        compute_grads — parameter gradients accumulated into the model.

        The loss is mean(-log q) over all bands and steps plus
        nu * mean(voicing * reg_term) over the first `reg_bands` bands,
        with the voicing weight of the mel frame containing each step.
        """
        cfg = self.cfg
        mels = np.asarray(mels, dtype=self.dtype)
        if mels.ndim == 2:
            mels = mels[None]
        audio = np.atleast_2d(audio)
        bands = self.filterbank.analyze(audio).bands[..., : audio.shape[-1] // cfg.n_bands]
        bands = bands.astype(self.dtype)
        batch, n_bands, steps = bands.shape
        if not 1 <= reg_bands <= n_bands:
            raise ConfigError(f"reg_bands must be in 1..{n_bands}, got {reg_bands}")
        cond, acts = self.cond.forward(mels)
        tile = cfg.tile_factor
        if cond.shape[1] * tile < steps:
            raise ConfigError("conditioning shorter than the audio")

        prev = np.concatenate(
            [np.zeros((batch, n_bands, 1), self.dtype), bands[:, :, :-1]], axis=2
        ).transpose(0, 2, 1)  # (B, T, N)
        xs = dense_forward(prev, self.in_proj_w.value, self.in_proj_b.value)
        # + the conditioning tiled to the band rate: step t reads frame
        # t // tile, added in place for each offset j within a frame
        for j in range(tile):
            xs_j = xs[:, j::tile]
            xs_j += cond[:, : xs_j.shape[1]]
        h0 = np.zeros((batch, cfg.gru_state), self.dtype)
        hs, gru_cache = self.gru.forward_sequence(xs, h0)
        if not compute_grads:
            self.gru.release()  # no backward follows, so the buffers go back now
        flat = dense_forward(hs, self.out_w.value, self.out_b.value)
        raw = mol.RawMoLParams.from_flat(
            flat.reshape(batch, steps, n_bands, 3 * cfg.n_mix), cfg.n_mix
        )

        terms = mol.head_terms(bands.transpose(0, 2, 1), raw, reg_bands, var_floor,
                               regularizer, baseline)
        neg_ll = float(terms.nll.mean())
        loss = neg_ll
        sigma_all = np.sqrt(np.maximum(terms.var, 0.0))

        if voicing is None:
            weights = np.ones((batch, steps), self.dtype)
        else:
            voicing = np.asarray(voicing, dtype=self.dtype)
            frame_idx = self._frame_of_step(steps, voicing.shape[1])
            weights = voicing[:, frame_idx]
        jvar = float(np.mean(weights[..., None] * terms.reg))
        if nu != 0.0:
            loss = neg_ll + nu * jvar
        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite loss (nll={neg_ll}, jvar={jvar}); "
                f"max |h|={np.abs(hs).max():.3g}, max |raw|={np.abs(flat).max():.3g}"
            )

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

        scale_nll = 1.0 / terms.nll.size
        d_raw = np.zeros_like(flat).reshape(batch, steps, n_bands, 3 * cfg.n_mix)
        k = cfg.n_mix
        d_raw[..., :k] = terms.d_nll.logits * scale_nll
        d_raw[..., k : 2 * k] = terms.d_nll.locs * scale_nll
        d_raw[..., 2 * k :] = terms.d_nll.log_scales * scale_nll
        if nu != 0.0:
            scale_reg = nu / terms.reg.size
            wr = (weights[..., None, None] * scale_reg).astype(self.dtype)
            d_raw[:, :, :reg_bands, :k] += wr * terms.d_reg.logits
            d_raw[:, :, :reg_bands, k : 2 * k] += wr * terms.d_reg.locs
            d_raw[:, :, :reg_bands, 2 * k :] += wr * terms.d_reg.log_scales

        d_flat = d_raw.reshape(batch, steps, n_bands * 3 * k)
        d_hs, dw, db = dense_backward(hs, self.out_w.value, d_flat)
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

    def generate(self, mels: np.ndarray, rng: np.random.Generator, seconds: float) -> AudioBuffer:
        """Autoregressive sampling for `seconds` of audio.

        Per step and band the mixture component is chosen first, then the
        logistic is sampled by transforming a uniform; band samples are
        clamped to [-1, 1] before being fed back. Output length is
        seconds * sample_rate rounded down to a multiple of n_bands.
        """
        cfg = self.cfg
        steps = int(seconds * cfg.sample_rate) // cfg.n_bands
        cond, _ = self.cond.forward(np.asarray(mels, dtype=self.dtype)[None])
        tile = cfg.tile_factor
        if cond.shape[1] * tile < steps:
            raise ConfigError(
                f"conditioning covers {cond.shape[1] * tile} steps, need {steps}"
            )
        # Everything but the previous samples' share of the input gates is
        # known before the loop: the conditioning's gates once per frame,
        # and in_proj folded into U so the samples add an (N, 3H) product.
        gru = self.gru
        cond_gates = gru.input_gates(cond[0] + self.in_proj_b.value)
        fold = gru.input_gates(self.in_proj_w.value.T, bias=False)
        weights = gru.step_weights()
        out_w, out_b = self.out_w.value, self.out_b.value
        h = np.zeros((1, cfg.gru_state), self.dtype)
        prev = np.zeros(cfg.n_bands, self.dtype)
        noise = mol.sample_noise(rng, steps, cfg.n_bands)
        rows = np.empty((steps, cfg.n_bands), self.dtype)
        for t in range(steps):
            h = gru.step((cond_gates[t // tile] + prev @ fold)[None], h, weights)
            flat = dense_forward(h, out_w, out_b).reshape(cfg.n_bands, -1)
            sample = np.minimum(np.maximum(mol.sample(flat, noise[t]), -1.0), 1.0)
            rows[t] = sample
            prev = sample.astype(self.dtype)
        waveform = self.filterbank.synthesize(rows.T)
        delay = self.filterbank.group_delay
        out = waveform[delay : delay + steps * cfg.n_bands]
        return AudioBuffer(out, cfg.sample_rate)

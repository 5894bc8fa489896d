"""Codec configuration: feature, model, quantizer and training settings.

A complete configuration can be written to / read from a flat text file of
``section.key = value`` lines. The canonical digest of a configuration is
embedded in every artifact (quantizer model, checkpoint, bitstream) so that
mismatched artifacts are rejected instead of silently decoded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .errors import ConfigError

DIGEST_SIZE = 8
# The one frame grid: mel frames of WINDOW_MS every HOP_MS, so FRAME_RATE
# frames per second, for the features, the voicing and the model alike.
WINDOW_MS, HOP_MS = 80, 20
FRAME_RATE = 1000 // HOP_MS


def hop_samples(sample_rate: int) -> int:
    """Samples per hop; sample_rate // FRAME_RATE at every rate the model accepts."""
    return round(sample_rate * HOP_MS / 1000)


@dataclass
class FeatureConfig:
    """Log mel analysis settings."""

    sample_rate: int = 16000
    n_mels: int = 160
    mel_fmin: float = 0.0
    mel_fmax: float = 0.0  # 0 -> sample_rate / 2

    @property
    def window_length(self) -> int:
        return round(self.sample_rate * WINDOW_MS / 1000)

    @property
    def hop_length(self) -> int:
        return hop_samples(self.sample_rate)

    @property
    def fft_size(self) -> int:
        """The next power of two >= the window length."""
        n = 1
        while n < self.window_length:
            n *= 2
        return n

    def resolved_fmax(self) -> float:
        return self.mel_fmax or self.sample_rate / 2.0

    def validate(self) -> None:
        if self.n_mels >= self.fft_size // 2:
            raise ConfigError("n_mels must be < fft_size/2")
        # an empty or out-of-band mel range leaves filters at the log floor on every input
        if not 0 <= self.mel_fmin < self.resolved_fmax() <= self.sample_rate / 2.0:
            raise ConfigError("mel band must satisfy 0 <= mel_fmin < mel_fmax <= sample_rate/2")


@dataclass
class ModelConfig:
    """Conditioning stack and WaveGRU dimensions."""

    n_bands: int = 4
    n_mix: int = 8
    gru_state: int = 1024
    cond_channels: int = 512
    n_mels: int = 160
    sample_rate: int = 16000
    gru_blocks: int = 1  # >1 switches the six gate matrices to block-diagonal
    fb_taps: int = 192
    # not a key: perfbench's worker reads it until it sizes the GRU step by the decode dtype
    dtype: ClassVar[str] = "float64"

    @property
    def band_rate(self) -> int:
        return self.sample_rate // self.n_bands

    @property
    def tile_factor(self) -> int:
        return self.band_rate // (FRAME_RATE * 8)

    def validate(self) -> None:
        for key in ("n_mix", "gru_state", "cond_channels", "n_mels", "sample_rate",
                    "gru_blocks", "fb_taps"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.n_bands < 2:  # the filterbank splits the signal into >= 2 bands
            raise ConfigError("n_bands must be >= 2")
        if self.fb_taps % (2 * self.n_bands) != 0:
            raise ConfigError("fb_taps must be a multiple of 2*n_bands")
        if self.sample_rate % self.n_bands != 0:
            raise ConfigError("sample_rate must be divisible by n_bands")
        if self.band_rate % (FRAME_RATE * 8) != 0:
            raise ConfigError(f"band rate must be an integer multiple of {FRAME_RATE * 8} Hz")
        if self.gru_state % self.gru_blocks != 0:
            raise ConfigError("gru_state must be divisible by gru_blocks")


@dataclass
class QuantizerConfig:
    """Supervector stacking and split VQ settings."""

    stack: int = 2
    bits_per_supervector: int = 120
    split_dim: int = 2
    max_bits_per_split: int = 8
    seed: int = 1234

    def validate(self) -> None:
        if self.stack < 1:
            raise ConfigError("stack must be >= 1")
        # with no bits there is no payload to bound a bitstream's supervector count
        if self.bits_per_supervector < 1:
            raise ConfigError("bits_per_supervector must be >= 1")
        if self.split_dim < 1:
            raise ConfigError("split_dim must be >= 1")
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise ConfigError("seed must be >= 0")


@dataclass
class TrainConfig:
    """Objective and optimization settings."""

    nu: float = 0.01
    regularizer: str = "log"  # "log" or "linear"
    var_floor: float = 1e-4  # the additive floor inside the log regularizer
    reg_bands: int = 2  # regularize the lowest bands only
    batch_size: int = 16
    steps: int = 2000
    seed: int = 0
    snr_min: float = 0.0
    snr_max: float = 40.0
    lr: float = 1e-3
    pruning: bool = False
    prune_start: int = 0
    prune_end: int = 1000
    prune_interval: int = 10
    target_sparsity: float = 0.92
    baseline_gamma0: float = 0.0
    checkpoint_interval: int = 500
    clip_seconds: float = 0.16

    def validate(self) -> None:
        if self.nu < 0:
            raise ConfigError("nu must be >= 0")
        if self.snr_min > self.snr_max:
            raise ConfigError("snr_min must be <= snr_max")
        if not math.isfinite(self.snr_max - self.snr_min):  # the range rng.uniform draws from
            raise ConfigError("snr_max - snr_min must be finite")
        if self.regularizer not in ("log", "linear"):
            raise ConfigError("regularizer must be 'log' or 'linear'")
        if not self.var_floor > 0:  # the log regularizer takes ln(sigma + var_floor)
            raise ConfigError("var_floor must be positive")
        if not 0 <= self.target_sparsity <= 1:
            raise ConfigError("target_sparsity must be in [0, 1]")
        if self.prune_end < self.prune_start:
            raise ConfigError("prune_end must be >= prune_start")
        if not 0 <= self.baseline_gamma0 < 1:
            raise ConfigError("baseline_gamma0 must be in [0, 1)")
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise ConfigError("seed must be >= 0")
        for key in ("steps", "batch_size", "lr", "prune_interval", "checkpoint_interval",
                    "clip_seconds"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")


_SECTIONS = {
    "features": FeatureConfig,
    "model": ModelConfig,
    "quantizer": QuantizerConfig,
    "train": TrainConfig,
}


@dataclass
class CodecConfig:
    """Bundle of all configuration sections."""

    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        self.features.validate()
        self.model.validate()
        self.quantizer.validate()
        self.train.validate()
        if self.features.sample_rate != self.model.sample_rate:
            raise ConfigError("feature and model sample rates differ")
        if self.features.n_mels != self.model.n_mels:
            raise ConfigError("feature and model mel counts differ")
        q = self.quantizer
        n_splits = math.ceil(self.features.n_mels * q.stack / q.split_dim)
        if q.bits_per_supervector > n_splits * q.max_bits_per_split:
            raise ConfigError("quantizer.bits_per_supervector exceeds "
                              "n_splits * max_bits_per_split")
        if not 1 <= self.train.reg_bands <= self.model.n_bands:
            raise ConfigError("train.reg_bands must be in 1..model.n_bands")

    def items(self) -> list[tuple[str, object]]:
        out = []
        for section, _ in _SECTIONS.items():
            obj = getattr(self, section)
            for f in fields(obj):
                out.append((f"{section}.{f.name}", getattr(obj, f.name)))
        return out

    def digest(self) -> bytes:
        """8-byte canonical digest, invariant to key order in the file.

        Covers the sections that determine artifact compatibility
        (features, model, quantizer); training-loop settings may differ
        between a checkpoint's producer and consumer.
        """
        lines = sorted(
            f"{k}={_canon(v)}" for k, v in self.items() if not k.startswith("train.")
        )
        h = hashlib.sha256("\n".join(lines).encode("utf-8"))
        return h.digest()[:DIGEST_SIZE]

    def to_text(self) -> str:
        lines = [f"{k} = {_canon(v)}" for k, v in self.items()]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _coerce(text: str, target_type: type):
    text = text.strip()
    if target_type is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    if target_type is int:
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"expected an integer, got {text!r}") from exc
    if target_type is float:
        try:
            value = float(text)
        except ValueError as exc:
            raise ConfigError(f"expected a number, got {text!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {text!r}")
        return value
    return text


def parse_config(text: str) -> CodecConfig:
    """Parse ``section.key = value`` lines. Unknown and repeated keys are rejected."""
    cfg = CodecConfig()
    known = {
        f"{section}.{f.name}": (section, f)
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
    }
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} set twice")
        seen.add(key)
        section, f = known[key]
        setattr(getattr(cfg, section), f.name, _coerce(value, _field_type(f)))
    cfg.validate()
    return cfg


def _field_type(f: dataclasses.Field) -> type:
    # Field annotations are strings under `from __future__ import annotations`.
    return {"int": int, "float": float, "str": str, "bool": bool}[f.type]


def read_text(path) -> str:
    """A config or manifest file's text; ConfigError naming the file if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_config(path) -> CodecConfig:
    return parse_config(read_text(path))


def paper_config() -> CodecConfig:
    """Full-scale configuration: 16 kHz, 160 mels, 4 bands, GRU 1024, 3 kb/s."""
    cfg = CodecConfig()
    cfg.validate()
    return cfg


def toy_config() -> CodecConfig:
    """Desk-scale configuration that trains in minutes on a CPU."""
    cfg = CodecConfig(
        # mels concentrated below 2 kHz so the toy tone's harmonics are
        # several bins apart and survive quantization
        features=FeatureConfig(sample_rate=8000, n_mels=32, mel_fmax=2000.0),
        model=ModelConfig(
            n_bands=4,
            n_mix=4,
            gru_state=64,
            cond_channels=32,
            n_mels=32,
            sample_rate=8000,
            fb_taps=96,
        ),
        quantizer=QuantizerConfig(stack=2, bits_per_supervector=40, max_bits_per_split=6),
        train=TrainConfig(batch_size=16, steps=2000),
    )
    cfg.validate()
    return cfg

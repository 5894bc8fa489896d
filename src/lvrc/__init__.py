"""Low-variance regularized generative speech codec (3 kb/s class, desk scale).

Pipeline: log mel features -> KLT + split VQ bitstream -> conditioning
stack -> multi-band WaveGRU sampling mixture-of-logistics -> synthesis
filterbank. Training minimizes teacher-forced NLL plus a predictive
variance regularizer.
"""

from .audio import AudioBuffer, load_wav, save_wav
from .config import (
    CodecConfig,
    ModelConfig,
    QuantizerConfig,
    TrainConfig,
    load_config,
    paper_config,
    parse_config,
    toy_config,
)
from .errors import (
    CodecError,
    ConfigError,
    DigestError,
    FormatError,
    FramingError,
    NumericError,
)

__all__ = [
    "AudioBuffer",
    "load_wav",
    "save_wav",
    "CodecConfig",
    "ModelConfig",
    "QuantizerConfig",
    "TrainConfig",
    "load_config",
    "parse_config",
    "paper_config",
    "toy_config",
    "CodecError",
    "ConfigError",
    "DigestError",
    "FormatError",
    "FramingError",
    "NumericError",
]

__version__ = "0.1.0"

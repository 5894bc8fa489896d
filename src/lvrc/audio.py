"""Mono waveform buffer and 16-bit PCM WAV file I/O."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .container import write_file_atomic
from .errors import FormatError

_PCM_SCALE = 32768.0


@dataclass
class AudioBuffer:
    """Mono waveform with samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise FormatError("AudioBuffer requires a 1-D sample array")
        if self.sample_rate <= 0:
            raise FormatError("sample_rate must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def load_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file holding 16-bit PCM mono samples.

    Samples are scaled by 1/32768 into [-1, 1). Raises FormatError for
    other encodings or channel counts and for a truncated or missing fmt
    or data chunk; OSError only when the file cannot be read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body = data[offset + 8 : offset + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise FormatError(f"{path}: truncated data chunk")
            payload = body
        offset += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or payload is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise FormatError(f"{path}: only 16-bit PCM is supported")
    if channels != 1:
        raise FormatError(f"{path}: only mono is supported, got {channels} channels")

    if len(payload) % 2:
        raise FormatError(f"{path}: data chunk of {len(payload)} bytes ends inside a sample")
    raw = np.frombuffer(payload, dtype="<i2")
    return AudioBuffer(raw.astype(np.float64) / _PCM_SCALE, sample_rate)


def save_wav(path, audio: AudioBuffer) -> None:
    """Write 16-bit PCM mono, little-endian. Samples outside [-1, 1] are clamped.

    The file is replaced atomically: a failed save leaves the old one intact.
    """
    clamped = np.clip(audio.samples, -1.0, 1.0)
    quantized = np.clip(np.round(clamped * _PCM_SCALE), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, 1, 1, audio.sample_rate, 2 * audio.sample_rate, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    write_file_atomic(path, header + payload)

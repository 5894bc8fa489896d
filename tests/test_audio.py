"""WAV I/O contracts."""

import struct

import numpy as np
import pytest

from lvrc.audio import AudioBuffer, load_wav, save_wav
from lvrc.errors import FormatError


def test_zero_file_roundtrip(tmp_path):
    path = tmp_path / "z.wav"
    save_wav(path, AudioBuffer(np.zeros(16000), 16000))
    buf = load_wav(path)
    assert buf.sample_rate == 16000
    assert len(buf) == 16000
    assert np.all(buf.samples == 0.0)


def test_fullscale_sample_scaling(tmp_path):
    path = tmp_path / "fs.wav"
    save_wav(path, AudioBuffer(np.array([32767.0 / 32768.0]), 16000))
    buf = load_wav(path)
    assert buf.samples[0] == pytest.approx(0.99997, abs=1e-5)
    assert buf.samples[0] == 32767.0 / 32768.0


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    payload = struct.pack("<4sI4s", b"RIFF", 36 + 4, b"WAVE")
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16)
    data = b"data" + struct.pack("<I", 4) + b"\x00" * 4
    path.write_bytes(payload + fmt + data)
    with pytest.raises(FormatError):
        load_wav(path)


def test_non_pcm_rejected(tmp_path):
    path = tmp_path / "float.wav"
    payload = struct.pack("<4sI4s", b"RIFF", 36 + 4, b"WAVE")
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32)
    data = b"data" + struct.pack("<I", 4) + b"\x00" * 4
    path.write_bytes(payload + fmt + data)
    with pytest.raises(FormatError):
        load_wav(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "trunc.wav"
    save_wav(path, AudioBuffer(np.zeros(100), 8000))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 50])
    with pytest.raises(FormatError, match="truncated data chunk"):
        load_wav(path)


def test_truncated_fmt_chunk_rejected(tmp_path):
    path = tmp_path / "trunc_fmt.wav"
    save_wav(path, AudioBuffer(np.zeros(100), 8000))
    path.write_bytes(path.read_bytes()[:30])  # 10 of the 16 fmt bytes
    with pytest.raises(FormatError, match="truncated fmt chunk"):
        load_wav(path)


def test_missing_chunk_rejected(tmp_path):
    path = tmp_path / "no_data.wav"
    save_wav(path, AudioBuffer(np.zeros(100), 8000))
    path.write_bytes(path.read_bytes()[:36])  # header and fmt chunk only
    with pytest.raises(FormatError, match="missing fmt or data chunk"):
        load_wav(path)


def test_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_wav(tmp_path / "absent.wav")


def test_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(11)
    original = AudioBuffer(rng.uniform(-1, 1, 4000), 8000)
    path = tmp_path / "rt.wav"
    save_wav(path, original)
    rebuilt = load_wav(path)
    assert np.max(np.abs(rebuilt.samples - original.samples)) <= 1.0 / 32768.0


def test_empty_buffer(tmp_path):
    path = tmp_path / "empty.wav"
    save_wav(path, AudioBuffer(np.zeros(0), 16000))
    buf = load_wav(path)
    assert len(buf) == 0


def test_clamps_out_of_range(tmp_path):
    path = tmp_path / "clamp.wav"
    save_wav(path, AudioBuffer(np.array([1.5, -2.0]), 16000))
    buf = load_wav(path)
    assert buf.samples[0] == 32767.0 / 32768.0
    assert buf.samples[1] == -1.0


def test_save_load_twice_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    buf = AudioBuffer(rng.uniform(-1, 1, 1000), 16000)
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    save_wav(p1, buf)
    save_wav(p2, load_wav(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_odd_length_data_chunk_rejected(tmp_path):
    path = tmp_path / "odd.wav"
    payload = struct.pack("<4sI4s", b"RIFF", 36 + 3, b"WAVE")
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    data = b"data" + struct.pack("<I", 3) + b"\x00" * 3 + b"\x00"  # pad byte
    path.write_bytes(payload + fmt + data)
    with pytest.raises(FormatError):
        load_wav(path)

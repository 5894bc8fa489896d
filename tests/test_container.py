"""Named-array container: round trip, malformed blobs and atomic writes."""

import os
import stat
import struct
import threading

import numpy as np
import pytest

from lvrc import container
from lvrc.container import (
    pack_container,
    read_container,
    unpack_container,
    write_container,
    write_file_atomic,
)
from lvrc.errors import FormatError

MAGIC, DIGEST = b"TEST", b"\x01" * 8


def blob_with(name: bytes) -> bytes:
    """A one-entry container holding a (2,) float64 array under a raw name."""
    head = MAGIC + struct.pack("<B", 1) + DIGEST + struct.pack("<I", 1)
    entry = struct.pack("<H", len(name)) + name + struct.pack("<BBI", 0, 1, 2)
    return head + entry + np.array([1.5, -2.0]).tobytes()


def test_round_trip():
    arrays = {"a": np.arange(6, dtype=np.int64).reshape(2, 3), "b": np.ones(3, np.float32)}
    digest, back = unpack_container(pack_container(MAGIC, DIGEST, arrays), MAGIC, DIGEST)
    assert digest == DIGEST and list(back) == ["a", "b"]
    for key, arr in arrays.items():
        assert back[key].dtype == arr.dtype and np.array_equal(back[key], arr)
    assert unpack_container(blob_with(b"w"), MAGIC)[1]["w"].tolist() == [1.5, -2.0]


def test_non_utf8_entry_name_rejected():
    with pytest.raises(FormatError):
        unpack_container(blob_with(b"\xff\xfe"), MAGIC)


def test_bytes_after_last_entry_rejected():
    blob = pack_container(MAGIC, DIGEST, {"a": np.zeros(4)})
    with pytest.raises(FormatError):
        unpack_container(blob + b"\x00", MAGIC)


@pytest.mark.parametrize("failure", ["pack", "write"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "model.ckpt"
    write_container(path, MAGIC, DIGEST, {"w": np.arange(4.0)})
    before = path.read_bytes()
    arrays = {"w": np.ones(8)}
    if failure == "pack":
        arrays["bad"] = np.ones(2, dtype=np.complex128)  # no dtype code: pack raises
        expected = ValueError
    else:
        def full_disk(fd):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(container.os, "fsync", full_disk)
        expected = OSError
    with pytest.raises(expected):
        write_container(path, MAGIC, DIGEST, arrays)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_rewrite_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "model.ckpt"
    write_container(path, MAGIC, DIGEST, {"w": np.arange(4.0)})
    write_container(path, MAGIC, DIGEST, {"w": np.ones(3)})
    assert read_container(path, MAGIC, DIGEST)[1]["w"].tolist() == [1.0, 1.0, 1.0]
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_symlink_target_is_replaced(tmp_path):
    target, link = tmp_path / "real.wav", tmp_path / "link.wav"
    target.write_bytes(b"old")
    link.symlink_to(target)
    write_file_atomic(link, b"new")
    assert link.is_symlink() and target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.wav", "real.wav"]


def test_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.wav"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_file_atomic(fifo, b"abc")
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [b"abc"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)

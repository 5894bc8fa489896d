"""Named-array container: round trip, malformed blobs and atomic writes."""

import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from lvrc import container
from lvrc.container import (
    pack_container,
    pack_header,
    read_container,
    unpack_container,
    unpack_header,
    write_container,
    write_file_atomic,
)
from lvrc.errors import DigestError, FormatError, FramingError

MAGIC, DIGEST = b"TEST", b"\x01" * 8


def blob_with(name: bytes, dims: tuple[int, ...] = (2,)) -> bytes:
    """A one-entry container: two float64 values under a raw name and raw dims."""
    head = MAGIC + struct.pack("<B", 1) + DIGEST + struct.pack("<I", 1)
    entry = struct.pack("<H", len(name)) + name + struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims)
    return head + entry + np.array([1.5, -2.0]).tobytes()


def test_round_trip():
    arrays = {"a": np.arange(6, dtype=np.int64).reshape(2, 3), "b": np.ones(3, np.float32)}
    digest, back = unpack_container(pack_container(MAGIC, DIGEST, arrays), MAGIC, DIGEST)
    assert digest == DIGEST and list(back) == ["a", "b"]
    for key, arr in arrays.items():
        assert back[key].dtype == arr.dtype and np.array_equal(back[key], arr)
    assert unpack_container(blob_with(b"w"), MAGIC)[1]["w"].tolist() == [1.5, -2.0]


def test_entries_are_read_only_views_that_round_trip_bit_for_bit():
    # odd name lengths put most entries at offsets their dtype does not divide
    special = np.array([np.nan, -0.0, np.inf, -np.inf, 5e-324, 1.0 / 3.0])
    arrays = {"f8": special, "f4x": special.astype(np.float32).reshape(2, 3),
              "i8yy": np.arange(-3, 3, dtype=np.int64), "u1": np.arange(5, dtype=np.uint8),
              "u4zzz": np.array([[0, 2**32 - 1]], dtype=np.uint32), "empty": np.zeros((0, 4))}
    blob = pack_container(MAGIC, DIGEST, arrays)
    back = unpack_container(blob, MAGIC, DIGEST)[1]
    for key, arr in arrays.items():
        assert back[key].dtype == arr.dtype and back[key].shape == arr.shape, key
        assert back[key].tobytes() == arr.tobytes(), key
        assert not back[key].flags.writeable, key
    big = pack_container(MAGIC, DIGEST, {"w": np.ones(1 << 20), "v": np.ones((64, 1024))})
    tracemalloc.start()
    try:
        unpack_container(big, MAGIC, DIGEST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(big) // 100  # no entry is copied out of the blob


def test_every_truncation_rejected():
    blob = pack_container(MAGIC, DIGEST, {"a": np.arange(3.0), "bb": np.ones((2, 2), np.int64)})
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            unpack_container(blob[:cut], MAGIC)


def test_header_checks():
    blob = pack_container(MAGIC, DIGEST, {"a": np.zeros(2)})
    assert blob[:17] == pack_header(MAGIC, DIGEST, 1)
    assert unpack_header(blob, MAGIC, DIGEST) == (DIGEST, 1)
    with pytest.raises(FramingError):  # shorter than the header, as for a bitstream
        unpack_container(blob[:10], MAGIC)
    with pytest.raises(DigestError):
        unpack_container(blob, MAGIC, b"\x02" * 8)


def test_non_utf8_entry_name_rejected():
    with pytest.raises(FormatError):
        unpack_container(blob_with(b"\xff\xfe"), MAGIC)


@pytest.mark.parametrize("dims", [(0xFFFFFFFF,) * 4, (0,) + (0xFFFFFFFF,) * 3])
def test_dims_whose_product_overflows_rejected(dims):
    # (2**32 - 1)**4 wraps to a negative int64 byte count; the zero-size
    # entry has a size numpy cannot hold
    with pytest.raises(FormatError):
        unpack_container(blob_with(b"w", dims), MAGIC)


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

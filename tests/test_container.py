"""Named-array container: round trip and malformed blobs."""

import struct

import numpy as np
import pytest

from lvrc.container import pack_container, unpack_container
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

"""Named-array binary container used for quantizer models and checkpoints.

Layout (all integers little-endian):

    magic     4 bytes (owner-specific)
    version   u8
    digest    8 bytes (config digest)
    n_entries u32
    entry:    u16 name length, utf-8 name, u8 dtype code, u8 ndim,
              ndim x u32 dims, raw array bytes (little-endian, C order)

Writing the same arrays twice produces byte-identical files, which the
artifact determinism contracts rely on. Files are replaced atomically, so
a crash or a failed write never leaves a torn artifact behind.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import DigestError, FormatError

VERSION = 1

_DTYPES = {0: "<f8", 1: "<f4", 2: "<i8", 3: "u1", 4: "<u4"}
_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


def pack_container(magic: bytes, digest: bytes, arrays: dict[str, np.ndarray]) -> bytes:
    if len(magic) != 4 or len(digest) != 8:
        raise ValueError("magic must be 4 bytes and digest 8 bytes")
    parts = [magic, struct.pack("<B", VERSION), digest, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        key = np.dtype(arr.dtype.str.replace(">", "<"))
        if key not in _CODES:
            raise ValueError(f"unsupported dtype {arr.dtype} for entry {name!r}")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<BB", _CODES[key], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype(key, copy=False).tobytes(order="C"))
    return b"".join(parts)


def unpack_container(
    blob: bytes, magic: bytes, expected_digest: bytes | None = None
) -> tuple[bytes, dict[str, np.ndarray]]:
    """Return (digest, arrays). Raises DigestError on a config mismatch.

    Any other malformed blob, including one with bytes after its last
    entry, raises FormatError.
    """
    if len(blob) < 17:
        raise FormatError("container truncated")
    if blob[:4] != magic:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {magic!r}")
    version = blob[4]
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    digest = blob[5:13]
    if expected_digest is not None and digest != expected_digest:
        raise DigestError("artifact was built under a different configuration")
    (n_entries,) = struct.unpack_from("<I", blob, 13)
    offset = 17
    arrays: dict[str, np.ndarray] = {}
    try:
        for _ in range(n_entries):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            code, ndim = struct.unpack_from("<BB", blob, offset)
            offset += 2
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            dtype = np.dtype(_DTYPES[code])
            nbytes = dtype.itemsize * math.prod(shape)  # exact: a wrapped product could pass
            if offset + nbytes > len(blob):
                raise FormatError(f"entry {name!r} truncated")
            arrays[name] = np.frombuffer(
                blob[offset : offset + nbytes], dtype=dtype
            ).reshape(shape)
            offset += nbytes
    except (struct.error, KeyError, ValueError) as exc:  # ValueError: not utf-8, too big a shape
        raise FormatError("container corrupted") from exc
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} bytes after the last entry")
    return digest, arrays


def entry(arrays: dict[str, np.ndarray], name: str, min_size: int = 0) -> np.ndarray:
    """arrays[name]; FormatError if it is missing or holds fewer than min_size values."""
    if name not in arrays or arrays[name].size < min_size:
        raise FormatError(f"entry {name!r} is missing or holds fewer than {min_size} values")
    return arrays[name]


def write_file_atomic(path, data: bytes) -> None:
    """Replace the file at path with data, all or nothing.

    The bytes go to a temp file in the same directory, are flushed to disk
    and renamed over path, so a reader or a later resume sees the old file
    or the new one, never a torn one. On failure the temp file is removed.
    An existing device or pipe (say /dev/null or /dev/stdout) cannot be
    renamed over and is written in place; a symlink is followed, so its
    target is the file replaced.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_container(path, magic: bytes, digest: bytes, arrays: dict[str, np.ndarray]) -> None:
    write_file_atomic(path, pack_container(magic, digest, arrays))


def read_container(path, magic: bytes, expected_digest: bytes | None = None):
    with open(path, "rb") as fh:
        return unpack_container(fh.read(), magic, expected_digest)

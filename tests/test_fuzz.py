"""Seeded mutation fuzz: a damaged artifact makes the CLI exit with a
documented code (0, 2, 3 or 4), never raise.

Valid toy `.wav`, `.lvrq`, `.ckpt` and `.lvrc` files are made once. Each
is then cut short, bit-flipped, extended with stray bytes, or has one of
its counts (entry count, array dim, chunk size, supervector count) set to
0x7fffffff, and every mutated file goes through the commands that read it.
"""

import math
import struct

import numpy as np
import pytest

from lvrc import cli
from lvrc.audio import AudioBuffer, save_wav
from lvrc.config import toy_config
from lvrc.container import _DTYPES
from lvrc.trainer import synthetic_clip

KINDS = ["wav", "lvrq", "ckpt", "lvrc"]
MUTATIONS = ["truncate", "flip", "append", "count"]
MUTATIONS_PER_CASE = 10
EXIT_CODES = {0, 2, 3, 4}


def layout(blob: bytes, kind: str) -> tuple[list[int], list[int]]:
    """Offsets of the count fields and of every header byte of a valid artifact."""
    if kind == "wav":
        return [4, 16, 40], list(range(44))
    if kind == "lvrc":
        return [13], list(range(17))
    counts, header, off = [13], list(range(17)), 17
    while off < len(blob):  # container entries: name, dtype code, ndim, dims, data
        (name_len,) = struct.unpack_from("<H", blob, off)
        code, ndim = blob[off + 2 + name_len : off + 4 + name_len]
        dims_at = off + 4 + name_len
        dims = struct.unpack_from(f"<{ndim}I", blob, dims_at)
        counts += range(dims_at, dims_at + 4 * ndim, 4)
        header += range(off, dims_at + 4 * ndim)
        off = dims_at + 4 * ndim + np.dtype(_DTYPES[code]).itemsize * math.prod(dims)
    return counts, header


def mutate(blob: bytes, kind: str, mutation: str, rng: np.random.Generator) -> bytes:
    """One seeded mutation of a `kind` artifact; half the bit flips land in
    the header, where a flip changes structure rather than a value."""
    counts, header = layout(blob, kind)
    if mutation == "truncate":
        return blob[: int(rng.integers(len(blob)))]
    if mutation == "flip":
        at = int(rng.choice(header) if rng.random() < 0.5 else rng.integers(len(blob)))
        out = bytearray(blob)
        out[at] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if mutation == "append":
        return blob + rng.bytes(int(rng.integers(1, 9)))
    at = int(rng.choice(counts))
    return blob[:at] + struct.pack("<I", 0x7FFFFFFF) + blob[at + 4 :]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A 2-step checkpoint, a quantizer, a 0.25 s WAV and its bitstream."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = toy_config()
    cfg.train.steps = 2
    cfg.train.batch_size = 2
    cfg.train.checkpoint_interval = 2
    cfg_path = root / "toy.cfg"
    cfg.save(cfg_path)
    paths = {"cfg": str(cfg_path)}
    for kind in KINDS:
        paths[kind] = str(root / f"good.{kind}")
    assert cli.main(["train", "--config", paths["cfg"], "--out-dir", str(root / "run")]) == 0
    (root / "run" / "model.ckpt").rename(paths["ckpt"])
    assert cli.main(["fit-quantizer", "--config", paths["cfg"], "--synthetic", "24",
                     "--out", paths["lvrq"]]) == 0
    sr = cfg.model.sample_rate
    save_wav(paths["wav"], AudioBuffer(synthetic_clip(np.random.default_rng(3), sr, sr // 4), sr))
    assert cli.main(["encode", "--config", paths["cfg"], "--quantizer", paths["lvrq"],
                     paths["wav"], paths["lvrc"]]) == 0
    return root, paths


def commands(paths: dict, kind: str, bad: str, out: str) -> list[list[str]]:
    """Every CLI call that reads an artifact of `kind`, with `bad` in its place."""
    p = {**paths, kind: bad}
    cfg_q = ["--config", p["cfg"], "--quantizer", p["lvrq"]]
    encode = ["encode", *cfg_q, p["wav"], out + ".lvrc"]
    decode = ["decode", *cfg_q, "--model", p["ckpt"], p["lvrc"], out + ".wav"]
    resume = ["train", "--config", p["cfg"], "--out-dir", out, "--resume", p["ckpt"]]
    return {"wav": [encode], "lvrq": [encode, decode], "ckpt": [decode, resume],
            "lvrc": [decode]}[kind]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_mutated_artifact_exits_with_a_documented_code(artifacts, kind, mutation):
    """A cut-short file, and a container or bitstream with bytes appended,
    must exit 3; a WAV may carry trailing chunks."""
    root, paths = artifacts
    with open(paths[kind], "rb") as fh:
        blob = fh.read()
    strict = mutation == "truncate" or (mutation == "append" and kind != "wav")
    failures = []
    for i in range(MUTATIONS_PER_CASE):
        rng = np.random.default_rng([KINDS.index(kind), MUTATIONS.index(mutation), i])
        bad = root / f"{kind}_{mutation}_{i}.bad"
        bad.write_bytes(mutate(blob, kind, mutation, rng))
        for argv in commands(paths, kind, str(bad), str(root / f"out_{kind}_{mutation}_{i}")):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # the defect under test: report it with its input
                failures.append(f"{bad.name} {argv[0]}: {type(exc).__name__}: {exc}")
                continue
            if rc not in ({3} if strict else EXIT_CODES):
                failures.append(f"{bad.name} {argv[0]}: exit {rc}")
    assert not failures, "\n".join(failures)

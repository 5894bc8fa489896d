"""Supervector stacking, offline KLT, split vector quantization, bitstream.

Encoder path: consecutive log mel frames are stacked into supervectors,
decorrelated by a KLT fitted offline, split into consecutive coefficient
pairs (eigenvalue order), and each split is quantized with its own
k-means codebook. Bits are spread over splits by a greedy rule driven by
the split eigenvalue mass. Indices are packed MSB-first into a bitstream
with a fixed little-endian header; splits given zero bits are not coded
and decode to the zero coefficient.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .config import QuantizerConfig
from .container import entry, read_container, write_container
from .errors import ConfigError, DigestError, FormatError, FramingError

BITSTREAM_MAGIC = b"LVRC"
BITSTREAM_VERSION = 1
MODEL_MAGIC = b"LVRQ"


def stack_supervectors(frames: np.ndarray, stack: int) -> np.ndarray:
    """Concatenate groups of `stack` consecutive frames; drops a trailing partial group."""
    if stack < 1:
        raise ConfigError("stack must be >= 1")
    frames = np.asarray(frames, dtype=np.float64)
    n_groups = frames.shape[0] // stack
    return frames[: n_groups * stack].reshape(n_groups, stack * frames.shape[1])


def unstack_supervectors(supervectors: np.ndarray, stack: int) -> np.ndarray:
    supervectors = np.asarray(supervectors, dtype=np.float64)
    n, dim = supervectors.shape
    return supervectors.reshape(n * stack, dim // stack)


@dataclass
class KLTModel:
    """Mean and orthonormal eigenbasis (columns, descending eigenvalue order)."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    rank_deficient: bool = False


def fit_klt(data: np.ndarray) -> KLTModel:
    """Eigendecomposition of the sample covariance.

    Sign convention: in every basis column the element of largest
    magnitude is positive. With fewer samples than dimensions the model
    is flagged rank deficient and eigenvalues are floored.
    """
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    if n < 2:
        raise ConfigError("need at least two vectors to fit a KLT")
    mean = data.mean(axis=0)
    cov = np.cov(data - mean, rowvar=False, ddof=1).reshape(dim, dim)
    eigenvalues, basis = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    basis = basis[:, order]
    flips = np.sign(basis[np.argmax(np.abs(basis), axis=0), np.arange(dim)])
    flips[flips == 0] = 1.0
    basis = basis * flips

    eigenvalues = np.maximum(eigenvalues, 0.0)
    rank_deficient = n <= dim
    if rank_deficient:
        floor = 1e-12 * max(eigenvalues.sum() / dim, 1e-30)
        eigenvalues = np.maximum(eigenvalues, floor)
        warnings.warn("KLT fitted with fewer samples than dimensions; eigenvalues floored")
    return KLTModel(mean, basis, eigenvalues, rank_deficient)


def apply_klt(vectors: np.ndarray, model: KLTModel) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != model.mean.shape[0]:
        raise ConfigError("dimension mismatch in apply_klt")
    return (vectors - model.mean) @ model.basis


def invert_klt(coefficients: np.ndarray, model: KLTModel) -> np.ndarray:
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.shape[-1] != model.mean.shape[0]:
        raise ConfigError("dimension mismatch in invert_klt")
    return coefficients @ model.basis.T + model.mean


def allocate_bits(eigenvalues: np.ndarray, split_dim: int, total_bits: int,
                  max_bits_per_split: int = 8) -> np.ndarray:
    """Greedy allocation over consecutive splits of the eigenvalue vector.

    Each round grants one bit to the split with the largest
    (eigenvalue mass) / 4^(bits granted so far), ties to the lower split
    index, capped at max_bits_per_split.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    n_splits = (len(eigenvalues) + split_dim - 1) // split_dim
    if total_bits < 0:
        raise ConfigError("total_bits must be >= 0")
    if total_bits > n_splits * max_bits_per_split:
        raise ConfigError("total_bits exceeds n_splits * max_bits_per_split")
    mass = np.array([eigenvalues[i * split_dim : (i + 1) * split_dim].sum() for i in range(n_splits)])
    bits = np.zeros(n_splits, dtype=np.int64)
    for _ in range(total_bits):
        priority = mass / np.power(4.0, bits)
        priority[bits >= max_bits_per_split] = -np.inf
        bits[int(np.argmax(priority))] += 1
    return bits


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(n)]
            continue
        probs = d2 / total
        centroids[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _nearest(points: np.ndarray, centroids: np.ndarray, chunk: int = 8192):
    """Index of the nearest centroid (Euclidean, ties to the lowest index)."""
    out = np.empty(len(points), dtype=np.int64)
    dmin = np.empty(len(points))
    c2 = np.sum(centroids**2, axis=1)
    for lo in range(0, len(points), chunk):
        block = points[lo : lo + chunk]
        d2 = c2[None, :] - 2.0 * (block @ centroids.T) + np.sum(block**2, axis=1)[:, None]
        out[lo : lo + chunk] = np.argmin(d2, axis=1)
        dmin[lo : lo + chunk] = d2[np.arange(len(block)), out[lo : lo + chunk]]
    return out, np.maximum(dmin, 0.0)


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           iters: int = 50, tol: float = 1e-6):
    """Lloyd iterations with k-means++ seeding.

    Empty clusters are re-seeded to the point farthest from its assigned
    centroid. Returns (centroids, mean squared distortion trace).
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) < k:
        raise ConfigError(f"need at least {k} points to fit {k} centroids")
    centroids = _kmeans_pp_init(points, k, rng)
    trace = []
    prev = np.inf
    for _ in range(iters):
        assign, d2 = _nearest(points, centroids)
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(d2))
                centroids[j] = points[far]
                d2[far] = 0.0
        assign, d2 = _nearest(points, centroids)
        dist = float(d2.mean())
        trace.append(dist)
        if prev != np.inf and abs(prev - dist) < tol * max(dist, 1e-30):
            break
        prev = dist
    return centroids, trace


@dataclass
class SplitVQModel:
    """Per-split codebooks; splits with zero bits decode to the zero vector."""

    split_dim: int
    allocations: np.ndarray
    codebooks: list[np.ndarray]  # entry j has shape (2**allocations[j], <=split_dim)

    @property
    def n_splits(self) -> int:
        return len(self.allocations)

    @property
    def bits_per_vector(self) -> int:
        return int(self.allocations.sum())


def fit_codebooks(coefficients: np.ndarray, allocations: np.ndarray,
                  cfg: QuantizerConfig) -> SplitVQModel:
    coefficients = np.asarray(coefficients, dtype=np.float64)
    allocations = np.asarray(allocations, dtype=np.int64)
    codebooks = []
    for j, bits in enumerate(allocations):
        lo, hi = j * cfg.split_dim, (j + 1) * cfg.split_dim
        width = min(hi, coefficients.shape[1]) - lo
        if bits == 0:
            codebooks.append(np.zeros((1, width)))
            continue
        rng = np.random.default_rng([cfg.seed, j])
        centroids, _ = kmeans(
            coefficients[:, lo : lo + width], 2**int(bits), rng,
            iters=cfg.kmeans_iters, tol=cfg.kmeans_tol,
        )
        codebooks.append(centroids)
    return SplitVQModel(cfg.split_dim, allocations, codebooks)


@dataclass
class QuantizerModel:
    """Fitted KLT + split VQ bound to a config digest."""

    klt: KLTModel
    vq: SplitVQModel
    stack: int
    digest: bytes
    seed: int

    def save(self, path) -> None:
        arrays = {
            "mean": self.klt.mean,
            "basis": self.klt.basis,
            "eigenvalues": self.klt.eigenvalues,
            "allocations": self.vq.allocations,
            "meta": np.array(
                [self.stack, self.vq.split_dim, self.seed, int(self.klt.rank_deficient)],
                dtype=np.int64,
            ),
        }
        for j, cb in enumerate(self.vq.codebooks):
            arrays[f"codebook/{j}"] = cb
        write_container(path, MODEL_MAGIC, self.digest, arrays)

    @classmethod
    def load(cls, path, expected_digest: bytes | None = None) -> "QuantizerModel":
        """Read a saved model; FormatError if an entry is missing or the shapes disagree."""
        digest, arrays = read_container(path, MODEL_MAGIC, expected_digest)
        stack, split_dim, seed, rank_deficient = (int(v) for v in entry(arrays, "meta", 4)[:4])
        bits = entry(arrays, "allocations").astype(np.int64)
        mean, basis, eig = (np.asarray(entry(arrays, key), dtype=np.float64)
                            for key in ("mean", "basis", "eigenvalues"))
        codebooks = [np.asarray(entry(arrays, f"codebook/{j}"), dtype=np.float64)
                     for j in range(len(bits))]
        dim = mean.size
        if not (stack >= 1 and split_dim >= 1 and dim % stack == 0
                and mean.shape == eig.shape == (dim,) and basis.shape == (dim, dim)
                and bits.shape == ((dim + split_dim - 1) // split_dim,)
                # bits is bounded before 2**bits is formed
                and all(0 <= b <= 32 and cb.shape == (2**b if b else 1,
                                                      min(split_dim, dim - j * split_dim))
                        for j, (b, cb) in enumerate(zip(bits.tolist(), codebooks)))):
            raise FormatError("quantizer model entries have inconsistent shapes")
        klt = KLTModel(mean, basis, eig, bool(rank_deficient))
        return cls(klt, SplitVQModel(split_dim, bits, codebooks), stack, digest, seed)


def fit_quantizer(frames: np.ndarray, cfg: QuantizerConfig, digest: bytes) -> QuantizerModel:
    """Fit the full KLT + split VQ chain on a sequence of log mel frames."""
    supervectors = stack_supervectors(frames, cfg.stack)
    if len(supervectors) < 2:
        raise ConfigError("not enough frames to fit the quantizer")
    klt = fit_klt(supervectors)
    coefficients = apply_klt(supervectors, klt)
    allocations = allocate_bits(
        klt.eigenvalues, cfg.split_dim, cfg.bits_per_supervector, cfg.max_bits_per_split
    )
    vq = fit_codebooks(coefficients, allocations, cfg)
    return QuantizerModel(klt, vq, cfg.stack, digest, cfg.seed)


# ---------------------------------------------------------------------------
# index coding and the bitstream container
# ---------------------------------------------------------------------------

def quantize_indices(frames: np.ndarray, model: QuantizerModel) -> np.ndarray:
    """Nearest-centroid index per (supervector, coded split)."""
    supervectors = stack_supervectors(frames, model.stack)
    coefficients = apply_klt(supervectors, model.klt)
    columns = []
    for j, bits in enumerate(model.vq.allocations):
        if bits == 0:
            continue
        lo = j * model.vq.split_dim
        cb = model.vq.codebooks[j]
        idx, _ = _nearest(coefficients[:, lo : lo + cb.shape[1]], cb)
        columns.append(idx)
    if not columns:
        return np.zeros((len(supervectors), 0), dtype=np.int64)
    return np.stack(columns, axis=1)


def reconstruct_from_indices(indices: np.ndarray, n_super: int, model: QuantizerModel) -> np.ndarray:
    """Centroid lookup, inverse KLT, unstack back to frames."""
    dim = model.klt.mean.shape[0]
    coefficients = np.zeros((n_super, dim))
    col = 0
    for j, bits in enumerate(model.vq.allocations):
        if bits == 0:
            continue
        lo = j * model.vq.split_dim
        cb = model.vq.codebooks[j]
        coefficients[:, lo : lo + cb.shape[1]] = cb[indices[:, col]]
        col += 1
    supervectors = invert_klt(coefficients, model.klt)
    return unstack_supervectors(supervectors, model.stack)


def pack_indices(indices: np.ndarray, allocations: np.ndarray) -> bytes:
    """MSB-first packing in split order, zero-padded to a byte at the end only."""
    coded = [int(b) for b in allocations if b > 0]
    n_super = len(indices)
    total_bits = sum(coded)
    if total_bits == 0 or n_super == 0:
        return b""
    bits = np.zeros((n_super, total_bits), dtype=np.uint8)
    offset = 0
    for col, width in enumerate(coded):
        shifts = np.arange(width - 1, -1, -1)
        bits[:, offset : offset + width] = (indices[:, col, None] >> shifts) & 1
        offset += width
    return np.packbits(bits.ravel()).tobytes()


def unpack_indices(payload: bytes, n_super: int, allocations: np.ndarray) -> np.ndarray:
    coded = [int(b) for b in allocations if b > 0]
    total_bits = sum(coded)
    needed = n_super * total_bits
    if len(payload) != (needed + 7) // 8:
        raise FramingError(f"bitstream payload of {len(payload)} bytes, expected {(needed + 7) // 8}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=needed)
    bits = bits.reshape(n_super, total_bits) if total_bits else bits.reshape(n_super, 0)
    indices = np.zeros((n_super, len(coded)), dtype=np.int64)
    offset = 0
    for col, width in enumerate(coded):
        weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
        indices[:, col] = bits[:, offset : offset + width] @ weights
        offset += width
    return indices


def encode(frames: np.ndarray, model: QuantizerModel) -> bytes:
    """Full bitstream: LVRC magic, version, digest, supervector count, payload."""
    indices = quantize_indices(frames, model)
    payload = pack_indices(indices, model.vq.allocations)
    header = (
        BITSTREAM_MAGIC
        + struct.pack("<B", BITSTREAM_VERSION)
        + model.digest
        + struct.pack("<I", len(indices))
    )
    return header + payload


def decode(blob: bytes, model: QuantizerModel) -> np.ndarray:
    """Bitstream back to quantized log mel frames."""
    if len(blob) < 17:
        raise FramingError("bitstream shorter than its header")
    if blob[:4] != BITSTREAM_MAGIC:
        raise FormatError("not an LVRC bitstream")
    version = blob[4]
    if version != BITSTREAM_VERSION:
        raise FormatError(f"unsupported bitstream version {version}")
    digest = blob[5:13]
    if digest != model.digest:
        raise DigestError("bitstream/quantizer config digests differ")
    (n_super,) = struct.unpack_from("<I", blob, 13)
    indices = unpack_indices(blob[17:], n_super, model.vq.allocations)
    return reconstruct_from_indices(indices, n_super, model)


def payload_bits(n_super: int, model: QuantizerModel) -> int:
    return n_super * model.vq.bits_per_vector


def log_spectral_distortion_db(original: np.ndarray, decoded: np.ndarray) -> float:
    """Mean per-frame RMS difference of the log mel spectra, in dB."""
    original = np.asarray(original, dtype=np.float64)
    decoded = np.asarray(decoded, dtype=np.float64)
    n = min(len(original), len(decoded))
    diff_db = (original[:n] - decoded[:n]) * (10.0 / np.log(10.0))
    return float(np.mean(np.sqrt(np.mean(diff_db**2, axis=1))))

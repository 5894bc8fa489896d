"""Supervector stacking, offline KLT, split vector quantization, bitstream.

Encoder path: consecutive log mel frames are stacked into supervectors,
decorrelated by a KLT fitted offline, split into consecutive coefficient
pairs (eigenvalue order), and each split is quantized with its own
k-means codebook. Bits are spread over splits by a greedy rule driven by
the split eigenvalue mass. Indices are packed MSB-first into a bitstream
behind the 17-byte header every lvrc file starts with
(`container.pack_header`); splits given zero bits are not coded and
decode to the zero coefficient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import QuantizerConfig
from .container import HEADER, entry, pack_header, read_container, unpack_header, write_container
from .errors import ConfigError, FormatError, FramingError

BITSTREAM_MAGIC = b"LVRC"
MODEL_MAGIC = b"LVRQ"
# Lloyd iterations per codebook at most, and the relative distortion change
# below which `kmeans` stops early.
KMEANS_ITERS, KMEANS_TOL = 50, 1e-6


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
    basis = np.ascontiguousarray(basis * flips)  # the C order `QuantizerModel.load` returns

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


def split_slices(dim: int, split_dim: int) -> list[slice]:
    """The columns of each split: runs of `split_dim`, the last run may be short."""
    return [slice(lo, min(lo + split_dim, dim)) for lo in range(0, dim, split_dim)]


def allocate_bits(eigenvalues: np.ndarray, split_dim: int, total_bits: int,
                  max_bits_per_split: int = 8) -> np.ndarray:
    """Greedy allocation over consecutive splits of the eigenvalue vector.

    Each round grants one bit to the split with the largest
    (eigenvalue mass) / 4^(bits granted so far), ties to the lower split
    index, capped at max_bits_per_split.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    splits = split_slices(len(eigenvalues), split_dim)
    if total_bits < 0:
        raise ConfigError("total_bits must be >= 0")
    if total_bits > len(splits) * max_bits_per_split:
        raise ConfigError("total_bits exceeds n_splits * max_bits_per_split")
    mass = np.array([eigenvalues[cols].sum() for cols in splits])
    bits = np.zeros(len(splits), dtype=np.int64)
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


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Lloyd iterations with k-means++ seeding.

    Each iteration moves the centroids to their members' means and then
    runs one nearest-centroid search, whose assignment the next iteration
    starts from. Empty clusters are re-seeded to the point farthest from
    its assigned centroid. It stops when the distortion changes by less
    than `KMEANS_TOL` of itself, or is zero to within the search's rounding
    (every point on a centroid, as when there are fewer distinct points
    than centroids). Returns (centroids, mean squared distortion trace).
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) < k:
        raise ConfigError(f"need at least {k} points to fit {k} centroids")
    centroids = _kmeans_pp_init(points, k, rng)
    assign, d2 = _nearest(points, centroids)
    # `_nearest` expands |p - c|^2, so a point on its centroid reads up to
    # a few ulps of |p|^2 instead of 0
    zero = 4.0 * np.finfo(np.float64).eps * float(np.mean(np.sum(points**2, axis=1)))
    trace = []
    prev = np.inf
    for _ in range(KMEANS_ITERS):
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
        if dist <= zero or abs(prev - dist) < KMEANS_TOL * max(dist, 1e-30):
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
    def bits_per_vector(self) -> int:
        return int(self.allocations.sum())

    def coded(self) -> list[tuple[slice, np.ndarray, int]]:
        """(columns, codebook, bits) of each split given bits, in split order."""
        dim = sum(cb.shape[1] for cb in self.codebooks)
        return [(cols, cb, int(bits)) for cols, bits, cb in
                zip(split_slices(dim, self.split_dim), self.allocations, self.codebooks) if bits]


def fit_codebooks(coefficients: np.ndarray, allocations: np.ndarray,
                  cfg: QuantizerConfig) -> SplitVQModel:
    coefficients = np.asarray(coefficients, dtype=np.float64)
    allocations = np.asarray(allocations, dtype=np.int64)
    splits = split_slices(coefficients.shape[1], cfg.split_dim)
    codebooks = []
    for j, (cols, bits) in enumerate(zip(splits, allocations)):
        rng = np.random.default_rng([cfg.seed, j])
        codebooks.append(kmeans(coefficients[:, cols], 2**int(bits), rng)[0] if bits
                         else np.zeros((1, cols.stop - cols.start)))
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
        # copies, aligned and the model's own, not views of the file's bytes
        mean, basis, eig = (np.array(entry(arrays, key), dtype=np.float64)
                            for key in ("mean", "basis", "eigenvalues"))
        codebooks = [np.array(entry(arrays, f"codebook/{j}"), dtype=np.float64)
                     for j in range(len(bits))]
        dim = mean.size
        splits = split_slices(dim, split_dim) if split_dim >= 1 else []
        if not (stack >= 1 and split_dim >= 1 and dim % stack == 0
                and mean.shape == eig.shape == (dim,) and basis.shape == (dim, dim)
                and bits.shape == (len(splits),)
                # bits is bounded before 2**bits is formed
                and all(0 <= b <= 32 and cb.shape == (2**b, cols.stop - cols.start)
                        for cols, b, cb in zip(splits, bits.tolist(), codebooks))):
            raise FormatError("quantizer model entries have inconsistent shapes")
        if not bits.any():  # no payload would bound a bitstream's supervector count
            raise FormatError("quantizer model codes no split")
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
    coefficients = apply_klt(stack_supervectors(frames, model.stack), model.klt)
    coded = model.vq.coded()
    indices = np.zeros((len(coefficients), len(coded)), dtype=np.int64)
    for col, (cols, cb, _) in enumerate(coded):
        indices[:, col] = _nearest(coefficients[:, cols], cb)[0]
    return indices


def reconstruct_from_indices(indices: np.ndarray, n_super: int, model: QuantizerModel) -> np.ndarray:
    """Centroid lookup, inverse KLT, unstack back to frames."""
    coefficients = np.zeros((n_super, model.klt.mean.shape[0]))
    for col, (cols, cb, _) in enumerate(model.vq.coded()):
        coefficients[:, cols] = cb[indices[:, col]]
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
    """Full bitstream: the container header (LVRC magic, version, digest,
    supervector count), then the payload."""
    indices = quantize_indices(frames, model)
    payload = pack_indices(indices, model.vq.allocations)
    return pack_header(BITSTREAM_MAGIC, model.digest, len(indices)) + payload


def decode(blob: bytes, model: QuantizerModel) -> np.ndarray:
    """Bitstream back to quantized log mel frames."""
    _, n_super = unpack_header(blob, BITSTREAM_MAGIC, model.digest)
    indices = unpack_indices(blob[HEADER.size :], n_super, model.vq.allocations)
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

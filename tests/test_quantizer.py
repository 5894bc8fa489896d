"""KLT, bit allocation, split VQ and the bitstream container."""

import numpy as np
import pytest

from lvrc import quantizer as q
from lvrc.audio import AudioBuffer
from lvrc.config import ModelConfig, QuantizerConfig, paper_config
from lvrc.container import read_container, write_container
from lvrc.errors import ConfigError, DigestError, FormatError, FramingError
from lvrc.features import log_mel_features


class TestStacking:
    def test_even_grouping(self):
        frames = np.arange(10 * 3, dtype=float).reshape(10, 3)
        out = q.stack_supervectors(frames, 2)
        assert out.shape == (5, 6)
        assert np.array_equal(out[0], frames[:2].ravel())

    def test_trailing_partial_dropped(self):
        frames = np.zeros((11, 3))
        assert q.stack_supervectors(frames, 2).shape == (5, 6)

    def test_paper_dimensions(self):
        # two stacked 160-dim spectra at 20 ms hop: 320 dims every 40 ms
        frames = np.zeros((50, 160))
        out = q.stack_supervectors(frames, 2)
        assert out.shape == (25, 320)

    def test_unstack_inverts(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(0, 1, (8, 4))
        assert np.array_equal(
            q.unstack_supervectors(q.stack_supervectors(frames, 2), 2), frames
        )


class TestKLT:
    def test_isotropic_eigenvalues(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0.0, 1.0, (20000, 6))
        model = q.fit_klt(data)
        assert np.allclose(model.eigenvalues, 1.0, atol=0.05)

    def test_decorrelates_fit_data(self):
        rng = np.random.default_rng(2)
        mixing = rng.normal(0, 1, (8, 8))
        data = rng.normal(0, 1, (4000, 8)) @ mixing.T
        model = q.fit_klt(data)
        coeffs = q.apply_klt(data, model)
        cov = np.cov(coeffs, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-6 * (np.trace(cov) / cov.shape[0])

    def test_duplication_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, (300, 5))
        a = q.fit_klt(data)
        b = q.fit_klt(np.concatenate([data, data]))
        assert np.allclose(a.mean, b.mean, atol=1e-10)
        assert np.allclose(a.basis, b.basis, atol=1e-10)
        # covariance normalization 1/(n-1) differs slightly between n and 2n
        assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=2e-3)

    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(4)
        data = rng.normal(3.0, 1.0, (500, 4))
        model = q.fit_klt(data)
        assert np.allclose(q.apply_klt(model.mean, model), 0.0, atol=1e-12)

    def test_roundtrip_and_isometry(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 2, (400, 7))
        model = q.fit_klt(data)
        v = rng.normal(0, 2, (20, 7))
        c = q.apply_klt(v, model)
        assert np.max(np.abs(q.invert_klt(c, model) - v)) <= 1e-9
        assert np.allclose(
            np.linalg.norm(c, axis=1), np.linalg.norm(v - model.mean, axis=1), atol=1e-9
        )

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(6)
        model = q.fit_klt(rng.normal(0, 1, (200, 9)))
        gram = model.basis.T @ model.basis
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-8
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)

    def test_rank_deficiency_warns_and_floors(self):
        rng = np.random.default_rng(7)
        with pytest.warns(UserWarning):
            model = q.fit_klt(rng.normal(0, 1, (5, 8)))
        assert model.rank_deficient
        assert np.all(model.eigenvalues > 0.0)


class TestSplits:
    def test_runs_of_split_dim_with_a_short_last_run(self):
        assert q.split_slices(5, 2) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        assert q.split_slices(6, 3) == [slice(0, 3), slice(3, 6)]
        assert q.split_slices(0, 2) == []

    def test_coded_lists_the_splits_given_bits(self):
        cb = [np.zeros((4, 2)), np.zeros((1, 2)), np.zeros((2, 1))]
        vq = q.SplitVQModel(2, np.array([2, 0, 1]), cb)
        coded = vq.coded()
        assert [(cols, bits) for cols, _, bits in coded] == [(slice(0, 2), 2), (slice(4, 5), 1)]
        assert coded[0][1] is cb[0] and coded[1][1] is cb[2]


class TestBitAllocation:
    def test_uniform_for_equal_eigenvalues(self):
        bits = q.allocate_bits(np.ones(8), 2, 12, 8)
        assert np.array_equal(bits, np.full(4, 3))

    def test_dominant_split_takes_all(self):
        eig = np.array([100.0, 100.0, 1e-9, 1e-9])
        bits = q.allocate_bits(eig, 2, 3, 8)
        assert bits.tolist() == [3, 0]

    def test_paper_configuration(self):
        eig = np.exp(-np.arange(320) / 40.0)
        bits = q.allocate_bits(eig, 2, 120, 8)
        assert len(bits) == 160
        assert bits.sum() == 120
        assert np.sum(bits == 0) > 50

    def test_cap_respected_and_total_checked(self):
        bits = q.allocate_bits(np.array([100.0, 100.0, 1.0, 1.0]), 2, 10, 8)
        assert bits.max() <= 8 and bits.sum() == 10
        with pytest.raises(ConfigError):
            q.allocate_bits(np.ones(4), 2, 17, 8)


class TestKMeans:
    def test_two_cluster_case(self):
        pts = np.array([[-1.0, 0.0], [1.0, 0.0]] * 50)
        centroids, _ = q.kmeans(pts, 2, np.random.default_rng(0))
        centroids = centroids[np.argsort(centroids[:, 0])]
        assert np.allclose(centroids, [[-1, 0], [1, 0]], atol=1e-12)

    def test_distortion_nonincreasing(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 1, (600, 2))
        _, trace = q.kmeans(pts, 16, np.random.default_rng(1))
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_beats_random_codebook_on_heldout(self):
        rng = np.random.default_rng(9)
        centers = rng.normal(0, 3, (6, 2))
        train = centers[rng.integers(0, 6, 3000)] + rng.normal(0, 0.3, (3000, 2))
        held = centers[rng.integers(0, 6, 1500)] + rng.normal(0, 0.3, (1500, 2))
        centroids, _ = q.kmeans(train, 8, np.random.default_rng(2))
        random_codebook = train[np.random.default_rng(3).integers(0, 3000, 8)]
        _, d_trained = q._nearest(held, centroids)
        _, d_random = q._nearest(held, random_codebook)
        assert d_trained.mean() <= d_random.mean()

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            q.kmeans(np.zeros((3, 2)), 4, np.random.default_rng(0))

    @pytest.mark.parametrize("case", ["gaussian", "clusters", "duplicates"])
    def test_one_search_per_iteration_matches_two(self, case, monkeypatch):
        """Searching again at the start of an iteration, on the centroids the
        last search used, gives the same centroids and trace bit for bit;
        "duplicates" has fewer distinct points than centroids, so clusters
        go empty and are re-seeded."""
        rng = np.random.default_rng(8)
        pts = {"gaussian": rng.normal(0, 1, (600, 2)),
               "clusters": rng.normal(0, 3, (6, 2))[rng.integers(0, 6, 3000)]
               + rng.normal(0, 0.3, (3000, 2)),
               "duplicates": np.repeat(rng.normal(0, 1, (5, 2)), 20, axis=0)}[case]
        centroids = q._kmeans_pp_init(pts, 8, np.random.default_rng(1))
        trace, prev = [], np.inf
        zero = 4.0 * np.finfo(np.float64).eps * np.mean(np.sum(pts**2, axis=1))
        for _ in range(50):  # Lloyd with a search before and after each update
            assign, d2 = q._nearest(pts, centroids)
            for j in range(8):
                if (assign == j).any():
                    centroids[j] = pts[assign == j].mean(axis=0)
                else:
                    far = int(np.argmax(d2))
                    centroids[j], d2[far] = pts[far], 0.0
            _, d2 = q._nearest(pts, centroids)
            trace.append(float(d2.mean()))
            if trace[-1] <= zero or abs(prev - trace[-1]) < 1e-6 * max(trace[-1], 1e-30):
                break
            prev = trace[-1]

        calls = []
        nearest = q._nearest
        monkeypatch.setattr(q, "_nearest", lambda *a: calls.append(1) or nearest(*a))
        got, got_trace = q.kmeans(pts, 8, np.random.default_rng(1))
        assert np.array_equal(got, centroids) and got_trace == trace
        assert len(calls) == len(trace) + 1

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_stops_once_every_point_sits_on_a_centroid(self, scale):
        # 5 distinct points and 8 centroids: the distortion is zero up to
        # the search's rounding after one iteration, and re-seeding the
        # empty clusters could move the centroids among the copies forever
        distinct = scale * np.random.default_rng(8).normal(0, 1, (5, 2))
        centroids, trace = q.kmeans(np.repeat(distinct, 20, axis=0), 8,
                                    np.random.default_rng(1))
        assert len(trace) == 1
        _, d2 = q._nearest(distinct, centroids)
        assert d2.max() <= 1e-12 * scale**2


class TestPacking:
    def test_random_roundtrip_bit_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n_splits = int(rng.integers(1, 6))
            allocations = rng.integers(0, 7, n_splits)
            coded = allocations[allocations > 0]
            n = int(rng.integers(0, 40))
            indices = np.stack(
                [rng.integers(0, 2**b, n) for b in coded], axis=1
            ) if len(coded) else np.zeros((n, 0), dtype=np.int64)
            payload = q.pack_indices(indices, allocations)
            assert len(payload) == -(-n * int(coded.sum()) // 8)  # byte-padded exactly
            out = q.unpack_indices(payload, n, allocations)
            assert np.array_equal(out, indices)

    def test_truncated_payload_rejected(self):
        allocations = np.array([4, 4])
        indices = np.full((10, 2), 3)
        payload = q.pack_indices(indices, allocations)
        with pytest.raises(FramingError):
            q.unpack_indices(payload[:-1], 10, allocations)

    def test_msb_first_layout(self):
        allocations = np.array([8])
        payload = q.pack_indices(np.array([[0xA5]]), allocations)
        assert payload == b"\xa5"


def toy_feature_frames(seconds=12.0, seed=0):
    cfg = ModelConfig(sample_rate=8000, n_mels=16)
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * 8000)) / 8000.0
    f0 = 150 + 100 * (1 + np.sin(2 * np.pi * 0.13 * t)) / 2
    x = 0.4 * np.sin(2 * np.pi * np.cumsum(f0) / 8000.0) + 0.05 * rng.normal(0, 1, t.size)
    return cfg, log_mel_features(AudioBuffer(np.clip(x, -1, 1), 8000), cfg)


@pytest.fixture(scope="module")
def fitted():
    _, frames = toy_feature_frames()
    qc = QuantizerConfig(stack=2, bits_per_supervector=24, max_bits_per_split=6)
    model = q.fit_quantizer(frames, qc, digest=b"\x01" * 8)
    return frames, model


class TestEncodeDecode:
    def test_decode_is_nearest_centroid_reconstruction(self, fitted):
        frames, model = fitted
        blob = q.encode(frames[:30], model)
        decoded = q.decode(blob, model)
        indices = q.quantize_indices(frames[:30], model)
        expected = q.reconstruct_from_indices(indices, 15, model)
        assert np.array_equal(decoded, expected)

    def test_encode_deterministic(self, fitted):
        frames, model = fitted
        assert q.encode(frames, model) == q.encode(frames, model)

    def test_zero_bit_splits_decode_to_zero_coefficient(self, fitted):
        frames, model = fitted
        indices = q.quantize_indices(frames[:10], model)
        coeffs = q.apply_klt(
            q.stack_supervectors(q.reconstruct_from_indices(indices, 5, model), model.stack),
            model.klt,
        )
        zero_splits = np.flatnonzero(model.vq.allocations == 0)
        assert len(zero_splits) > 0
        for j in zero_splits:
            lo = j * model.vq.split_dim
            width = model.vq.codebooks[j].shape[1]
            assert np.allclose(coeffs[:, lo : lo + width], 0.0, atol=1e-9)

    def test_bitstream_header_and_errors(self, fitted):
        frames, model = fitted
        blob = q.encode(frames[:10], model)
        assert blob[:4] == b"LVRC"
        assert blob[4] == 1
        with pytest.raises(FormatError):
            q.decode(b"XXXX" + blob[4:], model)
        with pytest.raises(DigestError):
            q.decode(blob[:5] + b"\x02" * 8 + blob[13:], model)
        with pytest.raises(FramingError):
            q.decode(blob[:-1], model)
        with pytest.raises(FramingError):  # shorter than the header
            q.decode(blob[:10], model)

    def test_save_load_byte_identical(self, fitted, tmp_path):
        _, model = fitted
        p1, p2 = tmp_path / "a.lvrq", tmp_path / "b.lvrq"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = q.QuantizerModel.load(p1, expected_digest=b"\x01" * 8)
        assert np.array_equal(loaded.klt.basis, model.klt.basis)
        assert np.array_equal(loaded.vq.allocations, model.vq.allocations)

    @pytest.mark.parametrize("split_dim", [2, 3])
    def test_fitted_and_reloaded_models_reconstruct_the_same_bits(self, tmp_path, split_dim):
        # the fitted basis is C-ordered like the loaded one, so the KLT products agree
        _, frames = toy_feature_frames()
        qc = QuantizerConfig(stack=2, bits_per_supervector=24, split_dim=split_dim,
                             max_bits_per_split=6)
        model = q.fit_quantizer(frames, qc, digest=b"\x01" * 8)
        assert model.klt.basis.flags.c_contiguous
        model.save(tmp_path / "m.lvrq")
        loaded = q.QuantizerModel.load(tmp_path / "m.lvrq")
        for n_super in (1, 10, len(frames) // 2):  # BLAS takes other paths at other sizes
            indices = q.quantize_indices(frames[: 2 * n_super], model)
            assert np.array_equal(q.quantize_indices(frames[: 2 * n_super], loaded), indices)
            assert np.array_equal(q.reconstruct_from_indices(indices, n_super, loaded),
                                  q.reconstruct_from_indices(indices, n_super, model))

    def test_short_last_split(self, tmp_path):
        _, frames = toy_feature_frames()
        qc = QuantizerConfig(stack=2, bits_per_supervector=24, split_dim=3, max_bits_per_split=6)
        model = q.fit_quantizer(frames, qc, digest=b"\x01" * 8)
        assert [cb.shape[1] for cb in model.vq.codebooks] == [3] * 10 + [2]
        path = tmp_path / "m.lvrq"
        model.save(path)
        loaded = q.QuantizerModel.load(path)
        indices = q.quantize_indices(frames[:20], loaded)
        assert indices.shape == (10, len(loaded.vq.coded()))
        decoded = q.decode(q.encode(frames[:20], loaded), loaded)
        assert np.array_equal(decoded, q.reconstruct_from_indices(indices, 10, loaded))

    @pytest.mark.parametrize("damage", ["no meta", "short meta", "no codebook", "stack 0",
                                        "split_dim 3", "codebook rows", "no bits"])
    def test_missing_or_inconsistent_entries_rejected(self, fitted, tmp_path, damage):
        _, model = fitted
        path = tmp_path / "m.lvrq"
        model.save(path)
        _, arrays = read_container(path, q.MODEL_MAGIC)
        arrays = dict(arrays)
        meta = arrays["meta"].copy()
        if damage == "no meta":
            del arrays["meta"]
        elif damage == "short meta":
            arrays["meta"] = meta[:3]
        elif damage == "no codebook":
            del arrays["codebook/1"]
        elif damage == "codebook rows":
            arrays["codebook/0"] = arrays["codebook/0"][:-1]
        elif damage == "no bits":  # consistent, but no payload bounds a bitstream's count
            arrays["allocations"] = np.zeros_like(arrays["allocations"])
            for j in range(len(model.vq.codebooks)):
                arrays[f"codebook/{j}"] = np.zeros((1, arrays[f"codebook/{j}"].shape[1]))
        else:
            meta[0 if damage == "stack 0" else 1] = int(damage.split()[1])
            arrays["meta"] = meta
        write_container(path, q.MODEL_MAGIC, model.digest, arrays)
        with pytest.raises(FormatError):
            q.QuantizerModel.load(path)

    def test_trailing_payload_bytes_rejected(self, fitted):
        frames, model = fitted
        blob = q.encode(frames[:10], model)
        with pytest.raises(FramingError):
            q.decode(blob + b"\x00\x01\x02", model)

    def test_distortion_decreases_with_bits(self):
        # 32-mel features, stacked pairs: 64-dim supervectors, 32 splits
        cfg = ModelConfig(sample_rate=8000, n_mels=32)
        rng = np.random.default_rng(3)
        t = np.arange(48 * 8000) / 8000.0
        f0 = 170 + 90 * (1 + np.sin(2 * np.pi * 0.11 * t)) / 2
        x = 0.4 * np.sin(2 * np.pi * np.cumsum(f0) / 8000.0)
        x += 0.04 * rng.normal(0, 1, t.size)
        frames = log_mel_features(AudioBuffer(np.clip(x, -1, 1), 8000), cfg)
        train, held = frames[:1800], frames[1800:]
        lsd = []
        for bits in (40, 80, 120):
            qc = QuantizerConfig(stack=2, bits_per_supervector=bits, seed=99)
            model = q.fit_quantizer(train, qc, digest=b"\x00" * 8)
            decoded = q.decode(q.encode(held, model), model)
            lsd.append(q.log_spectral_distortion_db(held, decoded))
        assert lsd[0] > lsd[1] > lsd[2]


class TestPaperBitrate:
    def test_one_second_is_3000_bits(self):
        cfg = paper_config()
        rng = np.random.default_rng(12)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, 16000), 16000)
        frames = log_mel_features(audio, cfg.model)
        n_super = len(q.stack_supervectors(frames, cfg.quantizer.stack))
        assert n_super == 25
        assert n_super * cfg.quantizer.bits_per_supervector == 3000

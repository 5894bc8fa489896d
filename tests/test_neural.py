"""Layer gradient checks against central finite differences, optimizer
and pruning-mask contracts."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from lvrc import neural
from lvrc.config import TrainConfig
from lvrc.errors import ConfigError
from lvrc.trainer import pruning_sparsity

from conftest import fd_rel_error, gate_weight_count, numeric_grad

TOL = 1e-4


def rand(rng, *shape):
    return rng.normal(0.0, 1.0, shape)


def block_expand(w):
    """The dense (out, in) matrix of block-diagonal w (blocks, out_b, in_b)."""
    blocks, out_b, in_b = w.shape
    dense = np.zeros((blocks * out_b, blocks * in_b))
    for k in range(blocks):
        dense[k * out_b : (k + 1) * out_b, k * in_b : (k + 1) * in_b] = w[k]
    return dense


def reblock(dense, blocks):
    """The diagonal blocks of a dense matrix, as (blocks, out_b, in_b)."""
    out_b, in_b = dense.shape[0] // blocks, dense.shape[1] // blocks
    return np.stack([dense[k * out_b : (k + 1) * out_b, k * in_b : (k + 1) * in_b]
                     for k in range(blocks)])


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(0).normal(0, 1, (4, 5))
        y = neural.dense_forward(x, np.eye(5), np.zeros(5))
        assert np.array_equal(y, x @ np.eye(5))

    def test_zero_input_gives_bias(self):
        b = np.arange(3.0)
        y = neural.dense_forward(np.zeros((2, 4)), np.zeros((3, 4)), b)
        assert np.allclose(y, b)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, w, b = rand(rng, 3, 5), rand(rng, 4, 5), rand(rng, 4)
            c = rand(rng, 3, 4)
            f = lambda: float(np.sum(neural.dense_forward(x, w, b) * c))
            dx, dw, db = neural.dense_backward(x, w, c)
            assert fd_rel_error(dx, numeric_grad(f, x)) <= TOL
            assert fd_rel_error(dw, numeric_grad(f, w)) <= TOL
            assert fd_rel_error(db, numeric_grad(f, b)) <= TOL


class TestBlockDiagonal:
    def test_paper_scale_parameter_count(self):
        # 1024x1024 with 16 blocks: 65536 weights vs 1048576 dense
        cell = neural.GRUCell(1024, np.random.default_rng(0), blocks=16)
        count = cell.params["Uz"].value.size
        assert count == 65536
        assert count == 1048576 // 16
        assert 1.0 - count / 1048576 == pytest.approx(0.9375)

    def test_single_block_is_dense(self):
        rng = np.random.default_rng(2)
        x, w, b = rand(rng, 3, 6), rand(rng, 1, 4, 6), rand(rng, 4)
        assert np.array_equal(
            neural.dense_forward(x, w, b), neural.dense_forward(x, w[0], b)
        )

    def test_no_cross_block_influence(self):
        rng = np.random.default_rng(3)
        x, w = rand(rng, 2, 8), rand(rng, 4, 3, 2)
        base = neural.dense_forward(x, w, np.zeros(12))
        x2 = x.copy()
        x2[:, 2:4] += 1.0  # block 1 inputs
        moved = neural.dense_forward(x2, w, np.zeros(12))
        delta = moved - base
        assert np.all(delta[:, :3] == 0.0)
        assert np.any(delta[:, 3:6] != 0.0)
        assert np.all(delta[:, 6:] == 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, w, b = rand(rng, 3, 8), rand(rng, 4, 2, 2), rand(rng, 8)
            c = rand(rng, 3, 8)
            f = lambda: float(np.sum(neural.dense_forward(x, w, b) * c))
            dx, dw, db = neural.dense_backward(x, w, c)
            assert fd_rel_error(dx, numeric_grad(f, x)) <= TOL
            assert fd_rel_error(dw, numeric_grad(f, w)) <= TOL
            assert fd_rel_error(db, numeric_grad(f, b)) <= TOL


def gru_sigmoid(x):
    """z and r of `GRUCell._update` for gate pre-activations x (1, B, 2hb):
    a zero state and zero recurrent weights add exactly nothing to x."""
    batch, hb = x.shape[1], x.shape[2] // 2
    g = np.concatenate([x, np.zeros((1, batch, hb), x.dtype)], axis=-1)
    h = np.zeros((1, batch, hb), x.dtype)
    weights = np.zeros((1, hb, 2 * hb), x.dtype), np.zeros((1, hb, hb), x.dtype)
    z, r = neural.GRUCell._update(g, h, weights)[:2]
    return np.concatenate([z, r], axis=-1)


class TestGRU:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_within_one_ulp_of_expit(self, dtype):
        """Within one ulp of 1.0 (eps) of scipy's expit on 10^5 N(0, 4^2) draws.

        Counted in ulps of the result the difference reaches 2 (float64) or
        4 (float32): the sum 1 + exp(-x) rounds at the ulp of 1 whatever
        the result's size.
        """
        x = np.random.default_rng(26).normal(0.0, 4.0, (1, 1000, 100)).astype(dtype)
        got = gru_sigmoid(x)
        assert got.dtype == dtype
        assert np.max(np.abs(got - expit(x))) <= np.finfo(dtype).eps

    @pytest.mark.parametrize("dtype,big", [(np.float64, 1000.0), (np.float32, 100.0)])
    def test_sigmoid_saturates_to_exactly_0_and_1(self, dtype, big):
        """exp(big) overflows; the step loops silence that warning, as here."""
        x = np.array([[[-big, big]]], dtype)
        with np.errstate(over="ignore"):
            assert gru_sigmoid(x).tolist() == [[[0.0, 1.0]]]

    def test_saturated_sequence_keeps_its_state_without_a_warning(self):
        """Gate pre-activations of -1000 (z) and +1000 (r) make z exactly 0 and r
        exactly 1, so every state is h0; the overflow raises no warning."""
        cell = neural.GRUCell(4, np.random.default_rng(0))
        for tag, p in cell.params.items():
            p.value[...] = {"bz": -1000.0, "br": 1000.0}.get(tag, 0.0)
        h0 = np.random.default_rng(1).uniform(-1.0, 1.0, (2, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hs, _ = cell.forward_sequence(np.zeros((2, 3, 4)), h0)
        assert np.array_equal(hs, np.repeat(h0[:, None], 3, axis=1))
        zr = cell._seq["zr"]
        assert np.all(zr[..., :4] == 0.0) and np.all(zr[..., 4:] == 1.0)

    def test_zero_weights_fixed_point(self):
        cell = neural.GRUCell(4, np.random.default_rng(0))
        for p in cell.params.values():
            p.value[...] = 0.0
        h = cell.step(cell.input_gates(np.ones((2, 4))), np.zeros((2, 4)), cell.step_weights())
        assert np.all(h == 0.0)

    @pytest.mark.parametrize("blocks", [0, -2, 3])
    def test_bad_block_count_rejected(self, blocks):
        with pytest.raises(ConfigError):
            neural.GRUCell(8, np.random.default_rng(0), blocks=blocks)

    def test_sixteen_blocks_hold_a_sixteenth_of_dense_gate_weights(self):
        rng = np.random.default_rng(0)
        dense = neural.GRUCell(64, rng, blocks=1)
        blocked = neural.GRUCell(64, rng, blocks=16)
        assert gate_weight_count(blocked) == gate_weight_count(dense) // 16

    def test_state_stays_in_unit_box(self):
        rng = np.random.default_rng(5)
        cell = neural.GRUCell(4, rng)
        h = rng.uniform(-0.99, 0.99, (8, 4))
        weights = cell.step_weights()
        for _ in range(50):
            h = cell.step(cell.input_gates(rng.normal(0, 3, (8, 4))), h, weights)
            assert np.all(np.abs(h) < 1.0)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_sequence_gradients(self, blocks):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cell = neural.GRUCell(4, rng, blocks=blocks)
            xs, h0 = rand(rng, 2, 4, 4), rand(rng, 2, 4)
            c = rand(rng, 2, 4, 4)

            def f():
                hs, _ = cell.forward_sequence(xs, h0)
                return float(np.sum(hs * c))

            hs, cache = cell.forward_sequence(xs, h0)
            for p in cell.params.values():
                p.zero_grad()
            dxs, dh0 = cell.backward_sequence(c, cache)
            assert fd_rel_error(dxs, numeric_grad(f, xs)) <= TOL
            assert fd_rel_error(dh0, numeric_grad(f, h0)) <= TOL
            for p in cell.params.values():
                assert fd_rel_error(p.grad, numeric_grad(f, p.value)) <= TOL

    @pytest.mark.parametrize("blocks", [1, 4])
    def test_step_matches_sequence(self, blocks):
        rng = np.random.default_rng(7)
        cell = neural.GRUCell(8, rng, blocks=blocks)
        xs, h0 = rand(rng, 3, 9, 8), rand(rng, 3, 8)
        hs, _ = cell.forward_sequence(xs, h0)
        h, weights = h0, cell.step_weights()
        for t in range(9):
            h = cell.step(cell.input_gates(xs[:, t]), h, weights)
        assert np.allclose(h, hs[:, -1], atol=1e-14)

    def test_blocks_match_their_dense_expansion(self):
        rng = np.random.default_rng(15)
        blocked = neural.GRUCell(8, rng, blocks=4)
        dense = neural.GRUCell(8, rng)
        for tag, p in blocked.params.items():
            p.value[...] = rand(rng, *p.value.shape)
            dense.params[tag].value[...] = block_expand(p.value) if p.value.ndim == 3 else p.value
        xs, h0, c = rand(rng, 3, 6, 8), rand(rng, 3, 8), rand(rng, 3, 6, 8)
        outs = []
        for cell in (blocked, dense):
            hs, cache = cell.forward_sequence(xs, h0)
            h, weights = h0, cell.step_weights()
            for t in range(6):
                h = cell.step(cell.input_gates(xs[:, t]), h, weights)
            outs.append((hs, h, *cell.backward_sequence(c, cache)))
        for a, b in zip(*outs):  # states, stepped state, dxs, dh0
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)
        for tag, p in blocked.params.items():
            g = dense.params[tag].grad
            assert np.allclose(p.grad, reblock(g, 4) if p.value.ndim == 3 else g,
                               rtol=0.0, atol=1e-12)

    def test_sequence_buffers_are_reused_and_caches_checked(self):
        rng = np.random.default_rng(16)
        cell = neural.GRUCell(8, rng, blocks=2)
        xs, h0, c = rand(rng, 3, 5, 8), rand(rng, 3, 8), rand(rng, 3, 5, 8)
        first, stale = cell.forward_sequence(xs, h0)
        second, cache = cell.forward_sequence(xs + 1.0, h0)
        assert np.shares_memory(first, second)
        with pytest.raises(ValueError):
            cell.backward_sequence(c, stale)  # the second call overwrote its buffers
        dxs_a, _ = cell.backward_sequence(c, cache)
        with pytest.raises(ValueError):
            cell.backward_sequence(c, cache)  # backward used it up
        dxs_b, _ = cell.backward_sequence(c, cell.forward_sequence(xs, h0)[1])
        assert np.shares_memory(dxs_a, dxs_b)
        other, _ = cell.forward_sequence(rand(rng, 3, 6, 8), h0)
        assert not np.shares_memory(other, second)

    def test_input_gates_split_over_summands(self):
        # the decoder adds the gates of the conditioning and of the previous
        # samples separately; U is linear, so only the bias must come once
        rng = np.random.default_rng(14)
        cell = neural.GRUCell(8, rng, blocks=4)
        for p in cell.params.values():
            p.value[...] = rand(rng, *p.value.shape)
        a, b = rand(rng, 5, 8), rand(rng, 5, 8)
        split = cell.input_gates(a) + cell.input_gates(b, bias=False)
        assert np.allclose(split, cell.input_gates(a + b), atol=1e-13)

    def test_block_gates_use_sixteenth_of_dense(self):
        rng = np.random.default_rng(8)
        dense = neural.GRUCell(1024, rng)
        blocked = neural.GRUCell(1024, rng, blocks=16)
        assert gate_weight_count(blocked) * 16 == gate_weight_count(dense)


class TestConvolutions:
    def test_causal_identity_kernel(self):
        x = np.random.default_rng(9).normal(0, 1, (2, 7, 3))
        w = np.stack([np.zeros((3, 3)), np.eye(3)])
        y = neural.conv_forward(x, w, np.zeros(3), (2, 0))
        assert np.allclose(y, x)

    def test_causality(self):
        rng = np.random.default_rng(10)
        x = rand(rng, 1, 10, 2)
        w, b = rand(rng, 2, 2, 2), rand(rng, 2)
        y = neural.conv_forward(x, w, b, (3, 0))
        x2 = x.copy()
        x2[0, 6] += 1.0
        y2 = neural.conv_forward(x2, w, b, (3, 0))
        assert np.array_equal(y[0, :6], y2[0, :6])
        assert not np.array_equal(y[0, 6:], y2[0, 6:])

    def test_causal_gradients(self):
        rng = np.random.default_rng(11)
        for dil in (1, 2, 4):
            for _ in range(7):
                x, w, b = rand(rng, 2, 8, 3), rand(rng, 2, 4, 3), rand(rng, 4)
                c = rand(rng, 2, 8, 4)
                f = lambda: float(np.sum(neural.conv_forward(x, w, b, (dil, 0)) * c))
                dx, dw, db = neural.conv_backward(x, w, c, (dil, 0))
                assert fd_rel_error(dx, numeric_grad(f, x)) <= TOL
                assert fd_rel_error(dw, numeric_grad(f, w)) <= TOL
                assert fd_rel_error(db, numeric_grad(f, b)) <= TOL

    def test_transpose_doubles_length(self):
        x = np.zeros((2, 5, 3))
        y = neural.transpose_conv_forward(x, np.zeros((2, 4, 3)), np.zeros(4))
        assert y.shape == (2, 10, 4)

    def test_transpose_impulse(self):
        x = np.zeros((1, 4, 1))
        x[0, 1, 0] = 1.0
        w = np.ones((2, 1, 1))
        y = neural.transpose_conv_forward(x, w, np.zeros(1))
        assert np.flatnonzero(y[0, :, 0]).tolist() == [2, 3]

    def test_transpose_gradients(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x, w, b = rand(rng, 2, 5, 3), rand(rng, 2, 4, 3), rand(rng, 4)
            c = rand(rng, 2, 10, 4)
            f = lambda: float(np.sum(neural.transpose_conv_forward(x, w, b) * c))
            dx, dw, db = neural.transpose_conv_backward(x, w, c)
            assert fd_rel_error(dx, numeric_grad(f, x)) <= TOL
            assert fd_rel_error(dw, numeric_grad(f, w)) <= TOL
            assert fd_rel_error(db, numeric_grad(f, b)) <= TOL

    def test_noncausal_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x, w, b = rand(rng, 2, 6, 3), rand(rng, 3, 4, 3), rand(rng, 4)
            c = rand(rng, 2, 6, 4)
            f = lambda: float(np.sum(neural.conv_forward(x, w, b, (1, 0, -1)) * c))
            dx, dw, db = neural.conv_backward(x, w, c, (1, 0, -1))
            assert fd_rel_error(dx, numeric_grad(f, x)) <= TOL
            assert fd_rel_error(dw, numeric_grad(f, w)) <= TOL
            assert fd_rel_error(db, numeric_grad(f, b)) <= TOL


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = neural.Parameter("w", np.array([1.0, -2.0]))
        before = p.value.copy()
        neural.Adam().step([p])
        assert np.array_equal(p.value, before)

    def test_scalar_quadratic_convergence(self):
        p = neural.Parameter("x", np.array([0.0]))
        opt = neural.Adam(lr=0.1)
        for _ in range(500):
            p.grad[:] = 2.0 * (p.value - 3.0)
            opt.step([p])
        assert abs(p.value[0] - 3.0) <= 1e-2

    def test_masked_entries_stay_zero(self):
        rng = np.random.default_rng(14)
        p = neural.Parameter("w", rng.normal(0, 1, 10))
        p.mask = (np.arange(10) % 2).astype(float)
        p.apply_mask()
        opt = neural.Adam(lr=0.05)
        for _ in range(100):
            p.grad = rng.normal(0, 1, 10)
            opt.step([p])
        assert np.all(p.value[p.mask == 0] == 0.0)

    def test_nonfinite_gradient_skipped(self):
        p = neural.Parameter("w", np.array([1.0]))
        p.grad[:] = np.nan
        opt = neural.Adam()
        opt.step([p])
        assert p.value[0] == 1.0
        assert opt.skipped_updates == 1


class TestPruning:
    def test_schedule_endpoints(self):
        tc = TrainConfig(prune_start=100, prune_end=500, target_sparsity=0.92)
        assert pruning_sparsity(tc, 50) == 0.0
        assert pruning_sparsity(tc, 100) == 0.0
        assert pruning_sparsity(tc, 10_000) == 0.92

    def test_final_sparsity_within_one_weight(self):
        rng = np.random.default_rng(15)
        p = neural.Parameter("w", rng.normal(0, 1, (37, 13)))
        tc = TrainConfig(prune_start=0, prune_end=100, target_sparsity=0.92)
        for step in range(0, 160, 5):
            neural.prune_update(p, pruning_sparsity(tc, step))
        n = p.value.size
        assert abs((1.0 - p.mask.mean()) * n - 0.92 * n) <= 1.0

    def test_mask_monotone_over_random_steps(self):
        rng = np.random.default_rng(16)
        p = neural.Parameter("w", rng.normal(0, 1, 400))
        tc = TrainConfig(prune_start=10, prune_end=800, target_sparsity=0.92)
        prev = np.ones_like(p.value)
        # monotone even when visited out of order, because masking is cumulative
        for step in sorted(rng.integers(0, 1000, 1000)):
            mask = neural.prune_update(p, pruning_sparsity(tc, int(step)))
            assert np.all(mask <= prev)
            prev = mask

    def test_masked_forward_equals_dense_with_zeros(self):
        rng = np.random.default_rng(17)
        p = neural.Parameter("w", rng.normal(0, 1, (6, 5)))
        neural.prune_update(p, 0.5)
        x = rng.normal(0, 1, (3, 5))
        explicit = p.value.copy()  # masked entries are literally zero
        assert np.array_equal(
            neural.dense_forward(x, p.value, None), neural.dense_forward(x, explicit, None)
        )
        assert np.all(explicit[p.mask == 0] == 0.0)

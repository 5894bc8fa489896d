"""Conditioning stack rates, teacher-forced objective, generation."""

import numpy as np
import pytest

from lvrc import mol
from lvrc.config import ModelConfig, toy_config
from lvrc.container import read_container, write_container
from lvrc.errors import ConfigError, FormatError
from lvrc.model import CHECKPOINT_MAGIC, CodecModel
from lvrc.neural import GRUCell, dense_forward

from conftest import fd_rel_error, reference_sample

TINY = dict(n_bands=4, n_mix=2, gru_state=8, cond_channels=6, n_mels=5,
            frame_rate=25, sample_rate=800, fb_taps=16)


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return CodecModel(cfg, seed=seed)


def tiny_batch(rng, model, batch=2, length=48, frames=2):
    cfg = model.cfg
    audio = rng.uniform(-0.8, 0.8, (batch, length))
    mels = rng.uniform(-15.0, 3.0, (batch, frames, cfg.n_mels))
    voicing = rng.uniform(0.0, 1.0, (batch, frames))
    return audio, mels, voicing


class TestConditioning:
    def test_paper_rate_chain(self):
        # 50 Hz frames -> x8 transpose convs -> 400 Hz -> tiled x10 -> 4000 Hz
        cfg = ModelConfig(n_bands=4, n_mix=2, gru_state=8, cond_channels=6,
                          n_mels=5, frame_rate=50, sample_rate=16000, fb_taps=16)
        assert cfg.tile_factor == 10
        model = CodecModel(cfg, seed=0)
        raw_cond, _ = model.cond.forward(np.zeros((1, 7, 5)))
        assert raw_cond.shape == (1, 7 * 8, 8)
        # tiled, each conditioning step covers 10 band steps: 7 hops of audio
        assert raw_cond.shape[1] * 10 * cfg.n_bands == 7 * model.hop

    def test_output_length_law(self):
        model = tiny_model()
        for frames in (1, 3, 5):
            cond, _ = model.cond.forward(np.zeros((2, frames, 5)))
            assert cond.shape[1] == frames * 8
            assert cond.shape[1] * model.cfg.tile_factor * model.cfg.n_bands == frames * model.hop

    def test_constant_input_steady_state(self):
        model = tiny_model(seed=3)
        frame = np.random.default_rng(0).uniform(-10, 0, 5)
        mels = np.tile(frame, (1, 12, 1))
        raw_cond, _ = model.cond.forward(mels)
        # interior outputs (past the dilated warm-up, before the lookahead
        # tail) repeat with the frame period of the upsamplers
        assert np.allclose(raw_cond[0, 8 * 8 : 9 * 8], raw_cond[0, 9 * 8 : 10 * 8], atol=1e-12)
        assert np.allclose(raw_cond[0, 9 * 8 : 10 * 8], raw_cond[0, 10 * 8 : 11 * 8], atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            tiny_model().cond.forward(np.zeros((1, 0, 5)))


class TestTeacherForced:
    def test_nu_zero_is_pure_nll(self):
        model = tiny_model(seed=1)
        rng = np.random.default_rng(2)
        audio, mels, voicing = tiny_batch(rng, model)
        res = model.teacher_forced(audio, mels, nu=0.0, voicing=voicing,
                                   compute_grads=False)
        assert res["loss"] == res["nll"]

    def test_duplicated_utterance_keeps_loss(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(3)
        audio, mels, voicing = tiny_batch(rng, model, batch=1)
        single = model.teacher_forced(audio, mels, nu=0.01, voicing=voicing,
                                      compute_grads=False)
        double = model.teacher_forced(
            np.concatenate([audio, audio]), np.concatenate([mels, mels]),
            nu=0.01, voicing=np.concatenate([voicing, voicing]), compute_grads=False,
        )
        assert double["loss"] == pytest.approx(single["loss"], rel=1e-12)

    @pytest.mark.parametrize(
        "nu,regularizer,gamma0,blocks,frame_rate",
        [
            pytest.param(0.0, "log", 0.0, 1, 25, id="0.0-log-0.0-1"),
            pytest.param(0.05, "log", 0.0, 1, 25, id="0.05-log-0.0-1"),
            pytest.param(0.05, "linear", 0.0, 1, 25, id="0.05-linear-0.0-1"),
            pytest.param(0.05, "log", 0.3, 1, 25, id="0.05-log-0.3-1"),
            pytest.param(0.05, "log", 0.0, 2, 25, id="0.05-log-0.0-2"),
            # tile 5 over 8 steps: one whole conditioning frame, a partial
            # one, and frames past the audio that get no gradient
            pytest.param(0.05, "log", 0.0, 1, 5, id="0.05-log-0.0-1-tile5"),
        ],
    )
    def test_gradient_matches_finite_differences(self, nu, regularizer, gamma0, blocks,
                                                 frame_rate):
        model = tiny_model(seed=7, gru_blocks=blocks, frame_rate=frame_rate)
        rng = np.random.default_rng(11)
        audio, mels, voicing = tiny_batch(rng, model, batch=1, length=32)
        baseline = mol.BaselineSpec(gamma0) if gamma0 else None

        def loss():
            return model.teacher_forced(
                audio, mels, nu=nu, regularizer=regularizer, voicing=voicing,
                compute_grads=False, baseline=baseline,
            )["loss"]

        model.zero_grads()
        model.teacher_forced(audio, mels, nu=nu, regularizer=regularizer,
                             voicing=voicing, baseline=baseline)
        h = 1e-5
        for p in model.parameters():
            numeric = np.zeros_like(p.value)
            it = np.nditer(p.value, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = p.value[i]
                p.value[i] = orig + h
                fp = loss()
                p.value[i] = orig - h
                fm = loss()
                p.value[i] = orig
                numeric[i] = (fp - fm) / (2 * h)
            assert fd_rel_error(p.grad, numeric) <= 1e-4, p.name

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_reused_buffers_leave_no_trace(self, blocks):
        # the GRU keeps its sequence buffers while the shape stays; a call
        # of another length in between must not change the next call's bits
        model = tiny_model(seed=31, gru_blocks=blocks)
        rng = np.random.default_rng(32)
        batch_a = tiny_batch(rng, model, batch=2, length=48)
        batch_b = tiny_batch(rng, model, batch=2, length=40)

        def run(audio, mels, voicing):
            model.zero_grads()
            res = model.teacher_forced(audio, mels, nu=0.01, voicing=voicing)
            return res["loss"], [p.grad.copy() for p in model.parameters()]

        loss, grads = run(*batch_a)
        run(*batch_b)
        loss_again, grads_again = run(*batch_a)
        assert loss_again == loss
        for p, g, g_again in zip(model.parameters(), grads, grads_again):
            assert np.array_equal(g_again, g), p.name

    def test_logged_jvar_is_the_regularizer_of_the_same_params(self):
        # with unit voicing weights the logged J_var term equals the log-form
        # regularizer evaluated on exactly the batch's predictive params
        model = tiny_model(seed=21)
        rng = np.random.default_rng(22)
        audio, mels, _ = tiny_batch(rng, model)
        res = model.teacher_forced(audio, mels, nu=0.01, regularizer="log",
                                   var_floor=1e-4, voicing=None, compute_grads=False)
        assert res["jvar"] == float(np.mean(np.log(res["sigma"] + 1e-4)))

    def test_reg_bands_selects_regularized_bands(self):
        model = tiny_model(seed=23)
        rng = np.random.default_rng(24)
        audio, mels, voicing = tiny_batch(rng, model)
        two = model.teacher_forced(audio, mels, nu=0.01, voicing=voicing,
                                   compute_grads=False)
        three = model.teacher_forced(audio, mels, nu=0.01, reg_bands=3,
                                     voicing=voicing, compute_grads=False)
        assert two["sigma"].shape[-1] == 2 and three["sigma"].shape[-1] == 3
        assert np.array_equal(three["sigma"][..., :2], two["sigma"])
        assert three["nll"] == two["nll"] and three["jvar"] != two["jvar"]
        for bad in (0, 5):
            with pytest.raises(ConfigError):
                model.teacher_forced(audio, mels, reg_bands=bad, compute_grads=False)

    def test_conditioning_too_short_rejected(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        audio = rng.uniform(-0.5, 0.5, (1, 800))  # 200 steps
        mels = rng.uniform(-10, 0, (1, 2, 5))  # covers only 16 steps
        with pytest.raises(ConfigError):
            model.teacher_forced(audio, mels, compute_grads=False)

    def test_output_projection_emits_nk3(self):
        model = tiny_model()
        cfg = model.cfg
        assert model.out_w.value.shape[0] == cfg.n_bands * cfg.n_mix * 3


class TestNllEval:
    """Teacher-forced NLL evaluation (compute_grads=False)."""

    def test_near_deterministic_params_give_negative_nll(self):
        model = tiny_model(seed=8)
        k = model.cfg.n_mix
        # force tiny scales and zero locations at the output bias
        bias = model.out_b.value.reshape(model.cfg.n_bands, 3 * k)
        bias[:, k : 2 * k] = 0.0
        bias[:, 2 * k :] = -8.0
        model.out_w.value[:] = 0.0
        audio = np.zeros((1, 64))
        mels = np.full((1, 2, 5), -23.0)
        res = model.teacher_forced(audio, mels, compute_grads=False)
        assert res["nll"] < -5.0  # nats per band sample: density well above 1 at the mode


def reference_generate(model, mels, rng, seconds):
    """`generate` composed from the layers one call each: in_proj, a one-step
    GRU sequence, constrain, a draw from the constrained mixture, clamp."""
    cfg = model.cfg
    steps = int(seconds * cfg.sample_rate) // cfg.n_bands
    cond = np.repeat(model.cond.forward(np.asarray(mels)[None])[0][0], cfg.tile_factor, axis=0)
    h = np.zeros((1, cfg.gru_state))
    bands = np.zeros((cfg.n_bands, steps + 1))  # column t holds the samples fed to step t
    for t in range(steps):
        x = dense_forward(bands[None, :, t], model.in_proj_w.value, model.in_proj_b.value)
        hs, _ = model.gru.forward_sequence((x + cond[t])[:, None], h)
        h = hs[:, 0]
        flat = dense_forward(h, model.out_w.value, model.out_b.value)
        raw = mol.RawMoLParams.from_flat(flat.reshape(cfg.n_bands, -1), cfg.n_mix)
        bands[:, t + 1] = np.clip(reference_sample(mol.constrain(raw), rng), -1.0, 1.0)
    waveform = model.filterbank.synthesize(bands[:, 1:])
    delay = model.filterbank.group_delay
    return waveform[delay : delay + steps * cfg.n_bands]


class TestGenerate:
    @pytest.mark.parametrize("blocks", [1, 4])
    def test_matches_layer_by_layer_reference(self, blocks):
        model = tiny_model(seed=15, gru_blocks=blocks)
        rng = np.random.default_rng(16)
        for p in (model.in_proj_b, *(model.gru.params[f"b{g}"] for g in "zrh")):
            p.value[...] = rng.normal(0.0, 0.5, p.value.shape)  # biases start at zero
        mels = rng.uniform(-12, 0, (8, 5))
        fast = model.generate(mels, np.random.default_rng(17), seconds=0.25).samples
        slow = reference_generate(model, mels, np.random.default_rng(17), seconds=0.25)
        assert len(fast) == len(slow) == 200
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_one_gru_step_and_one_draw_per_decode_step(self, monkeypatch):
        counts = {"step": 0, "sample": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GRUCell, "step", counted("step", GRUCell.step))
        monkeypatch.setattr(mol, "sample", counted("sample", mol.sample))
        model = tiny_model(seed=18)
        model.generate(np.zeros((8, 5)), np.random.default_rng(0), seconds=0.25)
        steps = int(0.25 * model.cfg.sample_rate) // model.cfg.n_bands
        assert counts == {"step": steps, "sample": steps}

    def test_training_never_enters_the_decode_step(self, monkeypatch):
        # GRUCell.step is the decode span of the benchmark's trace; the
        # teacher-forced sequence shares its update without calling it
        calls = []
        step = GRUCell.step
        monkeypatch.setattr(GRUCell, "step", lambda *a, **k: calls.append(1) or step(*a, **k))
        cfg = toy_config().model
        model = CodecModel(cfg, seed=0)
        rng = np.random.default_rng(19)
        audio = rng.uniform(-0.8, 0.8, (2, 320))
        mels = rng.uniform(-15.0, 3.0, (2, 2, cfg.n_mels))
        model.teacher_forced(audio, mels, nu=0.01, voicing=rng.uniform(0.0, 1.0, (2, 2)))
        assert len(calls) == 0

    def test_fixed_seed_reproducible(self):
        model = tiny_model(seed=9)
        mels = np.random.default_rng(1).uniform(-12, 0, (6, 5))
        a = model.generate(mels, np.random.default_rng(42), seconds=0.2)
        b = model.generate(mels, np.random.default_rng(42), seconds=0.2)
        assert np.array_equal(a.samples, b.samples)

    def test_length_law(self):
        model = tiny_model(seed=10)
        mels = np.zeros((10, 5))
        out = model.generate(mels, np.random.default_rng(0), seconds=0.3)
        expected = int(0.3 * model.cfg.sample_rate) // model.cfg.n_bands * model.cfg.n_bands
        assert len(out.samples) == expected

    def test_untrained_output_bounded_and_nonsilent(self):
        model = tiny_model(seed=11)
        mels = np.random.default_rng(2).uniform(-12, 0, (8, 5))
        out = model.generate(mels, np.random.default_rng(3), seconds=0.25)
        rms = np.sqrt(np.mean(out.samples**2))
        assert 0.0 < rms <= 1.0

    def test_conditioning_budget_enforced(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.generate(np.zeros((2, 5)), np.random.default_rng(0), seconds=10.0)

    def test_generation_causal_in_conditioning(self):
        # perturbing a late mel frame cannot change earlier output
        model = tiny_model(seed=12)
        rng_mels = np.random.default_rng(4)
        mels = rng_mels.uniform(-12, 0, (8, 5))
        a = model.generate(mels, np.random.default_rng(7), seconds=0.25)
        mels2 = mels.copy()
        mels2[6] += 1.0
        b = model.generate(mels2, np.random.default_rng(7), seconds=0.25)
        # frame 6 first influences conditioning frame 5 (one-frame lookahead),
        # i.e. band step 5*8*tile and sample index N times that
        first_affected = 5 * 8 * model.cfg.tile_factor * model.cfg.n_bands
        safe = first_affected - model.filterbank.group_delay - 1
        assert np.array_equal(a.samples[:safe], b.samples[:safe])
        assert not np.array_equal(a.samples, b.samples)

    def test_weights_shared_between_paths(self):
        model = tiny_model(seed=13)
        rng = np.random.default_rng(5)
        audio, mels, voicing = tiny_batch(rng, model)
        before = model.weights_checksum()
        model.teacher_forced(audio, mels, nu=0.01, voicing=voicing)
        model.generate(mels[0], np.random.default_rng(0), seconds=0.08)
        assert model.weights_checksum() == before


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = tiny_model(seed=14)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, b"\x07" * 8, step=123)
        other = tiny_model(seed=999)
        step, _ = other.load_checkpoint(path, expected_digest=b"\x07" * 8)
        assert step == 123
        assert other.weights_checksum() == model.weights_checksum()

    @pytest.mark.parametrize("step", [None, np.zeros(0, np.int64), np.array([-3])],
                             ids=["missing", "empty", "negative"])
    def test_missing_short_or_negative_step_rejected(self, tmp_path, step):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, b"\x07" * 8, step=1)
        digest, arrays = read_container(path, CHECKPOINT_MAGIC)
        arrays = {k: v for k, v in arrays.items() if k != "step"}
        if step is not None:
            arrays["step"] = step
        write_container(path, CHECKPOINT_MAGIC, digest, arrays)
        with pytest.raises(FormatError):
            model.load_checkpoint(path)

    def test_digest_mismatch_rejected(self, tmp_path):
        from lvrc.errors import DigestError

        model = tiny_model()
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, b"\x07" * 8, step=1)
        with pytest.raises(DigestError):
            model.load_checkpoint(path, expected_digest=b"\x08" * 8)

"""Acceptance criteria, one test per criterion, one pass line each.

Run `pytest tests/test_acceptance.py -v -s` for the per-criterion log.
The slow criteria (5, 8, 9) share the session-scoped trained models from
conftest; every number here is seeded and deterministic.
"""

import time

import numpy as np
import pytest

from lvrc import cli, mol
from lvrc import quantizer as q
from lvrc.audio import AudioBuffer, save_wav
from lvrc.config import ModelConfig, paper_config, toy_config
from lvrc.features import log_mel_features
from lvrc.filterbank import Filterbank, snr_db
from lvrc.model import CodecModel
from lvrc.neural import GRUCell
from lvrc.trainer import ClipDataset, harmonic_tone, synthetic_clip, train

from conftest import fd_rel_error, gate_weight_count, load_model, make_toy_cfg

# Thresholds for criterion 8, frozen from the paired toy experiment
# (seed 2024, 4000 steps, lr 2e-3): see the assertions for the values
# measured when this suite was frozen. That run's learning-rate schedule
# was not recorded. What reproduces the bounds today is the same
# experiment under the trainer's 1/t decay, lr / (1 + (t - 1) / 500)
# (`trainer.learning_rate`), which conftest.PAIR_STEPS runs; under a
# constant lr the statistic swings by more than the 20% effect from one
# 100-step checkpoint to the next.
SIGMA_RATIO_MAX = 0.80  # regularized voiced-frame sigma at least 20% lower
NLL_PENALTY_MAX = 0.50  # nats per band sample


def report(n, text):
    print(f"\nCRITERION {n:2d} PASS: {text}")


def test_criterion_01_mixture_variance_monte_carlo():
    """Closed-form mixture variance matches 1e6-draw Monte-Carlo within 1%."""
    start = time.time()
    rng = np.random.default_rng(20240808)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        params = mol.MoLParams(
            gammas=rng.dirichlet(np.ones(k)),
            mus=rng.uniform(-1.5, 1.5, k),
            scales=rng.uniform(0.05, 1.0, k),
        )
        analytic = float(mol.mixture_moments(params)[1])
        # the same mixture as a flat output row, drawn from as decode draws
        flat = np.concatenate([np.log(params.gammas), params.mus, np.log(params.scales)])
        noise = mol.sample_noise(np.random.default_rng(rng.integers(2**62)), 1, 10**6)
        draws = mol.sample(flat, noise[0])
        worst = max(worst, abs(draws.var() - analytic) / analytic)
    elapsed = time.time() - start
    assert worst <= 0.01
    assert elapsed < 120.0
    report(1, f"100 parameter sets, worst relative error {worst:.2%} in {elapsed:.0f}s")


def test_criterion_02_gradient_suite():
    """Every layer and the combined objective match finite differences at 1e-4."""
    from conftest import numeric_grad
    from lvrc import neural

    start = time.time()
    rng = np.random.default_rng(77)

    def check(analytic, f, arr):
        assert fd_rel_error(analytic, numeric_grad(f, arr)) <= 1e-4

    # individual layers, 20 random configurations each
    for _ in range(20):
        x, w, b = rng.normal(0, 1, (3, 5)), rng.normal(0, 1, (4, 5)), rng.normal(0, 1, 4)
        c = rng.normal(0, 1, (3, 4))
        dx, dw, db = neural.dense_backward(x, w, c)
        f = lambda: float(np.sum(neural.dense_forward(x, w, b) * c))
        check(dx, f, x), check(dw, f, w), check(db, f, b)

        xb, wb, bb = rng.normal(0, 1, (2, 8)), rng.normal(0, 1, (4, 2, 2)), rng.normal(0, 1, 8)
        cb = rng.normal(0, 1, (2, 8))
        dxb, dwb, dbb = neural.dense_backward(xb, wb, cb)
        fb = lambda: float(np.sum(neural.dense_forward(xb, wb, bb) * cb))
        check(dxb, fb, xb), check(dwb, fb, wb), check(dbb, fb, bb)

        cell = neural.GRUCell(4, rng, blocks=int(rng.choice([1, 2])))
        xs, h0 = rng.normal(0, 1, (2, 3, 4)), rng.normal(0, 1, (2, 4))
        cg = rng.normal(0, 1, (2, 3, 4))

        def fg():
            hs, _ = cell.forward_sequence(xs, h0)
            return float(np.sum(hs * cg))

        _, cache = cell.forward_sequence(xs, h0)
        for p in cell.params.values():
            p.zero_grad()
        dxs, _ = cell.backward_sequence(cg, cache)
        check(dxs, fg, xs)
        for p in cell.params.values():
            check(p.grad, fg, p.value)

        xc, wc, bc = rng.normal(0, 1, (2, 6, 3)), rng.normal(0, 1, (2, 4, 3)), rng.normal(0, 1, 4)
        cc = rng.normal(0, 1, (2, 6, 4))
        dil = int(rng.choice([1, 2, 4]))
        dxc, dwc, dbc = neural.conv_backward(xc, wc, cc, (dil, 0))
        fc = lambda: float(np.sum(neural.conv_forward(xc, wc, bc, (dil, 0)) * cc))
        check(dxc, fc, xc), check(dwc, fc, wc), check(dbc, fc, bc)

        wt = rng.normal(0, 1, (2, 4, 3))
        ct = rng.normal(0, 1, (2, 12, 4))
        dxt, dwt, dbt = neural.transpose_conv_backward(xc, wt, ct)
        ft = lambda: float(np.sum(neural.transpose_conv_forward(xc, wt, bc) * ct))
        check(dxt, ft, xc), check(dwt, ft, wt), check(dbt, ft, bc)

        w3 = rng.normal(0, 1, (3, 4, 3))
        dx3, dw3, db3 = neural.conv_backward(xc, w3, cc, (1, 0, -1))
        f3 = lambda: float(np.sum(neural.conv_forward(xc, w3, bc, (1, 0, -1)) * cc))
        check(dx3, f3, xc), check(dw3, f3, w3), check(db3, f3, bc)

    # the combined teacher-forced objective, all regularizer/baseline variants
    tiny = dict(n_bands=4, n_mix=2, gru_state=6, cond_channels=4, n_mels=3,
                sample_rate=1600, fb_taps=16)
    variants = [(0.0, "log", 0.0), (0.05, "log", 0.0), (0.05, "linear", 0.0),
                (0.05, "log", 0.3), (0.05, "linear", 0.3)]
    configs = 0
    for nu, reg, gamma0 in variants:
        for trial in range(4):
            model = CodecModel(ModelConfig(**tiny), seed=100 + trial)
            audio = rng.uniform(-0.8, 0.8, (1, 32))
            mels = rng.uniform(-15, 3, (1, 2, 3))
            voicing = rng.uniform(0, 1, (1, 2))

            def loss():
                return model.teacher_forced(audio, mels, nu=nu, regularizer=reg,
                                            voicing=voicing, compute_grads=False,
                                            gamma0=gamma0)["loss"]

            model.zero_grads()
            model.teacher_forced(audio, mels, nu=nu, regularizer=reg,
                                 voicing=voicing, gamma0=gamma0)
            for p in model.parameters():
                assert fd_rel_error(p.grad, numeric_grad(loss, p.value)) <= 1e-4, p.name
            configs += 1
    elapsed = time.time() - start
    assert configs == 20
    assert elapsed < 300.0
    report(2, f"all layers (20 configs each) and {configs} full-objective configs "
              f"within 1e-4 in {elapsed:.0f}s")


def test_criterion_03_bitrate_arithmetic(paper_quantizer):
    """Any 10 s, 16 kHz input encodes to exactly 30000 payload bits."""
    cfg, model, _ = paper_quantizer
    rng = np.random.default_rng(5)
    for make in (lambda: rng.uniform(-0.9, 0.9, 160000),
                 lambda: synthetic_clip(rng, 16000, 160000),
                 lambda: np.zeros(160000)):
        frames = log_mel_features(AudioBuffer(make(), 16000), cfg.model)
        blob = q.encode(frames, model)
        n_super = len(q.stack_supervectors(frames, model.stack))
        payload_bits = n_super * model.vq.bits_per_vector
        assert payload_bits == 30000
        assert len(blob) == 17 + 30000 // 8
    report(3, "three 10 s inputs -> 250 supervectors x 120 bits = 30000 bits (3 kb/s)")


def test_criterion_04_block_diagonal_parameter_count():
    """1024-state GRU gates with 16 blocks use exactly 1/16 of dense weights."""
    rng = np.random.default_rng(0)
    dense = GRUCell(1024, rng, blocks=1)
    blocked = GRUCell(1024, rng, blocks=16)
    assert blocked.params["Uz"].value.size == 65536 == 1048576 // 16
    dense_w, blocked_w = gate_weight_count(dense), gate_weight_count(blocked)
    assert dense_w == 6 * 1024 * 1024
    assert blocked_w * 16 == dense_w
    reduction = 1.0 - blocked_w / dense_w
    assert reduction == 0.9375
    report(4, f"gate weights {dense_w} dense vs {blocked_w} block-diagonal "
              f"({reduction:.2%} fewer)")


def test_criterion_05_pruning_schedule(tmp_path):
    """Cubic ramp reaches 92% sparsity, masks monotone, training stays finite."""
    start = time.time()
    cfg = toy_config()
    cfg.train.steps = 260
    cfg.train.batch_size = 8
    cfg.train.lr = 2e-3
    cfg.train.pruning = True
    cfg.train.prune_start = 20
    cfg.train.prune_end = 200
    cfg.train.prune_interval = 10
    cfg.train.target_sparsity = 0.92
    cfg.train.checkpoint_interval = 130
    dataset = ClipDataset.synthetic(cfg, n_clips=16)
    result = train(cfg, tmp_path / "prune", dataset=dataset, log_every=1)
    assert not result.halted
    assert all(np.isfinite(m["nll"]) for m in result.metrics)

    final = CodecModel(cfg.model, seed=cfg.train.seed)
    final.load_checkpoint(result.checkpoint_path)
    for p in final.prunable_parameters():
        assert p.mask is not None
        n = p.value.size
        masked = n - int(p.mask.sum())
        assert abs(masked - 0.92 * n) <= 1.0, p.name
        assert np.all(p.value[p.mask == 0] == 0.0)

    # mid-ramp checkpoint: masks only ever grow
    mid = CodecModel(cfg.model, seed=cfg.train.seed)
    mid.load_checkpoint(result.checkpoint_series[0])
    mid_masks = {p.name: p.mask for p in mid.prunable_parameters()}
    for p in final.prunable_parameters():
        assert np.all(p.mask <= mid_masks[p.name])
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(5, f"sparsity 0.92 within one weight, monotone masks, finite loss "
              f"({elapsed:.0f}s)")


def test_criterion_06_filterbank_round_trip():
    """Delay-compensated round trip >= 40 dB on 10 s noise and speech."""
    start = time.time()
    bank = Filterbank(4, 192)
    rng = np.random.default_rng(6)
    noise = rng.uniform(-0.9, 0.9, 160000)
    speech = synthetic_clip(rng, 16000, 160000)
    snr_noise = snr_db(noise, bank.round_trip(noise))
    snr_speech = snr_db(speech, bank.round_trip(speech))
    elapsed = time.time() - start
    assert snr_noise >= 40.0
    assert snr_speech >= 40.0
    assert elapsed < 10.0
    report(6, f"round-trip SNR {snr_noise:.1f} dB (noise), {snr_speech:.1f} dB "
              f"(speech) in {elapsed:.1f}s")


def test_criterion_07_klt_decorrelation():
    """Off-diagonal covariance <= 1e-6 * trace/dim after the KLT; round trip 1e-9."""
    rng = np.random.default_rng(7)
    mixing = rng.normal(0, 1, (16, 16))
    data = rng.normal(0, 1, (6000, 16)) @ mixing.T + rng.normal(0, 0.5, 16)
    model = q.fit_klt(data)
    coeffs = q.apply_klt(data, model)
    cov = np.cov(coeffs, rowvar=False)
    off_diag = np.max(np.abs(cov - np.diag(np.diag(cov))))
    bound = 1e-6 * (np.trace(cov) / cov.shape[0])
    assert off_diag <= bound

    rebuilt = q.invert_klt(coeffs, model)
    round_trip = float(np.max(np.abs(rebuilt - data)))
    assert round_trip <= 1e-9

    # held-out data from the same source: correlation reduced, recorded only
    held = rng.normal(0, 1, (3000, 16)) @ mixing.T
    held_cov = np.cov(q.apply_klt(held, model), rowvar=False)
    held_off = np.max(np.abs(held_cov - np.diag(np.diag(held_cov))))
    report(7, f"fit-sample off-diagonal {off_diag:.2e} <= {bound:.2e}, round trip "
              f"{round_trip:.1e}; held-out off-diagonal {held_off:.2e} (recorded)")


def test_criterion_08_variance_regularization_mechanism(paired_runs, eval_clips):
    """nu=0.01 (log form) cuts voiced-frame sigma_q >= 20% at < 0.5 nats cost."""
    stats = {}
    sr = paired_runs[0.0]["cfg"].model.sample_rate
    feat = paired_runs[0.0]["cfg"].model
    for nu, entry in paired_runs.items():
        model = load_model(entry)
        sigmas, nlls = [], []
        for clip, voicing in zip(eval_clips.clips, eval_clips.voicing):
            mels = log_mel_features(AudioBuffer(clip, sr), feat)
            st = model.teacher_forced(clip, mels, compute_grads=False)
            frame_idx = model._frame_of_step(st["sigma"].shape[1], len(voicing))
            voiced = voicing[frame_idx] > 0.8
            if voiced.any():
                sigmas.append(st["sigma"][0][voiced].mean())
            nlls.append(st["nll"])
        stats[nu] = (float(np.mean(sigmas)), float(np.mean(nlls)))

    ratio = stats[0.01][0] / stats[0.0][0]
    penalty = stats[0.01][1] - stats[0.0][1]
    assert ratio <= SIGMA_RATIO_MAX, (
        f"voiced sigma ratio {ratio:.3f} (reg {stats[0.01][0]:.5f} vs "
        f"baseline {stats[0.0][0]:.5f})"
    )
    assert penalty < NLL_PENALTY_MAX, f"NLL penalty {penalty:.3f} nats/sample"
    report(8, f"voiced sigma_q ratio {ratio:.3f} (>=20% lower), NLL penalty "
              f"{penalty:+.3f} nats/sample (< 0.5)")


def test_criterion_08b_eval_report_shows_the_same_gap(paired_runs, eval_clips,
                                                      tmp_path):
    """The eval command's voiced-sigma column orders the checkpoints the same
    way (the report-level view of the mechanism)."""
    import csv

    cfg = paired_runs[0.0]["cfg"]
    sr = cfg.model.sample_rate
    names = []
    for i, clip in enumerate(eval_clips.clips[:4]):
        wav = tmp_path / f"utt{i}.wav"
        save_wav(wav, AudioBuffer(clip, sr))
        names.append(str(wav))
    manifest = tmp_path / "eval.tsv"
    manifest.write_text("".join(f"{n}\t-\tdev\n" for n in names))
    cfg_path = tmp_path / "toy.cfg"
    cfg.save(cfg_path)

    voiced_means = {}
    for nu, entry in paired_runs.items():
        report_path = tmp_path / f"report_nu{nu}.csv"
        rc = cli.main([
            "eval", "--config", str(cfg_path), "--model",
            str(entry["result"].checkpoint_path), "--manifest", str(manifest),
            str(report_path),
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(report_path)))
        assert len(rows) == len(names)
        values = [float(r["sigma_voiced_mean"]) for r in rows
                  if r["sigma_voiced_mean"] != "nan"]
        assert all(v >= 0.0 for v in values)
        voiced_means[nu] = float(np.mean(values))
    assert voiced_means[0.01] < voiced_means[0.0]
    report(8, f"eval CSV voiced sigma: regularized {voiced_means[0.01]:.5f} < "
              f"baseline {voiced_means[0.0]:.5f} (8b)")


def test_criterion_09_end_to_end_smoke(paired_runs, toy_quantizer, tmp_path):
    """fit-quantizer -> train -> encode -> decode: the decoded audio's
    dominant band-0 frequency matches the conditioning tone within 10%, a
    control decode of unvoiced material shows the conditioning is in
    charge, and decoding is bit-reproducible under a fixed seed."""
    entry = paired_runs[0.01]
    cfg = entry["cfg"]
    sr = cfg.model.sample_rate
    qmodel, _ = toy_quantizer
    quant_path = tmp_path / "toy.lvrq"
    qmodel.save(quant_path)
    cfg_path = tmp_path / "toy.cfg"
    cfg.save(cfg_path)

    from lvrc.audio import load_wav
    from lvrc.trainer import TONE_PITCHES, noise_burst, tone_burst_train

    bank = Filterbank(cfg.model.n_bands, cfg.model.fb_taps)
    f0 = TONE_PITCHES[0]

    def decode_signal(samples, tag, check_repro=False):
        wav_path = tmp_path / f"{tag}.wav"
        save_wav(wav_path, AudioBuffer(samples, sr))
        stream_path = tmp_path / f"{tag}.lvrc"
        assert cli.main(["encode", "--config", str(cfg_path), "--quantizer",
                         str(quant_path), str(wav_path), str(stream_path)]) == 0
        wav_path.unlink()  # decode must not touch the source waveform
        outs = []
        for suffix in ("a", "b") if check_repro else ("a",):
            out = tmp_path / f"{tag}_{suffix}.wav"
            assert cli.main(["decode", "--config", str(cfg_path), "--quantizer",
                             str(quant_path), "--model",
                             str(entry["result"].checkpoint_path), "--seed", "7",
                             str(stream_path), str(out)]) == 0
            outs.append(out)
        if check_repro:
            assert outs[0].read_bytes() == outs[1].read_bytes()
        return load_wav(outs[0]).samples

    def band0_stats(samples):
        band0 = bank.analyze(samples)[0]
        spectrum = np.abs(np.fft.rfft(band0 * np.hanning(len(band0)))) ** 2
        freqs = np.fft.rfftfreq(len(band0), d=cfg.model.n_bands / sr)
        keep = freqs >= 60.0  # ignore the DC/gap region of the burst train
        peak = float(freqs[keep][np.argmax(spectrum[keep])])
        near = (freqs >= 0.9 * f0) & (freqs <= 1.1 * f0)
        tonal_fraction = float(spectrum[near].sum() / max(spectrum[keep].sum(), 1e-30))
        return peak, tonal_fraction

    tone = tone_burst_train(np.random.default_rng(5), sr, 2 * sr, f0=f0)
    decoded_tone = decode_signal(tone, "tone", check_repro=True)
    peak, tone_fraction = band0_stats(decoded_tone)
    rel_err = abs(peak - f0) / f0
    assert rel_err <= 0.10, f"band-0 peak {peak:.1f} Hz vs tone {f0:.1f} Hz"

    # control: an unvoiced bitstream must not produce the tone
    unvoiced = noise_burst(np.random.default_rng(6), 2 * sr)
    decoded_noise = decode_signal(unvoiced, "noise")
    _, noise_fraction = band0_stats(decoded_noise)
    assert tone_fraction > 2.0 * noise_fraction, (
        f"conditioning not in control: tonal fraction {tone_fraction:.3f} vs "
        f"{noise_fraction:.3f} for unvoiced input"
    )
    report(9, f"decoded band-0 peak {peak:.1f} Hz vs {f0:.0f} Hz tone "
              f"({rel_err:.1%} off); tonal fraction {tone_fraction:.2f} vs "
              f"{noise_fraction:.2f} unvoiced control; decode bit-reproducible")


def test_criterion_10_baseline_distribution_consistency():
    """gamma0=0 reproduces the plain mixture bit-for-bit; infer-mode density
    integrates to 1 within 1e-6."""
    from scipy.integrate import quad

    rng = np.random.default_rng(10)
    worst_quad = 0.0
    for _ in range(5):
        k = int(rng.integers(1, 6))
        raw = np.concatenate([rng.normal(0, 1, k), rng.normal(0, 1, k),
                              rng.uniform(-2.5, 0.5, k)])
        xs = rng.normal(0, 3, 64)
        # train mode is the training head's density, infer mode the plain mixture
        p = mol.constrain(raw)
        plain = mol.log_prob(xs, p)
        train0 = -mol.head_terms(xs, np.tile(raw, (64, 1)), 1, gamma0=0.0, grads=False).nll
        assert np.array_equal(train0, plain)

        total, _ = quad(lambda t: np.exp(float(mol.log_prob(t, p))), -50.0, 50.0, limit=500)
        worst_quad = max(worst_quad, abs(total - 1.0))
    assert worst_quad <= 1e-6
    report(10, f"gamma0=0 bit-exact over 5 parameter sets; worst quadrature "
               f"deviation {worst_quad:.1e}")

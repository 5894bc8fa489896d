"""Shared fixtures. The trained-model pair and the fitted quantizer are
session-scoped because several test modules (trainer, cli, acceptance)
reuse them; everything is seeded and deterministic."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lvrc.audio import AudioBuffer
from lvrc.config import paper_config, toy_config
from lvrc.features import log_mel_features
from lvrc.model import CodecModel
from lvrc.quantizer import fit_quantizer
from lvrc.trainer import ClipDataset, synthetic_clip, train

PAIR_SEED = 2024
PAIR_STEPS = 4000  # the experiment criterion 8's bounds were frozen from
PAIR_LR = 2e-3


def make_toy_cfg(nu: float):
    cfg = toy_config()
    cfg.train.steps = PAIR_STEPS
    cfg.train.nu = nu
    cfg.train.lr = PAIR_LR
    cfg.train.seed = PAIR_SEED
    cfg.validate()
    return cfg


def pytest_collection_modifyitems(items):
    """Mark slow every test that needs the paired runs, directly or through a fixture."""
    for item in items:
        if "paired_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def toy_cfg():
    return toy_config()


@pytest.fixture(scope="session")
def paired_runs(tmp_path_factory):
    """Two identical trainings except nu: {0.0, 0.01}. The core experiment.

    The runs are independent, so they train side by side in two worker
    processes. Each worker gets a single BLAS thread (two multi-threaded
    BLAS pools on the same cores spin against each other). That does not
    change a run's arithmetic: the checkpoints are the same bytes as those
    of in-process training.
    """
    out, jobs = {}, {}
    worker_env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with pytest.MonkeyPatch.context() as env:
        for var, value in worker_env.items():
            env.setenv(var, value)  # read by the workers at start-up
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            for nu in (0.0, 0.01):
                cfg = make_toy_cfg(nu)
                dataset = ClipDataset.synthetic(cfg)
                run_dir = tmp_path_factory.mktemp(f"run_nu{nu}")
                jobs[nu] = (cfg, dataset,
                            pool.submit(train, cfg, run_dir, dataset=dataset))
            for nu, (cfg, dataset, job) in jobs.items():
                result = job.result()
                assert not result.halted, "training halted on non-finite loss"
                out[nu] = {"cfg": cfg, "result": result, "dataset": dataset}
    return out


@pytest.fixture(scope="session")
def eval_clips():
    """Held-out synthetic clips (seed disjoint from training pools)."""
    cfg = make_toy_cfg(0.0)
    return ClipDataset.synthetic(cfg, n_clips=16, seed=777)


def load_model(entry) -> CodecModel:
    model = CodecModel(entry["cfg"].model, seed=entry["cfg"].train.seed)
    model.load_checkpoint(entry["result"].checkpoint_path)
    return model


@pytest.fixture(scope="session")
def paper_quantizer():
    """Full-scale (16 kHz, 120-bit) quantizer fitted on synthetic clips."""
    cfg = paper_config()
    rng = np.random.default_rng(0)
    frames = np.concatenate([
        log_mel_features(AudioBuffer(synthetic_clip(rng, 16000, 32000), 16000),
                         cfg.model)
        for _ in range(20)
    ])
    model = fit_quantizer(frames, cfg.quantizer, cfg.digest())
    return cfg, model, frames


@pytest.fixture(scope="session")
def toy_quantizer(toy_cfg):
    """Quantizer fitted on the synthetic toy corpus."""
    dataset = ClipDataset.synthetic(toy_cfg, n_clips=48, n_noises=0)
    sr = toy_cfg.model.sample_rate
    frames = np.concatenate([
        log_mel_features(AudioBuffer(clip, sr), toy_cfg.model)
        for clip in dataset.clips
    ])
    return fit_quantizer(frames, toy_cfg.quantizer, toy_cfg.digest()), frames


def fd_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Vector-norm relative error used by every gradient check."""
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-10)
    return float(np.linalg.norm(analytic - numeric) / denom)


def numeric_grad(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. arr, in place."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + h
        fp = f()
        arr[i] = orig - h
        fm = f()
        arr[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def gate_weight_count(cell) -> int:
    """Entries of a GRU cell's six gate matrices U* and R* (biases excluded)."""
    return sum(p.value.size for tag, p in cell.params.items() if tag[0] in "UR")


def reference_sample(p, rng) -> np.ndarray:
    """A draw from constrained mixture parameters `p`, written out step by step.

    The oracle for `mol.sample`, which draws from the unconstrained flat
    output: component uniforms first (one per batch element, compared
    against the cumulative weights), then clipped logistic uniforms.
    """
    from lvrc import mol

    batch = p.gammas.shape[:-1]
    cum = np.cumsum(p.gammas, axis=-1)
    u_comp = rng.random(batch)
    k = np.minimum(np.sum(u_comp[..., None] >= cum, axis=-1), p.gammas.shape[-1] - 1)
    u = np.clip(rng.random(batch), mol.UNIFORM_EPS, 1.0 - mol.UNIFORM_EPS)
    mu_k = np.take_along_axis(p.mus, k[..., None], axis=-1)[..., 0]
    s_k = np.take_along_axis(p.scales, k[..., None], axis=-1)[..., 0]
    return mu_k + s_k * (np.log(u) - np.log1p(-u))

"""Self-tests of the benchmark (not of lvrc).

    python3 -m pytest -q perfbench/test_perfbench.py

Smoke-size runs go through run.py exactly as a full run does.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ["toy-decode", "paper-decode-b16", "toy-train", "toy-eval"]
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run(*args, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    res = result(run("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()}
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
    if trace and workload == "toy-train":
        steps = res["metrics"]["trainer.ClipDataset.batch.calls"]["value"]
        assert steps > 0
        assert res["metrics"]["mol.constrain.calls"]["value"] == 3 * steps
        assert res["metrics"]["mol.variance_grad.calls"]["value"] == 2 * steps
        assert res["metrics"]["features.mel_filterbank.calls"]["value"] == 16 * steps
        assert res["metrics"]["filterbank.design_prototype.calls"]["value"] == 1


@pytest.mark.parametrize("workload,fault", [
    ("toy-decode", "flip-byte"),
    ("toy-decode", "seed-mismatch"),
    ("toy-train", "truncate-checkpoint"),
])
def test_injected_fault_is_counted_not_fatal(workload, fault):
    res = result(run("--workload", workload, "--seed", "4", "--trace", "0", "--smoke",
                     "--fault", fault))
    assert res["failed"] == 1 and not res["correct"]
    assert res["metrics"]["ok_ratio"]["value"] == pytest.approx(
        (res["attempted"] - 1) / res["attempted"])


def _lvrc_bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if name == "lvrc" or name.startswith("lvrc.")
            for key, value in vars(mod).items() if callable(value)}


def test_shims_are_installed_everywhere_and_restored():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lvrc.cli
    from lvrc.neural import GRUCell

    before = _lvrc_bindings()
    step = GRUCell.__dict__["step"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lvrc.model.write_container is not before[("lvrc.container", "write_container")]
        assert lvrc.model.write_container is lvrc.container.write_container
        assert lvrc.cli.voicing_per_frame is lvrc.trainer.voicing_per_frame
        assert lvrc.cli.voicing_per_frame.__wrapped__ is before[("lvrc.trainer", "voicing_per_frame")]
        assert GRUCell.__dict__["step"] is not step
        lvrc.features.mel_filterbank(lvrc.toy_config().features)
        bindings = tracer.bindings()
    finally:
        tracer.restore()
    assert spans.unrestored(bindings) == []
    assert GRUCell.__dict__["step"] is step
    after = _lvrc_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert [s[0] for s in tracer.spans] == [spans.SPAN_NAMES.index("features.mel_filterbank")]


def test_traced_run_restores_every_binding():
    res = result(run("--workload", "toy-decode", "--seed", "5", "--trace", "1", "--smoke"))
    assert res["correct"]
    with open(os.path.join(ROOT, ".perfbench_out", "toy-decode-seed5-trace1.json")) as fh:
        detail = json.load(fh)
    assert detail["trace"]["unrestored"] == [] and detail["trace"]["shimmed_bindings"] > 29


def test_self_time_subtracts_children():
    a, b = spans.SPAN_NAMES.index("cli.main"), spans.SPAN_NAMES.index("audio.load_wav")
    rows = [(a, 0.0, 10.0, -1, 0), (b, 1.0, 4.0, 0, 0), (b, 20.0, 21.0, -1, 0)]
    out = spans.summarize(rows, {}, 10.0, [(0.0, 10.0)])
    assert out["cli.main.self_s"][0] == pytest.approx(7.0)
    assert out["audio.load_wav.self_s"][0] == pytest.approx(3.0)  # the span at 20 s is outside
    assert out["audio.load_wav.calls"][0] == 1
    assert out["cli.main.share"][0] == pytest.approx(0.7)


def test_inputs_are_seeded_with_exact_shares():
    shares = inputs.Shares(voiced=0.5, noise=0.2, silence=0.3)
    a = inputs.signals(7, "x", 2, 8000, 8000, shares)
    b = inputs.signals(7, "x", 2, 8000, 8000, shares)
    c = inputs.signals(8, "x", 2, 8000, 8000, shares)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    for sig in a:
        assert len(sig) == 8000 and np.all(np.abs(sig) <= 1.0)
    seg, n_seg = 320, 25  # 40 ms segments at 8 kHz
    quiet = inputs.signal(np.random.default_rng(1), 8000, 8000, shares, clicks_per_s=0.0)
    silent = sum(not np.any(quiet[k : k + seg]) for k in range(0, 8000, seg))
    assert silent == n_seg - round(0.5 * n_seg) - round(0.2 * n_seg)
    assert len(inputs.noise_burst(np.random.default_rng(0), 8000, 3)) == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = run("--workload", "toy-decode", "--seed", "1", "--trace", "0",
               cwd=tmp_path, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark still runs on this tree: every workload of BENCHMARK.json
completes a smoke run, untraced and traced, and reports itself correct.

The benchmark reads lvrc's config keys, function names and span targets
from outside the package (perfbench/worker.py, perfbench/spans.py), so a
rename in src/ that it depends on fails here. Output goes to the
git-ignored .perfbench_out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_smoke_run_is_correct(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "1", "--seed", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"] is True

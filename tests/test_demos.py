"""The demos run to completion and leave the repository as they found it.

Demos 04 and 05 train for minutes by default; here they run 10 steps,
and their work directories go under a temporary TMPDIR.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_features_and_quantizer.py", "02_filterbank_roundtrip.py",
         "03_mixture_of_logistics.py", "04_train_toy_codec.py", "05_variance_regularization.py"]
ARGS = {"04_train_toy_codec.py": ["10"], "05_variance_regularization.py": ["10"]}


def _files(root: Path) -> dict[str, int]:
    """Modification time of every file in the working tree, .git and caches aside."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__", ".pytest_cache")]
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[path] = os.stat(path).st_mtime_ns
    return out


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_and_writes_nothing_into_the_repo(demo, tmp_path):
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "TMPDIR": str(tmp),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    before = _files(ROOT)
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *ARGS.get(demo, [])],
                         cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert _files(ROOT) == before
    assert not list(cwd.iterdir())

"""The quick demos run to completion and leave the repository as they found it.

Demos 04 and 05 train a model for minutes and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK = ["01_features_and_quantizer.py", "02_filterbank_roundtrip.py",
         "03_mixture_of_logistics.py"]


def _files(root: Path) -> dict[str, int]:
    """Modification time of every file in the working tree, .git and caches aside."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__", ".pytest_cache")]
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[path] = os.stat(path).st_mtime_ns
    return out


@pytest.mark.parametrize("demo", QUICK)
def test_demo_runs_and_writes_nothing_into_the_repo(demo, tmp_path):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    before = _files(ROOT)
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert _files(ROOT) == before
    assert not list(tmp_path.iterdir())

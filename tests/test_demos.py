"""Every demo script runs to completion.

Each demo runs in its own interpreter with the package sources on its path;
the CLI cache and temporary files go under the test's own directory, so a
demo leaves nothing behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               GARSIDE_CACHE_DIR=str(tmp_path / "cache"), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert not list(tmp_path.glob("garside-demo-*"))

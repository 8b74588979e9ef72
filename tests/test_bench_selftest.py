"""The benchmark's checks still catch every fault they are meant to catch.

`bench/selftest.py` runs one clean round of each workload and then corrupts
one output at a time; it exits 0 only when the clean round passes and every
corruption is caught.  It writes only under the git-ignored `bench/out/`,
and runs with ``-B``, so nothing is written next to the benchmark's sources.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "0 self-test failures" in done.stdout

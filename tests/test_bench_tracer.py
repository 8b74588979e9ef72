"""The benchmark's per-layer tracer still finds every layer it wraps.

`bench/tracer.py` raises when a function it traces is renamed or removed,
so this runs its installation on a fresh import of the package (with
``-B``, so that nothing is written next to the benchmark's sources).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import garside, garside.cli
from tracer import Tracer
Tracer().install([m for n, m in sys.modules.items() if n.split(".")[0] == "garside"])
"""


def test_tracer_installs_on_every_layer():
    done = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr

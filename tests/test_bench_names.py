"""Every name that ``perfbench/spans.py`` wraps still exists in the package.

The tracer replaces module and class attributes by name, so a rename under
``src/`` would otherwise surface only in a traced benchmark run. Installing
it patches the package for good, so it runs in a child process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_the_benchmark_tracer_wraps_exists():
    child = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "perfbench"), str(ROOT / "src")))},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr

"""The package imports and runs with scipy unavailable."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"

# A None entry in sys.modules makes every later `import scipy` raise ImportError.
BLOCKED = """
import sys
sys.modules["scipy"] = None
import themecoder
from themecoder.cli import main
from themecoder.evaluation import MetricSet, avg_rank, wald_ci

tied = MetricSet(0.5, 0.5, 0.5, 0.5, "micro", 10)
assert avg_rank([("a", tied), ("b", tied)]).rank_of("a") == 1.5
assert wald_ci(0.5, 100, confidence=0.9).lower < 0.5
sys.exit(main(["rank", "--metrics-table", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_package_runs_without_scipy(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", BLOCKED, str(FIXTURES / "ds1_reference_metrics.csv"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "ranking.csv").is_file()

"""The benchmark harness in ``perfbench/`` reads the library by name: traced
functions, per-metric caches, suites and workloads.  A change that removes or
stops calling one of them can break the harness while every other test
passes, so each workload runs here once, traced, on a copy of the harness
next to a link to ``src``; the copy keeps the run's records out of the
checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cli-verify", "cli-lift", "lift-stream", "metric-sweep"])
def test_traced_workload_runs_correct(workload, tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bench)
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True

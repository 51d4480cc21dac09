"""The benchmark harness, traced, on every workload.

A traced run exits 1 when a name its span tracer wraps is gone from extlift
or a layer its workload expects never fires, though every untraced run
passes; this runs it as the benchmark does, with one pass per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["corpus_small", "quotient_large", "aut_enum"])
def test_traced_benchmark_run_passes(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True

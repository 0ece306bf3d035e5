"""The benchmark harness still runs against the package."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["spectral", "thin-layer"])
def test_traced_bench_pass_reaches_eig_sturm(workload):
    # the two workloads that reach eig_sturm; the tracer's eig hook reads
    # op.boundary, so this also guards TridiagonalOperator.boundary
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["correct"] is True, proc.stdout
    assert record["metrics"]["bvp_engine.eig.calls"]["value"] > 0

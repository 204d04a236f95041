"""The benchmark's contract with the library.

``bench/worker.py --setup-only`` imports the library the way the benchmark
does and passes every warm-up op through its workload's own ``check``,
which reads library names the engine itself no longer calls (the
cyclotomic nullity and sign formulas, ``representer``, ``cayley_circulant``).
A name removed from the library fails here, not first in a benchmark run.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")


@pytest.mark.parametrize("workload", ["sweep", "cyclic_large", "general", "dense_snf"])
def test_worker_setup_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

"""Golden artifacts: bits of a c10-config run pinned across commits (tests/golden/).

c10 compares two runs of one commit; this compares a run with the digests
that `tests/golden/rewrite.py` stored, so a change that moves a bit of any
artifact fails here unless it rewrites the golden on purpose.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from golden import rewrite

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_c10_artifacts_match_golden(tmp_path):
    branch = rewrite.check(rewrite.run_c10(tmp_path))
    print(f"golden: {branch} branch, environment {rewrite.environment_key()}")


def test_another_blas_kernel_takes_the_tolerance_branch():
    # OPENBLAS_CORETYPE swaps the BLAS kernel of a DYNAMIC_ARCH build: its bits differ,
    # so the environment key must differ and the run must still fall within tolerance
    config = rewrite.openblas_config() or ""
    if platform.machine() != "x86_64" or "DYNAMIC_ARCH" not in config or " Nehalem " in config:
        pytest.skip("needs an x86-64 DYNAMIC_ARCH OpenBLAS on a kernel other than Nehalem")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem", "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    done = subprocess.run(
        [sys.executable, str(TESTS / "golden" / "rewrite.py"), "--check"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "golden: tolerance branch" in done.stdout

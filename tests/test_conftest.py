"""The suite's one-BLAS-thread pin refuses to run when it would not hold."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_numpy_loaded_before_conftest_is_a_usage_error():
    # numpy imported first: OpenBLAS has already read its thread count
    code = ("import sys, numpy, pytest; "
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '--collect-only', "
            f"{str(TESTS / 'test_api.py')!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=TESTS.parent, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 4  # pytest.ExitCode.USAGE_ERROR
    assert "numpy was imported before tests/conftest.py could pin OPENBLAS_NUM_THREADS=1" in (
        proc.stdout + proc.stderr)

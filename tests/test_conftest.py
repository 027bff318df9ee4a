"""tests/conftest.py: its one-BLAS-thread pin refuses to run when it would
not hold, and a failing Hypothesis example does not end the run."""

import os
import subprocess
import sys
from pathlib import Path

import saddlekit

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


def test_failing_hypothesis_example_does_not_stop_the_run(tmp_path):
    # Hypothesis reports a failing example through libcst, whose import warns;
    # the suite's error::DeprecationWarning must not turn that into an
    # INTERNALERROR that skips every later test
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_after():\n"
        "    pass\n")
    # run from tmp_path, where a relative PYTHONPATH entry would not find the package
    path = [str(Path(saddlekit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir",
                           str(tmp_path), "test_probe.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1  # pytest.ExitCode.TESTS_FAILED
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout

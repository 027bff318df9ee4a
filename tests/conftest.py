import os
import sys

import pytest

# The l=16 table counts are the behaviour fingerprint, and BLAS rounding
# depends on its thread count (table 3, nu=0.1, Case V takes 2886 GMRES
# steps with one OpenBLAS thread and 3480 with two): pin one thread before
# numpy is first imported.  OpenBLAS reads the pin only when it loads, so a
# numpy or scipy loaded earlier (by a plugin or an ini setting) is refused.
_loaded = [name for name in ("numpy", "scipy") if name in sys.modules]
if _loaded:
    raise pytest.UsageError(
        f"{' and '.join(_loaded)} was imported before tests/conftest.py could pin "
        "OPENBLAS_NUM_THREADS=1, so BLAS may run on several threads and the pinned "
        "table counts can move; remove the plugin or ini setting that imports it")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

from saddlekit import build_oseen, build_random_singular


def pytest_configure(config):
    # splu converts a CSR input to CSC and warns; every splu here must get CSC.
    # Registered here, not in pyproject's filterwarnings: pytest imports a
    # filter's category (scipy, hence numpy) before this file pins the threads.
    config.addinivalue_line("filterwarnings", "error::scipy.sparse.SparseEfficiencyWarning")


@pytest.fixture(scope="session")
def oseen_8():
    return build_oseen(8, 0.1)


@pytest.fixture(scope="session")
def oseen_16():
    return build_oseen(16, 0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_saddle(seed, n=8, m=4, rank_b=3):
    return build_random_singular(n=n, m=m, rank_b=rank_b, seed=seed)

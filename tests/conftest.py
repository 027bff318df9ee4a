import os

# The l=16 table counts are the behaviour fingerprint, and BLAS rounding
# depends on its thread count (table 3, nu=0.1, Case V takes 2886 GMRES
# steps with one OpenBLAS thread and 3480 with two): pin one thread before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from saddlekit import build_oseen, build_random_singular


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

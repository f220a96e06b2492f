"""Shared fixtures and independent oracles.

The membership oracle here enumerates a^2 + b^2 lattice points directly and
must stay independent of the parity-sieve implementation it checks.
"""

from math import isqrt

import numpy as np
import pytest


def two_square_marks(n_max: int) -> np.ndarray:
    """marks[n] = True iff n = a^2 + b^2 for some a, b >= 0, for 1 <= n <= n_max."""
    marks = np.zeros(n_max + 1, dtype=bool)
    for a in range(isqrt(n_max) + 1):
        rem = n_max - a * a
        bs = np.arange(0, isqrt(rem) + 1, dtype=np.int64)
        marks[a * a + bs * bs] = True
    marks[0] = False  # 0 is outside the domain
    return marks


@pytest.fixture(scope="session")
def oracle_marks_10k() -> np.ndarray:
    return two_square_marks(10_000)


@pytest.fixture(scope="session")
def oracle_marks_100k() -> np.ndarray:
    return two_square_marks(100_000)


@pytest.fixture(scope="session")
def oracle_marks_6m() -> np.ndarray:
    # covers windows around 7^8 = 5,764,801
    return two_square_marks(6_000_000)

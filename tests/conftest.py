import os
import random

import pytest

import k0lab
from k0lab.zmatrix import IntMatrix, Matrix, cokernel_with_class


def src_on_path() -> dict[str, str]:
    """The environment for a child Python that imports the same k0lab as this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(k0lab.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited] if inherited else [src])}


def rank(m: Matrix) -> int:
    """Rank over the rationals: the number of nonzero invariant factors of m."""
    return sum(1 for s in cokernel_with_class(m)[0] if s != 0)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 4) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng: random.Random, n: int, ops: int = 12) -> IntMatrix:
    """Product of elementary row operations: swaps, sign flips, shears."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            q = rng.randint(-3, 3)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return IntMatrix.from_rows(m)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)

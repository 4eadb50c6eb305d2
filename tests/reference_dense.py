"""Dense numpy matrices over the package's fields, kept as a test reference.

``dtype`` and ``zeros`` give the arrays the tests build their dense matrices
in: int64 residues while a prime is small enough that products of residues
stay exact, object arrays of Python ints above that and over Q.  ``rref`` is
numpy Gauss-Jordan elimination with the package's pivoting (leftmost nonzero
column, first nonzero row), and ``rank`` counts its pivots.  The package's
own ``rref`` works on lists of rows (``cechmv.linalg.Dense``); the tests
check the two against each other, and the dense subspace reference
(``reference_spectral``) builds on this one.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

import numpy as np

from cechmv.linalg import Field, PrimeField

# In the int64 arrays, products stay exact while p**2 * ncols stays below
# 2**63; this bound keeps a comfortable margin for matrices with a few
# thousand columns.
INT64_PRIME_LIMIT = 3_000_000


def dtype(field: Field):
    """int64 for a prime up to ``INT64_PRIME_LIMIT``, object otherwise."""
    return np.int64 if isinstance(field, PrimeField) and field.p <= INT64_PRIME_LIMIT else object


def zeros(field: Field, rows: int, cols: int) -> np.ndarray:
    """The rows x cols zero matrix over ``field``; over Q its entries are the
    Python int 0."""
    a = np.zeros((rows, cols), dtype=dtype(field))
    if a.dtype == object:
        a[:] = 0
    return a


def rref(field: Field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a copy of ``a``; returns (R, pivot columns).

    Deterministic pivoting: scan columns left to right, take the first row
    with a nonzero entry, normalize it to 1 and clear the column above and
    below.
    """
    a = field.normalize(np.array(a, dtype=dtype(field)))
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        v = a[r, c]
        if v != 1:
            a[r] = field.normalize(a[r] * field.inv_scalar(v))
        other = np.flatnonzero(a[:, c])
        other = other[other != r]
        if other.size:
            a[other] = field.normalize(a[other] - np.outer(a[other, c], a[r]))
        pivots.append(c)
        r += 1
    return a, pivots


def rank(field: Field, a: np.ndarray) -> int:
    """The number of pivots of ``rref``."""
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(rref(field, a)[1])

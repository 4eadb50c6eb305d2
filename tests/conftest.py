"""Shared generators for randomized structural tests, the degree classes
of a problem as the CLI's class steps see them, the two converters between
dense numpy matrices and the package's sparse ``{row: value}`` column lists,
and the one from numpy matrices to the package's dense ``Dense`` rows.

Random complexes are built with square-zero enforced by construction (a map
is zeroed whenever it would compose nonzero with its predecessor), so every
generated multicomplex is valid by design and the tests probe the machinery,
not the generator.
"""

import numpy as np
import pytest

from cechmv import (CochainComplex, Dense, Multicomplex, MvssRun, PrimeField, VARIANTS,
                    degree_classes, tensor_product)
from cechmv.cli import DegreeClass
from cechmv.multicomplex import add_e
from reference_dense import dtype, zeros

F = PrimeField(65537)


def columns(f, a) -> list[dict]:
    """The dense matrix ``a`` (array or nested lists) as a column list of
    normalized nonzero entries."""
    a = f.normalize(np.asarray(a).astype(dtype(f)))
    return [{i: v for i, v in enumerate(col) if v} for col in a.T.tolist()]


def dense(f, cols: list[dict], rows: int) -> np.ndarray:
    """The ``rows`` x len(cols) numpy matrix of the column list ``cols``."""
    a = zeros(f, rows, len(cols))
    for j, col in enumerate(cols):
        for i, v in col.items():
            a[i, j] = v
    return a


def as_dense(a: np.ndarray) -> Dense:
    """The numpy matrix ``a`` as the package's ``Dense`` rows of Python ints
    or fractions, of the same shape."""
    return Dense(a.tolist(), a.shape[1])


def rand_complex(f, rng, max_len=3, max_dim=3, min_start=0):
    length = int(rng.integers(1, max_len + 1))
    start = int(rng.integers(min_start, min_start + 2))
    dims = {}
    for t in range(start, start + length):
        d = int(rng.integers(0, max_dim + 1))
        if d:
            dims[t] = d
    if not dims:
        dims = {start: 1}
    d = {}
    for t in sorted(dims):
        if t + 1 in dims:
            d[t] = f.normalize(rng.integers(0, 5, size=(dims[t + 1], dims[t])).astype(dtype(f)))
    for t in sorted(d):
        if t + 1 in d:
            comp = d[t + 1] @ d[t]
            if np.any(f.normalize(comp)):
                d[t + 1] = zeros(f, *d[t + 1].shape)
    return CochainComplex(f, dims, {t: columns(f, a) for t, a in d.items()})


def rand_tensor_mc(f, rng, max_axes=3, max_dim=3, coin=True):
    """The tensor product of up to ``max_axes`` random complexes.  With
    ``coin`` one more integer is drawn and discarded: the generator once
    flipped a coin there, and seeded tests keep their lattices."""
    n = int(rng.integers(1, max_axes + 1))
    factors = [rand_complex(f, rng, max_dim=max_dim) for _ in range(n)]
    if coin:
        rng.integers(0, 2)
    return tensor_product(factors)


def keep_points(mc: Multicomplex, keep) -> Multicomplex:
    """The entries of ``mc`` at the points where ``keep`` holds, with the maps
    between them and their block provenance: the reference for
    ``multicomplex.restrict``, which selects the same blocks of the
    totalization."""
    dims = {q: d for q, d in mc.dims.items() if keep(q)}
    diffs = {(q, i): m for (q, i), m in mc.diffs.items() if q in dims and add_e(q, i) in dims}
    pb = ({q: b for q, b in mc.point_blocks.items() if q in dims}
          if mc.point_blocks is not None else None)
    return Multicomplex(mc.field, mc.n, dims, diffs, pb)


def class_of(problem, b) -> DegreeClass:
    """The degree class holding b."""
    return next(DegreeClass(problem, members) for _pat, members in degree_classes(problem)
                if b in members)


def window_runs(problem, variants=VARIANTS) -> dict[str, MvssRun]:
    """Every variant's class runs over the window, in class order; each class
    builds its lattice once for all variants."""
    klasses = [DegreeClass(problem, members) for _pat, members in degree_classes(problem)]
    return {v: MvssRun(problem, v, [k.run(v, None) for k in klasses]) for v in variants}


@pytest.fixture
def field():
    return F


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

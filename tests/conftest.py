"""Shared generators for randomized structural tests, and the degree classes
of a problem as the CLI's class steps see them.

Random complexes are built with square-zero enforced by construction (a map
is zeroed whenever it would compose nonzero with its predecessor), so every
generated multicomplex is valid by design and the tests probe the machinery,
not the generator.
"""

import numpy as np
import pytest

from cechmv import (CochainComplex, MvssRun, PrimeField, VARIANTS, degree_classes, sign_twist,
                    tensor_product)
from cechmv.cli import DegreeClass

F = PrimeField(65537)


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
            d[t] = f.array(rng.integers(0, 5, size=(dims[t + 1], dims[t])).tolist())
    for t in sorted(d):
        if t + 1 in d:
            comp = d[t + 1] @ d[t]
            if np.any(f.normalize(comp)):
                d[t + 1] = f.zeros(*d[t + 1].shape)
    return CochainComplex(f, dims, d)


def rand_tensor_mc(f, rng, max_axes=3, max_dim=3, twist=True):
    n = int(rng.integers(1, max_axes + 1))
    factors = [rand_complex(f, rng, max_dim=max_dim) for _ in range(n)]
    mc = tensor_product(factors)
    if twist and rng.integers(0, 2):
        mc = sign_twist(mc)
    return mc


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

"""Shared generators for randomized structural tests, the two builders of
test lattices and complexes (``tensor_product``, ``koszul_complex``), the
degree classes of a problem as the CLI's class steps see them, the two
converters between dense numpy matrices and the package's sparse
``{row: value}`` column lists, the one from numpy matrices to the package's
dense ``Dense`` rows, and small helpers only the tests use (the window's
degrees and its membership test, the zero ideal, a complex's degree range,
the field check of the references, a field's name, a monomial's text, a
table's cell, the generator subsets of a Čech lattice entry, the count
filtration's level and the check that a filtration is stable under d).

Random complexes are built with square-zero enforced by construction (a map
is zeroed whenever it would compose nonzero with its predecessor), so every
generated multicomplex is valid by design and the tests probe the machinery,
not the generator.
"""

import functools
import itertools
import operator

import numpy as np
import pytest

from cechmv import (CochainComplex, CohomologyTable, ContractError, Dense, FilteredComplex,
                    MonomialIdeal, Multicomplex, PrimeField, VARIANTS, degree_classes,
                    support_mask)
from cechmv.cli import DegreeClass
from cechmv.grading import Exps
from cechmv.linalg import Columns, Field
from cechmv.multicomplex import Point, _wedge_signs, add_e
from cechmv.mvss import FILTRATION, ClassRun, run_variant
from reference_dense import dtype, zeros

F = PrimeField(65537)


class FieldMismatchError(ContractError):
    pass


def describe(f: Field) -> str:
    """The field's name in test ids and messages: F_p or Q."""
    return f"F_{f.p}" if isinstance(f, PrimeField) else "Q"


def same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"mixed coefficient fields: {describe(a)} vs {describe(b)}")


def format_monomial(exps: Exps) -> str:
    parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e > 0]
    return "*".join(parts) if parts else "1"


def table_get(table: CohomologyTable, i: int, b: Exps) -> int:
    """The table's dimension at index i and degree b, 0 where it holds none."""
    return next((col.get(i, 0) for members, col in table.columns if b in members), 0)


def alive_subsets(problem, pattern: tuple[int, ...], q: Point) -> list[tuple]:
    """The basis of the entry at q of ``cech_multicomplex(problem, pattern)``
    in its column order: the choices (S_1..S_n) of a q_i-subset S_i of each
    group's generator indices whose product is alive under ``pattern``."""
    masks = [[support_mask(g) for g in grp] for grp in problem.groups]
    choices = itertools.product(*(itertools.combinations(range(len(grp)), t)
                                  for grp, t in zip(problem.groups, q)))
    return [combo for combo in choices
            if pattern[functools.reduce(operator.or_, (masks[i][k] for i, s in enumerate(combo)
                                                       for k in s), 0)]]


def nonzero_count(q: Point) -> int:
    """The count filtration's level of a block at lattice point q: how many
    of its coordinates are nonzero."""
    return sum(1 for x in q if x)


def validate_filtration(fc: FilteredComplex) -> None:
    """Check that d lowers no level, so every F^p is a subcomplex."""
    for m in sorted(fc.total.d):
        src, tgt = fc.levels[m], fc.levels[m + 1]
        low = [tgt[i] for j, col in enumerate(fc.total.d[m]) for i in col if tgt[i] < src[j]]
        if low:
            raise ContractError(f"filtration not stable under d at level {min(low) + 1}, "
                                f"degree {m}")


def window_degrees(window: tuple[Exps, Exps]):
    """All degrees of the closed box, in lexicographic order."""
    lo, hi = window
    return itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])


def degrees(problem) -> list[Exps]:
    """Every degree of the problem's window, in lexicographic order."""
    return [tuple(b) for b in window_degrees(problem.window)]


def in_window(problem, b: Exps) -> bool:
    """Whether b is a degree of the problem's window."""
    lo, hi = problem.window
    return len(b) == problem.num_vars and all(a <= x <= c for x, a, c in zip(b, lo, hi))


def zero_ideal(num_vars: int) -> MonomialIdeal:
    return MonomialIdeal(num_vars, ())


def degree_range(cx: CochainComplex) -> tuple[int, int]:
    """The lowest and highest degree of ``cx``; (0, -1) when it is zero."""
    if not cx.dims:
        return (0, -1)
    return (min(cx.dims), max(cx.dims))


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


def tensor_product(factors: list[CochainComplex]) -> Multicomplex:
    """Outer tensor product of single complexes, one lattice axis per factor.

    Direction i acts by the factor differential on slot i and the identity on
    the others; no signs are introduced, so the result is commutative.
    """
    if not factors:
        raise ContractError("tensor_product needs at least one factor")
    f = factors[0].field
    for cx in factors[1:]:
        same_field(f, cx.field)
    n = len(factors)
    ranges = [degree_range(cx) for cx in factors]
    dims: dict[Point, int] = {}
    for q in itertools.product(*[range(a, b + 1) for a, b in ranges]):
        d = 1
        for cx, v in zip(factors, q):
            d *= cx.dim(v)
        if d:
            dims[q] = d
    diffs = {}
    for q in dims:
        for i in range(n):
            tq = add_e(q, i)
            if tq not in dims:
                continue
            di, rows = factors[i].matrix(q[i]), factors[i].dim(q[i] + 1)
            pre = 1
            for cx, v in zip(factors[:i], q[:i]):
                pre *= cx.dim(v)
            post = 1
            for cx, v in zip(factors[i + 1 :], q[i + 1 :]):
                post *= cx.dim(v)
            # I_pre (x) d_i (x) I_post: coordinate (a, j, c) is (a * dim + j) * post + c
            diffs[(q, i)] = [{(a * rows + r) * post + c: v for r, v in col.items()}
                             for a in range(pre) for col in di for c in range(post)]
    return Multicomplex(f, n, dims, diffs)


def koszul_complex(field: Field, n: int, coeff_dim: int) -> CochainComplex:
    """Cochain Koszul complex on n unit coefficients with values in k^coeff_dim.

    Exact for every n >= 1.
    """
    subsets = {p: list(itertools.combinations(range(n), p)) for p in range(n + 1)}
    dims = {p: len(subsets[p]) * coeff_dim for p in range(n + 1) if len(subsets[p]) * coeff_dim}
    d = {}
    for p in range(n):
        if not dims.get(p) or not dims.get(p + 1):
            continue
        index = {s: k for k, s in enumerate(subsets[p + 1])}
        columns: Columns = []
        for s in subsets[p]:
            signs = _wedge_signs(field, s, n, index)
            columns.extend({r * coeff_dim + k: v for r, v in signs.items()}
                           for k in range(coeff_dim))
        d[p] = columns
    return CochainComplex(field, dims, d)



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
    """The degree class holding b, at its representative degree."""
    return next(DegreeClass(problem, pat, members[0]) for pat, members in degree_classes(problem)
                if b in members)


def class_run(klass: DegreeClass, variant: str) -> ClassRun:
    """The class step of ``mvss:<variant>`` on ``klass``, with default pages."""
    return run_variant(klass.problem, variant, klass.sequences, klass.cache, klass.b0)


def window_classes(problem) -> list[tuple[list[Exps], DegreeClass, dict[str, ClassRun]]]:
    """(members, class, {variant: run}) for every degree class of the window,
    in class order; each class builds its lattice once for all variants."""
    out = []
    for pat, members in degree_classes(problem):
        klass = DegreeClass(problem, pat, members[0])
        out.append((members, klass, {v: class_run(klass, v) for v in VARIANTS}))
    return out


def run_width(klass: DegreeClass, variant: str) -> int:
    """The filtration width ``mvss.run_variant`` computes the variant's pages
    to: at least 1, and 1 for an empty complex."""
    fc = klass.sequences.sequence(FILTRATION[variant]).fc
    return max(fc.width, 1) if fc.total.dims else 1


def abutment_dims(klass: DegreeClass, variant: str) -> dict[int, int]:
    """{m: dim H^m} of the variant's total complex, nonzero dimensions only."""
    return klass.sequences.sequence(FILTRATION[variant]).infinity()[1]


def limit_cells(klass: DegreeClass, variant: str) -> dict[tuple[int, int], int]:
    """The nonzero cells of the variant's limit page."""
    return klass.sequences.sequence(FILTRATION[variant]).infinity()[0].cells


@pytest.fixture
def field():
    return F


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

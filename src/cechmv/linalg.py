"""Exact linear algebra over a prime field or the rationals.

The lattice route has one matrix format: a list of sparse ``{row: value}``
columns, with every value normalized (Python ints mod p, or ints and
fractions.Fraction over Q) and no zero entries.  A matrix's row count is not
stored; it is the dimension of the target space, which the complex holding
the matrix already knows.  ``mul`` multiplies two such lists and
``submatrix`` selects and relabels rows and columns by index.  All
elimination is exact; no floating point anywhere.

Two eliminations.  ``rref`` is dense Gauss-Jordan elimination on a
``Dense`` matrix, a list of rows of normalized field elements with its
``shape``, with deterministic pivoting (leftmost nonzero column, first
nonzero row); only the oracle's ``rank`` uses it, and the oracle's matrices
are the package's only dense ones.  Neither elimination uses numpy.
``reduce_column`` is the column reduction of persistence, on sparse columns,
and it does every elimination of the lattice route.  ``Subspace.insert``
reduces a column and stores it when it is left nonzero, the one place a
reduced column is stored: ``pivot_pairs`` counts the pairs of its
insertions, so the pages and cohomology dimensions, and ``Subspace`` keeps
the stored columns as a sparse echelon basis, so kernels, images and spans
(Cohen-Steiner, Edelsbrunner and Morozov).
Both are deterministic, so all downstream bases are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

DEFAULT_PRIME = 65537

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least odd composite that is a strong pseudoprime to every base
# above (Sorenson and Webster, Math. Comp. 2017): the test is exact below it
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below ``_MR_EXACT_BELOW``."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.p >= _MR_EXACT_BELOW:
            raise InputError(f"modulus {self.p} is too large: primality is decided exactly "
                             f"only below {_MR_EXACT_BELOW}")
        if not is_prime(self.p):
            raise InputError(f"modulus not prime: {self.p}")

    def normalize(self, a):
        return a % self.p

    def inv_scalar(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)


@dataclass(frozen=True)
class RationalField:
    def normalize(self, a):
        return a

    def inv_scalar(self, a):
        return Fraction(1, 1) / a


Field = PrimeField | RationalField


Columns = list[dict[int, object]]


def mul(field: Field, a: Columns, b: Columns) -> Columns:
    """The product ``a`` x ``b`` of two column lists: column j is the
    combination of the columns of ``a`` with the coefficients of column j of
    ``b``, so ``a`` needs one column per row of ``b``."""
    out = []
    for col in b:
        acc: dict[int, object] = {}
        for k, x in col.items():
            for i, y in a[k].items():
                acc[i] = acc.get(i, 0) + x * y
        out.append({i: v for i, v in ((i, field.normalize(v)) for i, v in acc.items()) if v})
    return out


def identity(n: int) -> Columns:
    """The column list of the n x n identity."""
    return [{k: 1} for k in range(n)]


def neg(field: Field, a: Columns) -> Columns:
    """The column list of -``a``."""
    return [{i: field.normalize(-v) for i, v in col.items()} for col in a]


def submatrix(a: Columns, rows, cols) -> Columns:
    """The matrix whose entry (i, j) is the entry (rows[i], cols[j]) of
    ``a``: the columns ``cols`` of ``a`` on the rows ``rows``, both index
    sequences, relabelled by their positions there.  No column is copied
    densely, and ``a`` is not modified: a column whose rows all keep their
    index (they lie below the first row that moves or is dropped) is shared
    with ``a``, not copied."""
    pos = {r: i for i, r in enumerate(rows)}
    fixed = next((i for i in range(len(pos)) if pos.get(i) != i), len(pos))
    return [a[j] if max(a[j], default=-1) < fixed
            else {pos[r]: v for r, v in a[j].items() if r in pos} for j in cols]


class Dense(list):
    """A dense matrix: a list of rows, each a list of normalized field
    elements (Python ints mod p, or ints and fractions over Q), and its
    ``shape``, which the rows alone do not give when there are none."""

    __slots__ = ("cols",)

    def __init__(self, rows, cols: int):
        super().__init__(rows)
        self.cols = cols

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Dense":
        return cls([[0] * cols for _ in range(rows)], cols)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.cols


def rref(field: Field, a: Dense) -> tuple[Dense, list[int]]:
    """Reduced row echelon form of a copy of ``a``; returns (R, pivot columns).

    Deterministic pivoting: scan columns left to right, take the first row
    with a nonzero entry, normalize it to 1 and clear the column above and
    below.
    """
    norm = field.normalize
    rows, cols = a.shape
    m = [[norm(x) for x in row] for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        i = next((i for i in range(r, rows) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        v = m[r][c]
        if v != 1:
            inv = field.inv_scalar(v)
            m[r] = [norm(x * inv) for x in m[r]]
        top = [(j, z) for j, z in enumerate(m[r]) if z]
        for k, row in enumerate(m):
            x = row[c]
            if x and k != r:
                for j, z in top:
                    row[j] = norm(row[j] - x * z)
        pivots.append(c)
        r += 1
    return Dense(m, cols), pivots


def reduce_column(field: Field, col: dict[int, object],
                  reduced: dict[int, tuple[dict[int, object], object]]) -> int | None:
    """Reduce the ``{row: value}`` column ``col`` in place against
    ``reduced``, ``{pivot row: (column, 1/pivot)}``: while the lowest nonzero
    row of ``col`` is the pivot row of a reduced column, subtract the multiple
    of that column that clears it.  Returns the lowest row left, or None once
    ``col`` is zero.  Arithmetic is exact (Python ints mod p, or fractions
    over Q)."""
    while col:
        low = max(col)
        if low not in reduced:
            return low
        other, inv = reduced[low]
        c = col[low] * inv
        for i, x in other.items():
            y = field.normalize(col.pop(i, 0) - c * x)
            if y:
                col[i] = y
    return None


def pivot_pairs(field: Field, a: Columns) -> list[tuple[int, int]]:
    """The persistence pairs (row, column) of the column list ``a``, from the
    standard column reduction (as in PHAT): the columns are inserted left to
    right into one ``Subspace``, and a column left nonzero is paired with its
    lowest row.  ``a`` is not modified.

    By the pairing lemma (Cohen-Steiner, Edelsbrunner and Morozov):

    * the paired columns are the pivot columns of ``rref(field, a)``;
    * for every r and c, the pairs inside the bottom r rows and the left c
      columns number the rank of that block.
    """
    s = Subspace(field, None)
    return [(low, j) for j, col in enumerate(a) if (low := s.insert(col)) is not None]


def rank(field: Field, a: Dense) -> int:
    """The number of pivots of ``rref``.  The oracle ranks through this dense
    Gauss-Jordan elimination, and the lattice route counts ``pivot_pairs``,
    a column reduction on sparse columns, so the two routes rank with
    different eliminations on different representations."""
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(rref(field, a)[1])


class Subspace:
    """A subspace of k^ambient, held by a sparse echelon basis: ``{row:
    value}`` columns with pairwise distinct lowest rows, built by
    ``insert``.  ``pivots`` maps each lowest row to (column, 1/pivot), in
    the order of ``columns``.  The set of lowest rows is the set of lowest
    rows of the subspace's nonzero vectors, so it does not depend on the
    echelon basis chosen.  ``ambient`` is None for the working spaces of
    ``pivot_pairs`` and ``kernel``, whose row count is not needed."""

    def __init__(self, field: Field, ambient: int | None):
        self.field = field
        self.ambient = ambient
        self.columns: list[dict[int, object]] = []
        self.pivots: dict[int, tuple[dict[int, object], object]] = {}

    def insert(self, v: dict[int, object]) -> int | None:
        """Reduce a copy of the ``{row: value}`` vector ``v`` against the
        basis and keep it when it is left nonzero.  Returns its lowest row,
        or None when ``v`` is in the span already.  ``v`` is not modified."""
        v = dict(v)
        low = reduce_column(self.field, v, self.pivots)
        if low is not None:
            self.columns.append(v)
            self.pivots[low] = (v, self.field.inv_scalar(v[low]))
        return low

    @classmethod
    def span(cls, field: Field, ambient: int, vectors) -> "Subspace":
        """The span of the ``{row: value}`` ``vectors``, inserted in order."""
        s = cls(field, ambient)
        for v in vectors:
            s.insert(v)
        return s

    @classmethod
    def kernel(cls, field: Field, a: Columns) -> "Subspace":
        """The kernel {x : a x = 0} of the column list ``a``.  The columns of
        ``a`` stacked under the identity are inserted left to right; a column
        whose ``a`` part reduces to zero is a kernel vector, and its lowest
        row is its own index, so storing it changes no later reduction."""
        n = len(a)
        s = cls.span(field, None, ({j: 1, **{n + i: v for i, v in col.items()}}
                                   for j, col in enumerate(a)))
        return cls.span(field, n, (col for low, (col, _) in s.pivots.items() if low < n))

    @property
    def dim(self) -> int:
        return len(self.columns)

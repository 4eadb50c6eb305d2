"""Exact dense linear algebra over a prime field or the rationals.

Matrices are plain numpy arrays: int64 residues for a prime field (object
dtype once the modulus is large enough that int64 products could overflow)
and Python ints / fractions.Fraction for the rationals.  All elimination is
exact; no floating point anywhere.

Pivoting is deterministic: leftmost nonzero column, first nonzero row.  Every
subspace is stored through its reduced row echelon basis, so equal subspaces
have equal basis arrays and all downstream bases are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractError, FieldMismatchError, InputError

DEFAULT_PRIME = 65537

# int64 is safe while p**2 * ncols stays below 2**63; this bound keeps a
# comfortable margin for matrices with a few thousand columns.
_INT64_PRIME_LIMIT = 3_000_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
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
        if not is_prime(self.p):
            raise InputError(f"modulus not prime: {self.p}")

    @property
    def dtype(self):
        return np.int64 if self.p <= _INT64_PRIME_LIMIT else object

    def array(self, data) -> np.ndarray:
        try:
            a = np.array(data, dtype=self.dtype)
        except TypeError as e:
            raise FieldMismatchError(f"non-integer entry in a prime-field matrix: {e}")
        if a.ndim != 2:
            raise ContractError(f"matrix data must be 2-d, got shape {a.shape}")
        if self.dtype is object:
            for x in a.flat:
                if not isinstance(x, int):
                    raise FieldMismatchError(f"non-integer entry in a prime-field matrix: {x!r}")
        return a % self.p

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=self.dtype)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def inv_scalar(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def lift_signed(self, a: np.ndarray) -> np.ndarray:
        """Residues lifted to the symmetric range (-p/2, p/2]."""
        half = self.p // 2
        return np.where(a > half, a - self.p, a)

    def describe(self) -> str:
        return f"F_{self.p}"


@dataclass(frozen=True)
class RationalField:
    @property
    def dtype(self):
        return object

    def array(self, data) -> np.ndarray:
        a = np.array(data, dtype=object)
        if a.ndim != 2:
            raise ContractError(f"matrix data must be 2-d, got shape {a.shape}")
        for x in a.flat:
            if not isinstance(x, (int, Fraction)):
                raise FieldMismatchError(f"entry is neither int nor Fraction: {x!r}")
        return a

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        a = np.zeros((rows, cols), dtype=object)
        a[:] = 0
        return a

    def eye(self, n: int) -> np.ndarray:
        a = self.zeros(n, n)
        for i in range(n):
            a[i, i] = 1
        return a

    def inv_scalar(self, a):
        return Fraction(1, 1) / a

    def lift_signed(self, a: np.ndarray) -> np.ndarray:
        return a

    def describe(self) -> str:
        return "Q"


Field = PrimeField | RationalField


def same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"mixed coefficient fields: {a.describe()} vs {b.describe()}")


def mul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shape mismatch {a.shape} x {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return field.zeros(a.shape[0], b.shape[1])
    return field.normalize(a @ b)


def rref(field: Field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a copy of ``a``; returns (R, pivot columns).

    Deterministic pivoting: scan columns left to right, take the first row
    with a nonzero entry, normalize it to 1 and clear the column above and
    below.
    """
    a = field.normalize(np.array(a, dtype=field.dtype))
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
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(rref(field, a)[1])


def nullity(field: Field, a: np.ndarray) -> int:
    return a.shape[1] - rank(field, a)


def kernel(field: Field, a: np.ndarray) -> np.ndarray:
    """Basis (rows) of the right kernel {x : a x = 0}."""
    cols = a.shape[1]
    if a.shape[0] == 0:
        return field.eye(cols)
    R, piv = rref(field, a)
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    basis = field.zeros(len(free), cols)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(piv):
            basis[k, c] = -R[i, f]
    return field.normalize(basis)


def solve(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One exact solution X of a X = b (b may have several columns).

    Free variables are set to zero, so the solution is deterministic.  Raises
    ContractError if the system is inconsistent.
    """
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"solve shape mismatch {a.shape} vs {b.shape}")
    aug = np.concatenate([a, b], axis=1)
    R, piv = rref(field, aug)
    ncols = a.shape[1]
    if any(c >= ncols for c in piv):
        raise ContractError("inconsistent linear system")
    x = field.zeros(ncols, b.shape[1])
    for i, c in enumerate(piv):
        x[c] = R[i, ncols:]
    return x


def _leading(row: np.ndarray) -> int:
    nz = np.flatnonzero(row)
    return int(nz[0]) if nz.size else -1


@dataclass(frozen=True)
class Subspace:
    """Subspace of k^ambient, held by its canonical reduced-row-echelon basis."""

    field: Field
    ambient: int
    basis: np.ndarray  # (dim, ambient)

    @staticmethod
    def from_rows(field: Field, ambient: int, rows: np.ndarray) -> "Subspace":
        if rows.shape[0] == 0:
            return Subspace(field, ambient, field.zeros(0, ambient))
        if rows.shape[1] != ambient:
            raise ContractError(f"row length {rows.shape[1]} != ambient {ambient}")
        R, piv = rref(field, rows)
        return Subspace(field, ambient, R[: len(piv)])

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, field.zeros(0, ambient))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def pivots(self) -> list[int]:
        return [_leading(row) for row in self.basis]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.ambient, self.dim))

    def contains_vector(self, v: np.ndarray) -> bool:
        r = self.field.normalize(np.array(v, dtype=self.field.dtype).reshape(1, -1))
        for i, c in enumerate(self.pivots()):
            if r[0, c]:
                r = self.field.normalize(r - r[0, c] * self.basis[i : i + 1])
        return not np.any(r)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(row) for row in other.basis)

    def quotient_reps(self, sub: "Subspace") -> np.ndarray:
        """Rows of this basis completing ``sub`` to this space.

        Requires sub <= self.  Because both bases are canonical, the pivot
        columns of ``sub`` are a subset of ours and the complementary rows
        span a complement of ``sub`` inside ``self``.
        """
        self._check_compatible(sub)
        sub_piv = set(sub.pivots())
        keep = [i for i, c in enumerate(self.pivots()) if c not in sub_piv]
        if len(keep) != self.dim - sub.dim:
            raise ContractError("quotient_reps: argument is not a subspace of self")
        return self.basis[keep] if keep else self.field.zeros(0, self.ambient)

    def _check_compatible(self, other: "Subspace") -> None:
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ContractError(f"ambient mismatch {self.ambient} vs {other.ambient}")


def image(field: Field, a: np.ndarray) -> Subspace:
    """Image of the map x -> a x."""
    return Subspace.from_rows(field, a.shape[0], a.T)


def kernel_space(field: Field, a: np.ndarray) -> Subspace:
    return Subspace.from_rows(field, a.shape[1], kernel(field, a))

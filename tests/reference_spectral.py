"""The subspace-lattice page engine, kept as a test reference.

It computes the pages of a coordinate filtration from explicit subspaces,

    Z_r(p, m) = F^p(m) cap d^{-1}(F^{p+r}(m+1)),
    B_r(p, m) = Z_{r-1}(p+1, m) + d(Z_{r-1}(p-r+1, m-1)),
    E_r(p, q) = Z_r(p, p+q) / B_r(p, p+q),

with Z_r(p, m) the kernel of d restricted to the columns of F^p(m) and the
rows outside F^{p+r}(m+1).  Representatives are the rows of Z's canonical
basis whose pivots are not pivots of B, and each d_r matrix is solved
exactly against the target's representative-plus-boundary basis.  Every page
is checked: d_r composes to zero, and the cohomology of page r with respect
to d_r has the dimensions of page r+1.

The package computes its pages from persistence pairs, read off one column
reduction of d per degree (``cechmv.spectral``); the tests compare the two
engines cell by cell and rank by rank.  A third route counts the pairs by
inclusion-exclusion of ranks of level blocks (``rank_table_pairs``), and the
tests compare it with the package's pair counts degree by degree.  The
package reads the abutment off its limit page (``limit_abutment`` adds the
levels of the filtration it induces); ``reference_abutment`` computes both
from kernels and images instead.

Every subspace here comes from the numpy Gauss-Jordan elimination ``rref`` of
``reference_dense`` (``kernel``, ``solve``, ``image``, ``kernel_space`` and
``Subspace``, held by its canonical reduced-row-echelon basis), while the
package's bases come from its sparse column reduction
(``cechmv.linalg.Subspace``), so the two routes share no elimination code on
the lattice side.  The reference reads the package's sparse column lists
densely (``matrix``) and multiplies with its own dense product ``mul``, so
it shares no arithmetic with the package's ``cechmv.linalg.mul`` either.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cechmv import ContractError, FilteredComplex, InternalCheckError, SpectralSequence
from cechmv.linalg import Field
from conftest import dense, same_field
from reference_dense import dtype, rank, rref, zeros


def eye(field: Field, n: int) -> np.ndarray:
    a = zeros(field, n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def mul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dense product ``a`` x ``b``."""
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shape mismatch {a.shape} x {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(field, a.shape[0], b.shape[1])
    return field.normalize(a @ b)


def matrix(cx, m: int) -> np.ndarray:
    """The differential of the complex ``cx`` out of degree m, dense."""
    return dense(cx.field, cx.matrix(m), cx.dim(m + 1))


def kernel(field: Field, a: np.ndarray) -> np.ndarray:
    """Basis (rows) of the right kernel {x : a x = 0}."""
    cols = a.shape[1]
    if a.shape[0] == 0:
        return eye(field, cols)
    R, piv = rref(field, a)
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    basis = zeros(field, len(free), cols)
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
    x = zeros(field, ncols, b.shape[1])
    for i, c in enumerate(piv):
        x[c] = R[i, ncols:]
    return x


def levels(fc: FilteredComplex, m: int) -> np.ndarray:
    """The levels of the degree-m coordinates of ``fc``, as an integer array."""
    return np.array(fc.levels.get(m, []), dtype=int)


def at_least(fc: FilteredComplex, p: int, m: int) -> np.ndarray:
    """Mask of the degree-m coordinates that span F^p(m)."""
    return levels(fc, m) >= p


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
            return Subspace(field, ambient, zeros(field, 0, ambient))
        if rows.shape[1] != ambient:
            raise ContractError(f"row length {rows.shape[1]} != ambient {ambient}")
        R, piv = rref(field, rows)
        return Subspace(field, ambient, R[: len(piv)])

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
        r = self.field.normalize(np.array(v, dtype=dtype(self.field)).reshape(1, -1))
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
        return self.basis[keep] if keep else zeros(self.field, 0, self.ambient)

    def _check_compatible(self, other: "Subspace") -> None:
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ContractError(f"ambient mismatch {self.ambient} vs {other.ambient}")


def image(field: Field, a: np.ndarray) -> Subspace:
    """Image of the map x -> a x."""
    return Subspace.from_rows(field, a.shape[0], a.T)


def kernel_space(field: Field, a: np.ndarray) -> Subspace:
    return Subspace.from_rows(field, a.shape[1], kernel(field, a))


def rank_table_pairs(fc: FilteredComplex, m: int) -> dict[tuple[int, int], int]:
    """The nonzero mu_m(s, t) by inclusion-exclusion of level-block ranks:

        N(a, b)    = rank of d_m on the rows of level <= b and the columns of
                     level >= a,
        mu_m(s, t) = N(s, t) - N(s+1, t) - N(s, t-1) + N(s+1, t-1).

    A negative count is kept, so that a comparison shows it."""
    lo, hi = fc.p_min, fc.p_max
    cols, rows = levels(fc, m), levels(fc, m + 1)
    ranks: dict[tuple[int, int], int] = {}  # absent ones are 0
    if cols.size and rows.size:
        d = matrix(fc.total, m)
        for b in range(lo, hi + 1):
            block = d[rows <= b]
            for a in range(lo, b + 1):
                ranks[a, b] = rank(fc.total.field, block[:, cols >= a])

    def n(a: int, b: int) -> int:
        return ranks.get((a, b), 0)

    mu = {}
    for s in range(lo, hi + 1):
        for t in range(s, hi + 1):
            v = n(s, t) - n(s + 1, t) - n(s, t - 1) + n(s + 1, t - 1)
            if v:
                mu[s, t] = v
    return mu


def limit_abutment(ss: SpectralSequence) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """The package's abutment {m: dim H^m} (``ss.infinity()``) and the
    dimensions of the levels of the filtration it induces on H^m, read off
    the limit page: over a field the level-p part of H^m has dimension
    sum_{p' >= p} dim E_inf(p', m - p'), for p_min < p <= p_max."""
    fc, (page, h_dims) = ss.fc, ss.infinity()
    level_dims: dict[tuple[int, int], int] = {}
    for m in fc.total.dims:
        above = 0
        for p in range(fc.p_max, fc.p_min, -1):
            above += page.dim(p, m - p)
            level_dims[p, m] = above
    return h_dims, level_dims


def reference_abutment(fc: FilteredComplex) -> tuple[dict, dict, dict]:
    """The abutment of ``fc`` from dense subspaces, as ``limit_abutment``
    gives it (zero dimensions of H^m left out), and the image levels:

        h^m                 = dim ker d_m - dim im d_{m-1},
        level p of H^m      = dim(ker d_m cap F^p) - dim(im d_{m-1} cap F^p),
        image_levels[p, m]  = dim(im d_{m-1} cap F^p),

    for p_min < p <= p_max.  A subspace meets the coordinate subspace F^p in
    the kernel of its projection onto the coordinates outside F^p."""
    f, tot = fc.total.field, fc.total
    h_dims: dict[int, int] = {}
    level_dims: dict[tuple[int, int], int] = {}
    image_levels: dict[tuple[int, int], int] = {}
    for m in tot.dims:
        ker, im = kernel_space(f, matrix(tot, m)), image(f, matrix(tot, m - 1))
        if ker.dim - im.dim:
            h_dims[m] = ker.dim - im.dim
        for p in range(fc.p_min + 1, fc.p_max + 1):
            outside = ~at_least(fc, p, m)
            image_levels[p, m] = im.dim - rank(f, im.basis[:, outside])
            level_dims[p, m] = ker.dim - rank(f, ker.basis[:, outside]) - image_levels[p, m]
    return h_dims, level_dims, image_levels


@dataclass(frozen=True)
class ReferencePage:
    """Page r: the nonzero cells, the d_r matrix out of each cell and its rank."""

    r: int
    cells: dict[tuple[int, int], int]
    maps: dict[tuple[int, int], np.ndarray]
    ranks: dict[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        return self.cells.get((p, q), 0)

    def map_rank(self, p: int, q: int) -> int:
        return self.ranks.get((p, q), 0)


class ReferenceSpectralSequence:
    """Subspace-lattice page computer for one FilteredComplex."""

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self.field = fc.total.field
        self._z: dict = {}
        self._pages: dict[int, ReferencePage] = {}
        self._reps: dict = {}

    def _clamp(self, p: int) -> int:
        return min(max(p, self.fc.p_min), self.fc.p_max + 1)

    def z_space(self, p: int, t: int, m: int) -> Subspace:
        """F^p(m) cap d^{-1}(F^t(m+1)), levels clamped."""
        p, t = self._clamp(p), self._clamp(t)
        key = (p, t, m)
        if key not in self._z:
            f = self.field
            cols = at_least(self.fc, p, m)
            rows = ~at_least(self.fc, t, m + 1)  # coordinates outside F^t(m+1)
            if np.any(cols) and np.any(rows):
                coeffs = kernel(f, matrix(self.fc.total, m)[rows][:, cols])
                basis = zeros(f, coeffs.shape[0], cols.size)
                basis[:, cols] = coeffs
                self._z[key] = Subspace.from_rows(f, cols.size, basis)
            else:
                self._z[key] = Subspace(f, cols.size, eye(f, cols.size)[cols])
        return self._z[key]

    def cell_spaces(self, r: int, p: int, m: int) -> tuple[Subspace, Subspace]:
        z = self.z_space(p, p + r, m)
        b_high = self.z_space(p + 1, p + r, m)
        pre = self.z_space(p - r + 1, p, m - 1)
        if pre.dim and self.fc.total.dim(m):
            d_pre = mul(self.field, matrix(self.fc.total, m - 1), pre.basis.T).T
            b = Subspace.from_rows(
                self.field, z.ambient, np.concatenate([b_high.basis, d_pre], axis=0)
            )
        else:
            b = b_high
        return z, b

    def reps(self, r: int, p: int, q: int) -> np.ndarray:
        key = (r, p, q)
        if key not in self._reps:
            m = p + q
            if self.fc.total.dim(m) == 0:
                self._reps[key] = zeros(self.field, 0, 0)
            else:
                z, b = self.cell_spaces(r, p, m)
                self._reps[key] = z.quotient_reps(b)
        return self._reps[key]

    def cell_dim(self, r: int, p: int, q: int) -> int:
        return self.reps(r, p, q).shape[0]

    def d_matrix(self, r: int, p: int, q: int) -> np.ndarray:
        """Matrix of d_r from cell (p,q) to cell (p+r, q-r+1), columns indexed
        by source representatives."""
        src = self.reps(r, p, q)
        tp, tq = p + r, q - r + 1
        tdim = self.cell_dim(r, tp, tq)
        if src.shape[0] == 0:
            return zeros(self.field, tdim, 0)
        m = p + q
        images = mul(self.field, matrix(self.fc.total, m), src.T).T
        _, b = self.cell_spaces(r, tp, m + 1)
        if tdim == 0:
            for row in images:
                if np.any(row) and not b.contains_vector(row):
                    raise InternalCheckError(
                        f"d_{r} image from ({p},{q}) misses the zero target cell"
                    )
            return zeros(self.field, 0, src.shape[0])
        treps = self.reps(r, tp, tq)
        basis = np.concatenate([treps, b.basis], axis=0)
        try:
            coeffs = solve(self.field, basis.T, images.T)
        except ContractError as e:
            raise InternalCheckError(f"d_{r} image from ({p},{q}) not in target cell: {e}")
        return coeffs[: treps.shape[0], :]

    def page(self, r: int) -> ReferencePage:
        if r < 0:
            raise ContractError("page index must be nonnegative")
        if r in self._pages:
            return self._pages[r]
        cells: dict[tuple[int, int], int] = {}
        for m in sorted(self.fc.total.dims):
            for p in range(self.fc.p_min, self.fc.p_max + 1):
                d = self.cell_dim(r, p, m - p)
                if d:
                    cells[(p, m - p)] = d
        maps = {(p, q): self.d_matrix(r, p, q) for (p, q) in cells}
        page = ReferencePage(r, cells, maps,
                             {pq: rank(self.field, mat) for pq, mat in maps.items()})
        self._check_page(page)
        self._pages[r] = page
        return page

    def _check_page(self, page: ReferencePage) -> None:
        r = page.r
        f = self.field
        for (p, q), mat in page.maps.items():
            nxt = page.maps.get((p + r, q - r + 1))
            if nxt is not None and mat.shape[0] and mat.shape[1]:
                if np.any(mul(f, nxt, mat)):
                    raise InternalCheckError(f"d_{r} o d_{r} != 0 at ({p},{q})")
        # recompute the next page from kernels and images of d_r
        seen = set(page.cells) | {(p + r, q - r + 1) for p, q in page.cells}
        for (p, q) in seen:
            expect = page.dim(p, q) - page.map_rank(p, q) - page.map_rank(p - r, q + r - 1)
            got = self.cell_dim(r + 1, p, q)
            if expect != got:
                raise InternalCheckError(
                    f"page {r + 1} cell ({p},{q}) has dim {got}, homology of page {r} gives {expect}"
                )


def assert_agrees_with_reference(fc: FilteredComplex, pages, einf) -> ReferenceSpectralSequence:
    """Assert that the package's ``pages`` of ``fc`` (pages 0, 1, ... in
    order) have the reference's cells and d_r ranks, that ``einf``, the
    package's limit-page cells, equal the reference's page at the width, and
    that the package's pair counts equal the rank table's in every degree."""
    ss = SpectralSequence(fc)
    for m in fc.total.dims:
        got, want = ss._pairs(m), rank_table_pairs(fc, m)
        assert got == want, (m, got, want)
    ref = ReferenceSpectralSequence(fc)
    for pg in pages:
        want = ref.page(pg.r)
        assert pg.cells == want.cells, (pg.r, pg.cells, want.cells)
        assert pg.ranks == want.ranks, (pg.r, pg.ranks, want.ranks)
    assert einf == ref.page(max(fc.width, 1)).cells
    return ref

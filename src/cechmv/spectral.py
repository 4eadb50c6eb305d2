"""Spectral sequences of bounded descending filtrations, computed exactly.

Every filtration here is a coordinate filtration: each coordinate of the
total complex carries one integer level, and F^p(m) is spanned by the
degree-m coordinates of level >= p.  The engine works from the
subspace-lattice description of the pages:

    Z_r(p, m) = F^p(m) cap d^{-1}(F^{p+r}(m+1)),
    B_r(p, m) = Z_{r-1}(p+1, m) + d(Z_{r-1}(p-r+1, m-1)),
    E_r(p, q) = Z_r(p, p+q) / B_r(p, p+q).

Clamping is implicit: F^p is everything for p at or below the lowest level
and zero above the highest, so the formulas are literally constant once r
exceeds the filtration width, late pages are stable by construction and the
differentials d_r of bidegree (r, 1-r) vanish there.  Z_r(p, m) is the
kernel of d restricted to the columns of F^p(m) and the rows outside
F^{p+r}(m+1).

Representatives are chosen deterministically: Z and B carry canonical
row-echelon bases, and the cell basis is the subset of Z's rows whose pivots
are not pivots of B.  The induced d_r matrices are solved exactly against
the target's representative-plus-boundary basis.

Cross-checks built into the engine: d_r composes to zero, taking cohomology
of a page with respect to d_r reproduces the next page's dimensions, and at
infinity the antidiagonal dimensions match the filtration induced on the
cohomology of the total complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, InternalCheckError
from .linalg import Field, Subspace, image, kernel, mul, rank, solve
from .multicomplex import (
    CochainComplex,
    Multicomplex,
    Point,
    composite_along,
    drop_axis_top,
    koszul_split,
    totalize,
)


@dataclass(frozen=True)
class FilteredComplex:
    """Cochain complex with a bounded descending coordinate filtration:
    ``levels[m]`` holds one integer level per coordinate of degree m, and
    F^p(m) is spanned by the coordinates of level >= p."""

    total: CochainComplex
    levels: dict[int, np.ndarray]

    @cached_property
    def p_min(self) -> int:
        return min((int(lv.min()) for lv in self.levels.values() if lv.size), default=0)

    @cached_property
    def p_max(self) -> int:
        return max((int(lv.max()) for lv in self.levels.values() if lv.size), default=0)

    def at_least(self, p: int, m: int) -> np.ndarray:
        """Mask of the degree-m coordinates that span F^p(m)."""
        return self.levels.get(m, _NO_LEVELS) >= p

    def validate(self) -> None:
        """Check that d lowers no level, so every F^p is a subcomplex."""
        for m in sorted(self.total.d):
            rows, cols = np.nonzero(self.total.d[m])
            src, tgt = self.levels[m][cols], self.levels[m + 1][rows]
            low = tgt < src
            if np.any(low):
                p = int(tgt[low].min()) + 1
                raise ContractError(f"filtration not stable under d at level {p}, degree {m}")

    @property
    def width(self) -> int:
        return self.p_max - self.p_min + 1


_NO_LEVELS = np.zeros(0, dtype=int)


def filtration_from_blocks(tot: CochainComplex, level_of_block) -> FilteredComplex:
    """Filtration that gives each coordinate of a totalization block the
    block's score under ``level_of_block``."""
    blocks = tot.blocks or {}
    if tot.dims and not any(blocks.values()):
        raise ContractError("totalization carries no block data")
    levels = {
        m: np.repeat(np.array([level_of_block(key) for key, _ in blk], dtype=int),
                     [d for _, d in blk])
        for m, blk in blocks.items()
    }
    return FilteredComplex(tot, levels)


def coordinate_filtration(mc: Multicomplex, axis: int) -> FilteredComplex:
    """Filter the totalization by the value of one lattice coordinate."""
    return filtration_from_blocks(totalize(mc), lambda q: q[axis])


def complement_total_filtration(mc: Multicomplex, axis: int) -> FilteredComplex:
    """Filter by the total degree of all coordinates except one."""
    return filtration_from_blocks(totalize(mc), lambda q: sum(q) - q[axis])


def nonzero_count_filtration(mc: Multicomplex, skip_axis: int | None = None) -> FilteredComplex:
    """Filter by how many coordinates are nonzero, optionally ignoring one
    axis entirely (used for the cube-extended complex, whose extra direction
    does not participate in the count)."""

    def score(q: Point) -> int:
        return sum(1 for i, x in enumerate(q) if x != 0 and i != skip_axis)

    return filtration_from_blocks(totalize(mc), score)


def truncated_face_filtration(face_part: Multicomplex) -> FilteredComplex:
    """Wedge-degree filtration of the face half of the Koszul split with its
    top wedge level removed; levels run over 0..n-1."""
    n = face_part.n - 1
    return coordinate_filtration(drop_axis_top(face_part, 0, n), 0)


@dataclass(frozen=True)
class Page:
    r: int
    cells: dict[tuple[int, int], int]
    maps: dict[tuple[int, int], np.ndarray]

    def dim(self, p: int, q: int) -> int:
        return self.cells.get((p, q), 0)

    def map_rank(self, field: Field, p: int, q: int) -> int:
        mat = self.maps.get((p, q))
        return rank(field, mat) if mat is not None else 0

    def to_json(self, field: Field) -> dict:
        cells = [
            {"p": p, "q": q, "dim": d}
            for (p, q), d in sorted(self.cells.items())
        ]
        maps = [
            {"from": [p, q], "rank": rank(field, mat)}
            for (p, q), mat in sorted(self.maps.items())
        ]
        return {"r": self.r, "cells": cells, "maps": maps}

    def to_text(self) -> str:
        if not self.cells:
            return f"E_{self.r}: empty"
        ps = sorted({p for p, _ in self.cells})
        qs = sorted({q for _, q in self.cells})
        lines = [f"E_{self.r} (rows q, columns p={ps[0]}..{ps[-1]})"]
        header = "      " + " ".join(f"p={p:<4d}" for p in ps)
        lines.append(header)
        for q in reversed(qs):
            row = " ".join(f"{self.dim(p, q):<6d}" for p in ps)
            lines.append(f"q={q:<4d}{row}")
        return "\n".join(lines)


@dataclass(frozen=True)
class AbutmentFiltration:
    """Dimensions of the filtration induced on the cohomology of the total
    complex: entry (p, m) is dim of the level-p part of H^m."""

    p_min: int
    p_max: int
    h_dims: dict[int, int]
    level_dims: dict[tuple[int, int], int]

    def level_dim(self, p: int, m: int) -> int:
        if p <= self.p_min:
            return self.h_dims.get(m, 0)
        if p > self.p_max:
            return 0
        return self.level_dims.get((p, m), 0)

    def graded(self, m: int) -> dict[int, int]:
        out = {}
        for p in range(self.p_min, self.p_max + 1):
            d = self.level_dim(p, m) - self.level_dim(p + 1, m)
            if d:
                out[p] = d
        return out

    def to_json(self) -> dict:
        return {
            "h": [{"degree": m, "dim": d} for m, d in sorted(self.h_dims.items()) if d],
            "graded": [
                {"degree": m, "p": p, "dim": d}
                for m in sorted(self.h_dims)
                for p, d in sorted(self.graded(m).items())
            ],
        }


class SpectralSequence:
    """Page computer for one FilteredComplex; all methods cache internally."""

    def __init__(self, fc: FilteredComplex, check: bool = True):
        self.fc = fc
        self.field = fc.total.field
        self.check = check
        self._z: dict = {}
        self._pages: dict[int, Page] = {}
        self._reps: dict = {}

    def _clamp(self, p: int) -> int:
        return min(max(p, self.fc.p_min), self.fc.p_max + 1)

    def z_space(self, p: int, t: int, m: int) -> Subspace:
        """F^p(m) cap d^{-1}(F^t(m+1)), levels clamped."""
        p, t = self._clamp(p), self._clamp(t)
        key = (p, t, m)
        if key not in self._z:
            f = self.field
            cols = self.fc.at_least(p, m)
            rows = ~self.fc.at_least(t, m + 1)  # coordinates outside F^t(m+1)
            if np.any(cols) and np.any(rows):
                coeffs = kernel(f, self.fc.total.matrix(m)[rows][:, cols])
                basis = f.zeros(coeffs.shape[0], cols.size)
                basis[:, cols] = coeffs
                self._z[key] = Subspace.from_rows(f, cols.size, basis)
            else:
                self._z[key] = Subspace(f, cols.size, f.eye(cols.size)[cols])
        return self._z[key]

    def _cell_spaces(self, r: int, p: int, m: int) -> tuple[Subspace, Subspace]:
        z = self.z_space(p, p + r, m)
        b_high = self.z_space(p + 1, p + r, m)
        pre = self.z_space(p - r + 1, p, m - 1)
        if pre.dim and self.fc.total.dim(m):
            d_pre = mul(self.field, self.fc.total.matrix(m - 1), pre.basis.T).T
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
                self._reps[key] = self.field.zeros(0, 0)
            else:
                z, b = self._cell_spaces(r, p, m)
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
            return self.field.zeros(tdim, 0)
        m = p + q
        images = mul(self.field, self.fc.total.matrix(m), src.T).T
        if tdim == 0:
            _, b = self._cell_spaces(r, tp, m + 1)
            for row in images:
                if np.any(row) and not b.contains_vector(row):
                    raise InternalCheckError(
                        f"d_{r} image from ({p},{q}) misses the zero target cell"
                    )
            return self.field.zeros(0, src.shape[0])
        treps = self.reps(r, tp, tq)
        _, b = self._cell_spaces(r, tp, m + 1)
        basis = np.concatenate([treps, b.basis], axis=0)
        try:
            coeffs = solve(self.field, basis.T, images.T)
        except ContractError as e:
            raise InternalCheckError(f"d_{r} image from ({p},{q}) not in target cell: {e}")
        return coeffs[: treps.shape[0], :]

    def page(self, r: int) -> Page:
        if r < 0:
            raise ContractError("page index must be nonnegative")
        if r in self._pages:
            return self._pages[r]
        cells: dict[tuple[int, int], int] = {}
        maps: dict[tuple[int, int], np.ndarray] = {}
        for m in sorted(self.fc.total.dims):
            for p in range(self.fc.p_min, self.fc.p_max + 1):
                d = self.cell_dim(r, p, m - p)
                if d:
                    cells[(p, m - p)] = d
        for (p, q) in cells:
            maps[(p, q)] = self.d_matrix(r, p, q)
        page = Page(r, cells, maps)
        if self.check:
            self._check_page(page)
        self._pages[r] = page
        return page

    def _check_page(self, page: Page) -> None:
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
            dim = page.dim(p, q)
            out_rank = page.map_rank(f, p, q)
            in_rank = page.map_rank(f, p - r, q + r - 1)
            expect = dim - out_rank - in_rank
            got = self.cell_dim(r + 1, p, q)
            if expect != got:
                raise InternalCheckError(
                    f"page {r + 1} cell ({p},{q}) has dim {got}, homology of page {r} gives {expect}"
                )

    def infinity(self) -> tuple[Page, AbutmentFiltration]:
        r_inf = max(self.fc.width, 1)
        page = self.page(r_inf)
        ab = self.abutment()
        for m in sorted(self.fc.total.dims):
            graded = ab.graded(m)
            for p in range(self.fc.p_min, self.fc.p_max + 1):
                if graded.get(p, 0) != page.dim(p, m - p):
                    raise InternalCheckError(
                        f"E_inf cell ({p},{m - p}) = {page.dim(p, m - p)} but abutment graded piece is {graded.get(p, 0)}"
                    )
            if sum(graded.values()) != ab.h_dims.get(m, 0):
                raise InternalCheckError(f"graded dims at degree {m} do not sum to dim H^{m}")
        return page, ab

    def abutment(self) -> AbutmentFiltration:
        f = self.field
        tot = self.fc.total
        h_dims: dict[int, int] = {}
        level_dims: dict[tuple[int, int], int] = {}
        rk = {m: rank(f, tot.matrix(m)) for m in tot.dims}
        for m in tot.dims:
            h_dims[m] = tot.dim(m) - rk.get(m, 0) - rk.get(m - 1, 0)
        for m in tot.dims:
            im = image(f, tot.matrix(m - 1)) if tot.dim(m) else None
            for p in range(self.fc.p_min + 1, self.fc.p_max + 1):
                cols = self.fc.at_least(p, m)
                ker_dim = int(np.count_nonzero(cols)) - rank(f, tot.matrix(m)[:, cols])
                if im is None or im.dim == 0:
                    im_dim = 0
                else:
                    im_dim = im.dim - rank(f, im.basis.T[~cols])
                level_dims[(p, m)] = ker_dim - im_dim
        return AbutmentFiltration(self.fc.p_min, self.fc.p_max, h_dims, level_dims)

    def pages_up_to(self, r_top: int) -> list[Page]:
        return [self.page(r) for r in range(r_top + 1)]


def split_column_report(mc: Multicomplex) -> list[str]:
    """Per-point audit of the two halves of the Koszul split.

    For each lattice point q of the input, the wedge-direction column of the
    complement half must have cohomology only in wedge degree 1 and the face
    half only in wedge degree 0, both of dimension equal to the entry dim
    when q has all coordinates positive and zero otherwise.
    """
    from .multicomplex import Region, line_complex

    ks = koszul_split(mc)
    bad: list[str] = []
    interior = Region.interior_all(mc.n)
    for q in mc.points():
        want = mc.entry_dim(q) if interior.contains(q) else 0
        for part, name, good_deg in (
            (ks.complement_part, "complement half", 1),
            (ks.face_part, "face half", 0),
        ):
            col = line_complex(part, 0, (0,) + q)
            col.check_complex()
            h = col.cohomology_dims()
            if h.get(good_deg, 0) != want:
                bad.append(
                    f"{name} column at {q}: H^{good_deg} = {h.get(good_deg, 0)}, expected {want}"
                )
            extra = {k: v for k, v in h.items() if k != good_deg}
            if extra:
                bad.append(f"{name} column at {q}: unexpected cohomology {extra}")
    return bad


def edge_composite_check(mc: Multicomplex) -> list[str]:
    """Verify that on the truncated face half, filtered by the total degree of
    the original directions, the page-n map from cell (0, n-1) to (n, 0) is,
    up to one global sign, the composite differential from the origin entry
    through (1,...,1).

    Needs n >= 2: for n = 1 the two cells coincide and the statement is empty.
    """
    n = mc.n
    if n < 2:
        return []
    f = mc.field
    c0 = mc.entry_dim((0,) * n)
    ones = (1,) * n
    face = koszul_split(mc).face_part
    trunc = drop_axis_top(face, 0, n)
    fc = complement_total_filtration(trunc, 0)
    if not fc.total.dims:
        return []
    ss = SpectralSequence(fc)
    src_dim = ss.cell_dim(n, 0, n - 1)
    bad: list[str] = []
    if src_dim != c0:
        bad.append(f"page-{n} cell (0,{n - 1}) has dim {src_dim}, expected dim {c0} of the origin entry")
        return bad
    if c0 == 0:
        return bad
    psi = composite_along(mc, tuple(range(n)))
    tgt_dim = ss.cell_dim(n, n, 0)

    # identification of the source cell with the origin entry: extract the
    # block at wedge n-1 over q=0 and apply the last Koszul map
    tot = fc.total
    blocks = tot.blocks[n - 1]
    offs = {}
    off = 0
    for key, d in blocks:
        offs[key] = (off, d)
        off += d
    top_point = (n - 1,) + (0,) * n
    if top_point not in offs:
        bad.append(f"no wedge-(n-1) block over the origin in degree {n - 1}")
        return bad
    o, width = offs[top_point]
    pb = dict(face.point_blocks or {})[top_point]
    reps = ss.reps(n, 0, n - 1)
    a_mat = f.zeros(reps.shape[0], c0)
    for k in range(reps.shape[0]):
        col = 0
        for subset, d in pb:
            missing = next(i for i in range(n) if i not in subset)
            sign = -1 if missing % 2 else 1
            seg = reps[k, o + col : o + col + d]
            a_mat[k] = f.normalize(a_mat[k] + sign * seg)
            col += d
    if rank(f, a_mat) != c0:
        bad.append("source-cell identification with the origin entry is singular")
        return bad

    # target side: representatives must live in the wedge-0 block over (1,..,1)
    tblocks = tot.blocks.get(n, ())
    toffs = {}
    off = 0
    for key, d in tblocks:
        toffs[key] = (off, d)
        off += d
    int_point = (0,) + ones
    if int_point not in toffs:
        if tgt_dim != 0:
            bad.append("target cell nonzero but the interior block is absent")
        return bad
    to, tw = toffs[int_point]
    mask = np.ones(tot.dim(n), dtype=bool)
    mask[to : to + tw] = False
    treps = ss.reps(n, n, 0)
    if treps.shape[0] and np.any(treps[:, mask]):
        bad.append("target-cell representatives stick out of the interior block")
        return bad
    _, bsp = ss._cell_spaces(n, n, n)
    if bsp.dim and np.any(bsp.basis[:, mask]):
        bad.append("target boundaries stick out of the interior block")
        return bad
    w = Subspace.from_rows(f, tw, bsp.basis[:, to : to + tw]) if bsp.dim else Subspace.zero(f, tw)

    # realize the map on the nose: class of d(rep_k) sliced to the interior block
    images = mul(f, tot.matrix(n - 1), reps.T).T[:, to : to + tw]
    expected = mul(f, a_mat, psi.T)  # rows: psi of the identified origin element
    for sign in (1, -1):
        diff = f.normalize(images - sign * expected)
        if all(not np.any(row) or w.contains_vector(row) for row in diff):
            return bad
    bad.append("page-n edge map differs from the composite differential by more than a sign")
    return bad


def region_convergence_report(mc: Multicomplex) -> list[str]:
    """Check the four region spectral sequences of a lattice multicomplex:
    first-page columns against directly computed restriction cohomologies and
    abutments against the direct target cohomologies (all by dimension)."""
    from .multicomplex import (
        Region,
        augment_interior,
        cube_extension,
        puncture,
        restrict,
        sign_twist,
        COMMUTATIVE,
    )

    bad: list[str] = []
    cmc = mc if mc.flavor == COMMUTATIVE else sign_twist(mc)
    n = mc.n
    subsets = {p: list(itertools.combinations(range(n), p)) for p in range(n + 1)}

    def h_of(cx) -> dict[int, int]:
        return cx.cohomology_dims()

    face_h = {
        I: h_of(totalize(restrict(cmc, Region.face(I, n, star=True))))
        for p in range(n + 1)
        for I in subsets[p]
    }
    int_h = {
        S: h_of(totalize(restrict(cmc, Region.interior(S, n))))
        for p in range(1, n + 1)
        for S in subsets[p]
    }
    aug_h = {S: h_of(augment_interior(cmc, S)) for p in range(1, n + 1) for S in subsets[p]}

    def check_e1(tag, ss, expected, p_range):
        page = ss.page(1)
        cells = set(page.cells) | set(expected)
        for (p, q) in sorted(cells):
            want = expected.get((p, q), 0)
            got = page.dim(p, q)
            if p not in p_range:
                want = 0
            if want != got:
                bad.append(f"{tag}: E_1 cell ({p},{q}) = {got}, expected {want}")

    def check_abutment(tag, ss, target_h):
        _, ab = ss.infinity()
        for m in sorted(set(ab.h_dims) | set(target_h)):
            if ab.h_dims.get(m, 0) != target_h.get(m, 0):
                bad.append(
                    f"{tag}: abutment H^{m} = {ab.h_dims.get(m, 0)}, expected {target_h.get(m, 0)}"
                )

    split = koszul_split(cmc)

    # face columns converging to the interior cohomology
    fc1 = coordinate_filtration(split.face_part, 0)
    if fc1.total.dims:
        ss1 = SpectralSequence(fc1)
        exp1: dict[tuple[int, int], int] = {}
        for p in range(n + 1):
            for I in subsets[p]:
                for m, d in face_h[I].items():
                    exp1[(p, m)] = exp1.get((p, m), 0) + d
        check_e1("face filtration", ss1, exp1, range(0, n + 1))
        check_abutment(
            "face filtration",
            ss1,
            h_of(totalize(restrict(cmc, Region.interior_all(n)))),
        )

    # truncated face columns converging to the augmented interior
    fc2 = truncated_face_filtration(split.face_part)
    if fc2.total.dims:
        ss2 = SpectralSequence(fc2)
        exp2: dict[tuple[int, int], int] = {}
        for p in range(n):
            for I in subsets[p]:
                for m, d in face_h[I].items():
                    exp2[(p, m)] = exp2.get((p, m), 0) + d
        check_e1("truncated face filtration", ss2, exp2, range(0, n))
        check_abutment("truncated face filtration", ss2, h_of(augment_interior(cmc, tuple(range(n)))))

    # nonzero-count filtration of the punctured complex
    pu = puncture(cmc)
    if pu.dims:
        fc3 = nonzero_count_filtration(pu)
        ss3 = SpectralSequence(fc3)
        exp3: dict[tuple[int, int], int] = {}
        for p in range(1, n + 1):
            for S in subsets[p]:
                for m, d in int_h[S].items():
                    exp3[(p, m - p)] = exp3.get((p, m - p), 0) + d
        check_e1("count filtration", ss3, exp3, range(1, n + 1))
        check_abutment("count filtration", ss3, h_of(totalize(pu)))

    # count filtration of the cube extension, converging to the full cohomology
    cube = cube_extension(cmc)
    if cube.dims:
        fc4 = nonzero_count_filtration(cube, skip_axis=0)
        ss4 = SpectralSequence(fc4)
        exp4: dict[tuple[int, int], int] = {}
        for p in range(1, n + 1):
            for S in subsets[p]:
                for m, d in aug_h[S].items():
                    exp4[(p, m - p)] = exp4.get((p, m - p), 0) + d
        check_e1("cube count filtration", ss4, exp4, range(1, n + 1))
        check_abutment("cube count filtration", ss4, h_of(totalize(cmc)))

    bad.extend(split_column_report(mc))
    bad.extend(edge_composite_check(cmc))
    return bad

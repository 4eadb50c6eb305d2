"""Spectral sequences of bounded descending filtrations, computed exactly.

Every filtration here is a coordinate filtration: each coordinate of the
total complex carries one integer level (``levels[m]`` is a list of Python
ints), and F^p(m) is spanned by the degree-m coordinates of level >= p.
``filtration_from_blocks`` builds each: a totalization's coordinates take
a score of their block's lattice point (the wedge degree for the face
filtrations, the count of nonzero lattice coordinates for the count ones).  For
such a filtration every cell and every differential rank is a count of
persistence pairs (the pairing lemma of Cohen-Steiner, Edelsbrunner and
Morozov; pages from pairs as in Basu and Parida).  The pairs of d_m come from one reduction per degree,
``linalg.pivot_pairs``, the standard persistence algorithm (Edelsbrunner,
Letscher and Zomorodian; Zomorodian and Carlsson), with the columns
(degree-m coordinates) and rows (degree-(m+1) coordinates) in descending
level, ties in coordinate order.  With

    mu_m(s, t) = number of pairs of a level-s column and a level-t row,

    dim E_r(p, m-p) = #(level-p coordinates of degree m)
                      - sum_{g<r} mu_m(p, p+g) - sum_{g<r} mu_{m-1}(p-g, p),
    rank of d_r out of (p, q) = mu_{p+q}(p, p+r).

Gaps are below the filtration width, so pages past the width are stable and
carry no nonzero differentials; ``SpectralSequence.page(r)`` is the one
way to read a page.  The limit page is the page at the width, and it is
also the abutment: over a field the graded pieces of the filtration
induced on H^m are the E_inf cells of total degree m, so
``SpectralSequence.infinity`` returns the limit page with {m: dim H^m}, the
sums of its cells, once per sequence.

``LatticeSequences`` holds what the audits read off one lattice: the
totalized face half of its one Koszul split, the five filtered complexes
built from it and the lattice's cube extension (the four Mayer-Vietoris
variants and the untruncated face filtration), one spectral sequence per
filtered complex,
and the cohomology of the face, interior and augmented-interior regions.  So
the region audits, the product-vs-interior audit and the variant runs of a
degree class share every page, abutment and region cohomology.

The split audit (``split_column_report``) reads each wedge column of the
face half off that total, and the complement half's from one-point
lattices, once per (field, coordinate signs, entry dimension) in each
process, keeping only its cohomology, so that half is never built over a
lattice.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter

from .errors import ContractError
from .linalg import Field, Subspace, mul, pivot_pairs, submatrix
from .multicomplex import (
    CochainComplex,
    Multicomplex,
    Point,
    _koszul_half,
    augment_interior,
    block_slices,
    composite_along,
    cube_extension,
    koszul_split,
    restrict,
    totalize,
)


@dataclass(frozen=True)
class FilteredComplex:
    """Cochain complex with a bounded descending coordinate filtration:
    ``levels[m]`` holds one integer level per coordinate of degree m, and
    F^p(m) is spanned by the coordinates of level >= p."""

    total: CochainComplex
    levels: dict[int, list[int]]

    @cached_property
    def p_min(self) -> int:
        return min((min(lv) for lv in self.levels.values() if lv), default=0)

    @cached_property
    def p_max(self) -> int:
        return max((max(lv) for lv in self.levels.values() if lv), default=0)

    @property
    def width(self) -> int:
        return self.p_max - self.p_min + 1


def filtration_from_blocks(tot: CochainComplex, level_of_block) -> FilteredComplex:
    """Filtration that gives each coordinate of a totalization block the
    block's score under ``level_of_block``."""
    blocks = tot.blocks or {}
    if tot.dims and not any(blocks.values()):
        raise ContractError("totalization carries no block data")
    levels = {m: [lv for key, d in blk for lv in [level_of_block(key)] * d]
              for m, blk in blocks.items()}
    return FilteredComplex(tot, levels)


@dataclass(frozen=True)
class Page:
    """Page r: the nonzero cells and the rank of d_r out of each of them."""

    r: int
    cells: dict[tuple[int, int], int]
    ranks: dict[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        return self.cells.get((p, q), 0)

    def map_rank(self, p: int, q: int) -> int:
        return self.ranks.get((p, q), 0)

    def to_json(self) -> dict:
        cells = [
            {"p": p, "q": q, "dim": d}
            for (p, q), d in sorted(self.cells.items())
        ]
        maps = [
            {"from": [p, q], "rank": rk}
            for (p, q), rk in sorted(self.ranks.items())
        ]
        return {"r": self.r, "cells": cells, "maps": maps}


class SpectralSequence:
    """Page computer for one FilteredComplex; pages, pair counts and the
    limit of ``infinity`` are each computed once and cached."""

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self.field = fc.total.field
        self._mu: dict[int, dict[tuple[int, int], int]] = {}
        self._pages: dict[int, Page] = {}
        self._infinity: tuple[Page, dict[int, int]] | None = None

    def _pairs(self, m: int) -> dict[tuple[int, int], int]:
        """The nonzero mu_m(s, t): how many persistence pairs of d_m join a
        level-s coordinate of degree m to a level-t coordinate of degree m+1."""
        if m not in self._mu:
            cols, rows = (self.fc.levels.get(k, []) for k in (m, m + 1))
            ci, ri = (sorted(range(len(lv)), key=lambda i: -lv[i]) for lv in (cols, rows))
            pairs = pivot_pairs(self.field, submatrix(self.fc.total.matrix(m), ri, ci))
            self._mu[m] = Counter((cols[ci[j]], rows[ri[i]]) for i, j in pairs)
        return self._mu[m]

    def page(self, r: int) -> Page:
        if r < 0:
            raise ContractError("page index must be nonnegative")
        if r in self._pages:
            return self._pages[r]
        gaps = range(min(r, self.fc.width))  # the pairs page r no longer sees
        cells: dict[tuple[int, int], int] = {}
        ranks: dict[tuple[int, int], int] = {}
        for m in sorted(self.fc.total.dims):
            out, into = self._pairs(m), self._pairs(m - 1)
            count = Counter(self.fc.levels.get(m, []))
            for p in range(self.fc.p_min, self.fc.p_max + 1):
                d = count[p] - sum(
                    out.get((p, p + g), 0) + into.get((p - g, p), 0) for g in gaps
                )
                if d:
                    cells[p, m - p] = d
                    ranks[p, m - p] = out.get((p, p + r), 0)
        page = Page(r, cells, ranks)
        self._pages[r] = page
        return page

    def infinity(self) -> tuple[Page, dict[int, int]]:
        """The limit page and the abutment {m: dim H^m}, the sums of the
        page's cells of each total degree; computed on the first call and
        cached."""
        if self._infinity is None:
            page = self.page(max(self.fc.width, 1))
            h_dims = Counter()
            for (p, q), d in page.cells.items():
                h_dims[p + q] += d
            self._infinity = (page, dict(h_dims))
        return self._infinity


class LatticeSequences:
    """What the audits of a degree class read off its lattice multicomplex:
    the filtered complexes and one spectral sequence per filtered complex,
    each built once, on first use, and the cohomology of each lattice
    region.

    All of them come from two totalizations: of the face half of the
    lattice's split (``koszul_split``), dropped once totalized, and of its
    cube extension, whose layer 0 is the lattice's totalization block for
    block.  Every other complex is a block selection of one of the two
    (``restrict``), so the five filtered complexes are

      face             wedge degree on the face half;
      truncated face   the same without the top wedge level n (variant 1a);
      punctured face   the same without the line over the lattice origin,
                       which is the face half of the punctured lattice's
                       split (variant 1b);
      cube count       nonzero-coordinate count on the cube extension, the
                       extra direction not counted (variant 2a);
      punctured count  the same on layer 0 without its origin: the lattice
                       without its origin (variant 2b).

    The regions, keyed by (kind, axes), are cube blocks too:

      face        the layer-0 points that are zero on ``axes``
                  (``()``: the lattice);
      interior    the layer-0 points positive exactly on ``axes``;
      augmented   the points of both layers positive exactly on ``axes``
                  (``augment_interior``): the interior and the cube vertex
                  e_axes, which is the origin entry glued one degree below
                  it.

    ``region`` builds a region's complex afresh on each call, and only its
    cohomology is kept (``region_h``).
    """

    def __init__(self, mc: Multicomplex):
        self.mc = mc
        self._sequences: dict[str, SpectralSequence] = {}
        self._region_h: dict[tuple[str, tuple[int, ...]], dict[int, int]] = {}

    @cached_property
    def face_total(self) -> CochainComplex:
        return totalize(koszul_split(self.mc))

    @cached_property
    def cube_total(self) -> CochainComplex:
        return totalize(cube_extension(self.mc))

    def sequence(self, kind: str) -> SpectralSequence:
        if kind not in self._sequences:
            n = self.mc.n
            if kind == "face":
                tot, score = self.face_total, itemgetter(0)
            elif kind == "truncated face":
                tot, score = restrict(self.face_total, lambda k: k[0] < n), itemgetter(0)
            elif kind == "punctured face":
                tot, score = restrict(self.face_total, lambda k: any(k[1:])), itemgetter(0)
            elif kind == "cube count":
                tot, score = self.cube_total, lambda k: sum(1 for x in k[1:] if x)
            elif kind == "punctured count":
                tot, score = (restrict(self.cube_total, lambda k: k[0] == 0 and any(k[1:])),
                              lambda k: sum(1 for x in k[1:] if x))
            else:
                raise ContractError(f"unknown lattice filtration {kind!r}")
            self._sequences[kind] = SpectralSequence(filtration_from_blocks(tot, score))
        return self._sequences[kind]

    def region(self, kind: str, axes: tuple[int, ...]) -> CochainComplex:
        """The complex of a region, selected from the cube total; not kept."""
        if kind == "face":
            return restrict(self.cube_total,
                            lambda k: k[0] == 0 and not any(k[1 + i] for i in axes))
        if kind == "interior":
            return restrict(self.cube_total, lambda k: k[0] == 0 and all(
                (x > 0) == (i in axes) for i, x in enumerate(k[1:])))
        if kind == "augmented":
            return augment_interior(self.cube_total, axes)
        raise ContractError(f"unknown lattice region {kind!r}")

    def region_h(self, kind: str, axes: tuple[int, ...]) -> dict[int, int]:
        """Cohomology dimensions of ``region(kind, axes)``, whose complex is
        dropped once they are read."""
        key = (kind, axes)
        if key not in self._region_h:
            self._region_h[key] = self.region(kind, axes).cohomology_dims()
        return self._region_h[key]


def _wedge_columns(tot: CochainComplex, points):
    """The wedge-direction column over each lattice point q of ``points``
    in ``tot``, a totalized Koszul half: its block (p,) + q sits in degree
    p + |q|, and its maps are blocks of the total's maps, since the wedge
    axis carries no totalization sign."""
    where = {key: (m, range(sl.start, sl.stop)) for m, blk in tot.blocks.items()
             for key, sl in block_slices(blk).items()}
    for q in points:
        spans = {p: where[(p,) + q] for p in range(len(q) + 1) if (p,) + q in where}
        d = {p: submatrix(tot.matrix(m), spans[p + 1][1], cols)
             for p, (m, cols) in spans.items() if p + 1 in spans}
        yield CochainComplex(tot.field, {p: len(cols) for p, (_, cols) in spans.items()}, d)


@cache
def _split_columns(field: Field, signs: Point, dim: int) -> tuple:
    """The wedge columns of the two halves of the Koszul split at a lattice
    point whose coordinates have the signs ``signs`` (each -1, 0 or 1) and
    whose entry has dimension ``dim``: ``(complement_h, (face, face_h))``,
    the complement column's cohomology, and the face column with its
    cohomology (the audit compares a lattice's face column with it).

    Neither column depends on the lattice's maps, so both are those of the
    one-point lattice at ``signs``, read off its totalized halves as the
    audit reads a lattice's, each checked and reduced once per key."""
    point = Multicomplex(field, len(signs), {signs: dim}, {})
    halves = (_koszul_half(point, keep) for keep in (
        lambda I, q: any(q[i] > 0 for i in I),  # off the coordinate faces
        lambda I, q: all(q[i] == 0 for i in I),  # on them, as in ``koszul_split``
    ))
    complement, face = (next(_wedge_columns(totalize(half), [signs])) for half in halves)
    complement.check_complex()
    face.check_complex()
    return complement.cohomology_dims(), (face, face.cohomology_dims())


def split_column_report(mc: Multicomplex, face_total: CochainComplex) -> list[str]:
    """Per-point audit of the Koszul split of ``mc``, whose totalized face
    half is ``face_total`` (``totalize(koszul_split(mc))``).

    For each lattice point q of the input, the wedge-direction column of the
    complement half must have cohomology only in wedge degree 1 and the face
    half only in wedge degree 0, both of dimension equal to the entry dim
    when q has all coordinates positive and zero otherwise.

    The complement column's cohomology is the cached one of its key
    (``_split_columns``).  The face column is read from ``face_total``
    (``_wedge_columns``); when it equals the key's reference column it has
    the cached cohomology, and otherwise it is checked and reduced here.
    """
    bad: list[str] = []
    points = mc.points()
    for q, col in zip(points, _wedge_columns(face_total, points)):
        dq = mc.entry_dim(q)
        want = dq if all(x > 0 for x in q) else 0
        complement_h, (face_ref, face_h) = _split_columns(
            mc.field, tuple((x > 0) - (x < 0) for x in q), dq)
        if col.dims != face_ref.dims or col.d != face_ref.d:
            col.check_complex()
            face_h = col.cohomology_dims()
        for h, name, good_deg in ((complement_h, "complement half", 1),
                                  (face_h, "face half", 0)):
            if h.get(good_deg, 0) != want:
                bad.append(
                    f"{name} column at {q}: H^{good_deg} = {h.get(good_deg, 0)}, expected {want}"
                )
            extra = {k: v for k, v in h.items() if k != good_deg}
            if extra:
                bad.append(f"{name} column at {q}: unexpected cohomology {extra}")
    return bad


def _cell_spaces(fc: FilteredComplex, r: int, p: int, q: int) -> tuple[Subspace, Subspace]:
    """Z_r and B_r of cell (p, q), so that E_r(p, q) = Z_r / B_r, with

        Z_r(p, m) = F^p(m) cap d^{-1}(F^{p+r}(m+1)),
        B_r(p, m) = Z_{r-1}(p+1, m) + d(Z_{r-1}(p-r+1, m-1)),

    where Z_r(p, m) is the kernel of d restricted to the columns of F^p(m)
    and the rows outside F^{p+r}(m+1)."""
    f, tot = fc.total.field, fc.total

    def z_space(p: int, t: int, m: int) -> Subspace:
        cols = [i for i, lv in enumerate(fc.levels.get(m, [])) if lv >= p]
        rows = [i for i, lv in enumerate(fc.levels.get(m + 1, [])) if lv < t]
        ker = Subspace.kernel(f, submatrix(tot.matrix(m), rows, cols))
        # the columns of F^p(m) ascend, so relabelling keeps the lowest rows distinct
        return Subspace.span(f, tot.dim(m), ({cols[i]: v for i, v in c.items()}
                                             for c in ker.columns))

    m = p + q
    z, b = z_space(p, p + r, m), z_space(p + 1, p + r, m)
    pre = z_space(p - r + 1, p, m - 1)
    if pre.dim and tot.dim(m):
        b = Subspace.span(f, z.ambient, b.columns + mul(f, tot.matrix(m - 1), pre.columns))
    return z, b


def edge_composite_check(seqs: LatticeSequences) -> list[str]:
    """Verify that on the truncated face half of the Koszul split of
    ``seqs.mc`` (the complex of variant 1a), filtered by the total degree of
    the original directions, the page-n map from cell (0, n-1) to (n, 0) is,
    up to one global sign, the composite differential psi from the origin
    entry through (1,...,1).

    The check reads spans, never representatives.  With Z, B = Z_n, B_n of
    cell (0, n-1) (``_cell_spaces``), W = B_n of cell (n, 0) inside the
    interior block (0, 1..1), and iota the identification of the wedge-(n-1)
    block over the origin with the origin entry, it checks

      dim Z - dim B = c0, the origin entry's dimension;
      the block holds n c0 coordinates, its n slots (the (n-1)-subsets in
        lexicographic order) each a copy of the origin entry;
      rank iota(Z) = c0;
      for one sign s, W + span{(d z - s psi iota z)|block : z in Z} = W.

    These say that iota is an isomorphism Z/B -> C^0 and that d_n = s psi
    iota on the page, because iota(B) = 0 and d(B) lies in B_n(n, 0):

      B = Z_{n-1}(1, n-1) + d(Z_{n-1}(1-n, n-2)).  The first summand has
      level >= 1, so it has no component at the level-0 block (n-1, 0..0),
      and d maps it into d(Z_{n-1}(1, n-1)), a summand of B_n(n, 0).  In a
      lattice on nonnegative points the only block that maps into
      (n-1, 0..0) is (n-2, 0..0), by the Koszul map kappa, and iota is the
      last Koszul map (its sign (-1)^missing is ``_wedge_signs``'), so
      iota kappa = 0 kills the second summand, and d d = 0 its image.

    Needs n >= 2: for n = 1 the two cells coincide and the statement is empty.
    Raises ContractError on a lattice with a point below 0 on some axis: the
    argument above needs nonnegative points (Čech lattices have them).
    """
    mc = seqs.mc
    if any(x < 0 for x in mc.box[0]):
        raise ContractError(f"the page-n edge check needs a lattice on nonnegative points, "
                            f"got one with lowest corner {mc.box[0]}")
    n = mc.n
    if n < 2:
        return []
    f = mc.field
    c0 = mc.entry_dim((0,) * n)
    fc = filtration_from_blocks(seqs.sequence("truncated face").fc.total, lambda q: sum(q) - q[0])
    if not fc.total.dims:
        return []
    z, b = _cell_spaces(fc, n, 0, n - 1)
    bad: list[str] = []
    if z.dim - b.dim != c0:
        bad.append(f"page-{n} cell (0,{n - 1}) has dim {z.dim - b.dim}, expected dim {c0} of the origin entry")
        return bad
    if c0 == 0:
        return bad
    psi = composite_along(mc, tuple(range(n)))
    tz, bsp = _cell_spaces(fc, n, n, 0)

    # iota: extract the block at wedge n-1 over q=0 and apply the last Koszul map
    tot = fc.total
    top_point = (n - 1,) + (0,) * n
    src = block_slices(tot.blocks[n - 1]).get(top_point)
    if src is None:
        bad.append(f"no wedge-(n-1) block over the origin in degree {n - 1}")
        return bad
    if src.stop - src.start != n * c0:
        bad.append(f"wedge-{n - 1} block over the origin has {src.stop - src.start} "
                   f"coordinates, expected {n * c0}")
        return bad
    # slot s, the s-th (n-1)-subset in lexicographic order, misses axis n-1-s
    ident = [{} for _ in range(tot.dim(n - 1))]
    for s in range(n):
        sign = f.normalize(-1 if (n - 1 - s) % 2 else 1)
        for k in range(c0):
            ident[src.start + s * c0 + k] = {k: sign}
    origin = mul(f, ident, z.columns)
    if len(pivot_pairs(f, origin)) != c0:
        bad.append("source-cell identification with the origin entry is singular")
        return bad

    # target side: Z_n and B_n of cell (n, 0) must live in the wedge-0 block over (1,..,1)
    tgt = block_slices(tot.blocks.get(n, ())).get((0,) + (1,) * n)
    if tgt is None:
        if tz.dim > bsp.dim:
            bad.append("target cell nonzero but the interior block is absent")
        return bad
    if any(not tgt.start <= i < tgt.stop for col in tz.columns + bsp.columns for i in col):
        bad.append("target-cell representatives or boundaries stick out of the interior block")
        return bad
    w = [{i - tgt.start: v for i, v in col.items()} for col in bsp.columns]  # a basis of W

    # d z sliced to the interior block, and psi of its origin element
    images = submatrix(mul(f, tot.matrix(n - 1), z.columns), range(tgt.start, tgt.stop),
                       range(z.dim))
    expected = mul(f, psi, origin)
    for sign in (1, -1):
        # column k of images + expected, times e_k - sign e_{dim Z+k}: their difference
        diff = mul(f, images + expected, [{k: 1, z.dim + k: f.normalize(-sign)}
                                          for k in range(z.dim)])
        if Subspace.span(f, tgt.stop - tgt.start, w + diff).dim == len(w):
            return bad
    bad.append("page-n edge map differs from the composite differential by more than a sign")
    return bad


def region_convergence_report(seqs: LatticeSequences) -> list[str]:
    """Check the four region spectral sequences of the lattice multicomplex
    ``seqs.mc``: first-page columns against directly computed restriction
    cohomologies and abutments against the direct target cohomologies (all
    by dimension), then the Koszul split (``split_column_report``) and the
    page-n edge map (``edge_composite_check``).  The sequences, the split
    and the region cohomologies are read from ``seqs``, the lattice's
    ``LatticeSequences``.  Like the edge check, raises ContractError on a
    lattice with a point below 0 on some axis."""
    mc = seqs.mc
    bad: list[str] = []
    n = mc.n
    subsets = {p: list(itertools.combinations(range(n), p)) for p in range(n + 1)}
    face_h = {I: seqs.region_h("face", I) for p in range(n + 1) for I in subsets[p]}
    int_h = {S: seqs.region_h("interior", S) for p in range(1, n + 1) for S in subsets[p]}
    aug_h = {S: seqs.region_h("augmented", S) for p in range(1, n + 1) for S in subsets[p]}

    full = tuple(range(n))
    # (tag, filtration, restriction cohomologies, whether column p of the
    # first page holds them in total degree p+q (else q), its columns, and
    # the cohomology it abuts to)
    audits = (
        # face columns converging to the interior cohomology
        ("face filtration", "face", face_h, False, range(0, n + 1), lambda ss: int_h[full]),
        # truncated face columns converging to the augmented interior
        ("truncated face filtration", "truncated face", face_h, False, range(0, n),
         lambda ss: aug_h[full]),
        # nonzero-count filtration of the punctured complex
        ("count filtration", "punctured count", int_h, True, range(1, n + 1),
         lambda ss: ss.fc.total.cohomology_dims()),
        # count filtration of the cube extension, converging to the full
        # cohomology (face () is the whole lattice)
        ("cube count filtration", "cube count", aug_h, True, range(1, n + 1),
         lambda ss: face_h[()]),
    )
    for tag, kind, region_h, total_degree, p_range, target in audits:
        ss = seqs.sequence(kind)
        if not ss.fc.total.dims:
            continue
        want: dict[tuple[int, int], int] = {}
        for p in p_range:
            for I in subsets[p]:
                for m, d in region_h[I].items():
                    key = (p, m - p) if total_degree else (p, m)
                    want[key] = want.get(key, 0) + d
        e1 = ss.page(1)
        for p, q in sorted(set(e1.cells) | set(want)):
            if e1.dim(p, q) != want.get((p, q), 0):
                bad.append(f"{tag}: E_1 cell ({p},{q}) = {e1.dim(p, q)}, "
                           f"expected {want.get((p, q), 0)}")
        got_h, want_h = ss.infinity()[1], target(ss)
        for m in sorted(set(got_h) | set(want_h)):
            if got_h.get(m, 0) != want_h.get(m, 0):
                bad.append(f"{tag}: abutment H^{m} = {got_h.get(m, 0)}, "
                           f"expected {want_h.get(m, 0)}")

    bad.extend(split_column_report(mc, seqs.face_total))
    bad.extend(edge_composite_check(seqs))
    return bad

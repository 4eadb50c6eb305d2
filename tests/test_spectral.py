"""Filtered complexes and their spectral sequences."""

import dataclasses
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechmv import (
    CochainComplex,
    ContractError,
    FilteredComplex,
    InternalCheckError,
    LatticeSequences,
    PrimeField,
    RationalField,
    SpectralSequence,
    edge_composite_check,
    filtration_from_blocks,
    koszul_split,
    region_convergence_report,
    split_column_report,
    totalize,
    validate,
)
from cechmv import spectral
from cechmv.multicomplex import composite_along
import reference_cohomology
from conftest import (columns, keep_points, nonzero_count, rand_complex, rand_tensor_mc,
                      tensor_product, validate_filtration)
from reference_cohomology import reference_edge_composite_check
from reference_spectral import (assert_agrees_with_reference, limit_abutment, rank_table_pairs,
                                reference_abutment)
from reference_split import koszul_half, reference_split_column_report

F = PrimeField(65537)


def two_step():
    """0 -> k -> k -> 0 with the target one filtration level deeper."""
    total = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    return FilteredComplex(total, {0: [0], 1: [1]})


def test_two_step_pages():
    fc = two_step()
    validate_filtration(fc)
    assert fc.width == 2
    ss = SpectralSequence(fc)
    p0 = ss.page(0)
    assert p0.cells == {(0, 0): 1, (1, 0): 1}
    assert p0.map_rank(0, 0) == 0
    p1 = ss.page(1)
    assert p1.cells == {(0, 0): 1, (1, 0): 1}
    assert p1.map_rank(0, 0) == 1
    p2 = ss.page(2)
    assert p2.cells == {}
    page_inf, h_dims = ss.infinity()
    assert page_inf.cells == {}
    assert h_dims == {}


def test_two_step_page_json_and_text():
    ss = SpectralSequence(two_step())
    body = ss.page(1).to_json()
    assert body == {
        "r": 1,
        "cells": [{"p": 0, "q": 0, "dim": 1}, {"p": 1, "q": 0, "dim": 1}],
        "maps": [{"from": [0, 0], "rank": 1}, {"from": [1, 0], "rank": 0}],
    }


def test_pages_constant_beyond_width():
    fc = two_step()
    ss = SpectralSequence(fc)
    late = [ss.page(r) for r in range(2, 7)]
    for pg in late[1:]:
        assert pg.cells == late[0].cells
        assert set(pg.ranks) == set(pg.cells) and not any(pg.ranks.values())


def test_filtration_validate_rejects_unstable_levels():
    total = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    bad = FilteredComplex(total, {0: [1], 1: [0]})
    with pytest.raises(ContractError, match="not stable under d at level 1, degree 0"):
        validate_filtration(bad)


def test_filtration_from_blocks_requires_block_data():
    bare = CochainComplex(F, {0: 1}, {})
    with pytest.raises(ContractError, match="block data"):
        filtration_from_blocks(bare, lambda key: 0)
    empty = CochainComplex(F, {}, {})
    fc = filtration_from_blocks(empty, lambda key: 0)
    assert fc.width == 1 and not fc.total.dims


def test_coordinate_filtration_levels_are_coordinate_subspaces(rng):
    mc = rand_tensor_mc(F, rng, max_axes=2, coin=False)
    fc = filtration_from_blocks(totalize(mc), itemgetter(0))
    validate_filtration(fc)
    tot = totalize(mc)
    assert sorted(fc.levels) == sorted(tot.blocks)
    for m, blk in tot.blocks.items():
        # each coordinate's level is the first lattice coordinate of its block
        want = [q[0] for q, d in blk for _ in range(d)]
        assert fc.levels[m] == want
    firsts = [q[0] for blk in tot.blocks.values() for q, d in blk if d]
    assert (fc.p_min, fc.p_max) == (min(firsts), max(firsts))


def test_abutment_graded_sums_to_cohomology(rng):
    for _ in range(6):
        mc = rand_tensor_mc(F, rng, max_axes=3)
        fc = filtration_from_blocks(totalize(mc), nonzero_count)
        if not fc.total.dims:
            continue
        ss = SpectralSequence(fc)
        assert ss.infinity()[1] == fc.total.cohomology_dims()


FIELDS = [PrimeField(2), PrimeField(3), PrimeField(65537), RationalField()]


@st.composite
def level_labelled_matrices(draw):
    """A filtered two-term complex k^c -> k^r: random levels in bottom..top,
    with bottom in -3..0 and top in 0..3 (bottom = top = 0 gives a one-level
    filtration, and ties are common), entries in -2..2 wherever the row level
    is at least the column level, and some rows and columns zeroed."""
    f = draw(st.sampled_from(FIELDS))
    bottom, top = draw(st.integers(-3, 0)), draw(st.integers(0, 3))
    nc, nr = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cols = draw(st.lists(st.integers(bottom, top), min_size=nc, max_size=nc))
    rows = draw(st.lists(st.integers(bottom, top), min_size=nr, max_size=nr))
    a = np.array(draw(st.lists(st.integers(-2, 2), min_size=nr * nc, max_size=nr * nc)),
                 dtype=int).reshape(nr, nc)
    a[np.array(rows, dtype=int)[:, None] < np.array(cols, dtype=int)[None, :]] = 0
    a[draw(st.lists(st.integers(0, nr - 1), max_size=nr)) if nr else []] = 0
    a[:, draw(st.lists(st.integers(0, nc - 1), max_size=nc)) if nc else []] = 0
    dims = {k: n for k, n in ((0, nc), (1, nr)) if n}
    d = {0: columns(f, a)} if nc and nr else {}
    return FilteredComplex(CochainComplex(f, dims, d), {0: cols, 1: rows})


@settings(max_examples=300, deadline=None)
@given(level_labelled_matrices())
def test_pair_counts_match_the_rank_table(fc):
    validate_filtration(fc)
    assert SpectralSequence(fc)._pairs(0) == rank_table_pairs(fc, 0)


@settings(max_examples=300, deadline=None)
@given(level_labelled_matrices())
def test_level_engine_matches_the_reference(fc):
    """Pages 0..width+1 and the abutment of the drawn filtrations, negative
    levels included, against the subspace-lattice reference."""
    ss = SpectralSequence(fc)
    pages = [ss.page(r) for r in range(fc.width + 2)]
    assert_agrees_with_reference(fc, pages, ss.infinity()[0].cells)
    assert limit_abutment(ss) == reference_abutment(fc)[:2]


@pytest.mark.parametrize("field", [PrimeField(2), RationalField()], ids=["F_2", "Q"])
def test_abutment_levels_are_kernel_minus_image(field):
    """dim(ker d_m cap F^p) - dim(im d_{m-1} cap F^p), from explicit
    subspaces (``reference_abutment``), is the abutment's level-p dimension of
    H^m."""
    rng = np.random.default_rng(20261018)
    nonzero_meets = 0  # cells where im d_{m-1} meets F^p
    for _ in range(30):
        mc = rand_tensor_mc(field, rng, max_axes=3)
        tot = totalize(mc)
        for fc in (filtration_from_blocks(tot, itemgetter(0)),
                   filtration_from_blocks(tot, nonzero_count)):
            h_dims, level_dims, image_levels = reference_abutment(fc)
            assert limit_abutment(SpectralSequence(fc)) == (h_dims, level_dims)
            nonzero_meets += sum(d > 0 for d in image_levels.values())
    assert nonzero_meets > 10


def test_engine_internal_checks_run(rng):
    # the reference engine checks d o d = 0 and the two-path page comparison
    # on every page, and both engines must give the same cells and ranks
    for _ in range(5):
        cx = rand_complex(F, rng, max_len=4)
        mc = tensor_product([cx, rand_complex(F, rng)])
        fc = filtration_from_blocks(totalize(mc), lambda q: sum(q) - q[0])
        ss = SpectralSequence(fc)
        pages = [ss.page(r) for r in range(fc.width + 2)]
        assert_agrees_with_reference(fc, pages, ss.infinity()[0].cells)


def test_d_matrix_shapes_follow_bidegree(rng):
    mc = rand_tensor_mc(F, rng, max_axes=2, coin=False)
    fc = filtration_from_blocks(totalize(mc), itemgetter(0))
    ss = SpectralSequence(fc)
    for r in range(0, fc.width + 1):
        pg = ss.page(r)
        assert set(pg.ranks) == set(pg.cells)
        for (p, q), rk in pg.ranks.items():
            assert 0 <= rk <= min(pg.dim(p, q), pg.dim(p + r, q - r + 1))


def test_page_index_must_be_nonnegative():
    ss = SpectralSequence(two_step())
    with pytest.raises(ContractError):
        ss.page(-1)


def test_rational_field_engine():
    total = CochainComplex(RationalField(), {0: 1, 1: 1}, {0: columns(RationalField(), [[1]])})
    fc = FilteredComplex(total, {0: [0], 1: [1]})
    ss = SpectralSequence(fc)
    assert ss.page(1).map_rank(0, 0) == 1
    assert ss.page(2).cells == {}


def test_split_column_report_clean_on_random_lattices(rng):
    for _ in range(12):
        mc = rand_tensor_mc(F, rng, max_axes=3)
        assert split_column_report(mc, totalize(koszul_split(mc))) == []


def split_mutation_cases(rng, want_zeros: int, count: int = 12):
    """(lattice, point) pairs of random lattices with up to 3 axes whose
    split audit is clean, one per lattice, the point with at least
    ``want_zeros`` zero coordinates."""
    cases = []
    while len(cases) < count:
        mc = rand_tensor_mc(F, rng, max_axes=3)
        points = [q for q in mc.points() if sum(x == 0 for x in q) >= want_zeros]
        if points:
            assert split_column_report(mc, totalize(koszul_split(mc))) == []
            cases.append((mc, points[int(rng.integers(0, len(points)))]))
    return cases


def test_split_column_report_raises_on_a_scaled_wedge_entry(rng):
    """One wedge entry of the face half scaled by 2, at a point with two
    zero coordinates (so its column has three degrees), breaks d o d = 0
    there: the audit of the mutated half's totalization raises what the
    per-point reference raises on the half."""
    for mc, q in split_mutation_cases(rng, want_zeros=2):
        face = koszul_split(mc)
        wedge = [dict(col) for col in face.diffs[((0,) + q, 0)]]
        row = next(iter(wedge[0]))
        wedge[0][row] = F.normalize(2 * wedge[0][row])
        bad = dataclasses.replace(face, diffs={**face.diffs, ((0,) + q, 0): wedge})
        with pytest.raises(InternalCheckError) as want:
            reference_split_column_report(mc, koszul_half(mc, "complement"), bad)
        with pytest.raises(InternalCheckError, match="d o d != 0") as got:
            split_column_report(mc, totalize(bad))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("want_zeros", [0, 1])
def test_split_column_report_flags_a_dropped_wedge_slot(rng, want_zeros):
    """The face half without the top wedge slot of the column over one
    point (its column stays a complex), totalized, gets the per-point
    reference's messages on the half, and at least one."""
    for mc, q in split_mutation_cases(rng, want_zeros):
        face = koszul_split(mc)
        top = max(point for point in face.dims if point[1:] == q)
        bad = keep_points(face, lambda point: point != top)
        got = split_column_report(mc, totalize(bad))
        assert got, (q, top)
        assert got == reference_split_column_report(mc, koszul_half(mc, "complement"), bad)


def edge_cases(rng):
    """The lattices of the edge-check tests: identity squares and cubes
    (nonzero composite), a square with a zero axis map (zero composite), a
    single axis (nothing to check) and six random tensor lattices."""
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    seg0 = CochainComplex(F, {0: 1, 1: 1}, {})
    fixed = [tensor_product([seg, seg]), tensor_product([seg, seg, seg]),
             tensor_product([seg, seg0]), tensor_product([seg])]
    return fixed + [rand_tensor_mc(F, rng, max_axes=3, coin=False) for _ in range(6)]


def test_edge_composite_check(rng):
    """The span route is clean on every edge case and agrees with the
    representative route (``reference_edge_composite_check``)."""
    for mc in edge_cases(rng):
        seqs = LatticeSequences(mc)
        assert edge_composite_check(seqs) == reference_edge_composite_check(seqs) == []


@pytest.mark.parametrize("n", [2, 3])
def test_edge_composite_check_flags_a_scaled_composite(n, monkeypatch):
    """psi scaled by 2 over F_65537 on the n-axis identity cube (c0 = 1,
    psi != 0) is wrong by more than a sign: both routes say so."""
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    mc = tensor_product([seg] * n)
    assert any(spectral.composite_along(mc, tuple(range(n))))

    def doubled(mc, axes):
        return [{i: F.normalize(2 * v) for i, v in col.items()}
                for col in composite_along(mc, axes)]

    monkeypatch.setattr(spectral, "composite_along", doubled)
    monkeypatch.setattr(reference_cohomology, "composite_along", doubled)
    want = ["page-n edge map differs from the composite differential by more than a sign"]
    seqs = LatticeSequences(mc)
    assert edge_composite_check(seqs) == reference_edge_composite_check(seqs) == want


def resize_origin_wedge_block(tot: CochainComplex, n: int, extra: int) -> CochainComplex:
    """``tot``, the face total of a lattice with n axes, with the wedge-(n-1)
    block over the origin, the last block of degree n-1, one coordinate
    longer (``extra`` = 1) or shorter (-1) at its end.  A coordinate added
    there is the image of one added at the end of the wedge-(n-2) block over
    the origin, the last of degree n-2, so every page-1 cell is kept."""
    lo, hi = n - 2, n - 1
    for m in (lo, hi):
        assert tot.blocks[m][-1][0] == (m,) + (0,) * n
    grown = (hi,) if extra < 0 else (lo, hi)
    blocks = {m: blk[:-1] + ((blk[-1][0], blk[-1][1] + extra),) if m in grown else blk
              for m, blk in tot.blocks.items()}
    dims = {m: d + extra if m in grown else d for m, d in tot.dims.items()}
    d = dict(tot.d)
    if extra > 0:
        d[lo] = tot.matrix(lo) + [{tot.dim(hi): 1}]
        d[hi] = tot.matrix(hi) + [{}]
    else:
        d[lo] = [{r: v for r, v in col.items() if r < dims[hi]} for col in tot.matrix(lo)]
        d[hi] = tot.matrix(hi)[:-1]
    return CochainComplex(tot.field, dims, d, blocks)


@pytest.mark.parametrize("n", [2, 3])
def test_edge_composite_check_flags_a_resized_origin_wedge_block(n):
    """The edge check reads the wedge-(n-1) block over the origin as n
    slots of c0 coordinates each, in lexicographic order.  On the n-axis
    identity cube (c0 = 1), a face total whose block holds n + 1 coordinates
    but whose page-n cells are intact is reported by both routes for its
    block size; one whose block holds n - 1 is reported, as the reference
    reports it."""
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    mc = tensor_product([seg] * n)
    for extra in (1, -1):
        seqs = LatticeSequences(mc)
        seqs.__dict__["face_total"] = resize_origin_wedge_block(seqs.face_total, n, extra)
        got = edge_composite_check(seqs)
        assert got == reference_edge_composite_check(seqs)
        if extra > 0:
            assert got == [f"wedge-{n - 1} block over the origin has {n + 1} coordinates, "
                           f"expected {n}"]
        else:
            assert got, extra


@pytest.mark.parametrize("n", [2, 3])
def test_a_flipped_axis_sign_fails_validate_or_the_edge_check(n):
    """Flipping the sign of one axis map at one point of the n-axis identity
    cube, at every (point, axis) in turn, fails ``validate`` or the edge
    check."""
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    mc = tensor_product([seg] * n)
    for key, mat in mc.diffs.items():
        bad = dataclasses.replace(mc, diffs={**mc.diffs, key: [
            {i: F.normalize(-v) for i, v in col.items()} for col in mat]})
        assert validate(bad) or edge_composite_check(LatticeSequences(bad)), key


def test_edge_check_refuses_a_lattice_with_a_negative_point():
    """The exactness argument of the edge check needs nonnegative points: a
    tensor lattice whose factors start at degree -1 raises from the edge
    check and from the region audit that runs it, instead of a false
    violation."""
    seg = CochainComplex(F, {-1: 1, 0: 1}, {-1: columns(F, [[1]])})
    for mc in (tensor_product([seg, seg]), tensor_product([seg, seg, seg])):
        assert mc.box[0] == (-1,) * mc.n
        with pytest.raises(ContractError, match="nonnegative points"):
            edge_composite_check(LatticeSequences(mc))
        with pytest.raises(ContractError, match="nonnegative points"):
            region_convergence_report(LatticeSequences(mc))


def test_region_convergence_report_clean():
    """Region accounting is clean on 12 random lattices with up to 3 axes
    over each of F_2, F_3, F_65537 and Q."""
    for k, f in enumerate((PrimeField(2), PrimeField(3), F, RationalField())):
        rng = np.random.default_rng(20240817 + k)
        for _ in range(12):
            mc = rand_tensor_mc(f, rng, max_axes=3)
            assert region_convergence_report(LatticeSequences(mc)) == []


def test_region_convergence_report_rational():
    q = RationalField()
    seg = CochainComplex(q, {0: 1, 1: 2}, {0: columns(q, [[1], [2]])})
    seg2 = CochainComplex(q, {0: 2, 1: 1}, {0: columns(q, [[3, 1]])})
    mc = tensor_product([seg, seg2])
    assert region_convergence_report(LatticeSequences(mc)) == []

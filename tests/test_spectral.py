"""Filtered complexes and their spectral sequences."""

import numpy as np
import pytest

from cechmv import (
    CochainComplex,
    ContractError,
    FilteredComplex,
    PrimeField,
    RationalField,
    SpectralSequence,
    complement_total_filtration,
    coordinate_filtration,
    edge_composite_check,
    filtration_from_blocks,
    nonzero_count_filtration,
    region_convergence_report,
    sign_twist,
    split_column_report,
    tensor_product,
    totalize,
)
from conftest import rand_complex, rand_tensor_mc

F = PrimeField(65537)


def two_step():
    """0 -> k -> k -> 0 with the target one filtration level deeper."""
    total = CochainComplex(F, {0: 1, 1: 1}, {0: F.array([[1]])})
    return FilteredComplex(total, {0: np.array([0]), 1: np.array([1])})


def test_two_step_pages():
    fc = two_step()
    fc.validate()
    assert fc.width == 2
    ss = SpectralSequence(fc)
    p0 = ss.page(0)
    assert p0.cells == {(0, 0): 1, (1, 0): 1}
    assert p0.map_rank(F, 0, 0) == 0
    p1 = ss.page(1)
    assert p1.cells == {(0, 0): 1, (1, 0): 1}
    assert p1.map_rank(F, 0, 0) == 1
    p2 = ss.page(2)
    assert p2.cells == {}
    page_inf, ab = ss.infinity()
    assert page_inf.cells == {}
    assert ab.h_dims == {0: 0, 1: 0}


def test_two_step_page_json_and_text():
    ss = SpectralSequence(two_step())
    body = ss.page(1).to_json(F)
    assert body == {
        "r": 1,
        "cells": [{"p": 0, "q": 0, "dim": 1}, {"p": 1, "q": 0, "dim": 1}],
        "maps": [{"from": [0, 0], "rank": 1}, {"from": [1, 0], "rank": 0}],
    }
    text = ss.page(1).to_text()
    assert "E_1" in text and "p=0" in text
    assert SpectralSequence(two_step()).page(5).to_text() == "E_5: empty"


def test_pages_constant_beyond_width():
    fc = two_step()
    ss = SpectralSequence(fc)
    late = [ss.page(r) for r in range(2, 7)]
    for pg in late[1:]:
        assert pg.cells == late[0].cells
        assert all(pg.map_rank(F, p, q) == 0 for (p, q) in pg.maps)


def test_filtration_validate_rejects_unstable_levels():
    total = CochainComplex(F, {0: 1, 1: 1}, {0: F.array([[1]])})
    bad = FilteredComplex(total, {0: np.array([1]), 1: np.array([0])})
    with pytest.raises(ContractError, match="not stable under d at level 1, degree 0"):
        bad.validate()


def test_filtration_from_blocks_requires_block_data():
    bare = CochainComplex(F, {0: 1}, {})
    with pytest.raises(ContractError, match="block data"):
        filtration_from_blocks(bare, lambda key: 0)
    empty = CochainComplex(F, {}, {})
    fc = filtration_from_blocks(empty, lambda key: 0)
    assert fc.width == 1 and not fc.total.dims


def test_coordinate_filtration_levels_are_coordinate_subspaces(rng):
    mc = rand_tensor_mc(F, rng, max_axes=2, twist=False)
    fc = coordinate_filtration(mc, 0)
    fc.validate()
    tot = totalize(mc)
    assert sorted(fc.levels) == sorted(tot.blocks)
    for m, blk in tot.blocks.items():
        # each coordinate's level is the first lattice coordinate of its block
        want = [q[0] for q, d in blk for _ in range(d)]
        assert fc.levels[m].tolist() == want
    firsts = [q[0] for blk in tot.blocks.values() for q, d in blk if d]
    assert (fc.p_min, fc.p_max) == (min(firsts), max(firsts))


def test_abutment_graded_sums_to_cohomology(rng):
    for _ in range(6):
        mc = rand_tensor_mc(F, rng, max_axes=3)
        fc = nonzero_count_filtration(mc if mc.flavor == "commutative" else sign_twist(mc))
        if not fc.total.dims:
            continue
        ss = SpectralSequence(fc)
        page, ab = ss.infinity()
        h = fc.total.cohomology_dims()
        for m, d in ab.h_dims.items():
            assert d == h.get(m, 0)
            assert sum(ab.graded(m).values()) == d
        body = ab.to_json()
        assert isinstance(body["h"], list) and isinstance(body["graded"], list)


def test_engine_internal_checks_run(rng):
    # check=True exercises d o d = 0 and the two-path page comparison
    for _ in range(5):
        cx = rand_complex(F, rng, max_len=4)
        mc = tensor_product([cx, rand_complex(F, rng)])
        fc = complement_total_filtration(mc, 0)
        ss = SpectralSequence(fc, check=True)
        ss.pages_up_to(fc.width + 1)
        ss.infinity()


def test_d_matrix_shapes_follow_bidegree(rng):
    mc = rand_tensor_mc(F, rng, max_axes=2, twist=False)
    fc = coordinate_filtration(mc, 0)
    ss = SpectralSequence(fc)
    for r in range(0, fc.width + 1):
        pg = ss.page(r)
        for (p, q), mat in pg.maps.items():
            assert mat.shape == (pg.dim(p + r, q - r + 1), pg.dim(p, q))


def test_page_index_must_be_nonnegative():
    ss = SpectralSequence(two_step())
    with pytest.raises(ContractError):
        ss.page(-1)


def test_rational_field_engine():
    total = CochainComplex(RationalField(), {0: 1, 1: 1}, {0: RationalField().array([[1]])})
    q = RationalField()
    fc = FilteredComplex(total, {0: np.array([0]), 1: np.array([1])})
    ss = SpectralSequence(fc)
    assert ss.page(1).map_rank(q, 0, 0) == 1
    assert ss.page(2).cells == {}


def test_split_column_report_clean_on_random_lattices(rng):
    for _ in range(12):
        mc = rand_tensor_mc(F, rng, max_axes=3)
        assert split_column_report(mc) == []


def test_edge_composite_check(rng):
    # explicit square with identity maps: the composite is nonzero
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: F.array([[1]])})
    mc = tensor_product([seg, seg])
    assert edge_composite_check(mc) == []
    # a factor with zero differential gives a zero composite; still consistent
    seg0 = CochainComplex(F, {0: 1, 1: 1}, {})
    assert edge_composite_check(tensor_product([seg, seg0])) == []
    # single axis: nothing to check
    assert edge_composite_check(tensor_product([seg])) == []
    for _ in range(6):
        m = rand_tensor_mc(F, rng, max_axes=3, twist=False)
        assert edge_composite_check(m) == []


def test_region_convergence_report_clean(rng):
    for _ in range(8):
        mc = rand_tensor_mc(F, rng, max_axes=3)
        assert region_convergence_report(mc) == []


def test_region_convergence_report_rational():
    q = RationalField()
    seg = CochainComplex(q, {0: 1, 1: 2}, {0: q.array([[1], [2]])})
    seg2 = CochainComplex(q, {0: 2, 1: 1}, {0: q.array([[3, 1]])})
    mc = tensor_product([seg, seg2])
    assert region_convergence_report(mc) == []

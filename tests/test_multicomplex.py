"""Lattice multicomplexes: validation, signs, totalization, regions, scaffolds."""

import numpy as np
import pytest

from cechmv import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    CochainComplex,
    ContractError,
    InputError,
    InternalCheckError,
    Multicomplex,
    PrimeField,
    Region,
    augment_interior,
    cohomology_map,
    composite_along,
    cube_extension,
    drop_axis_top,
    koszul_complex,
    koszul_split,
    line_complex,
    puncture,
    restrict,
    sign_twist,
    tensor_product,
    totalize,
    validate,
)
from conftest import columns, dense, rand_tensor_mc

F = PrimeField(65537)


def unit_square():
    """k at every vertex of the unit square, all maps the identity."""
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    return tensor_product([seg, seg])


def test_validate_accepts_unit_square():
    mc = unit_square()
    assert validate(mc) == []
    assert mc.flavor == COMMUTATIVE
    assert mc.dims == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_validate_reports_structural_problems():
    mc = unit_square()
    bad_dims = dict(mc.dims)
    bad_dims[(5, 5)] = 1
    assert any("outside box" in s for s in validate(Multicomplex(F, 2, mc.box, bad_dims, mc.diffs, mc.flavor)))
    bad_dims = dict(mc.dims)
    bad_dims[(0, 0)] = 0
    assert any("nonpositive" in s for s in validate(Multicomplex(F, 2, mc.box, bad_dims, mc.diffs, mc.flavor)))
    for wrong in (F.zeros(3, 3), F.zeros(1, 2), [[1], [1]]):
        bad_diffs = dict(mc.diffs)
        bad_diffs[((0, 0), 0)] = columns(F, wrong)  # 3 columns, 2 columns, a row out of range
        assert any("shape" in s for s in validate(Multicomplex(F, 2, mc.box, mc.dims, bad_diffs, mc.flavor)))


def test_validate_catches_sign_errors():
    mc = unit_square()
    flipped = dict(mc.diffs)
    flipped[((0, 0), 0)] = columns(F, -dense(F, flipped[((0, 0), 0)], 1))
    bad = validate(Multicomplex(F, 2, mc.box, mc.dims, flipped, COMMUTATIVE))
    assert any("commutative relation" in s for s in bad)
    # the same data declared anticommutative is consistent
    assert validate(Multicomplex(F, 2, mc.box, mc.dims, flipped, ANTICOMMUTATIVE)) == []


def test_validate_catches_nonzero_square():
    seg3 = CochainComplex(
        F, {0: 1, 1: 1, 2: 1}, {0: columns(F, [[1]]), 1: columns(F, [[1]])}
    )
    mc = tensor_product([seg3])
    assert any("square of axis-0" in s for s in validate(mc))


def test_sign_twist_is_involutive_and_toggles_flavor(rng):
    for _ in range(15):
        mc = rand_tensor_mc(F, rng)
        tw = sign_twist(mc)
        assert tw.flavor != mc.flavor
        assert validate(tw) == []
        back = sign_twist(tw)
        assert back.flavor == mc.flavor
        for key, mat in mc.diffs.items():
            assert back.diffs[key] == mat


def test_totalize_unit_square_signs():
    tot = totalize(unit_square())
    tot.check_complex()
    assert tot.dims == {0: 1, 1: 2, 2: 1}
    assert tot.blocks[1] == (((0, 1), 1), ((1, 0), 1))
    assert dense(F, tot.matrix(0), 2).tolist() == [[1], [1]]
    # the (1,0) -> (1,1) block along axis 1 picks up the sign
    assert dense(F, tot.matrix(1), 1).tolist() == [[1, 65536]]
    assert tot.cohomology_dims() == {}


def test_totalize_invariant_under_sign_twist(rng):
    for _ in range(15):
        mc = rand_tensor_mc(F, rng)
        a, b = totalize(mc), totalize(sign_twist(mc))
        a.check_complex()
        b.check_complex()
        assert a.cohomology_dims() == b.cohomology_dims()


def test_totalize_check_flags_corruption():
    mc = unit_square()
    bad = dict(mc.diffs)
    bad[((0, 0), 0)] = columns(F, [[2]])
    broken = Multicomplex(F, 2, mc.box, mc.dims, bad, COMMUTATIVE)
    with pytest.raises(InternalCheckError, match="d o d != 0"):
        totalize(broken).check_complex()


def test_koszul_complex_is_exact():
    for n in range(1, 5):
        for c in (1, 2):
            cx = koszul_complex(F, n, c)
            cx.check_complex()
            assert cx.cohomology_dims() == {}
            assert cx.dims[0] == c and cx.dims[n] == c


def test_tensor_product_dims_and_validity(rng):
    for _ in range(10):
        mc = rand_tensor_mc(F, rng, twist=False)
        assert validate(mc) == []
        for q, d in mc.dims.items():
            assert d > 0


def test_region_membership():
    n = 2
    face0 = Region.face({0}, n)  # q2 = 0
    assert face0.contains((3, 0)) and face0.contains((0, 0)) and not face0.contains((1, 1))
    # star names the coordinates forced to zero instead
    assert Region.face({1}, n, star=True).contains((3, 0))
    inter = Region.interior({0}, n)
    assert inter.contains((1, 0)) and not inter.contains((1, 1)) and not inter.contains((0, 0))
    assert Region.interior_all(n).contains((2, 3))
    with pytest.raises(ContractError):
        Region.face({5}, n)


def test_restrict_and_puncture():
    mc = unit_square()
    inner = restrict(mc, Region.interior_all(2))
    assert set(inner.dims) == {(1, 1)}
    assert inner.diffs == {}
    pu = puncture(mc)
    assert set(pu.dims) == {(0, 1), (1, 0), (1, 1)}
    assert ((0, 1), 0) in pu.diffs and ((0, 0), 0) not in pu.diffs


def test_drop_axis_top():
    mc = unit_square()
    dropped = drop_axis_top(mc, 0, 1)
    assert set(dropped.dims) == {(0, 0), (0, 1)}
    assert dropped.box[1] == (0, 1)
    with pytest.raises(ContractError, match="top layer"):
        drop_axis_top(mc, 0, 0)


def test_line_complex():
    mc = unit_square()
    col = line_complex(mc, 1, (1, 0))
    assert col.dims == {0: 1, 1: 1}
    assert dense(F, col.matrix(0), 1).tolist() == [[1]]
    col.check_complex()


def test_composite_along():
    mc = unit_square()
    assert dense(F, composite_along(mc, (0, 1)), 1).tolist() == [[1]]
    assert dense(F, composite_along(mc, (1, 0)), 1).tolist() == [[1]]
    assert dense(F, composite_along(mc, ()), 1).tolist() == [[1]]


def test_augment_interior_unit_square():
    mc = unit_square()
    inner = totalize(restrict(mc, Region.interior_all(2)))
    plus = augment_interior(mc, (0, 1), inner)
    assert plus.dims == {1: 1, 2: 1}
    assert dense(F, plus.matrix(1), 1).tolist() == [[1]]
    assert plus.blocks[1] == (("aug", 1),)
    assert plus.cohomology_dims() == {}
    with pytest.raises(InputError, match="nonempty axis subset"):
        augment_interior(mc, (), inner)
    with pytest.raises(ContractError):
        augment_interior(mc, (0, 0), inner)
    with pytest.raises(ContractError):
        augment_interior(mc, (0, 7), inner)


def test_augment_interior_single_axis():
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    mc = tensor_product([seg])
    plus = augment_interior(mc, (0,), totalize(restrict(mc, Region.interior((0,), 1))))
    assert plus.dims == {0: 1, 1: 1}
    assert plus.cohomology_dims() == {}


def test_cube_extension_shape_and_cohomology(rng):
    mc = unit_square()
    cube = cube_extension(mc)
    assert cube.n == 3
    assert validate(cube) == []
    assert cube.entry_dim((-1, 0, 0)) == 1 and cube.entry_dim((-1, 1, 1)) == 1
    assert cube.entry_dim((0, 1, 1)) == 1
    # the cube layer is acyclic, so total cohomology is unchanged
    for _ in range(10):
        m = rand_tensor_mc(F, rng, twist=False)
        tot = totalize(cube_extension(m))
        tot.check_complex()
        assert tot.cohomology_dims() == totalize(m).cohomology_dims()
    with pytest.raises(ContractError, match="commutative"):
        cube_extension(sign_twist(mc))


def test_koszul_split_partitions_the_scaffold(rng):
    import math

    for _ in range(8):
        mc = rand_tensor_mc(F, rng)
        ks = koszul_split(mc)
        n = mc.n
        for part in (ks.complement_part, ks.face_part):
            assert part.n == n + 1
            assert validate(part) == []
            assert part.flavor == COMMUTATIVE
        for q, dq in mc.dims.items():
            for p in range(n + 1):
                point = (p,) + q
                total = ks.complement_part.entry_dim(point) + ks.face_part.entry_dim(point)
                assert total == dq * math.comb(n, p)


def test_koszul_split_blocks_are_lexicographic():
    mc = unit_square()
    ks = koszul_split(mc)
    blocks = ks.face_part.point_blocks[(1, 0, 0)]
    assert [I for I, _ in blocks] == [(0,), (1,)]
    # at the interior point only the complement half carries wedge slots
    assert ks.face_part.entry_dim((1, 1, 1)) == 0
    assert ks.complement_part.entry_dim((1, 1, 1)) == 2


def test_cohomology_map_identity_and_checks():
    cx = CochainComplex(F, {0: 2, 1: 1}, {0: columns(F, [[1, 0]])})
    ident = {0: columns(F, np.eye(2, dtype=int)), 1: columns(F, [[1]])}
    out = cohomology_map(cx, cx, ident)
    assert dense(F, out[0], 1).tolist() == [[1]]
    bad = {0: columns(F, [[0, 1], [1, 0]]), 1: columns(F, [[1]])}
    with pytest.raises(ContractError, match="chain map"):
        cohomology_map(cx, cx, bad)
    zero = {0: columns(F, F.zeros(2, 2)), 1: columns(F, F.zeros(1, 1))}
    out = cohomology_map(cx, cx, zero, check=False)
    assert dense(F, out[0], 1).tolist() == [[0]]


def test_cohomology_reps_shapes():
    cx = CochainComplex(F, {0: 2, 1: 1}, {0: columns(F, [[1, 0]])})
    reps, ker, im = cx.cohomology_reps(0)  # reps: sparse {row: value} columns
    assert len(reps) == 1 and ker.dim == 1 and im.dim == 0
    assert reps == [{1: 1}]
    assert cx.cohomology_dims() == {0: 1}

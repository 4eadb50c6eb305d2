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
    LatticeSequences,
    Multicomplex,
    PrimeField,
    augment_interior,
    cohomology_map,
    composite_along,
    cube_extension,
    koszul_complex,
    koszul_split,
    line_complex,
    restrict,
    sign_twist,
    tensor_product,
    totalize,
    validate,
)
from conftest import columns, dense, keep_points, rand_tensor_mc
from reference_split import koszul_half

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


def points(tot):
    """The lattice points whose blocks ``tot`` holds."""
    return {key for blk in tot.blocks.values() for key, _ in blk}


def test_region_membership():
    seg = CochainComplex(F, {v: 1 for v in range(4)}, {})  # k at 0..3, zero maps
    ls = LatticeSequences(tensor_product([seg, seg]))
    face = points(ls.region("face", (1,)))  # q2 = 0
    assert {(3, 0), (0, 0)} <= face and (1, 1) not in face
    assert points(ls.region("face", ())) == set(ls.mc.dims)
    inter = points(ls.region("interior", (0,)))
    assert (1, 0) in inter and (1, 1) not in inter and (0, 0) not in inter
    assert (2, 3) in points(ls.region("interior", (0, 1)))
    with pytest.raises(ContractError, match="unknown lattice region"):
        ls.region("corner", (0,))


def test_restrict_and_puncture():
    tot = totalize(unit_square())
    inner = restrict(tot, all)
    assert (inner.dims, inner.d, inner.blocks) == ({2: 1}, {}, {2: (((1, 1), 1),)})
    punctured = restrict(tot, any)
    assert punctured.dims == {1: 2, 2: 1}
    assert punctured.blocks[1] == (((0, 1), 1), ((1, 0), 1))
    assert punctured.d == {1: tot.d[1]}
    assert all(c is t for c, t in zip(punctured.d[1], tot.d[1]))  # shared, not copied
    assert restrict(tot, lambda q: True) is tot
    assert restrict(tot, lambda q: False).dims == {}
    with pytest.raises(ContractError, match="totalization"):
        restrict(CochainComplex(F, {0: 1}, {}), all)


def test_drop_axis_top():
    mc = unit_square()
    dropped = restrict(totalize(mc), lambda q: q[0] < mc.box[1][0])
    assert points(dropped) == {(0, 0), (0, 1)}
    assert dropped == totalize(keep_points(mc, lambda q: q[0] < 1))
    # variant 1a's face filtration drops the top wedge level n the same way
    ls = LatticeSequences(mc)
    assert ls.filtered("truncated face").p_max < mc.n == ls.filtered("face").p_max


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
    inner = restrict(totalize(mc), all)
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
    plus = augment_interior(mc, (0,), restrict(totalize(mc), all))
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
        face, complement = koszul_split(mc), koszul_half(mc, "complement")
        n = mc.n
        for part in (complement, face):
            assert part.n == n + 1
            assert validate(part) == []
            assert part.flavor == COMMUTATIVE
        for q, dq in mc.dims.items():
            for p in range(n + 1):
                point = (p,) + q
                total = complement.entry_dim(point) + face.entry_dim(point)
                assert total == dq * math.comb(n, p)


def test_koszul_split_blocks_are_lexicographic():
    mc = unit_square()
    face = koszul_split(mc)
    blocks = face.point_blocks[(1, 0, 0)]
    assert [I for I, _ in blocks] == [(0,), (1,)]
    # at the interior point only the complement half carries wedge slots
    assert face.entry_dim((1, 1, 1)) == 0
    assert koszul_half(mc, "complement").entry_dim((1, 1, 1)) == 2


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

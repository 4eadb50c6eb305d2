"""Lattice multicomplexes: validation, signs, totalization, regions, scaffolds."""

import inspect
import itertools
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cechmv import (
    CechProblem,
    CochainComplex,
    ContractError,
    InputError,
    InternalCheckError,
    LatticeSequences,
    Multicomplex,
    PrimeField,
    RationalField,
    augment_interior,
    cech_multicomplex,
    composite_along,
    cube_extension,
    degree_classes,
    koszul_split,
    restrict,
    totalize,
    validate,
)
from cechmv import spectral
from cechmv.cli import load_job
from cechmv.linalg import mul
from cechmv.multicomplex import add_e
from cechmv.spectral import _split_columns
from conftest import (columns, dense, face_slots, keep_points, koszul_complex, rand_tensor_mc,
                      tensor_product)
from reference_cohomology import cohomology_map, cohomology_reps
from reference_dense import zeros
from reference_regions import glue_origin, lift, reference_region
from reference_split import koszul_half, line_complex

F = PrimeField(65537)
JOBS = Path(__file__).resolve().parents[1] / "jobs"


def unit_square():
    """k at every vertex of the unit square, all maps the identity."""
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    return tensor_product([seg, seg])


def test_validate_accepts_unit_square():
    mc = unit_square()
    assert validate(mc) == []
    assert mc.dims == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_validate_reports_structural_problems():
    mc = unit_square()
    bad_dims = dict(mc.dims)
    bad_dims[(0, 0)] = 0
    assert any("nonpositive" in s for s in validate(Multicomplex(F, 2, bad_dims, mc.diffs)))
    for wrong in (zeros(F, 3, 3), zeros(F, 1, 2), [[1], [1]]):
        bad_diffs = dict(mc.diffs)
        bad_diffs[((0, 0), 0)] = columns(F, wrong)  # 3 columns, 2 columns, a row out of range
        assert any("shape" in s for s in validate(Multicomplex(F, 2, mc.dims, bad_diffs)))


def test_validate_catches_sign_errors():
    mc = unit_square()
    flipped = dict(mc.diffs)
    flipped[((0, 0), 0)] = columns(F, -dense(F, flipped[((0, 0), 0)], 1))
    bad = validate(Multicomplex(F, 2, mc.dims, flipped))
    assert any("commutative relation" in s for s in bad)


def test_validate_names_the_axis_of_a_corrupted_sign():
    """Negating the first entry of the axis-0 map at the origin of the
    Koszul square breaks d o d = 0 along axis 0 and the commuting square."""
    cx = koszul_complex(F, 2, 1)
    mc = tensor_product([cx, cx])
    key = ((0, 0), 0)
    mat = [dict(col) for col in mc.diffs[key]]
    r, c = min((r, c) for c, col in enumerate(mat) for r in col)  # first in row-major order
    mat[c][r] = F.normalize(-mat[c][r])
    assert validate(Multicomplex(F, 2, mc.dims, {**mc.diffs, key: mat})) == [
        "square of axis-0 differential nonzero at (0, 0)",
        "axes 0,1 fail the commutative relation at (0, 0)",
    ]


def test_validate_catches_nonzero_square():
    seg3 = CochainComplex(
        F, {0: 1, 1: 1, 2: 1}, {0: columns(F, [[1]]), 1: columns(F, [[1]])}
    )
    mc = tensor_product([seg3])
    assert any("square of axis-0" in s for s in validate(mc))


def validate_by_products(mc: Multicomplex) -> list[str]:
    """The relations of ``validate`` checked the way it once did: each
    product normalized by ``mul`` and compared whole."""
    f, bad = mc.field, []
    for q in mc.points():
        for i in range(mc.n):
            qi = add_e(q, i)
            if mc.entry_dim(qi) and mc.entry_dim(add_e(qi, i)):
                if any(mul(f, mc.diff(qi, i), mc.diff(q, i))):
                    bad.append(f"square of axis-{i} differential nonzero at {q}")
            for j in range(i + 1, mc.n):
                if mc.entry_dim(add_e(qi, j)) and mc.entry_dim(q) and (
                        mul(f, mc.diff(qi, j), mc.diff(q, i))
                        != mul(f, mc.diff(add_e(q, j), i), mc.diff(q, j))):
                    bad.append(f"axes {i},{j} fail the commutative relation at {q}")
    return bad


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), F, RationalField()],
                         ids=["F_2", "F_3", "F_65537", "Q"])
def test_validate_matches_the_normalized_products(field):
    """On random tensor lattices and Čech lattices, every other one with
    one entry of one map raised by 1, ``validate`` lists exactly the
    relations that the normalized products break."""
    rng = np.random.default_rng(11)
    problem = load_job(str(Path(__file__).resolve().parents[1] / "jobs" / "two_by_four.json"))[0]
    problem = CechProblem(field, problem.num_vars, problem.groups, problem.quotient,
                          problem.window)
    lattices = [rand_tensor_mc(field, rng, max_axes=3) for _ in range(40)]
    lattices += [cech_multicomplex(problem, pat)
                 for pat, _members in degree_classes(problem)[:8]]
    broken = 0
    for k, mc in enumerate(lattices):
        if k % 2 and mc.diffs:
            keys = sorted(mc.diffs)
            q, i = keys[int(rng.integers(len(keys)))]
            mat = [dict(col) for col in mc.diffs[q, i]]
            col = mat[int(rng.integers(len(mat)))]
            row = int(rng.integers(mc.entry_dim(add_e(q, i))))
            col[row] = field.normalize(col.get(row, 0) + 1)
            if not col[row]:
                del col[row]
            mc = Multicomplex(field, mc.n, mc.dims, {**mc.diffs, (q, i): mat})
        bad = validate(mc)
        assert bad == validate_by_products(mc)
        broken += bool(bad)
    assert broken >= 5


def test_totalize_unit_square_signs():
    tot = totalize(unit_square())
    tot.check_complex()
    assert tot.dims == {0: 1, 1: 2, 2: 1}
    assert tot.blocks[1] == (((0, 1), 1), ((1, 0), 1))
    assert dense(F, tot.matrix(0), 2).tolist() == [[1], [1]]
    # the (1,0) -> (1,1) block along axis 1 picks up the sign
    assert dense(F, tot.matrix(1), 1).tolist() == [[1, 65536]]
    assert tot.cohomology_dims() == {}


def test_totalize_check_flags_corruption():
    mc = unit_square()
    bad = dict(mc.diffs)
    bad[((0, 0), 0)] = columns(F, [[2]])
    broken = Multicomplex(F, 2, mc.dims, bad)
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
        mc = rand_tensor_mc(F, rng, coin=False)
        assert validate(mc) == []
        for q, d in mc.dims.items():
            assert d > 0


def points(tot):
    """The lattice points whose blocks ``tot`` holds."""
    return {key for blk in tot.blocks.values() for key, _ in blk}


def test_region_membership():
    """Every region is a block selection of the cube total, so its blocks are
    keyed by cube points: (0,) + q for the lattice point q."""
    seg = CochainComplex(F, {v: 1 for v in range(4)}, {})  # k at 0..3, zero maps
    ls = LatticeSequences(tensor_product([seg, seg]))
    face = points(ls.region("face", (1,)))  # q2 = 0
    assert {(0, 3, 0), (0, 0, 0)} <= face and (0, 1, 1) not in face
    assert points(ls.region("face", ())) == {(0,) + q for q in ls.mc.dims}
    inter = points(ls.region("interior", (0,)))
    assert (0, 1, 0) in inter and (0, 1, 1) not in inter and (0, 0, 0) not in inter
    assert (0, 2, 3) in points(ls.region("interior", (0, 1)))
    assert points(ls.region("augmented", (0,))) == inter | {(-1, 1, 0)}
    with pytest.raises(ContractError, match="unknown lattice region"):
        ls.region("corner", (0,))


def region_mismatches(mc) -> list[tuple]:
    """The regions and the punctured count total of ``LatticeSequences(mc)``
    that differ from the reference built from ``totalize(mc)``
    (``reference_region``), compared matrix for matrix."""
    seqs, n = LatticeSequences(mc), mc.n
    bad = []
    for kind, low in (("face", 0), ("interior", 1), ("augmented", 1)):
        for axes in (s for p in range(low, n + 1) for s in itertools.combinations(range(n), p)):
            if seqs.region(kind, axes) != reference_region(mc, kind, axes):
                bad.append((kind, axes))
    if seqs.sequence("punctured count").fc.total != lift(restrict(totalize(mc), any)):
        bad.append(("punctured count",))
    return bad


def job_lattices():
    """The lattice of every degree class of every committed job but the
    3x5 and 3x6 ones (``fifteen_generators*``, ``eighteen_generators*``)."""
    for path in sorted(JOBS.glob("*.json")):
        if not path.name.startswith(("fifteen", "eighteen")):
            problem, _tasks, _pages = load_job(str(path))
            for pat, _members in degree_classes(problem):
                yield cech_multicomplex(problem, pat)


def test_regions_are_blocks_of_the_cube_total(rng):
    """Each face, interior and augmented interior selected from the cube
    total, and the punctured count total, equals the one restricted from the
    lattice's own totalization, with the origin entry glued onto each
    interior by hand, on random tensor lattices and on every degree class of
    the committed jobs but the 3x5 and 3x6 ones: 267 classes, among them
    the 32 five-axis lattices of ``five_cycle_f2``, which take most of the
    time."""
    lattices = [rand_tensor_mc(F, rng) for _ in range(12)] + list(job_lattices())
    assert any(mc.entry_dim((0,) * mc.n) for mc in lattices)
    assert any(not mc.entry_dim((0,) * mc.n) for mc in lattices)
    for mc in lattices:
        assert region_mismatches(mc) == []


def test_an_interior_without_the_layer_filter_is_caught(monkeypatch):
    """Mutation check of the identity above: an interior selected from both
    layers of the cube total, not layer 0 alone, picks up the glued origin
    entry, and the comparison names every interior of a lattice with an
    origin entry."""
    source = textwrap.dedent(inspect.getsource(LatticeSequences.region))
    filtered = "lambda k: k[0] == 0 and all("
    assert source.count(filtered) == 1
    namespace = dict(vars(spectral))
    exec(source.replace(filtered, "lambda k: all("), namespace)
    monkeypatch.setattr(LatticeSequences, "region", namespace["region"])
    mc = unit_square()
    assert region_mismatches(mc) == [("interior", (0,)), ("interior", (1,)), ("interior", (0, 1))]


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
    assert ls.sequence("truncated face").fc.p_max < mc.n == ls.sequence("face").fc.p_max


def test_line_complex():
    mc = unit_square()
    col = line_complex(mc, 1, (1, 0))
    assert col.dims == {0: 1, 1: 1}
    assert dense(F, col.matrix(0), 1).tolist() == [[1]]
    col.check_complex()


def reference_line(mc, axis, base):
    """The complex along ``axis`` through ``base``, read from ``dims`` and
    ``diffs`` alone."""
    on_line = [q for q in mc.dims if q[:axis] + q[axis + 1:] == base[:axis] + base[axis + 1:]]
    dims = {q[axis]: mc.dims[q] for q in on_line}
    d = {q[axis]: mc.diffs[q, axis] for q in on_line
         if q[axis] + 1 in dims and (q, axis) in mc.diffs}
    return CochainComplex(mc.field, dims, d)


def assert_box_and_lines(mc):
    """``mc.box`` is the bounding box of its points (lo > hi on every axis
    when it has none), and ``line_complex`` along every axis through every
    point is the reference line."""
    if mc.dims:
        assert mc.box == (tuple(min(q[i] for q in mc.dims) for i in range(mc.n)),
                          tuple(max(q[i] for q in mc.dims) for i in range(mc.n)))
    else:
        lo, hi = mc.box
        assert len(lo) == len(hi) == mc.n and all(a > b for a, b in zip(lo, hi))
    for q in mc.dims:
        for axis in range(mc.n):
            assert line_complex(mc, axis, q) == reference_line(mc, axis, q), (q, axis)


def test_box_is_derived_from_the_points(rng):
    """The bounding box and the lines of Čech lattices (one per degree class
    of two committed jobs, one with a quotient that empties entries), of
    tensor products with zero-dimension gaps, of face halves and cube
    extensions of random lattices, and of both Koszul halves of one-point
    lattices, whose complement half is empty at points with no positive
    coordinate."""
    for name in ("two_ideals", "mixed_quotient"):
        problem, _tasks, _pages = load_job(str(JOBS / f"{name}.json"))
        for pat, members in degree_classes(problem):
            assert_box_and_lines(cech_multicomplex(problem, pat))
    gap = CochainComplex(F, {-1: 2, 1: 1, 2: 1}, {1: columns(F, [[1]])})  # nothing at 0
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    for factors in ([gap], [gap, seg], [seg, gap, gap]):
        assert_box_and_lines(tensor_product(factors))
    assert (0,) not in tensor_product([gap]).dims
    assert tensor_product([gap, seg]).box == ((-1, 0), (2, 1))
    for _ in range(8):
        mc = rand_tensor_mc(F, rng)
        for lattice in (mc, koszul_split(mc), cube_extension(mc)):
            assert_box_and_lines(lattice)
    empty = Multicomplex(F, 3, {}, {})
    assert empty.box == ((0, 0, 0), (-1, -1, -1))
    assert line_complex(empty, 1, (0, 0, 0)).dims == {}
    for signs in itertools.product((-1, 0, 1), repeat=2):
        point = Multicomplex(F, 2, {signs: 2}, {})
        halves = [koszul_half(point, kind) for kind in ("complement", "face")]
        assert bool(halves[0].dims) == any(x > 0 for x in signs)
        complement_h, (face, _h) = _split_columns(F, signs, 2)
        for half in halves:
            assert_box_and_lines(half)
        cols = [line_complex(half, 0, (0,) + signs) for half in halves]
        assert complement_h == cols[0].cohomology_dims() and face == cols[1]


def test_composite_along():
    mc = unit_square()
    assert dense(F, composite_along(mc, (0, 1)), 1).tolist() == [[1]]
    assert dense(F, composite_along(mc, (1, 0)), 1).tolist() == [[1]]
    assert dense(F, composite_along(mc, ()), 1).tolist() == [[1]]


def test_augment_interior_unit_square():
    mc = unit_square()
    cube_total = totalize(cube_extension(mc))
    plus = augment_interior(cube_total, (0, 1))
    assert plus.dims == {1: 1, 2: 1}
    assert dense(F, plus.matrix(1), 1).tolist() == [[1]]
    assert plus.blocks[1] == (((-1, 1, 1), 1),)
    assert plus.cohomology_dims() == {}
    assert plus == glue_origin(mc, (0, 1), lift(restrict(totalize(mc), all)))
    with pytest.raises(InputError, match="nonempty axis subset"):
        augment_interior(cube_total, ())
    with pytest.raises(ContractError, match=r"bad axis subset \(0, 0\) for n=2"):
        augment_interior(cube_total, (0, 0))
    with pytest.raises(ContractError, match=r"bad axis subset \(0, 7\) for n=2"):
        augment_interior(cube_total, (0, 7))


def test_augment_interior_single_axis():
    seg = CochainComplex(F, {0: 1, 1: 1}, {0: columns(F, [[1]])})
    mc = tensor_product([seg])
    plus = augment_interior(totalize(cube_extension(mc)), (0,))
    assert plus.dims == {0: 1, 1: 1}
    assert plus.cohomology_dims() == {}
    # an empty lattice has no block to read the arity from, and no region
    empty = totalize(cube_extension(Multicomplex(F, 2, {}, {})))
    assert augment_interior(empty, (0, 1)).dims == {}


def test_augment_interior_checks_the_glued_composite():
    """On the line k -> k -> k, augmenting along its axis glues the origin
    onto the points 1 and 2 by the first map; when the second map is 1, not
    0, d o d is nonzero at the glued degree and the result is refused."""
    for second, ok in ((0, True), (1, False)):
        mc = Multicomplex(F, 1, {(0,): 1, (1,): 1, (2,): 1},
                          {((0,), 0): columns(F, [[1]]), ((1,), 0): columns(F, [[second]])})
        tot = totalize(cube_extension(mc))
        if ok:
            assert augment_interior(tot, (0,)).dims == {0: 1, 1: 1, 2: 1}
        else:
            with pytest.raises(InternalCheckError, match="does not land in the kernel"):
                augment_interior(tot, (0,))


def test_cube_extension_shape_and_cohomology(rng):
    mc = unit_square()
    cube = cube_extension(mc)
    assert cube.n == 3
    assert validate(cube) == []
    assert cube.entry_dim((-1, 0, 0)) == 1 and cube.entry_dim((-1, 1, 1)) == 1
    assert cube.entry_dim((0, 1, 1)) == 1
    # the cube layer is acyclic, so total cohomology is unchanged
    for _ in range(10):
        m = rand_tensor_mc(F, rng, coin=False)
        tot = totalize(cube_extension(m))
        tot.check_complex()
        assert tot.cohomology_dims() == totalize(m).cohomology_dims()


def test_koszul_split_partitions_the_scaffold(rng):
    import math

    for _ in range(8):
        mc = rand_tensor_mc(F, rng)
        face, complement = koszul_split(mc), koszul_half(mc, "complement")
        n = mc.n
        for part in (complement, face):
            assert part.n == n + 1
            assert validate(part) == []
        for q, dq in mc.dims.items():
            for p in range(n + 1):
                point = (p,) + q
                total = complement.entry_dim(point) + face.entry_dim(point)
                assert total == dq * math.comb(n, p)


def test_koszul_split_blocks_are_lexicographic():
    """The face half sums the wedge slots of an entry in lexicographic
    order: over the origin of the unit square, slot (0,) comes first, and
    the Koszul map into slot (0, 1) is -1 on it and +1 on slot (1,)."""
    mc = unit_square()
    face = koszul_split(mc)
    assert face_slots((1, 0, 0)) == [(0,), (1,)]
    assert face.entry_dim((1, 0, 0)) == 2
    assert face.diffs[(1, 0, 0), 0] == [{0: F.normalize(-1)}, {0: 1}]
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
    zero = {0: columns(F, zeros(F, 2, 2)), 1: columns(F, zeros(F, 1, 1))}
    out = cohomology_map(cx, cx, zero, check=False)
    assert dense(F, out[0], 1).tolist() == [[0]]


def test_cohomology_reps_shapes():
    cx = CochainComplex(F, {0: 2, 1: 1}, {0: columns(F, [[1, 0]])})
    reps, ker, im = cohomology_reps(cx, 0)  # reps: sparse {row: value} columns
    assert len(reps) == 1 and ker.dim == 1 and im.dim == 0
    assert reps == [{1: 1}]
    assert cx.cohomology_dims() == {0: 1}

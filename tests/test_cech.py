"""Čech complexes, the independent dimension oracle, and the audits tying
the lattice route to the product-sequence route."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from cechmv import (
    CechProblem,
    InputError,
    MonomialIdeal,
    OracleCache,
    PrimeField,
    RationalField,
    annihilation_report,
    cech_complex,
    cech_multicomplex,
    compute,
    default_window,
    degree_classes,
    piece_pattern,
    puncture,
    totalize,
    validate,
)
from cechmv import cech
from cechmv.jsonout import plain

F = PrimeField(65537)
X = (1, 0)
Y = (0, 1)
NOJ2 = MonomialIdeal.zero(2)


def oracle_table(seq, quotient, window, mode="full"):
    """Window table of the Čech complex on ``seq``, read through the oracle
    cache as the concatenation of a single group."""
    prob = CechProblem(F, len(window[0]), (tuple(seq),), quotient, window)
    return OracleCache(prob).table("concat", (0,), mode)


def problem(groups, quotient="0", num_vars=2, window=None, field=F):
    gs = [[g] if isinstance(g, str) else list(g) for g in groups]
    quo = [] if quotient == "0" else list(quotient)
    return CechProblem.from_text(field, num_vars, gs, quo, window=window)


def test_problem_validation():
    with pytest.raises(InputError, match="at least one generator group"):
        CechProblem(F, 2, (), NOJ2, ((-1, -1), (1, 1)))
    with pytest.raises(InputError, match="group 1 is empty"):
        CechProblem(F, 2, ((),), NOJ2, ((-1, -1), (1, 1)))
    with pytest.raises(InputError, match="window arity"):
        CechProblem(F, 2, ((X,),), NOJ2, ((-1,), (1,)))
    with pytest.raises(InputError, match="lo > hi"):
        CechProblem(F, 2, ((X,),), NOJ2, ((1, 1), (-1, -1)))
    with pytest.raises(InputError, match="wrong variable count"):
        CechProblem(F, 2, ((X,),), MonomialIdeal.zero(3), ((-1, -1), (1, 1)))


def test_default_window_tracks_largest_exponent():
    prob = CechProblem.from_text(F, 2, [["x1^2"], ["x2"]], ["x2^3"])
    assert prob.window == ((-3, -4), (3, 4))
    assert prob.in_window((0, -4)) and not prob.in_window((4, 0))


def test_degrees_and_classes():
    prob = problem(["x1", "x2"], window=((-3, -3), (3, 3)))
    assert len(prob.degrees()) == 49
    classes = degree_classes(prob)
    assert [len(m) for _, m in classes] == [9, 12, 12, 16]
    # all-negative degrees share one pattern
    pat = piece_pattern(prob, (-1, -1))
    members = dict((tuple(p), m) for p, m in classes)[pat]
    assert (-3, -2) in members and (-1, -1) in members and len(members) == 9


def walk_classes(prob):
    """Reference for ``degree_classes``: every window degree grouped by its
    own piece pattern, classes in order of first member."""
    classes = {}
    for b in prob.degrees():
        classes.setdefault(piece_pattern(prob, b), []).append(b)
    return list(classes.items())


WINDOW_SHAPES = ("around_zero", "negative", "positive", "no_zero", "single", "mixed")


def chamber_problem(rng, m, shape):
    """A quotient with 1-4 generators of exponents 0..3 (the unit ideal
    included) and a window of the given shape in m variables; a "no_zero"
    window is negative in some coordinates and positive in the others."""
    gens = tuple(tuple(int(x) for x in rng.integers(0, 4, size=m))
                 for _ in range(int(rng.integers(1, 5))))
    w = 3 if m <= 3 else 2
    lo, hi = [], []
    for _ in range(m):
        kind = shape
        if shape == "no_zero":
            kind = ("negative", "positive")[int(rng.integers(0, 2))]
        if kind == "around_zero":
            a, z = -int(rng.integers(1, w + 1)), int(rng.integers(0, w + 1))
        elif kind == "negative":
            z = -int(rng.integers(1, 3))
            a = z - int(rng.integers(0, w))
        elif kind == "positive":
            a = int(rng.integers(1, 3))
            z = a + int(rng.integers(0, w + 1))
        elif kind == "single":
            a = z = int(rng.integers(-3, 5))
        else:
            a = int(rng.integers(-4, 4))
            z = a + int(rng.integers(0, w + 1))
        lo.append(a)
        hi.append(z)
    return CechProblem(F, m, (((1,) * m,),), MonomialIdeal(m, gens), (tuple(lo), tuple(hi)))


def test_chamber_classes_match_the_degree_walk():
    rng = np.random.default_rng(20261018)
    for case in range(300):
        m = 1 + case % 5
        prob = chamber_problem(rng, m, WINDOW_SHAPES[case // 5 % len(WINDOW_SHAPES)])
        assert degree_classes(prob) == walk_classes(prob), (prob.quotient.gens, prob.window)


def test_classification_evaluates_one_pattern_per_chamber(monkeypatch):
    # the wide-window benchmark problem: default window [-3, 3]^2 x [-2, 2]^4
    prob = CechProblem.from_text(F, 6, [["x1^2", "x2*x3"], ["x4*x5", "x6"]], ["x1^2*x2^2"])
    original = cech.piece_pattern
    calls = []

    def counted(problem, b):
        calls.append(b)
        return original(problem, b)

    monkeypatch.setattr(cech, "piece_pattern", counted)
    classes = degree_classes(prob)
    assert sum(len(members) for _, members in classes) == 30625 and len(classes) == 81
    # thresholds {0, 2} cut x1 and x2 into 3 intervals, {0} cuts the others
    # into 2: 3 * 3 * 2**4 chambers
    assert len(calls) <= 144
    assert all(prob.in_window(b) for b in calls)


def test_cech_complex_hand_values():
    J1 = MonomialIdeal.zero(1)
    cx = cech_complex(F, ((1,),), J1, (-1,))
    assert cx.dims == {1: 1}
    assert cx.cohomology_dims() == {1: 1}
    cx0 = cech_complex(F, ((1,),), J1, (0,))
    assert cx0.dims == {0: 1, 1: 1}
    assert cx0.matrix(0).tolist() == [[1]]
    assert cx0.cohomology_dims() == {}
    two = cech_complex(F, (X, Y), NOJ2, (-1, -1))
    assert two.dims == {2: 1}
    assert two.cohomology_dims() == {2: 1}
    assert two.blocks[2] == (((0, 1), 1),)
    with pytest.raises(InputError, match="empty generator sequence"):
        cech_complex(F, (), NOJ2, (0, 0))


def test_cech_complex_truncated():
    J1 = MonomialIdeal.zero(1)
    t = cech_complex(F, ((1,),), J1, (2,), truncated=True)
    assert t.dims == {1: 1}
    assert t.cohomology_dims() == {1: 1}
    full = cech_complex(F, ((1,),), J1, (2,))
    assert full.cohomology_dims() == {}


def test_cech_complex_signs_give_square_zero(rng):
    J3 = MonomialIdeal(3, ((0, 1, 2),))
    seq = ((1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1))
    for _ in range(10):
        b = tuple(int(x) for x in rng.integers(-2, 3, size=3))
        cx = cech_complex(F, seq, J3, b)
        cx.check_complex()


def test_oracle_matches_engine_route(rng):
    # the dual routes: inline oracle matrices vs the assembled complex
    seqs = [
        (X,),
        (X, Y),
        ((1, 1),),
        (X, Y, (1, 1)),
        ((2, 0), (1, 1), (0, 2)),
    ]
    for J in (NOJ2, MonomialIdeal(2, ((2, 1),)), MonomialIdeal(2, (X,))):
        for seq in seqs:
            cache = OracleCache(CechProblem(F, 2, (seq,), J, ((-3, -3), (3, 3))))
            for _ in range(8):
                b = tuple(int(x) for x in rng.integers(-3, 4, size=2))
                for mode, truncated in (("full", False), ("truncated", True)):
                    raw = {t: cache.raw("concat", (0,), mode, t, b) for t in range(len(seq) + 1)}
                    want = {t: h for t, h in raw.items() if h}
                    got = cech_complex(F, seq, J, b, truncated=truncated).cohomology_dims()
                    assert got == want, (seq, J.gens, b, mode)


def test_oracle_table_single_ideal():
    J1 = MonomialIdeal.zero(1)
    table = oracle_table(((1,),), J1, ((-2,), (2,)))
    assert table.convention == "h"
    for b in range(-2, 3):
        assert table.get(1, (b,)) == (1 if b < 0 else 0)
        assert table.get(0, (b,)) == 0
    csv = table.to_csv()
    assert csv.splitlines()[0] == "i,b1,dim"
    assert len(csv.splitlines()) == 1 + 2 * 5
    body = plain(table.to_json())
    assert {"i": 1, "b": [-2], "dim": 1} in body["entries"]


def test_oracle_table_two_variables():
    # concatenated (x, y): top cohomology exactly on the negative quadrant
    table = oracle_table((X, Y), NOJ2, ((-2, -2), (2, 2)))
    for b1 in range(-2, 3):
        for b2 in range(-2, 3):
            want = 1 if b1 < 0 and b2 < 0 else 0
            assert table.get(2, (b1, b2)) == want
            assert table.get(0, (b1, b2)) == 0
            assert table.get(1, (b1, b2)) == 0
    # single product generator (xy): cohomology in slot 1 off the positive quadrant
    t2 = oracle_table(((1, 1),), NOJ2, ((-2, -2), (2, 2)))
    for b1 in range(-2, 3):
        for b2 in range(-2, 3):
            want = 0 if (b1 >= 0 and b2 >= 0) else 1
            assert t2.get(1, (b1, b2)) == want


def test_oracle_table_with_quotient():
    # M = k[x2]: only the x2 direction survives, cohomology on the b1 = 0 line
    J = MonomialIdeal(2, (X,))
    table = oracle_table((X, Y), J, ((-2, -2), (2, 2)))
    for b1 in range(-2, 3):
        for b2 in range(-2, 3):
            want = 1 if b1 == 0 and b2 < 0 else 0
            assert table.get(1, (b1, b2)) == want, (b1, b2)
            assert table.get(2, (b1, b2)) == 0
    # M = k: everything reduces to the origin in slot 0
    J0 = MonomialIdeal(2, (X, Y))
    t0 = oracle_table((X, Y), J0, ((-2, -2), (2, 2)))
    assert dict(t0.dims) == {(0, (0, 0)): 1}


def test_oracle_truncated_convention():
    table = oracle_table(((1,),), MonomialIdeal.zero(1), ((-2,), (2,)), mode="truncated")
    assert table.convention == "hcheck"
    # index 0 is raw slot 1: the whole localization
    for b in range(-2, 3):
        assert table.get(0, (b,)) == 1


def test_cech_multicomplex_shapes():
    prob = problem(["x1", "x2"], window=((-3, -3), (3, 3)))
    mc = cech_multicomplex(prob, (-1, -1))
    assert mc.dims == {(1, 1): 1}
    assert validate(mc) == []
    full = cech_multicomplex(prob, (0, 0))
    assert full.dims == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert full.point_blocks[(1, 1)] == ((((0,), (0,)), 1),)
    assert totalize(full, check=True).cohomology_dims() == {}
    punct = puncture(cech_multicomplex(prob, (0, 0)))
    assert (0, 0) not in punct.dims
    with pytest.raises(InputError, match="outside the window"):
        cech_multicomplex(prob, (9, 9))


def test_cech_multicomplex_two_generator_group(rng):
    prob = problem([["x1", "x2"], ["x1^2"]], window=((-2, -2), (2, 2)))
    for _ in range(6):
        b = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        mc = cech_multicomplex(prob, b)
        assert validate(mc) == []
        totalize(mc, check=True)


def test_oracle_cache_raw_and_tables():
    prob = problem(["x1", "x2"], window=((-3, -3), (3, 3)))
    cache = OracleCache(prob)
    assert cache.seq("concat", (0, 1)) == (X, Y)
    assert cache.seq("product", (0, 1)) == ((1, 1),)
    assert cache.raw("product", (0, 1), "full", 1, (-1, -1)) == 1
    assert cache.raw("product", (0, 1), "full", 1, (0, 0)) == 0
    assert cache.raw("concat", (0, 1), "full", 2, (-2, -3)) == 1
    assert cache.raw("concat", (0, 1), "truncated", 0, (0, 0)) == 0
    # empty subset: only the module itself in slot 0
    assert cache.raw("concat", (), "full", 0, (1, 1)) == 1
    assert cache.raw("concat", (), "full", 0, (-1, 0)) == 0
    assert cache.raw("concat", (), "truncated", 0, (1, 1)) == 0
    table = cache.table("concat", (0, 1), "full")
    assert table.get(2, (-1, -1)) == 1
    with pytest.raises(InputError, match="unknown sequence kind"):
        cache.seq("weird", (0,))


def verify34(prob) -> dict:
    """The verify34 payload of a whole-window run."""
    report, _files = compute(prob, ["verify34"])
    return plain(report["results"]["verify34"])


def test_verify_product_vs_interior_passes():
    for prob in (
        problem(["x1", "x2"], window=((-3, -3), (3, 3))),
        problem([["x1*x2", "x2^2"], ["x1"]], window=((-2, -2), (2, 2))),
        problem(["x1", "x2"], quotient=["x1^2*x2"], window=((-2, -2), (2, 2))),
        problem([["x1"]], num_vars=1, window=((-2,), (2,))),
    ):
        rep = verify34(prob)
        assert rep["pass"], rep["mismatches"][:4]
        assert rep["degrees_checked"] == len(prob.degrees())


def test_verify_three_groups_three_vars():
    prob = CechProblem.from_text(
        F, 3, [["x1*x2"], ["x2*x3"], ["x1*x3"]], [], window=((-2, -2, -2), (2, 2, 2))
    )
    rep = verify34(prob)
    assert rep["pass"] and rep["degrees_checked"] == 125


def test_verify_rational_field():
    prob = CechProblem.from_text(RationalField(), 2, [["x1"], ["x2"]], [],
                                 window=((-2, -2), (2, 2)))
    assert verify34(prob)["pass"]


def test_annihilation_hand_case():
    prob = problem([["x1"]], num_vars=1, window=((-2,), (2,)))
    rep = annihilation_report(prob, 3)
    assert rep["pass"] and rep["pairs"] == 2
    by_degree = {tuple(r["degree"]): r for r in rep["rows"]}
    assert by_degree[(-2,)]["annihilated_at"] == [2]
    assert by_degree[(-1,)]["annihilated_at"] == [1]
    assert by_degree[(-1,)]["slot"] == 1 and by_degree[(-1,)]["generator"] == "x1"


def test_annihilation_window_exhaustion_is_inconclusive():
    prob = problem([["x1"]], num_vars=1, window=((-3,), (-1,)))
    rep = annihilation_report(prob, 3)
    assert not rep["pass"]
    assert len(rep["inconclusive"]) == 3
    assert all(r["window_exhausted"] for r in rep["inconclusive"])


def test_annihilation_input_errors():
    prob = problem([["x1"]], num_vars=1, window=((-2,), (2,)))
    with pytest.raises(InputError, match="at least 1"):
        annihilation_report(prob, 0)
    tight = problem([["x1^2"]], num_vars=1, window=((0,), (1,)))
    with pytest.raises(InputError, match="window too small"):
        annihilation_report(tight, 2)


def test_annihilation_two_groups():
    prob = problem(["x1", "x2"], window=((-2, -2), (2, 2)))
    rep = annihilation_report(prob, 4)
    # edge classes leave the window before vanishing; that is inconclusive,
    # never a failure
    assert all(r["window_exhausted"] for r in rep["inconclusive"])
    by_degree = {tuple(r["degree"]): r for r in rep["rows"]}
    assert by_degree[(-1, -1)]["annihilated_at"] == [1]
    assert by_degree[(-2, -2)]["annihilated_at"] == [2]
    assert by_degree[(-2, -1)]["annihilated_at"] == [2]


# Product and concat sequences with at least two minimal supports, and with
# non-squarefree generators, repeated supports, quotients and a unit
# generator.  Each (kind, group subset) of a problem is one sequence.
REDUCTION_PROBLEMS = [
    # concat 6 terms (3 minimal supports), product 9 terms (2)
    (3, [["x1", "x2^2", "x1*x3"], ["x2*x3", "x3", "x1^2"]], [],
     ((-1, -1, -1), (1, 1, 1))),
    # a unit generator, a quotient; product 8 terms (2), concat 6 terms (1)
    (3, [["1", "x1*x2"], ["x2", "x3"], ["x1", "x3^2"]], ["x1*x2^2"],
     ((-1, -1, -1), (2, 2, 1))),
    # product 12 terms (2 minimal supports), concat 7 terms (3), a quotient
    (3, [["x1", "x2", "x3"], ["x1*x2", "x2^2*x3", "x3", "x1"]], ["x1^2*x3"],
     ((-1, -1, -1), (2, 1, 1))),
    # 4 variables: concat 12 terms (4 minimal supports), pair concats of 8
    (4, [["x1", "x2*x3", "x4^2", "x1*x2"], ["x3", "x1^2", "x2*x4", "x3*x4"],
         ["x4", "x1*x3", "x2", "x2^2"]], [], ((-1, -1, 0, 0), (0, 0, 0, 0))),
]


def _minimal_supports(seq):
    masks = {cech.support_mask(g) for g in seq}
    return {m for m in masks if not any(o != m and o & m == o for o in masks)}


def _reference_raw(vectors, mode, t):
    """raw slot-t cohomology read off the unreduced (dims, ranks)."""
    dims, ranks = vectors
    length = len(dims) - 1
    if t < 0 or t > length or (mode == "truncated" and t == 0):
        return 0
    up = ranks[t] if t < length else 0
    down = ranks[t - 1] if t >= (2 if mode == "truncated" else 1) else 0
    return dims[t] - up - down


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), F, RationalField()],
                         ids=["F2", "F3", "F65537", "Q"])
def test_oracle_equals_unreduced_reference(field):
    # the unreduced Čech complex on the whole sequence is the reference;
    # Fraction elimination is slow, so Q takes sequences of at most 8 terms
    max_len = 8 if isinstance(field, RationalField) else 12
    swept = 0
    for num_vars, groups, quotient, window in REDUCTION_PROBLEMS:
        prob = problem(groups, quotient=quotient or "0", num_vars=num_vars, window=window,
                       field=field)
        cache = OracleCache(prob)
        subsets = [s for p in range(1, prob.n + 1)
                   for s in itertools.combinations(range(prob.n), p)]
        reference = {}
        for _pat, members in degree_classes(prob):
            b = members[0]
            for kind in ("concat", "product"):
                for s in subsets:
                    seq = cache.seq(kind, s)
                    if len(seq) > max_len:
                        continue
                    key = (seq, piece_pattern(prob, b))
                    if key not in reference:
                        reference[key] = cech._oracle_vectors(field, seq, prob.quotient, b)
                    swept += len(_minimal_supports(seq)) >= 2
                    for mode in ("full", "truncated"):
                        for t in range(len(seq) + 2):
                            want = _reference_raw(reference[key], mode, t)
                            got = cache.raw(kind, s, mode, t, b)
                            assert got == want, (groups, kind, s, mode, t, b)
    assert swept > 0


def test_oracle_ranks_one_squarefree_monomial_per_minimal_support():
    for num_vars, groups, quotient, window in REDUCTION_PROBLEMS:
        prob = problem(groups, quotient=quotient or "0", num_vars=num_vars, window=window)
        cache = OracleCache(prob)
        b = window[1]
        for kind in ("concat", "product"):
            for p in range(1, prob.n + 1):
                for s in itertools.combinations(range(prob.n), p):
                    seq = cache.seq(kind, s)
                    red = cache.reduced(seq)
                    assert list(red) == sorted(set(red))
                    assert all(e in (0, 1) for g in red for e in g)
                    assert {cech.support_mask(g) for g in red} == _minimal_supports(seq)
                    dims, ranks = cache.vectors(seq, b)
                    assert len(dims) == len(red) + 1 and len(ranks) == len(red)
    # sequences that reduce alike share their vectors; the unit's support is
    # empty, so it is the one minimal support of any sequence holding it
    cache = OracleCache(problem([["x1*x2", "x1", "x2^3"], ["x2", "x1^2"]]))
    assert cache.reduced(cache.seq("concat", (0,))) == ((0, 1), (1, 0))
    assert cache.vectors(cache.seq("concat", (0,)), (0, 0)) is cache.vectors(
        cache.seq("product", (0, 1)), (1, 1))
    unit = OracleCache(problem([["x1", "1", "x2^2"]]))
    assert unit.reduced(unit.seq("concat", (0,))) == ((0, 0),)


def test_annihilation_builds_one_fiber_per_degree_class(monkeypatch):
    calls = []
    build = cech.cech_multicomplex
    monkeypatch.setattr(cech, "cech_multicomplex", lambda *a: calls.append(a) or build(*a))
    prob = problem(["x1", "x2"])
    rep = annihilation_report(prob, 2)
    assert len(calls) == len(degree_classes(prob)) == 4  # not one per degree (25)
    # sha256 of the report as written before fibers were shared per class
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "6d7e9bae5b52ce7b9bce3ce1dac35ad4911946a64d54c179f10525cdffeacf0e"

"""The four filtration variants, their oracle audits, the two-group long
exact sequence, and the three-group limit filtration formulas."""

import pytest

from cechmv import (
    CechProblem,
    InputError,
    MonomialIdeal,
    OracleCache,
    PrimeField,
    RationalField,
    VARIANTS,
    cech_multicomplex,
    degree_classes,
    infinity_filtration_report,
    mv_les,
    run_all_variants,
    run_variant,
)
from cechmv.mvss import _assemble

F = PrimeField(65537)


def problem(groups, quotient=(), num_vars=2, window=2, field=F):
    gs = [[g] if isinstance(g, str) else list(g) for g in groups]
    w = ((-window,) * num_vars, (window,) * num_vars)
    return CechProblem.from_text(field, num_vars, gs, list(quotient), window=w)


def test_unknown_variant_rejected():
    with pytest.raises(InputError, match="unknown variant"):
        run_variant(problem(["x1", "x2"]), "3c")


def random_problem(rng):
    """Up to 3 variables, up to 3 groups of up to 2 monomials, a quotient with
    up to 2 generators, window [-2, 2]^m."""
    m = int(rng.integers(1, 4))

    def monomial():
        g = tuple(int(x) for x in rng.integers(0, 3, size=m))
        return g if any(g) else (1,) + (0,) * (m - 1)

    groups = tuple(
        tuple(sorted({monomial() for _ in range(int(rng.integers(1, 3)))}))
        for _ in range(int(rng.integers(1, 4)))
    )
    quotient = tuple(sorted({monomial() for _ in range(int(rng.integers(0, 3)))}))
    return CechProblem(F, m, groups, MonomialIdeal(m, quotient), ((-2,) * m, (2,) * m))


def test_production_filtrations_are_subcomplexes(rng):
    """Every variant's filtration gives each coordinate one level and d lowers
    no level, on every degree class of random problems."""
    assembled = set()
    for _ in range(12):
        prob = random_problem(rng)
        for _pat, members in degree_classes(prob):
            mc = cech_multicomplex(prob, members[0])
            for variant in VARIANTS:
                fc = _assemble(variant, mc)
                assert {d: len(lv) for d, lv in fc.levels.items()} == fc.total.dims
                fc.validate()
                if fc.total.dims:
                    assembled.add(variant)
    assert assembled == set(VARIANTS)


def test_two_coordinate_ideals_all_variants():
    prob = problem(["x1", "x2"])
    cache = OracleCache(prob)
    runs = run_all_variants(prob, cache)
    assert set(runs) == set(VARIANTS)
    for v, run in runs.items():
        assert run.ok, (v, run.failures[:3])
        assert all(c.stabilized_at is not None and c.stabilized_at <= c.width for c in run.classes)


def test_first_page_cells_frozen_case():
    prob = problem(["x1", "x2"])
    cache = OracleCache(prob)
    r1a = run_variant(prob, "1a", cache)
    cls = next(c for c in r1a.classes if (-1, -1) in c.members)
    assert cls.pages[1].cells == {(0, 2): 1}
    assert cls.stabilized_at == 1
    assert cls.einf_dims == {(0, 2): 1}
    assert cls.h_dims == {2: 1}
    r2a = run_variant(prob, "2a", cache)
    cls2 = next(c for c in r2a.classes if (-1, -1) in c.members)
    assert cls2.pages[1].cells == {(2, 0): 1}
    assert cls2.h_dims == {2: 1}


def test_degree_report_shape():
    prob = problem(["x1", "x2"], window=1)
    run = run_variant(prob, "1b", pages_r=2)
    report = run.degree_report()
    assert len(report) == 9
    entry = report[0]
    assert entry["variant"] == "1b"
    assert entry["e1_check"]["pass"] and entry["abutment_check"]["pass"]
    rs = [pg["r"] for pg in entry["pages"]]
    assert rs == sorted(rs) and rs[0] == 0
    assert "pass" in run.summary_text()


def test_multi_generator_groups_all_variants():
    prob = problem([["x1*x2", "x2^2"], ["x1"]])
    runs = run_all_variants(prob)
    for v, run in runs.items():
        assert run.ok, (v, run.failures[:3])


def test_quotient_module_all_variants():
    prob = problem(["x1", "x2"], quotient=("x1^2*x2",))
    runs = run_all_variants(prob)
    for v, run in runs.items():
        assert run.ok, (v, run.failures[:3])


def test_trivial_module_cube_cells():
    # M = k: the cube layer carries the whole first page, at engine q = -1
    prob = problem(["x1", "x2"], quotient=("x1", "x2"), window=1)
    runs = run_all_variants(prob)
    for v, run in runs.items():
        assert run.ok, (v, run.failures[:3])
    cls = next(c for c in runs["2a"].classes if (0, 0) in c.members)
    assert cls.pages[1].cells == {(1, -1): 2, (2, -1): 1}
    assert cls.h_dims == {0: 1}


def test_rational_field_variant():
    prob = problem(["x1", "x2"], window=1, field=RationalField())
    run = run_variant(prob, "2b")
    assert run.ok


def test_three_groups_three_vars_all_variants():
    prob = problem([["x1"], ["x2"], ["x3"]], num_vars=3, window=1)
    cache = OracleCache(prob)
    runs = run_all_variants(prob, cache)
    for v, run in runs.items():
        assert run.ok, (v, run.failures[:3])
        for c in run.classes:
            assert c.stabilized_at is not None and c.stabilized_at <= 3


def test_les_two_groups():
    prob = problem(["x1", "x2"])
    rep = mv_les(prob)
    assert rep["pass"], rep["failures"][:2]
    entry = next(e for e in rep["degrees"] if e["degree"] == [-1, -1])
    # the sequence collapses to 0 -> H^1(product) -> H^2(sum) -> 0
    assert {i: v for i, v in entry["dims"]["product"].items() if v} == {1: 1}
    assert {i: v for i, v in entry["dims"]["sum"].items() if v} == {2: 1}
    assert entry["dims"]["middle"] == {i: 0 for i in entry["dims"]["middle"]}
    assert entry["ranks"]["delta"][1] == 1
    assert all(j["ok"] for j in entry["joints"])


def test_les_same_ideal_twice():
    prob = problem([["x1"], ["x1"]], num_vars=1)
    rep = mv_les(prob)
    assert rep["pass"]
    entry = next(e for e in rep["degrees"] if e["degree"] == [-1])
    assert entry["ranks"]["alpha"][1] == 1
    assert entry["ranks"]["beta"][1] == 1
    assert entry["ranks"]["delta"][1] == 0


def test_les_needs_two_groups():
    with pytest.raises(InputError, match="two groups"):
        mv_les(problem([["x1"]], num_vars=1))
    with pytest.raises(InputError, match="two groups"):
        mv_les(problem([["x1"], ["x2"], ["x3"]], num_vars=3, window=1))


def test_infinity_filtration_three_groups():
    prob = problem([["x1"], ["x2"], ["x3"]], num_vars=3, window=1)
    cache = OracleCache(prob)
    run = run_variant(prob, "1a", cache)
    rep = infinity_filtration_report(run, cache)
    assert rep["pass"], rep["failures"][:2]
    entry = next(e for e in rep["degrees"] if e["degree"] == [-1, -1, -1])
    row = next(r for r in entry["rows"] if r["total_degree"] == 3)
    assert row["abutment_index"] == 1
    assert row["pieces"]["top"] == [1, 1]
    assert row["pieces"]["middle"] == [0, 0]
    assert row["pieces"]["bottom"] == [0, 0]
    assert row["oracle"] == 1


def test_infinity_filtration_with_overlapping_supports():
    prob = CechProblem.from_text(
        F, 3, [["x1*x2"], ["x2*x3"], ["x1*x3"]], [], window=((-1,) * 3, (1,) * 3)
    )
    cache = OracleCache(prob)
    run = run_variant(prob, "1a", cache)
    assert run.ok
    rep = infinity_filtration_report(run, cache)
    assert rep["pass"], rep["failures"][:2]


def test_infinity_filtration_requires_three_group_1a():
    prob2 = problem(["x1", "x2"], window=1)
    with pytest.raises(InputError, match="three-group 1a"):
        infinity_filtration_report(run_variant(prob2, "1a"))
    prob3 = problem([["x1"], ["x2"], ["x3"]], num_vars=3, window=1)
    with pytest.raises(InputError, match="three-group 1a"):
        infinity_filtration_report(run_variant(prob3, "2a"))

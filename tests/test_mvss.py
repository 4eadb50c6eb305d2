"""The four filtration variants, their oracle audits, the two-group long
exact sequence, and the three-group limit filtration formulas."""

import json

import pytest

from cechmv import (
    CechProblem,
    InputError,
    MonomialIdeal,
    PrimeField,
    RationalField,
    VARIANTS,
    cech_multicomplex,
    compute,
    degree_classes,
)
from cechmv.cli import DegreeClass, run_unit
from cechmv.jsonout import plain
from cechmv.mvss import FILTRATION
from cechmv.spectral import LatticeSequences
from conftest import class_of, window_runs

F = PrimeField(65537)


def problem(groups, quotient=(), num_vars=2, window=2, field=F):
    gs = [[g] if isinstance(g, str) else list(g) for g in groups]
    w = ((-window,) * num_vars, (window,) * num_vars)
    return CechProblem.from_text(field, num_vars, gs, list(quotient), window=w)


def mvss_results(prob, variants=VARIANTS) -> dict[str, dict]:
    """The ``mvss:V`` payloads of a whole-window run, by variant."""
    report, _files = compute(prob, [f"mvss:{v}" for v in variants])
    return {v: plain(report["results"][f"mvss:{v}"]) for v in variants}


def test_unknown_variant_rejected():
    prob = problem(["x1", "x2"])
    with pytest.raises(InputError, match="unknown variant"):
        DegreeClass(prob, prob.degrees()[:1]).run("3c", None)


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
            seqs = LatticeSequences(cech_multicomplex(prob, members[0]))
            for variant in VARIANTS:
                fc = seqs.filtered(FILTRATION[variant])
                assert {d: len(lv) for d, lv in fc.levels.items()} == fc.total.dims
                fc.validate()
                if fc.total.dims:
                    assembled.add(variant)
    assert assembled == set(VARIANTS)


def test_two_coordinate_ideals_all_variants():
    prob = problem(["x1", "x2"])
    runs = window_runs(prob)
    assert set(runs) == set(VARIANTS)
    for v, run in runs.items():
        assert run.ok, (v, run.failures[:3])
        assert all(c.stabilized_at is not None and c.stabilized_at <= c.width for c in run.classes)


def test_first_page_cells_frozen_case():
    klass = class_of(problem(["x1", "x2"]), (-1, -1))
    cls = klass.run("1a", None)
    assert cls.pages[1].cells == {(0, 2): 1}
    assert cls.stabilized_at == 1
    assert cls.einf_dims == {(0, 2): 1}
    assert cls.h_dims == {2: 1}
    cls2 = klass.run("2a", None)
    assert cls2.pages[1].cells == {(2, 0): 1}
    assert cls2.h_dims == {2: 1}


def test_degree_report_shape():
    prob = problem(["x1", "x2"], window=1)
    report, files = compute(prob, ["mvss:1b"], pages=2)
    degrees = json.loads(files["pages_1b.json"])["degrees"]
    assert len(degrees) == 9
    entry = degrees[0]
    assert entry["variant"] == "1b"
    assert entry["e1_check"]["pass"] and entry["abutment_check"]["pass"]
    rs = [pg["r"] for pg in entry["pages"]]
    assert rs == sorted(rs) and rs[0] == 0 and rs[-1] <= 2
    assert "pass" in report["results"]["mvss:1b"]["summary"]


def test_multi_generator_groups_all_variants():
    prob = problem([["x1*x2", "x2^2"], ["x1"]])
    for v, res in mvss_results(prob).items():
        assert res["pass"], (v, res["failures"][:3])


def test_quotient_module_all_variants():
    prob = problem(["x1", "x2"], quotient=("x1^2*x2",))
    for v, res in mvss_results(prob).items():
        assert res["pass"], (v, res["failures"][:3])


def test_trivial_module_cube_cells():
    # M = k: the cube layer carries the whole first page, at engine q = -1
    prob = problem(["x1", "x2"], quotient=("x1", "x2"), window=1)
    for v, res in mvss_results(prob).items():
        assert res["pass"], (v, res["failures"][:3])
    cls = class_of(prob, (0, 0)).run("2a", None)
    assert cls.pages[1].cells == {(1, -1): 2, (2, -1): 1}
    assert cls.h_dims == {0: 1}


def test_rational_field_variant():
    prob = problem(["x1", "x2"], window=1, field=RationalField())
    assert mvss_results(prob, ["2b"])["2b"]["pass"]


def test_three_groups_three_vars_all_variants():
    prob = problem([["x1"], ["x2"], ["x3"]], num_vars=3, window=1)
    runs = window_runs(prob)
    for v, run in runs.items():
        assert run.ok, (v, run.failures[:3])
        for c in run.classes:
            assert c.stabilized_at is not None and c.stabilized_at <= 3


def les_results(prob) -> dict:
    """The ``les`` payload of a whole-window run."""
    report, _files = compute(prob, ["les"])
    return plain(report["results"]["les"])


def test_les_two_groups():
    prob = problem(["x1", "x2"])
    rep = les_results(prob)
    assert rep["pass"], rep["failures"][:2]
    entry = run_unit(class_of(prob, (-1, -1)), "les", None)
    # the sequence collapses to 0 -> H^1(product) -> H^2(sum) -> 0
    assert {i: v for i, v in entry["dims"]["product"].items() if v} == {1: 1}
    assert {i: v for i, v in entry["dims"]["sum"].items() if v} == {2: 1}
    assert entry["dims"]["middle"] == {i: 0 for i in entry["dims"]["middle"]}
    assert entry["ranks"]["delta"][1] == 1
    assert all(j["ok"] for j in entry["joints"])


def test_les_same_ideal_twice():
    prob = problem([["x1"], ["x1"]], num_vars=1)
    assert les_results(prob)["pass"]
    entry = run_unit(class_of(prob, (-1,)), "les", None)
    assert entry["ranks"]["alpha"][1] == 1
    assert entry["ranks"]["beta"][1] == 1
    assert entry["ranks"]["delta"][1] == 0


def test_les_needs_two_groups():
    with pytest.raises(InputError, match="two generator groups"):
        compute(problem([["x1"]], num_vars=1), ["les"])
    with pytest.raises(InputError, match="two generator groups"):
        compute(problem([["x1"], ["x2"], ["x3"]], num_vars=3, window=1), ["cohomology", "les"])


def test_infinity_filtration_three_groups():
    prob = problem([["x1"], ["x2"], ["x3"]], num_vars=3, window=1)
    rep = mvss_results(prob, ["1a"])["1a"]["infinity_filtration"]
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
    res = mvss_results(prob, ["1a"])["1a"]
    assert res["failures"] == []
    rep = res["infinity_filtration"]
    assert rep["pass"], rep["failures"][:2]

"""Release gates, one test per gate so pytest -v prints one line for each.

The shared sweep holds 50 deterministic random problems: up to 3 variables,
up to 3 generator groups, up to 2 monomials per group with per-variable
degree at most 2, quotient ideals with up to 2 generators, degree window
[-4,4]^m, coefficients in F_65537.  One oracle cache per problem is reused
by every gate.  The package computes its pages from the persistence pairs
of one column reduction per degree; the sweep also runs the subspace-lattice
reference engine (``reference_spectral``) on every class and variant, which
checks d o d = 0 and the agreement of its two independent next-page
computations on every page, and asserts that both engines give the same
cells, ranks and limit pages, and that the pair counts equal the
inclusion-exclusion of level-block ranks, so any violation fails the run
instead of passing silently.
"""

import json
import time

import numpy as np
import pytest

from cechmv import (
    CechProblem,
    MonomialIdeal,
    OracleCache,
    SpectralSequence,
    cech_multicomplex,
    compute,
    degree_classes,
    koszul_split,
    puncture,
    sign_twist,
    split_column_report,
    totalize,
)
from cechmv.cli import main as cli_main, run_unit
from cechmv.jsonout import plain
from cechmv.multicomplex import puncture_along
from cechmv.mvss import FILTRATION, VARIANTS, _expected_abutment, _expected_e1
from cechmv.spectral import LatticeSequences
from conftest import F, class_of, rand_tensor_mc, window_runs
from reference_spectral import ReferenceSpectralSequence, assert_agrees_with_reference


def random_problem(rng, m, n):
    groups = []
    for _ in range(n):
        grp = set()
        for _ in range(int(rng.integers(1, 3))):
            g = tuple(int(x) for x in rng.integers(0, 3, size=m))
            if not any(g):
                g = tuple([1] + [0] * (m - 1))
            grp.add(g)
        groups.append(tuple(sorted(grp)))
    quo = []
    for _ in range(int(rng.integers(0, 3))):
        g = tuple(int(x) for x in rng.integers(0, 3, size=m))
        if any(g):
            quo.append(g)
    return CechProblem(
        F, m, tuple(groups), MonomialIdeal(m, tuple(quo)), ((-4,) * m, (4,) * m)
    )


@pytest.fixture(scope="session")
def sweep():
    rng = np.random.default_rng(20240823)
    return [random_problem(rng, k % 3 + 1, (k // 3) % 3 + 1) for k in range(50)]


@pytest.fixture(scope="session")
def sweep_results(sweep):
    results = []
    t0 = time.perf_counter()
    for prob in sweep:
        report, _files = compute(prob, ["verify34"])
        results.append({"problem": prob, "cache": OracleCache(prob),
                        "verify": plain(report["results"]["verify34"])})
    elapsed = time.perf_counter() - t0
    for res in results:
        res["runs"] = window_runs(res["problem"])
    return results, elapsed


def test_product_sequence_matches_augmented_interior(sweep_results):
    """Gate 1: across the sweep, every graded piece of the cohomology of the
    augmented interior complex equals the product-sequence table shifted by
    the number of groups minus one, and the verification stays under the
    five-minute budget."""
    results, elapsed = sweep_results
    bad = [mm for res in results for mm in res["verify"]["mismatches"]
           if mm["check"] == "h"]
    assert bad == []
    assert all(res["verify"]["pass"] for res in results)
    degrees = sum(res["verify"]["degrees_checked"] for res in results)
    assert degrees == sum(len(list(res["problem"].degrees())) for res in results)
    assert elapsed < 300.0, f"sweep verification took {elapsed:.1f}s"


def test_truncated_subsets_match_product_sequence(sweep_results):
    """Gate 2: for every subset of groups, the concatenated truncated table
    reproduces the product-sequence table with the subset-size shift."""
    results, _ = sweep_results
    bad = [mm for res in results for mm in res["verify"]["mismatches"]
           if mm["check"] == "truncated"]
    assert bad == []


def test_limit_page_totals_match_abutment(sweep_results):
    """Gate 3: on every variant and degree class, summing the frozen page
    along each antidiagonal reproduces the oracle abutment dimension."""
    results, _ = sweep_results
    for res in results:
        cache = res["cache"]
        for variant, run in res["runs"].items():
            for cls in run.classes:
                assert cls.abutment_mismatches == [], (variant, cls.members[0])
                b0 = cls.members[0]
                totals = set(cls.h_dims) | {p + q for p, q in cls.einf_dims}
                for m in totals:
                    got = sum(d for (p, q), d in cls.einf_dims.items() if p + q == m)
                    want = _expected_abutment(cache, variant, m, b0)
                    assert got == want, (variant, b0, m, got, want)


def test_first_pages_match_cohomology_tables(sweep_results):
    """Gate 4: every first-page column equals the direct sum of oracle table
    entries the variant's indexing prescribes for that column."""
    results, _ = sweep_results
    for res in results:
        cache = res["cache"]
        for variant, run in res["runs"].items():
            for cls in run.classes:
                assert cls.e1_mismatches == [], (variant, cls.members[0])
                e1 = cls.pages[1]
                for (p, q), d in e1.cells.items():
                    want = _expected_e1(cache, variant, p, q, cls.members[0])
                    assert d == want, (variant, cls.members[0], p, q, d, want)


def test_punctured_face_part_is_derived_from_the_one_split(sweep):
    """On every class of the sweep, dropping the line over the lattice origin
    from the face half of the lattice's split gives the face half of the
    punctured lattice's split: the same box, entries, maps and point blocks.
    Variant 1b is built that way."""
    checked = 0
    for prob in sweep:
        for _pat, members in degree_classes(prob):
            mc = cech_multicomplex(prob, members[0])
            got = puncture_along(LatticeSequences(mc).split.face_part, 0)
            want = koszul_split(puncture(mc)).face_part
            assert (got.n, got.box, got.dims) == (want.n, want.box, want.dims)
            assert got.diffs.keys() == want.diffs.keys()
            assert all(np.array_equal(got.diffs[k], want.diffs[k]) for k in want.diffs)
            assert got.point_blocks == want.point_blocks
            checked += bool(want.dims)
    assert checked > 100


def test_kernel_and_cokernel_columns_collapse(sweep):
    """Gate 5: in each scaffold column of every lattice in the sweep, and of
    100 random tensor multicomplexes with up to 4 axes, the kernel part has
    cohomology only in column degree 1 and the quotient part only in 0, both
    of the interior entry's dimension."""
    for prob in sweep:
        for _pat, members in degree_classes(prob):
            mc = cech_multicomplex(prob, members[0])
            assert split_column_report(mc, koszul_split(mc)) == [], (prob.groups, members[0])
    rng = np.random.default_rng(20240824)
    for trial in range(100):
        mc = rand_tensor_mc(F, rng, max_axes=4)
        assert split_column_report(mc, koszul_split(mc)) == [], f"trial {trial}"


def test_two_group_long_exact_sequence():
    """Gate 6: rank bookkeeping of the two-group long exact sequence is exact
    at every joint for 20 random problems, and the hand-checkable case of
    (x1) and (x2) in two variables at degree (-1,-1) reduces to a single
    isomorphism between the two surviving terms."""
    rng = np.random.default_rng(20240825)
    for k in range(20):
        prob = random_problem(rng, k % 3 + 1, 2)
        rep = plain(compute(prob, ["les"])[0]["results"]["les"])
        assert rep["pass"], rep["failures"][:2]
    hand = CechProblem(
        F, 2, (((1, 0),), ((0, 1),)), MonomialIdeal(2, ()), ((-2, -2), (2, 2))
    )
    assert compute(hand, ["les"])[0]["results"]["les"]["pass"]
    entry = run_unit(class_of(hand, (-1, -1)), "les", None)
    assert all(v == 0 for v in entry["dims"]["middle"].values())
    assert {i: v for i, v in entry["dims"]["product"].items() if v} == {1: 1}
    assert {i: v for i, v in entry["dims"]["sum"].items() if v} == {2: 1}
    assert entry["ranks"]["delta"][1] == 1


def test_page_structure_and_stabilization(sweep_results):
    """Gate 7: pages freeze no later than the filtration width, three-group
    runs of variant 1a freeze by page 3, and a fresh engine pass confirms
    that every page-r differential maps r columns right and r-1 rows down
    and that pages past the width carry no further maps.  The reference
    engine's two-path consistency and square-zero checks ran on every page of
    the sweep (``test_engines_agree_on_the_sweep``)."""
    results, _ = sweep_results
    n3_runs = 0
    for res in results:
        for variant, run in res["runs"].items():
            for cls in run.classes:
                assert cls.stabilized_at is not None, (variant, cls.members[0])
                assert cls.stabilized_at <= cls.width, (variant, cls.members[0])
                if variant == "1a" and res["problem"].n == 3:
                    assert cls.stabilized_at <= 3, cls.members[0]
                    n3_runs += 1
    assert n3_runs > 0
    probed = 0
    target = next(r for r in results
                  if r["problem"].n == 3 and r["problem"].num_vars == 2)
    for variant in VARIANTS:
        fc = None
        for cls in target["runs"][variant].classes:
            mc = cech_multicomplex(target["problem"], cls.members[0])
            fc = LatticeSequences(mc).filtered(FILTRATION[variant])
            if fc.total.dims:
                break
        if fc is None or not fc.total.dims:
            continue
        ss = SpectralSequence(fc)
        ref = ReferenceSpectralSequence(fc)
        w = fc.width
        for r in range(w + 2):
            pg = ss.page(r)
            assert set(pg.ranks) == set(pg.cells)
            for (p, q), d in pg.cells.items():
                assert pg.map_rank(p, q) <= min(d, pg.dim(p + r, q - r + 1))
                mat = ref.d_matrix(r, p, q)
                assert mat.shape == (ref.cell_dim(r, p + r, q - r + 1), d)
        late, later = ss.page(w + 1), ss.page(w + 3)
        assert late.cells == later.cells
        assert not any(later.ranks.values())
        probed += 1
    assert probed > 0


def test_engines_agree_on_the_sweep(sweep_results):
    """Gate 7b: on every class and variant of the sweep, the package's pages
    and the subspace-lattice reference have equal cells and d_r ranks on
    pages 0..width+1 and equal limit pages, and in every degree the pair
    counts equal the rank table's."""
    results, _ = sweep_results
    compared = 0
    for res in results:
        runs = res["runs"]
        for i, cls0 in enumerate(runs["1a"].classes):
            seqs = LatticeSequences(cech_multicomplex(res["problem"], cls0.members[0]))
            for variant, run in runs.items():
                cls = run.classes[i]
                fc = seqs.filtered(FILTRATION[variant])
                if not fc.total.dims:
                    continue
                assert len(cls.pages) == fc.width + 2, (variant, cls.members[0])
                assert_agrees_with_reference(fc, cls.pages, cls.einf_dims)
                compared += 1
    assert compared == 620


def test_sign_twist_involution_and_invariance():
    """Gate 8: the sign twist is an involution on 100 random multicomplexes
    and leaves every totalized cohomology dimension unchanged."""
    rng = np.random.default_rng(20240826)
    for trial in range(100):
        mc = rand_tensor_mc(F, rng, max_axes=4)
        tw = sign_twist(mc)
        back = sign_twist(tw)
        assert back.flavor == mc.flavor, trial
        assert set(back.diffs) == set(mc.diffs), trial
        for key, mat in mc.diffs.items():
            assert np.array_equal(back.diffs[key], mat), (trial, key)
        assert totalize(mc).cohomology_dims() == totalize(tw).cohomology_dims(), trial


def test_report_bytes_deterministic(tmp_path):
    """Gate 9: repeated runs of the same job, serial or parallel, write
    byte-identical reports and tables."""
    job = {
        "field": {"prime": 65537},
        "variables": 2,
        "groups": [["x1"], ["x2"]],
        "quotient": [],
        "window": [[-2, -2], [2, 2]],
        "tasks": ["cohomology", "verify34", "props2",
                  "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b", "les"],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    outs = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / name
        assert cli_main(["compute", str(path), "--out", str(out), "--jobs", jobs]) == 0
        outs.append(out)
    reports = [(o / "report.json").read_bytes() for o in outs]
    assert reports[0] == reports[1] == reports[2]
    for name in ("cohomology.csv", "pages_1a.json", "pages_2b.json"):
        assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()

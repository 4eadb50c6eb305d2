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

import copy
import dataclasses
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cechmv import (
    CechProblem,
    ContractError,
    FilteredComplex,
    MonomialIdeal,
    OracleCache,
    PrimeField,
    RationalField,
    SpectralSequence,
    cech_multicomplex,
    compute,
    degree_classes,
    koszul_split,
    restrict,
    split_column_report,
    totalize,
)
from cechmv.cli import DegreeClass, load_job, main as cli_main, run_unit
from cechmv.jsonout import plain
from cechmv.multicomplex import add_e, block_slices
from cechmv.mvss import (FILTRATION, VARIANTS, _expected_abutment, _expected_e1, _middle_piece,
                         infinity_filtration_report)
from cechmv.spectral import LatticeSequences, _split_columns
from conftest import (F, abutment_dims, class_of, degrees, dense, describe, keep_points,
                      limit_cells, rand_complex, rand_tensor_mc, run_width, tensor_product,
                      window_classes)
from reference_cohomology import reference_middle_pieces
from reference_dense import zeros
from reference_spectral import ReferenceSpectralSequence, assert_agrees_with_reference
from reference_split import koszul_half, line_complex

JOBS_DIR = Path(__file__).resolve().parents[1] / "jobs"


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
        res["classes"] = window_classes(res["problem"])
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
    checked = sum(res["verify"]["degrees_checked"] for res in results)
    assert checked == sum(len(degrees(res["problem"])) for res in results)
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
        for variant in VARIANTS:
            for members, klass, runs in res["classes"]:
                assert runs[variant].abutment_mismatches == [], (variant, members[0])
                b0 = members[0]
                einf = limit_cells(klass, variant)
                totals = set(abutment_dims(klass, variant)) | {p + q for p, q in einf}
                for m in totals:
                    got = sum(d for (p, q), d in einf.items() if p + q == m)
                    want = _expected_abutment(cache, variant, m, b0)
                    assert got == want, (variant, b0, m, got, want)


def test_first_pages_match_cohomology_tables(sweep_results):
    """Gate 4: every first-page column equals the direct sum of oracle table
    entries the variant's indexing prescribes for that column."""
    results, _ = sweep_results
    for res in results:
        cache = res["cache"]
        for variant in VARIANTS:
            for members, _klass, runs in res["classes"]:
                cls = runs[variant]
                assert cls.e1_mismatches == [], (variant, members[0])
                e1 = cls.pages[1]
                for (p, q), d in e1.cells.items():
                    want = _expected_e1(cache, variant, p, q, members[0])
                    assert d == want, (variant, members[0], p, q, d, want)


def test_punctured_face_part_is_derived_from_the_one_split(sweep):
    """On every class of the sweep, dropping the line over the lattice origin
    from the totalized face half of the lattice's split gives the totalized
    face half of the punctured lattice's split: the same maps, dimensions and
    blocks.  Variant 1b is built that way."""
    checked = 0
    for prob in sweep:
        for pat, members in degree_classes(prob):
            mc = cech_multicomplex(prob, pat)
            got = restrict(LatticeSequences(mc).face_total, lambda k: any(k[1:]))
            want = totalize(koszul_split(keep_points(mc, any)))
            assert got == want, members[0]
            checked += bool(want.dims)
    assert checked > 100


def region_predicates(mc):
    """(name, keep) for every region of the points of ``mc``: each face and
    each interior (zero on, or positive exactly on, a subset of the axes),
    the punctured lattice and each top-dropped layer."""
    for p in range(mc.n + 1):
        for axes in itertools.combinations(range(mc.n), p):
            yield ("face", axes), lambda q, axes=axes: not any(q[i] for i in axes)
            yield ("interior", axes), lambda q, axes=axes: all(
                (x > 0) == (i in axes) for i, x in enumerate(q))
    yield "punctured", any
    for i, top in enumerate(mc.box[1]):
        yield ("top dropped", i), lambda q, i=i, top=top: q[i] < top


def test_restrict_is_the_totalized_point_restriction(sweep):
    """``restrict(totalize(mc), keep)`` equals the totalization of the entries
    of ``mc`` where ``keep`` holds (``keep_points``), for every face,
    interior, punctured and top-dropped region: on 40 random tensor
    multicomplexes and the face halves of their splits, and on the lattice
    of every class of the sweep."""
    rng = np.random.default_rng(20261019)
    lattices = []
    for _ in range(40):
        mc = rand_tensor_mc(F, rng, coin=False)
        lattices += [mc, koszul_split(mc)]
    lattices += [cech_multicomplex(prob, pat)
                 for prob in sweep for pat, _members in degree_classes(prob)]
    selected = 0
    for mc in lattices:
        tot = totalize(mc)
        for name, keep in region_predicates(mc):
            got = restrict(tot, keep)
            assert got == totalize(keep_points(mc, keep)), (mc.n, name)
            selected += 0 < sum(got.dims.values()) < sum(tot.dims.values())
    assert selected > 1000


def test_kernel_and_cokernel_columns_collapse(sweep):
    """Gate 5: in each scaffold column of every lattice in the sweep, and of
    100 random tensor multicomplexes with up to 4 axes, the kernel part has
    cohomology only in column degree 1 and the quotient part only in 0, both
    of the interior entry's dimension."""
    for prob in sweep:
        for pat, members in degree_classes(prob):
            mc = cech_multicomplex(prob, pat)
            assert split_column_report(mc, totalize(koszul_split(mc))) == [], (prob.groups,
                                                                               members[0])
    rng = np.random.default_rng(20240824)
    for trial in range(100):
        mc = rand_tensor_mc(F, rng, max_axes=4)
        assert split_column_report(mc, totalize(koszul_split(mc))) == [], f"trial {trial}"


def test_cached_split_columns_are_the_whole_half_columns(sweep):
    """Gate: at every point of the sweep's lattices and of 100 random tensor
    multicomplexes, 25 each over F_2, F_3, F_65537 and Q (20 with up to 4
    axes, and 5 whose factors start at degree -2 or -1), the face column
    cached for the point's key (field, coordinate signs, entry dim) is
    ``line_complex`` of the whole-lattice face half, and the cached
    cohomology of each half's column is that of the whole-lattice half's.
    The key separates fields: F_2 and F_3 get distinct entries at the same
    pattern."""
    lattices = [cech_multicomplex(prob, pat)
                for prob in sweep for pat, _members in degree_classes(prob)]
    for k, f in enumerate((PrimeField(2), PrimeField(3), F, RationalField())):
        rng = np.random.default_rng(20261019 + k)
        lattices += [rand_tensor_mc(f, rng, max_axes=4) for _ in range(20)]
        lattices += [tensor_product([rand_complex(f, rng, min_start=-2) for _ in range(n)])
                     for n in (1, 2, 2, 3, 3)]
    keys = set()
    for mc in lattices:
        halves = [koszul_half(mc, kind) for kind in ("complement", "face")]
        for q in mc.points():
            key = (mc.field, tuple((x > 0) - (x < 0) for x in q), mc.entry_dim(q))
            keys.add(key)
            complement_h, (face, face_h) = _split_columns(*key)
            want = [line_complex(half, 0, (0,) + q) for half in halves]
            assert face == want[1], (mc.n, q)
            assert [complement_h, face_h] == [w.cohomology_dims() for w in want], (mc.n, q)
    assert len(keys) > 100 and {key[0] for key in keys} == {PrimeField(2), PrimeField(3), F,
                                                           RationalField()}
    assert any(-1 in key[1] for key in keys)
    face2, face3 = (_split_columns(PrimeField(p), (0, 0), 1)[1][0] for p in (2, 3))
    assert face2.field == PrimeField(2) and face3.field == PrimeField(3)
    assert face2.d != face3.d  # the wedge sign -1 is 1 over F_2 and 2 over F_3


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
        for variant in VARIANTS:
            for members, klass, runs in res["classes"]:
                cls = runs[variant]
                assert cls.stabilized_at is not None, (variant, members[0])
                assert cls.stabilized_at <= run_width(klass, variant), (variant, members[0])
                if variant == "1a" and res["problem"].n == 3:
                    assert cls.stabilized_at <= 3, members[0]
                    n3_runs += 1
    assert n3_runs > 0
    probed = 0
    target = next(r for r in results
                  if r["problem"].n == 3 and r["problem"].num_vars == 2)
    for variant in VARIANTS:
        fc = None
        for _members, klass, _runs in target["classes"]:
            mc = cech_multicomplex(target["problem"], klass.pattern)
            fc = LatticeSequences(mc).sequence(FILTRATION[variant]).fc
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
        for members, klass, runs in res["classes"]:
            seqs = LatticeSequences(cech_multicomplex(res["problem"], klass.pattern))
            for variant in VARIANTS:
                cls = runs[variant]
                fc = seqs.sequence(FILTRATION[variant]).fc
                if not fc.total.dims:
                    continue
                assert len(cls.pages) == fc.width + 2, (variant, members[0])
                assert_agrees_with_reference(fc, cls.pages, limit_cells(klass, variant))
                compared += 1
    assert compared == 620


def three_group_filtrations(problems, field):
    """(problem, pattern, members, variant-1a filtered complex) of every
    degree class of the three-group ``problems``, over ``field``."""
    for prob in problems:
        if prob.n == 3:
            prob = dataclasses.replace(prob, field=field)
            for pat, members in degree_classes(prob):
                yield prob, pat, members, LatticeSequences(
                    cech_multicomplex(prob, pat)).sequence(FILTRATION["1a"]).fc


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), F, RationalField()],
                         ids=describe)
def test_middle_piece_matches_the_first_page_route(sweep, field):
    """Gate 7c: on every variant-1a filtration of the three-group classes of
    the sweep and of ``jobs/three_ideals.json``, the middle piece and the
    psi' phi' = 0 check read from spans over the level blocks of d
    (``mvss._middle_piece``) equal the ranks of the explicit first-page maps
    in bases of representatives (``reference_middle_pieces``), in every
    total degree where a block is nonempty."""
    problems = sweep + [load_job(str(JOBS_DIR / "three_ideals.json"))[0]]
    seen = {"classes": 0, "middle cells": 0, "middle pieces": 0}
    for _prob, _pat, members, fc in three_group_filtrations(problems, field):
        degrees = sorted(set(fc.total.dims) | {m + 1 for m in fc.total.dims})
        got = {m: _middle_piece(fc, m) for m in degrees}
        assert got == reference_middle_pieces(fc, degrees), (members[0], got)
        e1 = SpectralSequence(fc).page(1)
        seen["classes"] += 1
        seen["middle cells"] += sum(1 for m in degrees if e1.dim(1, m - 1))
        seen["middle pieces"] += sum(1 for mid, _zero in got.values() if mid)
    assert seen == {"classes": 84, "middle cells": 44, "middle pieces": 3}, seen


def test_scaled_off_diagonal_entries_fail_the_middle_check(sweep):
    """Gate 7d: scaling one entry of the variant-1a total complex between two
    levels by 2 fails some row of ``infinity_filtration_report`` for some
    entries of the three-group sweep classes, only ever a row whose middle
    cell of the first page is nonzero (the pages read are those of the
    unscaled complex), and every entry whose scaling the first-page route
    (``reference_middle_pieces``) catches or cannot map fails a row too."""
    scaled = caught = 0
    for prob, pat, members, fc in three_group_filtrations(sweep, F):
        klass = DegreeClass(prob, pat, members[0])
        ss = klass.sequences.sequence(FILTRATION["1a"])
        assert infinity_filtration_report(ss, klass.cache, members[0])["pass"], members[0]
        e1 = ss.page(1)
        for m, cols in fc.total.d.items():
            for j, col in enumerate(cols):
                for i, x in col.items():
                    if fc.levels[m][j] == fc.levels[m + 1][i]:
                        continue
                    d = {**fc.total.d, m: cols[:j] + [{**col, i: F.normalize(2 * x)}] + cols[j + 1:]}
                    bent = FilteredComplex(dataclasses.replace(fc.total, d=d), fc.levels)
                    # the pages and limit already computed from the unscaled
                    # complex, shared by a copy that reads ``bent`` for the spans
                    bent_ss = copy.copy(ss)
                    bent_ss.fc = bent
                    rows = infinity_filtration_report(bent_ss, klass.cache, members[0])["rows"]
                    bad = [r["total_degree"] for r in rows if not r["ok"]]
                    assert all(e1.dim(1, t - 1) for t in bad), (members[0], m, i, j, bad)
                    gated = [r for r in rows if e1.dim(1, r["total_degree"] - 1)]
                    try:
                        ref = reference_middle_pieces(bent, [r["total_degree"] for r in gated])
                        ref_caught = any(ref[r["total_degree"]] != (r["pieces"]["middle"][0], True)
                                         for r in gated)
                    except ContractError:  # a cycle of level 1 left the cycles of level 2
                        ref_caught = True
                    assert bad or not ref_caught, (members[0], m, i, j)
                    scaled += 1
                    caught += bool(bad)
    assert (caught, scaled) == (232, 817)


def test_totalized_blocks_carry_the_commuting_sign():
    """Gate 8: on 100 random tensor multicomplexes with up to 4 axes, the
    total differential, built densely block by block, has block (q, i) equal
    to (-1)^(q_1+...+q_{i-1}) times ``mc.diffs[q, i]`` and zeros elsewhere."""
    rng = np.random.default_rng(20240826)
    for trial in range(100):
        mc = rand_tensor_mc(F, rng, max_axes=4)
        tot = totalize(mc)
        for m, blk in tot.blocks.items():
            rows, cols = block_slices(tot.blocks.get(m + 1, ())), block_slices(blk)
            want = zeros(F, tot.dim(m + 1), tot.dim(m))
            for q, _ in blk:
                for i in range(mc.n):
                    if (q, i) in mc.diffs:
                        tq = add_e(q, i)
                        sign = -1 if sum(q[:i]) % 2 else 1
                        want[rows[tq], cols[q]] = F.normalize(
                            sign * dense(F, mc.diffs[q, i], mc.entry_dim(tq)))
            got = dense(F, tot.matrix(m), tot.dim(m + 1))
            assert (got == want).all(), (trial, m)


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

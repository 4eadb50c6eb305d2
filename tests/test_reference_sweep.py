"""A harder engine sweep: the package's pages against the subspace-lattice
reference (``reference_spectral``), cell by cell and rank by rank on pages
0..width+1, and on the limit page, the package's abutment against the
reference's kernels and images (``reference_abutment``), and the package's
pair counts against the rank table of level blocks in every degree.

Per field (F_2, F_3, F_65537 and, with fewer problems because the reference
is slow over Q, the rationals) it draws random Čech problems in 3..5
variables with 1..3 groups of up to 3 generators of exponents up to 2 and a
quotient with up to 2 generators.  At two degrees of each problem (the class
with the most live localization pieces and one random class) it compares the
four variant filtrations and props2's face filtration of the unpunctured
face half; props2's other three region filtrations are variants 1a, 2b and
2a, since Čech lattices are commutative.  It also draws random tensor
multicomplexes with up to 3 axes and compares the coordinate,
complement-total and nonzero-count filtrations and props2's four region
filtrations of each.  On every class lattice of the same problems it also
compares the page-n edge check read from spans with the representative
route (``reference_cohomology.reference_edge_composite_check``).
"""

from operator import itemgetter

import numpy as np
import pytest

from cechmv import (
    CechProblem,
    MonomialIdeal,
    PrimeField,
    RationalField,
    SpectralSequence,
    cech_multicomplex,
    default_window,
    degree_classes,
    edge_composite_check,
    filtration_from_blocks,
    totalize,
)
from cechmv.mvss import FILTRATION, VARIANTS
from cechmv.spectral import LatticeSequences
from conftest import describe, nonzero_count, rand_tensor_mc, validate_filtration
from reference_cohomology import reference_edge_composite_check
from reference_spectral import assert_agrees_with_reference, limit_abutment, reference_abutment


def random_problem(field, rng) -> CechProblem:
    m = int(rng.integers(3, 6))

    def monomial():
        g = tuple(int(x) for x in rng.integers(0, 3, size=m) * (rng.random(m) < 0.5))
        return g if any(g) else tuple(int(j == rng.integers(m)) for j in range(m))

    groups = tuple(
        tuple(sorted({monomial() for _ in range(int(rng.integers(1, 4)))}))
        for _ in range(int(rng.integers(1, 4)))
    )
    quotient = MonomialIdeal(m, tuple(sorted({monomial() for _ in range(int(rng.integers(0, 3)))})))
    return CechProblem(field, m, groups, quotient, default_window(m, groups, quotient))


# the four filtrations props2 audits (``region_convergence_report``)
REGION_FILTRATIONS = ("face", "truncated face", "punctured count", "cube count")


def filtered_complexes(field, rng, problems: int, tensors: int):
    for k in range(problems):
        prob = random_problem(field, rng)
        classes = degree_classes(prob)
        richest = max(classes, key=lambda c: sum(c[0]))
        for pat, members in (richest, classes[int(rng.integers(len(classes)))]):
            b = members[0]
            seqs = LatticeSequences(cech_multicomplex(prob, pat))
            for variant in VARIANTS:
                yield (k, prob.groups, b, variant), seqs.sequence(FILTRATION[variant]).fc
            yield (k, prob.groups, b, "face"), seqs.sequence("face").fc
    for k in range(tensors):
        mc = rand_tensor_mc(field, rng, max_axes=3)
        yield (k, "coordinate"), filtration_from_blocks(totalize(mc), itemgetter(0))
        yield (k, "complement total"), filtration_from_blocks(totalize(mc),
                                                              lambda q: sum(q) - q[0])
        yield (k, "count"), filtration_from_blocks(totalize(mc), nonzero_count)
        seqs = LatticeSequences(mc)
        for kind in REGION_FILTRATIONS:
            yield (k, kind), seqs.sequence(kind).fc


# (field, Čech problems, tensor multicomplexes, filtered complexes compared)
SWEEPS = [
    (PrimeField(2), 20, 20, 298),
    (PrimeField(3), 20, 20, 298),
    (PrimeField(65537), 20, 20, 298),
    (RationalField(), 5, 12, 133),
]


@pytest.mark.parametrize("field, problems, tensors, expected", SWEEPS,
                         ids=[describe(f) for f, *_ in SWEEPS])
def test_pages_match_the_reference_engine(field, problems, tensors, expected):
    rng = np.random.default_rng(20261018)
    compared = 0
    for tag, fc in filtered_complexes(field, rng, problems, tensors):
        if not fc.total.dims:
            continue
        validate_filtration(fc)
        ss = SpectralSequence(fc)
        try:
            pages = [ss.page(r) for r in range(fc.width + 2)]
            assert_agrees_with_reference(fc, pages, ss.infinity()[0].cells)
            got, want = limit_abutment(ss), reference_abutment(fc)[:2]
            assert got == want, ("abutment", got, want)
        except AssertionError as e:
            raise AssertionError(f"{describe(field)} {tag}: {e}") from None
        compared += 1
    assert compared == expected


@pytest.mark.parametrize("field, problems, tensors, expected", SWEEPS,
                         ids=[describe(f) for f, *_ in SWEEPS])
def test_edge_check_from_spans_matches_the_representatives(field, problems, tensors, expected):
    """On every class lattice of the sweep's Čech problems both routes of the
    page-n edge check are clean, and the check is not vacuous: some
    lattices have two or more groups and a nonzero origin entry."""
    rng = np.random.default_rng(20261018)
    live = 0
    for k in range(problems):
        prob = random_problem(field, rng)
        classes = degree_classes(prob)
        rng.integers(len(classes))  # the sweep's draw of a random class, so the problems agree
        for pat, members in classes:
            seqs = LatticeSequences(cech_multicomplex(prob, pat))
            got, want = edge_composite_check(seqs), reference_edge_composite_check(seqs)
            assert got == want == [], (describe(field), k, members[0], got, want)
            live += prob.n >= 2 and seqs.mc.entry_dim((0,) * prob.n) > 0
    assert live >= 5


@pytest.mark.parametrize("field", [PrimeField(2), RationalField()], ids=["F_2", "Q"])
def test_levels_and_pages_hold_python_ints(field):
    """Every filtration of ``LatticeSequences`` (and of the tensor draws)
    holds its levels as lists of Python ints, and every page cell and rank is
    a Python int."""
    rng = np.random.default_rng(20261019)
    for tag, fc in filtered_complexes(field, rng, 3, 3):
        assert all(type(lv) is list and all(type(x) is int for x in lv)
                   for lv in fc.levels.values()), tag
        ss = SpectralSequence(fc)
        for pg in [ss.page(r) for r in range(fc.width + 2)] + [ss.infinity()[0]]:
            values = list(pg.cells.values()) + list(pg.ranks.values())
            assert all(type(x) is int for x in values), (tag, pg.r)

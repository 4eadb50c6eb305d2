"""Symmetries of the variables and the class orbits ``compute`` shares its
class steps over: the kept permutations really are symmetries, symmetric
degrees have isomorphic lattices, and a run with orbit reuse writes exactly
what a run class by class writes."""

import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

from cechmv import (CechProblem, MonomialIdeal, PrimeField, RationalField, cech,
                    cech_multicomplex, cli, default_window, degree_classes, piece_pattern)
from cechmv.linalg import pivot_pairs

ROOT = Path(__file__).resolve().parent.parent
FIELDS = (PrimeField(2), PrimeField(3), PrimeField(65537), RationalField())
NON_LES = [t for t in cli.TASK_ORDER if t != "les"]


def load(path: Path) -> CechProblem:
    problem, _tasks, _pages = cli.load_job(str(path))
    return problem


def orbit_count(problem: CechProblem) -> tuple[int, int]:
    patterns = [pat for pat, _members in degree_classes(problem)]
    return len(patterns), len(set(cech.class_orbits(problem, patterns)))


def class_by_class(problem, patterns):
    return list(range(len(patterns)))


def act(sigma, g):
    """sigma(g): the exponent of variable j moves to variable sigma[j]."""
    out = [0] * len(g)
    for j, e in enumerate(g):
        out[sigma[j]] = e
    return tuple(out)


def planted_problem(seed: int) -> tuple[CechProblem, tuple[int, ...], str]:
    """A problem whose groups are closed under a drawn involution sigma of
    3-5 variables, over one of four fields, with 2-3 groups; its quotient is
    zero, closed under sigma, or one monomial that sigma moves ("broken"),
    and about a quarter of the windows are not mapped onto themselves by
    sigma.  Returns (problem, sigma, quotient kind)."""
    rng = random.Random(seed)
    m = rng.randint(3, 5)
    moved = rng.sample(range(m), 4 if m >= 4 and rng.random() < 0.5 else 2)
    sigma = list(range(m))
    for a, c in zip(moved[::2], moved[1::2]):
        sigma[a], sigma[c] = c, a
    sigma = tuple(sigma)

    def monomial(top: int):
        while True:
            g = tuple(rng.randint(0, top) if rng.random() < 0.6 else 0 for _ in range(m))
            if any(g):
                return g

    groups = []
    for _ in range(rng.randint(2, 3)):
        drawn = {monomial(1) for _ in range(rng.randint(1, 2))}
        closed = sorted(drawn | {act(sigma, g) for g in drawn})
        rng.shuffle(closed)
        groups.append(tuple(closed))
    kind = ("none", "closed", "broken")[seed % 3]
    gens = ()
    if kind != "none":
        q = monomial(2)
        while kind == "broken" and act(sigma, q) == q:
            q = monomial(2)
        gens = (q,) if kind == "broken" else (q, act(sigma, q))
    quotient = MonomialIdeal(m, gens)
    lo = [rng.choice((-1, -1, 0)) for _ in range(m)]
    hi = [rng.choice((1, 1, 2) if gens else (0, 1, 1)) for _ in range(m)]
    if rng.random() < 0.75:  # a window that sigma maps onto itself
        for j in range(m):
            lo[sigma[j]], hi[sigma[j]] = lo[j], hi[j]
    lo, hi = tuple(lo), tuple(hi)
    field = FIELDS[seed % len(FIELDS)]
    return CechProblem(field, m, tuple(groups), quotient, (lo, hi)), sigma, kind


def test_committed_jobs_and_workloads_have_the_expected_orbits():
    """(classes, orbits) of every committed job and benchmark workload."""
    expected = {
        "two_by_four": (16, 6), "wide_seven": (161, 61), "lattice-window": (16, 10),
        "wide-window": (81, 61), "oracle-long": (21, 16), "four_ideals": (16, 16),
        "three_ideals": (8, 8), "two_ideals": (4, 4), "mixed_quotient": (6, 6),
        "page-heavy": (1, 1), "twelve_generators": (1, 1), "fifteen_generators": (1, 1),
    }
    paths = [*(ROOT / "jobs").glob("*.json"), *(ROOT / "perfbench" / "workloads").glob("*.json")]
    found = {p.stem: orbit_count(load(p)) for p in paths if p.stem in expected}
    assert found == expected


def test_kept_permutations_are_symmetries():
    """Each kept sigma maps every group and the quotient onto themselves,
    and the search keeps every transposition and double transposition that
    does, among all of them."""
    for seed in range(40):
        problem, sigma, kind = planted_problem(seed)
        m = problem.num_vars
        kept = cech.variable_symmetries(problem)
        assert (sigma in kept) == (kind != "broken")
        swaps = list(itertools.combinations(range(m), 2))
        family = set()
        for chosen in [[s] for s in swaps] + [list(p) for p in itertools.combinations(swaps, 2)
                                               if not set(p[0]) & set(p[1])]:
            perm = list(range(m))
            for a, c in chosen:
                perm[a], perm[c] = c, a
            perm = tuple(perm)
            symmetric = (sorted(act(perm, g) for g in problem.quotient.gens)
                         == sorted(problem.quotient.gens)
                         and all(sorted(act(perm, g) for g in grp) == sorted(grp)
                                 for grp in problem.groups))
            if symmetric:
                family.add(perm)
        assert set(kept) == family


def test_swap_that_moves_the_quotient_is_not_kept():
    """x1 <-> x2 fixes both groups but not the quotient x1^2*x2."""
    problem = CechProblem.from_text(FIELDS[2], 2, [["x1", "x2"], ["x1*x2"]], ["x1^2*x2"])
    assert cech.variable_symmetries(problem) == []
    patterns = [pat for pat, _members in degree_classes(problem)]
    assert cech.class_orbits(problem, patterns) == list(range(len(patterns)))
    symmetric = dataclasses.replace(problem, quotient=MonomialIdeal(2, ((2, 1), (1, 2))))
    assert cech.variable_symmetries(symmetric) == [(1, 0)]


def full_group_orbits(problem: CechProblem, patterns) -> list[int]:
    """The orbits under every permutation of the variables that maps each
    group and the quotient onto themselves, by brute force."""
    m = problem.num_vars
    index = {pat: k for k, pat in enumerate(patterns)}
    orbit = list(range(len(patterns)))

    def root(k):
        while orbit[k] != k:
            k = orbit[k]
        return k

    for perm in itertools.permutations(range(m)):
        if (sorted(act(perm, g) for g in problem.quotient.gens) != list(problem.quotient.gens)
                or any(sorted(act(perm, g) for g in grp) != sorted(grp)
                       for grp in problem.groups)):
            continue
        for k, pat in enumerate(patterns):
            image = [0] * len(pat)
            for mask, v in enumerate(pat):
                image[sum(1 << perm[j] for j in range(m) if mask >> j & 1)] = v
            other = index.get(tuple(image))
            if other is not None:
                a, c = root(k), root(other)
                orbit[max(a, c)] = min(a, c)
    return [root(k) for k in range(len(patterns))]


@pytest.mark.parametrize("path", ["jobs/two_by_four.json", "jobs/wide_seven.json",
                                  "perfbench/workloads/lattice-window.json",
                                  "perfbench/workloads/wide-window.json",
                                  "perfbench/workloads/oracle-long.json"])
def test_candidate_family_finds_the_full_group_orbits(path):
    problem = load(ROOT / path)
    patterns = [pat for pat, _members in degree_classes(problem)]
    assert cech.class_orbits(problem, patterns) == full_group_orbits(problem, patterns)


def lattice_profile(problem: CechProblem, b):
    """Entry dimension at every point and rank of every axis map of the
    lattice at b."""
    mc = cech_multicomplex(problem, b)
    return mc.dims, {key: len(pivot_pairs(problem.field, mat)) for key, mat in mc.diffs.items()}


def symmetric_cases():
    for path in ("jobs/two_by_four.json", "jobs/wide_seven.json",
                 "perfbench/workloads/lattice-window.json"):
        yield path, load(ROOT / path)
    for seed in range(0, 30, 3):  # kinds "none" and "closed" keep sigma
        for s in (seed, seed + 1):
            problem, _sigma, _kind = planted_problem(s)
            window = default_window(problem.num_vars, problem.groups, problem.quotient)
            yield f"planted {s}", dataclasses.replace(problem, window=window)


def test_symmetric_degrees_have_isomorphic_lattices():
    """For every kept sigma and orbit representative b (in windows that
    sigma maps onto themselves), the lattices at b and sigma(b) have equal
    entry dimensions at every point and equal ranks of every axis map, and
    the pattern of sigma(b) is that of b with its masks relabelled."""
    checked = 0
    for name, problem in symmetric_cases():
        classes = degree_classes(problem)
        orbit = cech.class_orbits(problem, [pat for pat, _members in classes])
        sigmas = cech.variable_symmetries(problem)
        assert sigmas, name
        m = problem.num_vars
        for sigma in sigmas:
            relabel = [sum(1 << sigma[j] for j in range(m) if mask >> j & 1)
                       for mask in range(1 << m)]
            for r in sorted(set(orbit)):
                pat, members = classes[r]
                b = members[0]
                image = act(sigma, b)
                assert problem.in_window(image), name
                assert piece_pattern(problem, image) == tuple(
                    pat[relabel.index(mask)] for mask in range(1 << m)), name
                assert lattice_profile(problem, image) == lattice_profile(problem, b), (name, b)
                checked += 1
    assert checked > 300


def test_planted_problems_share_class_steps():
    """The gate below is not vacuous: at least half of the planted problems
    with a kept sigma have fewer orbits than classes."""
    merged = [orbit_count(p)[1] < orbit_count(p)[0]
              for p, _sigma, kind in map(planted_problem, range(56)) if kind != "broken"]
    assert sum(merged) >= len(merged) / 2


@pytest.mark.parametrize("seed", range(56))
def test_orbit_reuse_writes_what_class_by_class_writes(seed, monkeypatch):
    """The equality gate: ``compute`` with orbit reuse gives the report and
    every file of ``compute`` with every class its own orbit."""
    problem, _sigma, _kind = planted_problem(seed)
    tasks = NON_LES + (["les"] if problem.n == 2 else [])
    reused = cli.compute(problem, tasks)
    monkeypatch.setattr(cli, "class_orbits", class_by_class)
    alone = cli.compute(problem, tasks)
    assert reused[1] == alone[1]
    assert reused[0] == alone[0]
    assert json.loads(reused[1]["report.json"])["pass"] is True

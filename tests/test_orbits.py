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
                    cech_multicomplex, cli, default_window, degree_classes)
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
        "two_by_four": (16, 6), "wide_seven": (161, 55), "lattice-window": (16, 10),
        "wide-window": (81, 55), "oracle-long": (21, 16), "four_ideals": (16, 16),
        "three_ideals": (8, 8), "two_ideals": (4, 4), "mixed_quotient": (6, 6),
        "page-heavy": (1, 1), "twelve_generators": (1, 1), "fifteen_generators": (1, 1),
        "three_term_quotient": (12, 12), "rational_all_tasks": (11, 11),
    }
    paths = [*(ROOT / "jobs").glob("*.json"), *(ROOT / "perfbench" / "workloads").glob("*.json")]
    found = {p.stem: orbit_count(load(p)) for p in paths if p.stem in expected}
    assert found == expected


def test_kept_permutations_are_symmetries():
    """Each kept sigma maps every group onto itself, and the search keeps
    every transposition and double transposition that does, among all of
    them, whether or not it fixes the quotient: the planted sigma is kept
    for every quotient kind, "broken" included."""
    for seed in range(40):
        problem, sigma, kind = planted_problem(seed)
        m = problem.num_vars
        kept = cech.variable_symmetries(problem)
        assert sigma in kept, kind
        swaps = list(itertools.combinations(range(m), 2))
        family = set()
        for chosen in [[s] for s in swaps] + [list(p) for p in itertools.combinations(swaps, 2)
                                               if not set(p[0]) & set(p[1])]:
            perm = list(range(m))
            for a, c in chosen:
                perm[a], perm[c] = c, a
            perm = tuple(perm)
            symmetric = all(sorted(act(perm, g) for g in grp) == sorted(grp)
                            for grp in problem.groups)
            if symmetric:
                family.add(perm)
        assert set(kept) == family


def test_swap_that_moves_the_quotient_is_kept(monkeypatch):
    """x1 <-> x2 fixes both groups but not the quotient x1^2*x2; it is kept
    all the same, as it is with the symmetric quotient, and ``compute`` with
    orbit reuse writes on this problem what it writes class by class."""
    problem = CechProblem.from_text(FIELDS[2], 2, [["x1", "x2"], ["x1*x2"]], ["x1^2*x2"])
    assert cech.variable_symmetries(problem) == [(1, 0)]
    symmetric = dataclasses.replace(problem, quotient=MonomialIdeal(2, ((2, 1), (1, 2))))
    assert cech.variable_symmetries(symmetric) == [(1, 0)]
    tasks = NON_LES + ["les"]
    reused = cli.compute(problem, tasks)
    monkeypatch.setattr(cli, "class_orbits", class_by_class)
    assert reused == cli.compute(problem, tasks)
    assert reused[0]["pass"] is True


def full_group_orbits(problem: CechProblem, patterns) -> list[int]:
    """The orbits under every permutation of the variables that maps each
    group onto itself, by brute force."""
    m = problem.num_vars
    index = {pat: k for k, pat in enumerate(patterns)}
    orbit = list(range(len(patterns)))

    def root(k):
        while orbit[k] != k:
            k = orbit[k]
        return k

    for perm in itertools.permutations(range(m)):
        if any(sorted(act(perm, g) for g in grp) != sorted(grp) for grp in problem.groups):
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


def lattice_profile(problem: CechProblem, pattern):
    """Entry dimension at every point and rank of every axis map of the
    lattice built from ``pattern``."""
    mc = cech_multicomplex(problem, pattern)
    return mc.dims, {key: len(pivot_pairs(problem.field, mat)) for key, mat in mc.diffs.items()}


def symmetric_cases():
    for path in ("jobs/two_by_four.json", "jobs/wide_seven.json",
                 "perfbench/workloads/lattice-window.json"):
        yield path, load(ROOT / path)
    for seed in range(30):  # every quotient kind keeps sigma, "broken" included
        problem, _sigma, _kind = planted_problem(seed)
        window = default_window(problem.num_vars, problem.groups, problem.quotient)
        yield f"planted {seed}", dataclasses.replace(problem, window=window)


def test_symmetric_degrees_have_isomorphic_lattices():
    """Every class's lattice, at its first member, has the entry dimensions
    at every point and the ranks of every axis map of its orbit's first
    class's lattice.  (The pattern of sigma(b) is that of b relabelled only
    when sigma fixes the quotient, so the classes are compared, not b with
    sigma(b).)"""
    shared = 0
    for name, problem in symmetric_cases():
        classes = degree_classes(problem)
        orbit = cech.class_orbits(problem, [pat for pat, _members in classes])
        assert cech.variable_symmetries(problem), name
        for k, r in enumerate(orbit):
            if k != r:
                got, want = (lattice_profile(problem, classes[c][0]) for c in (k, r))
                assert got == want, (name, classes[k][1][0])
                shared += 1
    assert shared > 300


def test_planted_problems_share_class_steps():
    """The gate below is not vacuous: at least half of the planted problems
    with a quotient that sigma fixes, and at least a quarter of those with
    one that sigma moves (7 of 18), have fewer orbits than classes."""
    merged = {"fixed": [], "broken": []}
    for p, _sigma, kind in map(planted_problem, range(56)):
        merged["broken" if kind == "broken" else "fixed"].append(
            orbit_count(p)[1] < orbit_count(p)[0])
    assert sum(merged["fixed"]) >= len(merged["fixed"]) / 2
    assert sum(merged["broken"]) >= len(merged["broken"]) / 4


@pytest.mark.parametrize("name", ["two_by_four", "three_ideals"])
def test_class_steps_read_their_degree_only_through_the_pattern(monkeypatch, name):
    """The premise of ``class_orbits``' proof: every class step of every task
    the job's problem admits reads its degree only through its piece
    pattern, so ``localized_piece_dim`` is never called outside
    ``piece_pattern``."""
    import cechmv

    inside = []
    pattern, piece = cech.piece_pattern, cech.localized_piece_dim

    def guarded_pattern(problem, b):
        inside.append(b)
        try:
            return pattern(problem, b)
        finally:
            inside.pop()

    def guarded_piece(support, ideal, degree):
        assert inside, f"degree {degree} read outside piece_pattern"
        return piece(support, ideal, degree)

    monkeypatch.setattr(cech, "piece_pattern", guarded_pattern)
    for mod in (cechmv, cechmv.grading, cech):
        monkeypatch.setattr(mod, "localized_piece_dim", guarded_piece)
    problem = load(ROOT / "jobs" / f"{name}.json")
    report, _files = cli.compute(problem, [t for t in cli.TASK_ORDER
                                           if t != "les" or problem.n == 2])
    assert report["pass"] is True and len(report["results"]) == (8 if problem.n == 2 else 7)


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


@pytest.mark.parametrize("seed", range(3))
def test_a_swap_that_moves_a_group_fails_the_equality_gate(seed, monkeypatch):
    """The gate above sees a wrong symmetry: with every transposition of the
    variables kept, some of which move a group, ``compute`` with orbit reuse
    returns another report or other files than class by class on these
    planted problems."""
    problem, _sigma, _kind = planted_problem(seed)
    swaps = []
    for a, c in itertools.combinations(range(problem.num_vars), 2):
        sigma = list(range(problem.num_vars))
        sigma[a], sigma[c] = c, a
        swaps.append(tuple(sigma))
    assert set(swaps) - set(cech.variable_symmetries(problem))
    tasks = NON_LES + (["les"] if problem.n == 2 else [])
    alone = cli.compute(problem, tasks)
    monkeypatch.setattr(cech, "variable_symmetries", lambda problem: swaps)
    assert cli.compute(problem, tasks) != alone

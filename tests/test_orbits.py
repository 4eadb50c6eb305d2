"""Symmetries of the variables and the class orbits ``compute`` shares its
class steps over: the kept permutations really are symmetries, symmetric
degrees have isomorphic lattices, and a run with orbit reuse writes exactly
what a run class by class writes."""

import dataclasses
import functools
import itertools
import json
import operator
import random
from pathlib import Path

import pytest

from cechmv import (CechProblem, MonomialIdeal, PrimeField, RationalField, cech,
                    cech_multicomplex, cli, default_window, degree_classes, support_mask)
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


def every_mask(problem):
    return list(range(1 << problem.num_vars))


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
    """(classes, orbits) of every committed job and benchmark workload.  On
    ``wide-window`` and ``wide_seven`` the symmetries alone leave 55 orbits
    each (``test_candidate_family_finds_the_full_group_orbits``); equal
    reads at the generator-support unions link them into 21 and 16."""
    expected = {
        "two_by_four": (16, 6), "wide_seven": (161, 16), "lattice-window": (16, 10),
        "wide-window": (81, 21), "oracle-long": (21, 16), "four_ideals": (16, 16),
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
def test_candidate_family_finds_the_full_group_orbits(path, monkeypatch):
    """The symmetry orbits alone: with every mask read (so that only equal
    full patterns have equal reads), ``class_orbits`` finds the orbits of
    the full group."""
    problem = load(ROOT / path)
    patterns = [pat for pat, _members in degree_classes(problem)]
    monkeypatch.setattr(cech, "support_unions", every_mask)
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


class GuardedRead(Exception):
    """A class step read its degree or its pattern where it must not; it is
    no ``ContractError``, so ``compute`` does not turn it into a report."""


def guard_degrees(monkeypatch):
    """Hand every class step its b0 as a tuple whose coordinates (items,
    iteration, length) can be read only inside ``cech.piece_pattern``;
    hashing and comparing it, as a memo key, stays allowed."""
    inside = []

    class GuardedDegree(tuple):
        def _check(self):
            if not inside:
                raise GuardedRead(f"degree {tuple.__repr__(self)} read outside piece_pattern")

        def __getitem__(self, k):
            self._check()
            return tuple.__getitem__(self, k)

        def __iter__(self):
            self._check()
            return tuple.__iter__(self)

        def __len__(self):
            self._check()
            return tuple.__len__(self)

    pattern, klass = cech.piece_pattern, cli.DegreeClass

    def guarded_pattern(problem, b):
        inside.append(b)
        try:
            return pattern(problem, b)
        finally:
            inside.pop()

    monkeypatch.setattr(cech, "piece_pattern", guarded_pattern)
    monkeypatch.setattr(cli, "DegreeClass",
                        lambda problem, pat, b0: klass(problem, pat, GuardedDegree(b0)))


def every_task(problem):
    return [t for t in cli.TASK_ORDER if t != "les" or problem.n == 2]


@pytest.mark.parametrize("name", ["two_by_four", "three_ideals"])
def test_class_steps_read_their_degree_only_through_the_pattern(monkeypatch, name):
    """The premise of ``class_orbits``' proof: every class step of every task
    the job's problem admits reads its degree only through its piece
    pattern.  Each step gets b0 as a tuple that refuses a read of its
    coordinates outside ``piece_pattern``, and every task passes."""
    guard_degrees(monkeypatch)
    problem = load(ROOT / "jobs" / f"{name}.json")
    report, _files = cli.compute(problem, every_task(problem))
    assert report["pass"] is True and len(report["results"]) == (8 if problem.n == 2 else 7)


def test_a_step_that_reads_its_degree_fails_the_degree_guard(monkeypatch):
    """The guard above is not vacuous: a verify34 step that reads one
    coordinate of b0 itself is caught."""
    guard_degrees(monkeypatch)
    verify = cli.verify_product_vs_interior

    def reads_b0(problem, seqs, cache, b0):
        return verify(problem, seqs, cache, b0) if b0[0] < 10**9 else []

    monkeypatch.setattr(cli, "verify_product_vs_interior", reads_b0)
    problem = load(ROOT / "jobs" / "two_by_four.json")
    with pytest.raises(GuardedRead, match="read outside piece_pattern"):
        cli.compute(problem, ["verify34"])


def support_union_masks(problem) -> set[int]:
    """Every union of generator supports, mask 0 included, by brute force
    over the sets of generators."""
    masks = [support_mask(g) for grp in problem.groups for g in grp]
    return {functools.reduce(operator.or_, chosen, 0)
            for k in range(len(masks) + 1) for chosen in itertools.combinations(masks, k)}


def guard_patterns(monkeypatch, problem):
    """Hand every class step, and the oracle's ``pattern``, a pattern that
    refuses a read at a mask outside the generator-support unions, and any
    iteration over its masks."""
    allowed = support_union_masks(problem)

    class GuardedPattern(tuple):
        def __getitem__(self, mask):
            if mask not in allowed:
                raise GuardedRead(f"pattern read at mask {mask}, not a union of supports")
            return tuple.__getitem__(self, mask)

        def __iter__(self):
            raise GuardedRead("pattern read at every mask")

    klass, pattern = cli.DegreeClass, cech.OracleCache.pattern
    monkeypatch.setattr(cli, "DegreeClass",
                        lambda problem, pat, b0: klass(problem, GuardedPattern(pat), b0))
    monkeypatch.setattr(cech.OracleCache, "pattern",
                        lambda self, b: GuardedPattern(pattern(self, b)))


GUARDED_JOBS = [*(f"jobs/{p.name}" for p in sorted((ROOT / "jobs").glob("*.json"))
                  if not p.stem.startswith(("fifteen", "eighteen"))),
                *(f"perfbench/workloads/{p.name}"
                  for p in sorted((ROOT / "perfbench" / "workloads").glob("*.json")))]


@pytest.mark.parametrize("path", GUARDED_JOBS)
def test_class_steps_read_their_pattern_only_at_support_unions(monkeypatch, path):
    """The premise of linking classes by equal reads: every task's class
    step, and the oracle, read the pattern only at unions of generator
    supports, on every committed job but the 3x5 and 3x6 classes and on the
    four workloads."""
    problem = load(ROOT / path)
    assert len(GUARDED_JOBS) == 13
    guard_patterns(monkeypatch, problem)
    report, _files = cli.compute(problem, every_task(problem))
    assert report["pass"] is True and len(report["results"]) == len(every_task(problem))


def test_a_step_that_reads_another_mask_fails_the_pattern_guard(monkeypatch):
    """The guard above is not vacuous: on ``wide-window`` (16 unions of 64
    masks), a step that reads the pattern at x2 alone is caught."""
    problem = load(ROOT / "perfbench" / "workloads" / "wide-window.json")
    guard_patterns(monkeypatch, problem)
    column = cech.OracleCache.column
    monkeypatch.setattr(cech.OracleCache, "column", lambda self, kind, subset, mode, b: (
        self.pattern(b)[0b10], column(self, kind, subset, mode, b))[1])
    with pytest.raises(GuardedRead, match="mask 2, not a union"):
        cli.compute(problem, ["cohomology"])


def reads_problem(seed: int) -> CechProblem:
    """A problem whose generators have supports of one or two of 3-4
    variables, so that many masks are no union of supports, and whose
    quotient has 1-2 generators, so that the window has classes whose
    patterns differ only outside the unions."""
    rng = random.Random(seed)
    m = rng.randint(3, 4)

    def monomial(size: int, top: int) -> tuple[int, ...]:
        support = rng.sample(range(m), size)
        return tuple(rng.randint(1, top) if j in support else 0 for j in range(m))

    groups = tuple(tuple(sorted({monomial(rng.randint(1, 2), 1) for _ in range(rng.randint(1, 2))}))
                   for _ in range(rng.randint(2, 3)))
    gens = tuple(monomial(rng.randint(1, m), 2) for _ in range(rng.randint(1, 2)))
    return CechProblem(FIELDS[seed % len(FIELDS)], m, groups, MonomialIdeal(m, gens),
                       ((-1,) * m, (2,) * m))


def read_links(problem: CechProblem) -> int:
    """How many fewer orbits ``class_orbits`` finds than the symmetries alone."""
    patterns = [pat for pat, _members in degree_classes(problem)]
    shared = len(set(cech.class_orbits(problem, patterns)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cech, "support_unions", every_mask)
        return len(set(cech.class_orbits(problem, patterns))) - shared


def test_reads_draws_link_classes_by_equal_reads():
    """The equality gate's reads draws are not vacuous: at least 14 of the
    20 link some class by its reads, not by a symmetry."""
    assert sum(read_links(reads_problem(seed)) > 0 for seed in range(20)) >= 14


def gate_problem(case) -> CechProblem:
    if isinstance(case, int):
        problem, _sigma, _kind = planted_problem(case)
        return problem
    if case.startswith("reads "):
        return reads_problem(int(case.split()[1]))
    return load(ROOT / case)


def reused_and_alone(problem: CechProblem, monkeypatch):
    """``compute``'s report and files for every task, with orbit reuse and
    with every class its own orbit."""
    reused = cli.compute(problem, every_task(problem))
    with monkeypatch.context() as mp:
        mp.setattr(cli, "class_orbits", class_by_class)
        return reused, cli.compute(problem, every_task(problem))


@pytest.mark.parametrize("case", [*range(56), "perfbench/workloads/wide-window.json",
                                  "jobs/wide_seven.json", *(f"reads {s}" for s in range(20))])
def test_orbit_reuse_writes_what_class_by_class_writes(case, monkeypatch):
    """The equality gate: ``compute`` with orbit reuse gives the report and
    every file of ``compute`` with every class its own orbit, on the planted
    symmetric draws, on ``wide-window`` and ``wide_seven``, and on draws
    whose classes are linked by equal reads."""
    reused, alone = reused_and_alone(gate_problem(case), monkeypatch)
    assert reused[1] == alone[1]
    assert reused[0] == alone[0]
    assert json.loads(reused[1]["report.json"])["pass"] is True


@pytest.mark.parametrize("union", [0b011001, 0b011110, 0b111000])
def test_a_key_that_drops_a_union_fails_the_equality_gate(union, monkeypatch):
    """The gate above sees a key that reads too little: on ``wide-window``,
    with one nonempty union of supports dropped from the reads, ``compute``
    with orbit reuse returns another report or other files than class by
    class."""
    problem = load(ROOT / "perfbench" / "workloads" / "wide-window.json")
    unions = cech.support_unions
    assert union in unions(problem)
    monkeypatch.setattr(cech, "support_unions",
                        lambda problem: [u for u in unions(problem) if u != union])
    reused, alone = reused_and_alone(problem, monkeypatch)
    assert reused != alone


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
    tasks = every_task(problem)
    alone = cli.compute(problem, tasks)
    monkeypatch.setattr(cech, "variable_symmetries", lambda problem: swaps)
    assert cli.compute(problem, tasks) != alone

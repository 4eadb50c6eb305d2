"""Multigraded Čech machinery for monomial sequences.

Everything here works one multidegree b at a time.  Over a monomial quotient
R/J every localization piece is 0- or 1-dimensional, so the degree-b slice of
a Čech complex is a finite complex with entries indexed by subsets of the
generator sequence and matrices with entries in {-1, 0, +1}.

Two independent routes are kept deliberately separate:

* ``cech_complex`` / ``cech_multicomplex`` feed the lattice and filtration
  machinery (CochainComplex / Multicomplex / spectral);
* ``OracleCache`` builds its matrices inline and only calls the exact rank
  routine, so it shares no complex-assembly code with the route it is used to
  audit.  It never receives a lattice, and the lattice builders never read it.
  It ranks the Čech complex of each sequence's support reduction (one
  squarefree monomial per minimal generator support), which has the same
  local cohomology because that depends only on the radical; the lattice
  route always works on the whole sequence.

The piece pattern of a degree (which localizations are alive) determines
every matrix in both routes, so degrees with equal patterns are
computationally identical; ``degree_classes`` groups a window by pattern.
A piece is alive when b_j >= 0 and b_j >= g_j hold for the right variables j
and quotient generators g, so the pattern sees each b_j only through its
interval among the thresholds {0} and {g_j}.  The window therefore splits
into chambers (one interval per coordinate) of constant pattern, and
``degree_classes`` evaluates the pattern once per chamber, never per degree.
Every audit is split into a class step, run once at a class's representative
degree (its first member), and an assembly that copies the class results to
the member degrees: ``verify_product_vs_interior`` is the class step of the
verify34 task and ``issue_report`` its assembly.  ``cli.compute`` runs the
class steps over a whole window.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grading import (
    Exps,
    MonomialIdeal,
    format_monomial,
    localized_piece_dim,
    monomial_mul,
    parse_monomial,
    product_sequence,
    support_mask,
    window_degrees,
)
from .jsonout import PerDegree
from .linalg import Field, mul, rank
from .multicomplex import (
    COMMUTATIVE,
    CochainComplex,
    Multicomplex,
    Point,
    Region,
    augment_interior,
    cohomology_map,
    restrict,
    totalize,
)
from .spectral import LatticeSequences

Window = tuple[Exps, Exps]


@dataclass(frozen=True)
class CechProblem:
    """Module M = R/J with n groups of monomial generators and a degree window."""

    field: Field
    num_vars: int
    groups: tuple[tuple[Exps, ...], ...]
    quotient: MonomialIdeal
    window: Window

    def __post_init__(self):
        if self.num_vars < 1:
            raise InputError("need at least one variable")
        if not self.groups:
            raise InputError("need at least one generator group")
        for gi, group in enumerate(self.groups):
            if not group:
                raise InputError(f"group {gi + 1} is empty")
            for g in group:
                if len(g) != self.num_vars or any(e < 0 for e in g):
                    raise InputError(f"bad monomial {g} in group {gi + 1}")
        if self.quotient.num_vars != self.num_vars:
            raise InputError("quotient ideal has the wrong variable count")
        lo, hi = self.window
        if len(lo) != self.num_vars or len(hi) != self.num_vars:
            raise InputError("window arity does not match the variable count")
        if any(a > b for a, b in zip(lo, hi)):
            raise InputError("window is empty (lo > hi)")

    @property
    def n(self) -> int:
        return len(self.groups)

    def in_window(self, b: Exps) -> bool:
        lo, hi = self.window
        return len(b) == self.num_vars and all(a <= x <= c for x, a, c in zip(b, lo, hi))

    def degrees(self) -> list[Exps]:
        return [tuple(b) for b in window_degrees(self.window)]

    @staticmethod
    def from_text(field: Field, num_vars: int, groups: list[list[str]],
                  quotient: list[str] | None = None, window: Window | None = None) -> "CechProblem":
        gs = tuple(tuple(parse_monomial(t, num_vars) for t in grp) for grp in groups)
        q = MonomialIdeal(num_vars, tuple(parse_monomial(t, num_vars) for t in (quotient or [])))
        if window is None:
            window = default_window(num_vars, gs, q)
        return CechProblem(field, num_vars, gs, q, window)


def default_window(num_vars: int, groups, quotient: MonomialIdeal) -> Window:
    """Per coordinate, [-(g+1), g+1] with g the largest exponent appearing in
    any group or quotient generator."""
    g = [0] * num_vars
    for grp in groups:
        for mono in grp:
            for j, e in enumerate(mono):
                g[j] = max(g[j], e)
    for mono in quotient.gens:
        for j, e in enumerate(mono):
            g[j] = max(g[j], e)
    lo = tuple(-(e + 1) for e in g)
    hi = tuple(e + 1 for e in g)
    return (lo, hi)


def piece_pattern(problem: CechProblem, b: Exps) -> tuple[int, ...]:
    """Aliveness of every localization support at degree b.  All complexes the
    problem can produce at b are determined by this tuple."""
    m = problem.num_vars
    return tuple(localized_piece_dim(mask, problem.quotient, b) for mask in range(1 << m))


def degree_classes(problem: CechProblem) -> list[tuple[tuple[int, ...], list[Exps]]]:
    """Window degrees grouped by piece pattern, each class in lex order, the
    classes ordered by their first member.

    Per coordinate j, the sorted thresholds {0} and {g_j : g a quotient
    generator} cut the integers into intervals, and a degree's chamber is the
    tuple of the intervals holding its coordinates.  Every test in
    ``localized_piece_dim`` compares some b_j with one of these thresholds,
    and those comparisons cannot change inside an interval, so the pattern is
    constant on a chamber.  It is evaluated once per chamber the window meets,
    at the chamber's first window degree in lex order.
    """
    cuts = [sorted({0, *(g[j] for g in problem.quotient.gens)})
            for j in range(problem.num_vars)]
    lo, hi = problem.window
    intervals = [[bisect.bisect_right(c, v) for v in range(a, z + 1)]
                 for c, a, z in zip(cuts, lo, hi)]
    class_of: dict[tuple[int, ...], list[Exps]] = {}  # chamber -> its class's members
    by_pat: dict[tuple[int, ...], list[Exps]] = {}  # in order of first member
    for b, chamber in zip(window_degrees(problem.window), itertools.product(*intervals)):
        members = class_of.get(chamber)
        if members is None:
            members = class_of[chamber] = by_pat.setdefault(piece_pattern(problem, b), [])
        members.append(b)
    return list(by_pat.items())


# ---------------------------------------------------------------------------
# engine-side constructions


def cech_complex(field: Field, seq: tuple[Exps, ...], quotient: MonomialIdeal,
                 b: Exps, truncated: bool = False) -> CochainComplex:
    """Degree-b slice of the Čech complex on ``seq`` over R/J.

    Slot t is the sum over t-element index subsets S of the piece of
    (R/J) localized at the product over S; maps are alternating-sign
    localization maps.  ``truncated`` drops slot 0.
    """
    if not seq:
        raise InputError("empty generator sequence")
    length = len(seq)
    masks = {}
    piece = {}

    def alive(s: tuple[int, ...]) -> int:
        if s not in piece:
            mk = 0
            for i in s:
                mk |= support_mask(seq[i])
            masks[s] = mk
            piece[s] = localized_piece_dim(mk, quotient, b)
        return piece[s]

    kept: dict[int, list[tuple[int, ...]]] = {}
    for t in range(0 if not truncated else 1, length + 1):
        lst = [s for s in itertools.combinations(range(length), t) if alive(s)]
        if lst:
            kept[t] = lst
    dims = {t: len(lst) for t, lst in kept.items()}
    d = {}
    for t, lst in kept.items():
        nxt = kept.get(t + 1)
        if not nxt:
            continue
        index = {s: k for k, s in enumerate(nxt)}
        mat = field.zeros(len(nxt), len(lst))
        wrote = False
        for col, s in enumerate(lst):
            inside = set(s)
            for j in range(length):
                if j in inside:
                    continue
                tgt = tuple(sorted(inside | {j}))
                row = index.get(tgt)
                if row is None:
                    continue
                sign = -1 if sum(1 for i in s if i < j) % 2 else 1
                mat[row, col] = sign
                wrote = True
        if wrote:
            d[t] = field.normalize(mat)
    blocks = {t: tuple((s, 1) for s in lst) for t, lst in kept.items()}
    return CochainComplex(field, dims, d, blocks)


def cech_multicomplex(problem: CechProblem, b: Exps) -> Multicomplex:
    """The n-axis lattice of iterated Čech slots at degree b.

    The entry at q = (q_1..q_n) is the sum over choices of a q_i-subset S_i of
    each group of the piece of R/J localized at the product of all chosen
    generators; axis i acts by that group's alternating-sign maps, and the
    axes commute.  ``puncture`` of the result removes the origin entry.
    """
    if not problem.in_window(b):
        raise InputError(f"degree {b} outside the window {problem.window}")
    f = problem.field
    J = problem.quotient
    groups = problem.groups
    n = problem.n
    sizes = [len(g) for g in groups]
    gmasks = [[support_mask(g) for g in grp] for grp in groups]
    piece_cache: dict[int, int] = {}

    def alive(mask: int) -> int:
        if mask not in piece_cache:
            piece_cache[mask] = localized_piece_dim(mask, J, b)
        return piece_cache[mask]

    subset_lists = [
        {t: list(itertools.combinations(range(sz), t)) for t in range(sz + 1)} for sz in sizes
    ]
    dims: dict[Point, int] = {}
    pblocks: dict[Point, tuple] = {}
    index: dict[Point, dict[tuple, int]] = {}
    box_lo = (0,) * n
    box_hi = tuple(sizes)
    for q in itertools.product(*[range(sz + 1) for sz in sizes]):
        kept = []
        for combo in itertools.product(*[subset_lists[i][q[i]] for i in range(n)]):
            mask = 0
            for i, s in enumerate(combo):
                for k in s:
                    mask |= gmasks[i][k]
            if alive(mask):
                kept.append(combo)
        if not kept:
            continue
        dims[q] = len(kept)
        pblocks[q] = tuple((combo, 1) for combo in kept)
        index[q] = {combo: pos for pos, combo in enumerate(kept)}
    diffs: dict[tuple[Point, int], np.ndarray] = {}
    for q, kept_idx in index.items():
        for i in range(n):
            tq = q[:i] + (q[i] + 1,) + q[i + 1 :]
            tidx = index.get(tq)
            if tidx is None:
                continue
            mat = f.zeros(dims[tq], dims[q])
            wrote = False
            for combo, col in kept_idx.items():
                s = combo[i]
                inside = set(s)
                for j in range(sizes[i]):
                    if j in inside:
                        continue
                    tcombo = combo[:i] + (tuple(sorted(inside | {j})),) + combo[i + 1 :]
                    row = tidx.get(tcombo)
                    if row is None:
                        continue
                    sign = -1 if sum(1 for k in s if k < j) % 2 else 1
                    mat[row, col] = sign
                    wrote = True
            if wrote:
                diffs[(q, i)] = f.normalize(mat)
    return Multicomplex(f, n, (box_lo, box_hi), dims, diffs, COMMUTATIVE, pblocks)


# ---------------------------------------------------------------------------
# result tables


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions per (index i, multidegree b) over a window.

    ``convention`` records what index 0 means: "h" tables hold the cohomology
    of the full complex by raw slot degree; "hcheck" tables hold the truncated
    complex's cohomology shifted down by one (index i is raw slot i+1).
    """

    num_vars: int
    i_min: int
    i_max: int
    window: Window
    convention: str
    dims: dict[tuple[int, Exps], int]

    @staticmethod
    def from_columns(problem: CechProblem, length: int, mode: str,
                     columns: list[tuple[list[Exps], dict[int, int]]]) -> "CohomologyTable":
        """Assemble the window table of a length-``length`` sequence from
        per-class columns (members, {i: dim}); see ``OracleCache.column``."""
        dims = {(i, b): h for members, col in columns for b in members for i, h in col.items()}
        i_max = length if mode == "full" else max(length - 1, 0)
        return CohomologyTable(problem.num_vars, 0, i_max, problem.window,
                               "h" if mode == "full" else "hcheck", dims)

    def get(self, i: int, b: Exps) -> int:
        return self.dims.get((i, b), 0)

    def to_csv(self) -> str:
        keys = [",".join(map(str, b)) for b in window_degrees(self.window)]
        by_i: dict[int, dict[str, int]] = {}
        for (i, b), h in self.dims.items():
            by_i.setdefault(i, {})[",".join(map(str, b))] = h
        # one chunk per index i, so only one index's rows are alive at a time
        chunks = [",".join(["i", *(f"b{j + 1}" for j in range(self.num_vars)), "dim"])]
        for i in range(self.i_min, self.i_max + 1):
            col = by_i.get(i, {})
            chunks.append("\n".join(f"{i},{key},{col.get(key, 0)}" for key in keys))
        return "\n".join(chunks) + "\n"

    def to_json(self) -> dict:
        """The report's table object: its nonzero entries {"i", "b", "dim"}
        in (i, b) order, one shared record per distinct (i, dim)."""
        records: dict[tuple[int, int], dict] = {}
        entries = [(b, records.setdefault((i, d), {"i": i, "dim": d}))
                   for (i, b), d in sorted(self.dims.items()) if d]
        return {
            "convention": self.convention,
            "i_range": [self.i_min, self.i_max],
            "window": [list(self.window[0]), list(self.window[1])],
            "entries": PerDegree("b", entries),
        }


# ---------------------------------------------------------------------------
# the oracle: inline matrices, rank calls only


def _oracle_vectors(field: Field, seq: tuple[Exps, ...], quotient: MonomialIdeal,
                    b: Exps) -> tuple[list[int], list[int]]:
    """Slot dimensions (0..L) and differential ranks (0..L-1) of the full
    degree-b Čech complex on ``seq``, built directly from subsets."""
    length = len(seq)
    piece: dict[tuple[int, ...], int] = {}
    mask_cache: dict[int, int] = {}

    def alive(s: tuple[int, ...]) -> int:
        if s not in piece:
            mk = 0
            for i in s:
                mk |= support_mask(seq[i])
            if mk not in mask_cache:
                mask_cache[mk] = localized_piece_dim(mk, quotient, b)
            piece[s] = mask_cache[mk]
        return piece[s]

    kept = [
        [s for s in itertools.combinations(range(length), t) if alive(s)]
        for t in range(length + 1)
    ]
    dims = [len(k) for k in kept]
    ranks = []
    for t in range(length):
        if not dims[t] or not dims[t + 1]:
            ranks.append(0)
            continue
        index = {s: k for k, s in enumerate(kept[t + 1])}
        mat = field.zeros(dims[t + 1], dims[t])
        for col, s in enumerate(kept[t]):
            inside = set(s)
            for j in range(length):
                if j in inside:
                    continue
                row = index.get(tuple(sorted(inside | {j})))
                if row is None:
                    continue
                mat[row, col] = -1 if sum(1 for i in s if i < j) % 2 else 1
        ranks.append(rank(field, field.normalize(mat)))
    return dims, ranks


class OracleCache:
    """Per-problem memo of oracle slot/rank vectors for every sequence the
    verifiers need, shared across variants and degrees.

    ``raw`` exposes raw-slot cohomology of the full ("full") or
    slot-0-dropped ("truncated") complex on the concatenation ("concat") or
    generator-products ("product") of a subset of groups.

    The vectors are those of the *support-reduced* sequence (``reduced``): one
    squarefree monomial per minimal support of the sequence's generators.
    This is exact.  The full complex's cohomology is H^i_I(M) with I the ideal
    of the sequence, which depends only on rad(I), and the reduced sequence
    generates rad(I).  The truncated complex agrees with it above slot 1, and
    its slot 1 is h^1 + dim M_b - h^0, again a function of rad(I) alone.  A
    Čech complex has no slots above its length, so ``raw`` reads every slot
    above the reduced length as 0.  Degrees with equal piece patterns, and
    sequences that reduce alike, share vectors.  Everything else reads the
    unreduced ``seq``: its length sets the table ranges and the verifiers'
    loops, and the lattice route never sees the reduction.
    """

    def __init__(self, problem: CechProblem):
        self.problem = problem
        self._pat: dict[Exps, tuple[int, ...]] = {}
        self._vecs: dict[tuple, tuple[list[int], list[int]]] = {}
        self._seqs: dict[tuple, tuple[Exps, ...]] = {}
        self._reduced: dict[tuple[Exps, ...], tuple[Exps, ...]] = {}

    def pattern(self, b: Exps) -> tuple[int, ...]:
        if b not in self._pat:
            self._pat[b] = piece_pattern(self.problem, b)
        return self._pat[b]

    def seq(self, kind: str, subset: tuple[int, ...]) -> tuple[Exps, ...]:
        key = (kind, subset)
        if key not in self._seqs:
            groups = [self.problem.groups[i] for i in subset]
            if kind == "concat":
                self._seqs[key] = tuple(g for grp in groups for g in grp)
            elif kind == "product":
                self._seqs[key] = product_sequence(tuple(groups))
            else:
                raise InputError(f"unknown sequence kind {kind!r}")
        return self._seqs[key]

    def reduced(self, seq: tuple[Exps, ...]) -> tuple[Exps, ...]:
        """The sorted squarefree monomials whose supports are the minimal
        supports of ``seq``'s generators."""
        if seq not in self._reduced:
            masks = {support_mask(g) for g in seq}
            minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
            self._reduced[seq] = tuple(sorted(
                tuple((m >> j) & 1 for j in range(self.problem.num_vars)) for m in minimal))
        return self._reduced[seq]

    def vectors(self, seq: tuple[Exps, ...], b: Exps) -> tuple[list[int], list[int]]:
        """Slot dimensions and differential ranks of the reduced sequence."""
        red = self.reduced(seq)
        key = (red, self.pattern(b))
        if key not in self._vecs:
            self._vecs[key] = _oracle_vectors(self.problem.field, red,
                                              self.problem.quotient, b)
        return self._vecs[key]

    def raw(self, kind: str, subset: tuple[int, ...], mode: str, t: int, b: Exps) -> int:
        """dim of raw slot-t cohomology; mode "full" keeps slot 0, mode
        "truncated" removes it (so t=0 is always 0 there)."""
        seq = self.seq(kind, subset)
        if not seq:
            if mode == "full":
                return localized_piece_dim(0, self.problem.quotient, b) if t == 0 else 0
            return 0
        if t < 0 or t > len(seq) or (mode == "truncated" and t == 0):
            return 0
        dims, ranks = self.vectors(seq, b)
        length = len(ranks)  # the reduced length: no slot lies above it
        if t > length:
            return 0
        up = ranks[t] if t < length else 0
        if mode == "truncated":
            down = ranks[t - 1] if t >= 2 else 0
        else:
            down = ranks[t - 1] if t >= 1 else 0
        return dims[t] - up - down

    def column(self, kind: str, subset: tuple[int, ...], mode: str, b: Exps) -> dict[int, int]:
        """Class step of ``table``: the nonzero entries {i: dim} at degree b."""
        top = len(self.seq(kind, subset))
        raw = {t: self.raw(kind, subset, mode, t, b) for t in range(top + 1)}
        return {t if mode == "full" else t - 1: h for t, h in raw.items() if h}

    def table(self, kind: str, subset: tuple[int, ...], mode: str) -> CohomologyTable:
        columns = [(members, self.column(kind, subset, mode, members[0]))
                   for _pat, members in degree_classes(self.problem)]
        return CohomologyTable.from_columns(self.problem, len(self.seq(kind, subset)), mode,
                                            columns)


# ---------------------------------------------------------------------------
# verifications


def issue_report(results: list[tuple[list[Exps], list[dict]]], key: str) -> dict:
    """Assembly of an audit whose class step returns a list of issues: each
    issue listed under ``key`` for every member degree (class order, then
    issue order, then member order)."""
    issues = PerDegree("degree", [(b, issue) for members, class_issues in results
                                  for issue in class_issues for b in members])
    return {"degrees_checked": sum(len(members) for members, _ in results), key: issues,
            "pass": not issues.items}


def verify_product_vs_interior(problem: CechProblem, seqs: LatticeSequences, cache: OracleCache,
                               b0: Exps) -> list[dict]:
    """Audit, at the representative degree b0 of a degree class, whose
    lattice's region complexes ``seqs`` holds, the dimension identities tying
    the interior of the Čech lattice to the single product-sequence complex:

    * raw H^{i+n-1} of the augmented interior equals the product oracle's H^i;
    * for every nonempty group subset of size p, raw H^{i+p-1} of the interior
      totalization equals the subset's product oracle at truncated slot i;
    * the two first-slot kernels (lattice route and product route) agree;
    * the four-term dimension identity
      h^{n-1} - dim M_b + dim ker - h^n = 0 holds.

    Returns the issues found; ``issue_report`` lists them under every member
    degree.
    """
    n = problem.n
    all_groups = tuple(range(n))
    subsets = [s for p in range(1, n + 1) for s in itertools.combinations(range(n), p)]
    plus_h = seqs.region_h("augmented", all_groups)
    prod_len = len(cache.seq("product", all_groups))
    sub_h = {s: seqs.region_h("interior", s) for s in subsets}
    m_dim = localized_piece_dim(0, problem.quotient, b0)
    dker_lattice = sub_h[all_groups].get(n, 0)
    issues: list[dict] = []
    top_i = max(prod_len + 1, max(plus_h, default=0) - n + 2)
    for i in range(0, top_i + 1):
        want = cache.raw("product", all_groups, "full", i, b0)
        got = plus_h.get(i + n - 1, 0)
        if got != want:
            issues.append({"check": "h", "i": i, "got": got, "want": want})
    for s in subsets:
        p = len(s)
        sub_len = len(cache.seq("product", s))
        top = max(sub_len + 1, max(sub_h[s], default=0) - p + 2)
        for i in range(1, top + 1):
            want = cache.raw("product", s, "truncated", i, b0)
            got = sub_h[s].get(i + p - 1, 0)
            if got != want:
                issues.append({"check": "truncated", "subset": list(s), "i": i,
                               "got": got, "want": want})
    dker_product = cache.raw("product", all_groups, "truncated", 1, b0)
    if dker_lattice != dker_product:
        issues.append({"check": "kernels", "got": dker_lattice, "want": dker_product})
    four = plus_h.get(n - 1, 0) - m_dim + dker_lattice - plus_h.get(n, 0)
    if four != 0:
        issues.append({"check": "four_term", "value": four})
    return issues


class _AugmentedFiber:
    """Degree-b augmented interior complex plus the bookkeeping needed to map
    its basis elements across degrees (each element is a choice of generator
    subsets, whose localization support never changes)."""

    def __init__(self, problem: CechProblem, b: Exps):
        self.problem = problem
        n = problem.n
        mc = cech_multicomplex(problem, b)
        inner = restrict(mc, Region.interior_all(n))
        self.plus = augment_interior(mc, tuple(range(n)), totalize(inner))

        def basis(q) -> list:  # the origin entry is one piece, so one "aug" element
            return ["aug"] if q == "aug" else [(q, combo) for combo, _ in inner.point_blocks[q]]

        self.keys = {m: [k for q, _ in blk for k in basis(q)] for m, blk in self.plus.blocks.items()}
        self.positions = {m: {k: i for i, k in enumerate(keys)} for m, keys in self.keys.items()}


def _step_chain(src: _AugmentedFiber, dst: _AugmentedFiber) -> dict[int, np.ndarray]:
    """Multiplication-by-monomial chain map between two fibers: each basis
    element maps to its namesake if that one is still alive."""
    f = src.problem.field
    chain = {}
    for m in sorted(set(src.plus.dims) | set(dst.plus.dims)):
        mat = f.zeros(dst.plus.dim(m), src.plus.dim(m))
        for col, key in enumerate(src.keys.get(m, [])):
            row = dst.positions.get(m, {}).get(key)
            if row is not None:
                mat[row, col] = 1
        chain[m] = mat
    return chain


def annihilation_report(problem: CechProblem, bound: int, cache: OracleCache | None = None) -> dict:
    """Check that every cohomology class of the augmented interior complex is
    killed, within the window, by a power of each generator-product monomial.

    For each degree b with classes, each product generator g and each power
    N <= bound with b + N*deg(g) still in the window, the induced map on
    cohomology is composed step by step; a class counts as annihilated once
    its image vanishes.  Classes whose testing walks leave the window before
    vanishing are reported as inconclusive, not failed.
    """
    if bound < 1:
        raise InputError("annihilation bound must be at least 1")
    gens = product_sequence(problem.groups)
    if not any(problem.in_window(monomial_mul(b, g)) for b in problem.degrees() for g in set(gens)):
        raise InputError("window too small to test annihilation for any exponent")

    # a fiber, and the map between two fibers, depend on their degrees only
    # through the piece patterns, so each is built once per pattern
    cache = cache or OracleCache(problem)
    fibers: dict[tuple[int, ...], _AugmentedFiber] = {}
    induced_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, np.ndarray]] = {}

    def fiber(b: Exps) -> _AugmentedFiber:
        pat = cache.pattern(b)
        if pat not in fibers:
            fibers[pat] = _AugmentedFiber(problem, b)
        return fibers[pat]

    def induced(b: Exps, g: Exps) -> dict[int, np.ndarray]:
        nxt = monomial_mul(b, g)
        key = (cache.pattern(b), cache.pattern(nxt))
        if key not in induced_cache:
            src, dst = fiber(b), fiber(nxt)
            induced_cache[key] = cohomology_map(src.plus, dst.plus, _step_chain(src, dst))
        return induced_cache[key]

    f = problem.field
    rows: list[dict] = []
    total_pairs = 0
    annihilated_pairs = 0
    inconclusive: list[dict] = []
    for b in problem.degrees():
        hdims = fiber(b).plus.cohomology_dims()
        for m, k in sorted(hdims.items()):
            if not k:
                continue
            for g in sorted(set(gens)):
                total_pairs += k
                cum = f.eye(k)
                cur = b
                found = [None] * k
                ran_out = False
                for nstep in range(1, bound + 1):
                    nxt = monomial_mul(cur, g)
                    if not problem.in_window(nxt):
                        ran_out = True
                        break
                    step = induced(cur, g).get(m)
                    if step is None:
                        step = f.zeros(0, cum.shape[0])
                    cum = mul(f, step, cum)
                    for col in range(k):
                        if found[col] is None and not np.any(cum[:, col] if cum.size else []):
                            found[col] = nstep
                    cur = nxt
                    if all(x is not None for x in found):
                        break
                done = sum(1 for x in found if x is not None)
                annihilated_pairs += done
                row = {
                    "degree": list(b),
                    "slot": m,
                    "generator": format_monomial(g),
                    "classes": k,
                    "annihilated_at": [x if x is not None else None for x in found],
                }
                rows.append(row)
                if done < k:
                    inconclusive.append({**row, "window_exhausted": ran_out})
    return {
        "bound": bound,
        "pairs": total_pairs,
        "annihilated": annihilated_pairs,
        "inconclusive": inconclusive,
        "rows": rows,
        "pass": not inconclusive,
    }

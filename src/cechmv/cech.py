"""Multigraded Čech machinery for monomial sequences.

Everything here works one multidegree b at a time.  Over a monomial quotient
R/J every localization piece is 0- or 1-dimensional, so the degree-b slice of
a Čech complex is a finite complex with entries indexed by subsets of the
generator sequence and matrices with entries in {-1, 0, +1}.

Two independent routes are kept deliberately separate:

* ``cech_multicomplex`` feeds the lattice and filtration machinery
  (CochainComplex / Multicomplex / spectral); the Čech complex of one
  sequence is its one-group lattice, totalized;
* ``OracleCache`` builds its matrices inline and only calls the exact rank
  routine, so it shares no complex-assembly code with the route it is used to
  audit.  It never receives a lattice, and the lattice builders never read it.
  It ranks the Čech complex of each sequence's support reduction (one
  squarefree monomial per minimal generator support), which has the same
  local cohomology because that depends only on the radical; the lattice
  route always works on the whole sequence.

The piece pattern of a degree (which localizations are alive) determines
every matrix in both routes, and both read a degree only through it:
``cech_multicomplex`` is given the class's pattern from ``degree_classes``,
which groups a window by pattern, and the oracle (``_oracle_vectors``,
``raw``) and verify34's dim M_b index its own ``OracleCache.pattern``.  So
degrees with equal patterns are computationally identical, and every audit
comparing the routes also checks the classification at the class's degree.
A piece is alive when b_j >= 0 and b_j >= g_j hold for the right variables j
and quotient generators g, so the pattern sees each b_j only through its
interval among the thresholds {0} and {g_j}.  The window therefore splits
into chambers (one interval per coordinate) of constant pattern, and
``degree_classes`` evaluates the pattern once per chamber, never per degree.
Every audit is split into a class step, run once at a class's representative
degree b0 (its first member), whose result names no degree, and an assembly
that lists the class results under the member degrees:
``verify_product_vs_interior`` is the class step of the verify34 task.
``cli.compute`` runs the class steps over a whole window, and
``cli.assemble_unit`` is the one assembly.

A class step reads its pattern only at unions of generator supports
(``support_unions``), so classes whose patterns agree there give equal class
results.  A variable permutation sigma that maps every group onto itself
relabels the support masks of a pattern; when sigma maps the reads of one
class onto those of another, sigma maps the first lattice isomorphically onto
the second, point by point, and every oracle sequence onto itself, and the
two classes give equal class results too; the quotient plays no part.  The
classes fall into orbits under both links (``class_orbits``, with sigma among
transpositions and double transpositions of the variables), and
``cli.compute`` runs one class step per orbit.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .errors import ContractError, InputError
from .grading import Exps, MonomialIdeal, parse_monomial, product_sequence, support_mask
from .jsonout import PerDegree
from .linalg import Columns, Dense, Field, rank
from .multicomplex import Multicomplex, Point
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
    problem can produce at b are determined by this tuple.

    The piece of R/J localized at a monomial of support mask is alive when
    b_j >= 0 for every variable j outside mask, and no quotient generator g
    has g_j <= b_j for all those j; that is, when mask contains the "below
    zero" mask {j : b_j < 0} and, for every g, does not contain its "does
    not fit" mask {j : g_j > b_j}."""
    m = problem.num_vars
    if len(b) != m:
        raise ContractError(f"degree {b} has wrong length for {m} variables")
    neg = sum(1 << j for j, e in enumerate(b) if e < 0)
    misfits = [sum(1 << j for j, (t, e) in enumerate(zip(g, b)) if t > e)
               for g in problem.quotient.gens]
    return tuple(int(mask & neg == neg and all(mask & f != f for f in misfits))
                 for mask in range(1 << m))


def degree_classes(problem: CechProblem) -> list[tuple[tuple[int, ...], list[Exps]]]:
    """Window degrees grouped by piece pattern, each class in lex order, the
    classes ordered by their first member.

    Per coordinate j, the sorted thresholds {0} and {g_j : g a quotient
    generator} cut the integers into intervals, and so the window's values
    of b_j into runs, each inside one interval; a chamber is a product of
    runs, one per coordinate.  Every test in ``piece_pattern`` compares some
    b_j with one of these thresholds, and those comparisons cannot change
    inside an interval, so the pattern is constant on a chamber.  The
    chambers are walked once, in lex order, and the pattern is evaluated at
    each chamber's first degree (the starts of its runs), which is also the
    first member of its class when the chamber is the class's first.  A
    class's members are the products of its chambers' runs.  When the
    chambers are every product of their runs on each coordinate (a grid, one
    chamber included), the members are the product of those runs' unions,
    already in lex order; any other class's members are sorted.
    """
    lo, hi = problem.window
    runs = []
    for j, (a, z) in enumerate(zip(lo, hi)):
        starts = [a, *sorted({t for t in (0, *(g[j] for g in problem.quotient.gens))
                              if a < t <= z})]
        runs.append([range(s, e) for s, e in zip(starts, [*starts[1:], z + 1])])
    by_pat: dict[tuple[int, ...], list[tuple[range, ...]]] = {}  # in order of first member
    for chamber in itertools.product(*runs):
        pat = piece_pattern(problem, tuple(r.start for r in chamber))
        by_pat.setdefault(pat, []).append(chamber)
    return [(pat, _members(chambers)) for pat, chambers in by_pat.items()]


def _members(chambers: list[tuple[range, ...]]) -> list[Exps]:
    axes = [sorted(set(rs), key=operator.attrgetter("start")) for rs in zip(*chambers)]
    if len(chambers) == functools.reduce(operator.mul, map(len, axes)):
        return list(itertools.product(*(itertools.chain(*rs) for rs in axes)))
    return sorted(itertools.chain.from_iterable(itertools.product(*c) for c in chambers))


def variable_symmetries(problem: CechProblem) -> list[tuple[int, ...]]:
    """Variable permutations that map every group onto itself, compared as
    a multiset; a permutation sigma is the tuple with sigma[j] the image of
    variable j.  The quotient need not be fixed (``class_orbits``).

    Only transpositions and products of two disjoint transpositions are
    tried, and only swaps of variables with equal signatures (the sorted
    exponents of the variable in each group), which every such sigma
    preserves.  Every candidate is verified, so each returned sigma is a
    symmetry; one that is missed only costs reuse."""
    m = problem.num_vars
    signatures = [tuple(tuple(sorted(g[j] for g in grp)) for grp in problem.groups)
                  for j in range(m)]
    swaps = [(a, c) for a, c in itertools.combinations(range(m), 2)
             if signatures[a] == signatures[c]]
    candidates = [[s] for s in swaps] + [[s, t] for s, t in itertools.combinations(swaps, 2)
                                          if not set(s) & set(t)]
    kept = []
    for swap_list in candidates:
        sigma = list(range(m))
        for a, c in swap_list:
            sigma[a], sigma[c] = c, a

        def image(g: Exps) -> Exps:  # sigma(g)_{sigma(j)} = g_j; sigma is an involution
            return tuple(g[sigma[j]] for j in range(m))

        if all(sorted(map(image, grp)) == sorted(grp) for grp in problem.groups):
            kept.append(tuple(sigma))
    return kept


def class_orbits(problem: CechProblem, patterns: list[tuple[int, ...]]) -> list[int]:
    """For each degree class, given by its piece pattern in class order, the
    index of the first class of its orbit.

    The reads of a pattern P are its entries at ``support_unions``: mask 0
    and every union of generator supports.  A symmetry sigma from
    ``variable_symmetries`` acts on patterns by relabelling the support
    masks: (sigma P)[sigma(mask)] = P[mask].  Two classes are linked when
    their reads agree, or when sigma P has the reads of the other; the
    orbits are the connected components.

    Every class step of an orbit gives the same result, so ``cli.compute``
    runs it once, at the orbit's first class.  A class step reads its degree
    only through its pattern, and only at unions of generator supports: a
    lattice entry, a choice of generator subsets, is alive when P is at the
    support of their product, which is the union of their supports; the
    oracle's rank vectors read P at unions of the supports of a reduced
    sequence, each of which is the support of a generator or of a product of
    generators; and the oracle's other reads (the empty sequence in ``raw``
    and verify34's dim M_b) are at mask 0.  Results name no degree, so
    classes with equal reads give equal results.  Let P' = sigma P.  sigma
    maps each group onto itself, so it permutes the generators of group i by
    some pi_i with supp(g_{pi_i(k)}) = sigma(supp(g_k)), and a generator
    subset S_i is alive under P exactly when pi_i(S_i) is alive under P',
    the support mask of the product being relabelled by sigma.  So the two
    lattices have the same points and entry dimensions, and
    S -> pi(S) with the sign of each reordering is an isomorphism of
    multicomplexes that maps no entry off its lattice point.  It commutes
    with the Koszul split, the totalizations, the coordinate filtrations and
    the regions, which are all defined point by point, so every dimension
    and rank of their pages and cohomologies agrees.  The oracle's sequences
    (concatenations and products of groups, and their support reductions)
    are mapped onto themselves too, so its Čech complexes under P and P'
    are isomorphic and its ranks agree.  The points q, the axis order and
    every group subset a record names are unchanged, so every issue and
    failure record agrees as well, and a class with the reads of P' gives
    them too.  Whether sigma fixes the quotient does not enter: no degree
    need have the pattern P'.  A permutation of the groups is not used: it
    would move points and group subsets, and verify34's ``subset`` and
    props2's point ``q`` would have to be relabelled.
    """
    orbit = list(range(len(patterns)))
    if len(patterns) < 2:
        return orbit
    reads = operator.itemgetter(*support_unions(problem))
    index: dict[object, int] = {}

    def root(k: int) -> int:
        while orbit[k] != k:
            orbit[k] = orbit[orbit[k]]
            k = orbit[k]
        return k

    def link(k: int, other: int) -> None:
        a, c = root(k), root(other)
        orbit[max(a, c)] = min(a, c)  # so each root is its component's first class

    for k, pat in enumerate(patterns):
        link(k, index.setdefault(reads(pat), k))
    for sigma in variable_symmetries(problem):
        image = [0] * (1 << problem.num_vars)  # image[mask] = sigma(mask), itself an involution
        for mask in range(1, len(image)):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << sigma[low.bit_length() - 1]
        relabel = operator.itemgetter(*image)  # P to sigma P
        for k, pat in enumerate(patterns):
            other = index.get(reads(relabel(pat)))
            if other is not None:
                link(k, other)
    return [root(k) for k in range(len(patterns))]


def support_unions(problem: CechProblem) -> list[int]:
    """The support masks of the products of every set of generators, of any
    groups, ascending; the empty product's mask 0 included."""
    unions = {0}
    for g in itertools.chain.from_iterable(problem.groups):
        unions |= {u | support_mask(g) for u in unions}
    return sorted(unions)


# ---------------------------------------------------------------------------
# engine-side constructions


def cech_multicomplex(problem: CechProblem, pattern: tuple[int, ...]) -> Multicomplex:
    """The n-axis lattice of iterated Čech slots at a degree with piece
    pattern ``pattern``; ``ContractError`` if its length is not 2^m.

    The entry at q = (q_1..q_n) is the sum over choices of a q_i-subset S_i of
    each group of the piece of R/J localized at the product of all chosen
    generators; axis i acts by that group's alternating-sign maps, and the
    axes commute.  The totalization of the result ``mc`` without its origin
    entry is ``restrict(totalize(mc), any)``; ``LatticeSequences`` selects
    the same blocks, keyed ``(0,) + q``, from the totalization of the cube
    extension (layer 0 without its origin).
    """
    if len(pattern) != 1 << problem.num_vars:
        raise ContractError(f"a pattern of {len(pattern)} entries, not 2^{problem.num_vars}")
    f = problem.field
    groups = problem.groups
    n = problem.n
    sizes = [len(g) for g in groups]
    gmasks = [[support_mask(g) for g in grp] for grp in groups]
    subset_lists = [
        {t: list(itertools.combinations(range(sz), t)) for t in range(sz + 1)} for sz in sizes
    ]
    dims: dict[Point, int] = {}
    index: dict[Point, dict[tuple, int]] = {}
    for q in itertools.product(*[range(sz + 1) for sz in sizes]):
        kept = []
        for combo in itertools.product(*[subset_lists[i][q[i]] for i in range(n)]):
            mask = 0
            for i, s in enumerate(combo):
                for k in s:
                    mask |= gmasks[i][k]
            if pattern[mask]:
                kept.append(combo)
        if not kept:
            continue
        dims[q] = len(kept)
        index[q] = {combo: pos for pos, combo in enumerate(kept)}
    signs = (f.normalize(1), f.normalize(-1))
    diffs: dict[tuple[Point, int], Columns] = {}
    for q, kept_idx in index.items():
        for i in range(n):
            tq = q[:i] + (q[i] + 1,) + q[i + 1 :]
            tidx = index.get(tq)
            if tidx is None:
                continue
            columns: Columns = []
            for combo in kept_idx:  # in column order
                s = combo[i]
                col = {}
                for j in range(sizes[i]):
                    if j in s:
                        continue
                    tcombo = combo[:i] + (tuple(sorted((*s, j))),) + combo[i + 1 :]
                    row = tidx.get(tcombo)
                    if row is not None:
                        col[row] = signs[sum(1 for k in s if k < j) % 2]
                columns.append(col)
            diffs[(q, i)] = columns
    return Multicomplex(f, n, dims, diffs)


# ---------------------------------------------------------------------------
# result tables


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions per index i in 0..i_max and degree b of a window, as class
    columns (members, {i: dim}); every other (i, b) has dimension 0.  The
    writers refuse a nonzero dimension outside 0..i_max or the window with
    ``ContractError``.  ``convention`` records what index 0 means: "h" tables
    hold the cohomology of the full complex by raw slot degree; "hcheck"
    tables hold the truncated complex's cohomology shifted down by one
    (index i is raw slot i+1)."""

    num_vars: int
    i_max: int
    window: Window
    convention: str
    columns: list[tuple[list[Exps], dict[int, int]]]

    @functools.cached_property
    def _cells(self) -> dict[int, list[tuple[int, Exps, int]]]:
        """i -> [(position of b in the window's lex order, b, dim)] over the
        nonzero dimensions, in column order; computed once for both writers."""
        lo, hi = self.window
        strides = list(itertools.accumulate([z - a + 1 for a, z in zip(lo[:0:-1], hi[:0:-1])],
                                            operator.mul, initial=1))[::-1]
        base = sum(map(operator.mul, lo, strides))  # so that lo sits at 0
        cells: dict[int, list[tuple[int, Exps, int]]] = {}
        for members, col in self.columns:
            col = {i: h for i, h in col.items() if h}
            if bad := col.keys() - range(self.i_max + 1):
                raise ContractError(f"index {min(bad)} outside 0..{self.i_max}")
            if not col:
                continue
            if not (set(map(len, members)) <= {len(lo)} and all(
                    a <= min(v) and max(v) <= z for a, z, v in zip(lo, hi, zip(*members)))):
                b = next(b for b in members if not (len(b) == len(lo) and all(
                    map(operator.le, lo, b)) and all(map(operator.le, b, hi))))
                raise ContractError(f"degree {b} outside the window {self.window}")
            positions = [sum(map(operator.mul, b, strides)) - base for b in members]
            for i, h in col.items():
                cells.setdefault(i, []).extend(zip(positions, members, itertools.repeat(h)))
        return cells

    def to_csv(self) -> str:
        """The dense table as CSV: the header ``i,b1,...,bm,dim``, then one
        row ``i,b1,...,bm,dim`` per index i in 0..i_max and window degree b,
        index-major with the degrees in lex order, zeros included.

        Every zero row ``b1,...,bm,0`` is built once and shared by all
        indices; each index's chunk is one ``str.join`` over them whose
        separator carries the ``i,`` prefix, with that index's nonzero cells
        patched in for the join only.
        """
        cells = self._cells
        values = [[str(v) for v in range(a, z + 1)] for a, z in zip(*self.window)]
        rows = list(map(",".join, itertools.product(*values, ("0",))))
        chunks = [",".join(["i", *(f"b{j + 1}" for j in range(self.num_vars)), "dim"])]
        for i in range(self.i_max + 1):
            patched = cells.get(i, [])
            zeros = [rows[pos] for pos, _b, _h in patched]
            for (pos, _b, h), zero in zip(patched, zeros):
                rows[pos] = f"{zero[:-1]}{h}"
            chunks.append(f"{i}," + f"\n{i},".join(rows) if rows else "")
            for (pos, _b, _h), zero in zip(patched, zeros):
                rows[pos] = zero
        # the peak is the final join: free the zero rows before it, and add
        # the trailing newline as an empty last chunk, not by copying the text
        del rows
        chunks.append("")
        return "\n".join(chunks)

    def to_json(self) -> dict:
        """The report's table object: its nonzero entries {"i", "b", "dim"}
        in (i, b) order, one shared record per distinct (i, dim)."""
        records: dict[tuple[int, int], dict] = {}
        entries = [(b, records.setdefault((i, d), {"i": i, "dim": d}))
                   for i, cells in sorted(self._cells.items()) for _pos, b, d in sorted(cells)]
        return {
            "convention": self.convention,
            "i_range": [0, self.i_max],
            "window": [list(self.window[0]), list(self.window[1])],
            "entries": PerDegree("b", entries),
        }


# ---------------------------------------------------------------------------
# the oracle: inline matrices, rank calls only


def _oracle_vectors(field: Field, seq: tuple[Exps, ...],
                    pattern: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Slot dimensions (0..L) and differential ranks (0..L-1) of the full
    Čech complex on ``seq`` at a degree with piece pattern ``pattern``,
    built directly from subsets."""
    length = len(seq)
    masks = [support_mask(g) for g in seq]
    kept = [
        [s for s in itertools.combinations(range(length), t)
         if pattern[functools.reduce(operator.or_, (masks[i] for i in s), 0)]]
        for t in range(length + 1)
    ]
    dims = [len(k) for k in kept]
    signs = (field.normalize(1), field.normalize(-1))
    ranks = []
    for t in range(length):
        if not dims[t] or not dims[t + 1]:
            ranks.append(0)
            continue
        index = {s: k for k, s in enumerate(kept[t + 1])}
        mat = Dense.zeros(dims[t + 1], dims[t])
        for col, s in enumerate(kept[t]):
            inside = set(s)
            for j in range(length):
                if j in inside:
                    continue
                row = index.get(tuple(sorted(inside | {j})))
                if row is None:
                    continue
                mat[row][col] = signs[sum(1 for i in s if i < j) % 2]
        ranks.append(rank(field, mat))
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
        key = (self.reduced(seq), self.pattern(b))
        if key not in self._vecs:
            self._vecs[key] = _oracle_vectors(self.problem.field, *key)
        return self._vecs[key]

    def raw(self, kind: str, subset: tuple[int, ...], mode: str, t: int, b: Exps) -> int:
        """dim of raw slot-t cohomology; mode "full" keeps slot 0, mode
        "truncated" removes it (so t=0 is always 0 there)."""
        seq = self.seq(kind, subset)
        if not seq:
            if mode == "full":
                return self.pattern(b)[0] if t == 0 else 0
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
        """The window table of the sequence, one column per degree class."""
        length, full = len(self.seq(kind, subset)), mode == "full"
        columns = [(members, self.column(kind, subset, mode, members[0]))
                   for _pat, members in degree_classes(self.problem)]
        return CohomologyTable(self.problem.num_vars, length if full else max(length - 1, 0),
                               self.problem.window, "h" if full else "hcheck", columns)


# ---------------------------------------------------------------------------
# verifications


def verify_product_vs_interior(problem: CechProblem, seqs: LatticeSequences, cache: OracleCache,
                               b0: Exps) -> list[dict]:
    """Audit, at the representative degree b0 of a degree class, whose
    lattice's region cohomology ``seqs`` reads, the dimension identities tying
    the interior of the Čech lattice to the single product-sequence complex:

    * raw H^{i+n-1} of the augmented interior equals the product oracle's H^i;
    * for every nonempty group subset of size p, raw H^{i+p-1} of the interior
      totalization equals the subset's product oracle at truncated slot i;
    * the two first-slot kernels (lattice route and product route) agree;
    * the four-term dimension identity
      h^{n-1} - dim M_b + dim ker - h^n = 0 holds.

    Returns the issues found; ``cli.assemble_unit`` lists them under every
    member degree.
    """
    n = problem.n
    all_groups = tuple(range(n))
    subsets = [s for p in range(1, n + 1) for s in itertools.combinations(range(n), p)]
    plus_h = seqs.region_h("augmented", all_groups)
    prod_len = len(cache.seq("product", all_groups))
    sub_h = {s: seqs.region_h("interior", s) for s in subsets}
    m_dim = cache.pattern(b0)[0]
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

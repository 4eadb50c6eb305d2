"""Class steps of the four lattice spectral sequences of a Čech problem, of
the two-group long exact sequence and of the three-group limit filtration.

Each variant fixes one filtration of one complex built from the degree-b
Čech lattice:

* 1a - wedge filtration of the face half of the Koszul split, top wedge level
  dropped, on the full lattice; first page made of sum-ideal cohomologies,
  abutting the product-sequence cohomology (raw slot m-n+1 of the full
  product complex).
* 1b - wedge filtration of the face half on the punctured lattice; first page
  made of slot-0-dropped sum-ideal cohomologies, abutting raw slot m-n+1 of
  the truncated product complex.
* 2a - nonzero-coordinate-count filtration of the cube-extended lattice;
  first page made of subset-product cohomologies, abutting the concatenated
  (sum-ideal) cohomology at raw slot m.
* 2b - the same count filtration on the punctured lattice; first page and
  abutment in the truncated mode.

The four filtered complexes of a class, and their spectral sequences, come
from the ``LatticeSequences`` of its lattice, which the region audits
(``spectral.region_convergence_report``, the props2 task) read too.  First
pages and abutments are checked dimensionwise against the independent
oracle.  Every function here works on one degree class, at its
representative degree: ``run_variant``, ``mv_les`` and
``infinity_filtration_report`` are the class steps of the ``mvss:V`` and
``les`` tasks, and ``MvssRun`` and ``degree_records`` assemble their results
over the member degrees.  ``cli.compute`` runs them over a whole window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# mvss builds no lattice; the name stays bound here because the benchmark's
# tracer test (perfbench/test_perfbench.py) checks its binding in this module
from .cech import CechProblem, OracleCache, cech_multicomplex  # noqa: F401
from .errors import InputError
from .grading import Exps
from .jsonout import PerDegree
from .linalg import Columns, mul, pivot_pairs, submatrix
from .multicomplex import CochainComplex, cohomology_map
from .spectral import FilteredComplex, LatticeSequences, Page

VARIANTS = ("1a", "1b", "2a", "2b")

# the LatticeSequences filtration of each variant
FILTRATION = {"1a": "truncated face", "1b": "punctured face",
              "2a": "cube count", "2b": "punctured count"}


def _expected_e1(cache: OracleCache, variant: str, p: int, q: int, b: Exps) -> int:
    """Oracle value for the engine cell (p, q) of the first page."""
    prob = cache.problem
    n = prob.n
    if variant in ("1a", "1b"):
        size = n - p
        if size < 0 or (variant == "1a" and p > n - 1):
            return 0
        mode = "full" if variant == "1a" else "truncated"
        return sum(
            cache.raw("concat", s, mode, q, b)
            for s in itertools.combinations(range(n), size)
        )
    size = p
    if size < 1 or size > n:
        return 0
    mode = "full" if variant == "2a" else "truncated"
    return sum(
        cache.raw("product", s, mode, q + 1, b)
        for s in itertools.combinations(range(n), size)
    )


def _expected_abutment(cache: OracleCache, variant: str, m: int, b: Exps) -> int:
    n = cache.problem.n
    if variant == "1a":
        return cache.raw("product", tuple(range(n)), "full", m - n + 1, b)
    if variant == "1b":
        return cache.raw("product", tuple(range(n)), "truncated", m - n + 1, b)
    if variant == "2a":
        return cache.raw("concat", tuple(range(n)), "full", m, b)
    return cache.raw("concat", tuple(range(n)), "truncated", m, b)


@dataclass
class ClassRun:
    """One spectral-sequence computation, valid for every degree in members."""

    members: list[Exps]
    pages: list[Page]
    width: int
    stabilized_at: int | None
    einf_dims: dict[tuple[int, int], int]
    h_dims: dict[int, int]
    e1_mismatches: list[dict]
    abutment_mismatches: list[dict]


@dataclass
class MvssRun:
    """A variant over the window: its class runs, in class order."""

    problem: CechProblem
    variant: str
    classes: list[ClassRun]

    @property
    def failures(self) -> list[dict]:
        return [
            {"variant": self.variant, "degree": list(b), "kind": kind, **mm}
            for cls in self.classes
            for b in cls.members
            for kind, mms in (("e1", cls.e1_mismatches), ("abutment", cls.abutment_mismatches))
            for mm in mms
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    def degrees(self) -> PerDegree:
        """The ``degrees`` list of ``pages_V.json``: one record per class."""
        return PerDegree.by_degree([
            (cls.members, {
                "variant": self.variant,
                "pages": [pg.to_json() for pg in cls.pages],
                "stabilized_at": cls.stabilized_at,
                "e1_check": {"pass": not cls.e1_mismatches, "mismatches": cls.e1_mismatches},
                "abutment_check": {"pass": not cls.abutment_mismatches,
                                   "mismatches": cls.abutment_mismatches},
            })
            for cls in self.classes
        ])

    def summary_text(self) -> str:
        n_deg = sum(len(c.members) for c in self.classes)
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} mismatches)"
        return (
            f"variant {self.variant}: {n_deg} degrees in {len(self.classes)} classes, {status}"
        )


def _stabilized_at(pages: list[Page]) -> int | None:
    """Smallest r whose page equals every later computed page with all maps
    of rank zero; None if that never happens within the computed horizon."""
    last = len(pages) - 1
    stable_from = None
    for r in range(last, 0, -1):
        pg = pages[r]
        if pg.cells != pages[last].cells:
            break
        if any(pg.ranks.values()):
            break
        stable_from = r
    return stable_from


def run_variant(problem: CechProblem, variant: str, seqs: LatticeSequences, cache: OracleCache,
                members: list[Exps], pages_r: int | None = None) -> ClassRun:
    """The chosen spectral sequence for one degree class: the variant's
    filtered complex, read from ``seqs``, the ``LatticeSequences`` of the
    class's full lattice, with its first page and abutment audited against
    the oracle at the representative degree members[0]."""
    if variant not in FILTRATION:
        raise InputError(f"unknown variant {variant!r}")
    b0 = members[0]
    n = problem.n
    ss = seqs.sequence(FILTRATION[variant])
    fc = ss.fc
    width = max(fc.width, 1) if fc.total.dims else 1
    r_top = max(width + 1, pages_r if pages_r is not None else 0)
    pages = ss.pages_up_to(r_top)
    page_inf, ab = ss.infinity()
    einf = dict(page_inf.cells)

    # first-page audit (engine coordinates)
    e1 = pages[1]
    p_lo = 0
    p_hi = n if variant != "1a" else n - 1
    q_hi = max(
        [q for (_p, q) in e1.cells] + [sum(len(g) for g in problem.groups) + 1]
    )
    q_lo = min([q for (_p, q) in e1.cells] + [-1])
    e1_mism = []
    for p in range(p_lo, p_hi + 1):
        for q in range(q_lo, q_hi + 1):
            want = _expected_e1(cache, variant, p, q, b0)
            got = e1.dim(p, q)
            if got != want:
                e1_mism.append({"p": p, "q": q, "got": got, "want": want})
    for (p, q), d in e1.cells.items():
        if d and not (p_lo <= p <= p_hi and q_lo <= q <= q_hi):
            e1_mism.append({"p": p, "q": q, "got": d, "want": 0})

    # abutment audit
    m_vals = set(ab.h_dims) | set(fc.total.dims)
    span = n + sum(len(g) for g in problem.groups) + 2
    m_vals.update(range(0, span))
    ab_mism = []
    for m in sorted(m_vals):
        want = _expected_abutment(cache, variant, m, b0)
        got = ab.h_dims.get(m, 0) if fc.total.dims else 0
        if got != want:
            ab_mism.append({"m": m, "got": got, "want": want})

    return ClassRun(
        members=members,
        pages=pages,
        width=width,
        stabilized_at=_stabilized_at(pages),
        einf_dims=einf,
        h_dims={m: d for m, d in ab.h_dims.items() if d} if fc.total.dims else {},
        e1_mismatches=e1_mism,
        abutment_mismatches=ab_mism,
    )


def mv_les(run_1a: ClassRun, run_2a: ClassRun, cache: OracleCache) -> dict:
    """The two-group long exact sequence at the representative degree of the
    class whose 1a and 2a runs are given, its exactness verified by rank
    bookkeeping.

    The connecting rank is inferred from exactness at the product term; the
    two independent joint identities (at the sum term and at the middle term)
    are then checked against the boundary maps of the two first pages.
    """
    problem = cache.problem
    b = run_1a.members[0]
    top = sum(len(g) for g in problem.groups) + 2
    p1a = run_1a.pages[1]
    p2a = run_2a.pages[1]
    h_sum = {i: cache.raw("concat", (0, 1), "full", i, b) for i in range(top)}
    h_mid = {
        i: cache.raw("concat", (0,), "full", i, b) + cache.raw("concat", (1,), "full", i, b)
        for i in range(top)
    }
    h_prod = {i: cache.raw("product", (0, 1), "full", i, b) for i in range(top)}
    alpha = {i: p1a.map_rank(0, i) for i in range(top)}
    beta = {i: p2a.map_rank(1, i - 1) for i in range(top)}
    delta = {i: h_prod[i] - beta[i] for i in range(top)}
    joints = []
    ok = True
    for i in range(top):
        lhs = h_sum[i] - alpha[i]
        rhs = delta[i - 1] if i >= 1 else 0
        good = lhs == rhs
        joints.append({"i": i, "at": "sum", "kernel": lhs, "image": rhs, "ok": good})
        ok = ok and good
        good = h_mid[i] == alpha[i] + beta[i]
        joints.append(
            {"i": i, "at": "middle", "dim": h_mid[i],
             "kernel_plus_image": alpha[i] + beta[i], "ok": good}
        )
        ok = ok and good
        if delta[i] < 0 or alpha[i] > min(h_sum[i], h_mid[i]) or beta[i] > min(h_mid[i], h_prod[i]):
            joints.append({"i": i, "at": "ranks", "ok": False})
            ok = False
    return {
        "dims": {"sum": h_sum, "middle": h_mid, "product": h_prod},
        "ranks": {"alpha": alpha, "beta": beta, "delta": delta},
        "joints": joints,
        "pass": ok,
    }


def degree_records(results: list[tuple[list[Exps], dict]]) -> dict:
    """Assembly of ``mv_les`` or ``infinity_filtration_report`` results from
    (members, class record): the records per degree and the failing ones."""
    degrees = PerDegree.by_degree(results)
    failures = PerDegree("degree", [(b, rec) for b, rec in degrees.items if not rec["pass"]])
    return {"degrees": degrees, "failures": failures, "pass": not failures.items}


def _first_page_maps(fc: FilteredComplex, p: int) -> dict[int, Columns]:
    """d_1 out of level p of a coordinate filtration, by total degree, in the
    bases of ``cohomology_reps``.  The first page at level p is the cohomology
    of the level-p diagonal block of d, and d_1 is induced by the block one
    level up, which anticommutes with the diagonal blocks."""
    tot = fc.total

    def level(lv: int, shift: int) -> tuple[CochainComplex, dict[int, list[int]]]:
        index = {m: [i for i, x in enumerate(fc.levels[m]) if x == lv] for m in tot.dims}
        dims = {m - shift: len(ix) for m, ix in index.items()}
        d = {m - shift: submatrix(tot.matrix(m), index[m + 1], ix)
             for m, ix in index.items() if m + 1 in index}
        return CochainComplex(tot.field, dims, d), index

    src, here = level(p, 0)
    tgt, up = level(p + 1, 1)
    chain = {m: submatrix(tot.matrix(m), up[m + 1], ix) for m, ix in here.items() if m + 1 in up}
    return cohomology_map(src, tgt, chain, check=False)


def infinity_filtration_report(cls: ClassRun, fc: FilteredComplex, cache: OracleCache) -> dict:
    """For one three-group 1a class run whose filtered complex is ``fc``,
    recompute the three graded pieces of each abutment degree at the
    representative degree from the first- and second-page maps and match
    them against the engine's limit page and the oracle.

    With d1 maps written phi (out of the leftmost column in the top relevant
    row), phi' and psi' (one row down), psi'' (two rows down), the pieces of
    the abutment at total degree m are:

      top piece      dim ker(phi)  - rank(d2 out of the phi cell),
      middle piece   dim ker(psi') - rank(phi'),
      bottom piece   dim coker(psi'') - rank(d2 into the coker cell).

    The middle piece is recomputed independently from the ranks of explicit
    first-page maps, built from ``fc``.
    """
    f = cache.problem.field
    b0 = cls.members[0]
    p1, p2 = cls.pages[1], cls.pages[2]
    einf = cls.einf_dims
    m_vals = sorted({p + q for (p, q) in einf} | {p + q for (p, q) in p1.cells} | {2, 3})
    d1_maps = {p: _first_page_maps(fc, p) for p in (0, 1)}

    def d1(p, q):
        return d1_maps[p][p + q] if p1.dim(p, q) else None

    def nullity(p, q):
        return p1.dim(p, q) - p1.map_rank(p, q)

    rows = []
    ok = True
    for m in m_vals:
        top = nullity(0, m) - p2.map_rank(0, m)
        mid = nullity(1, m - 1) - p1.map_rank(0, m - 1)
        coker = p1.dim(2, m - 2) - p1.map_rank(1, m - 2)
        bottom = coker - p2.map_rank(0, m - 1)
        want = {
            (0, m): einf.get((0, m), 0),
            (1, m - 1): einf.get((1, m - 1), 0),
            (2, m - 2): einf.get((2, m - 2), 0),
        }
        got = {(0, m): top, (1, m - 1): mid, (2, m - 2): bottom}
        oracle_total = cache.raw("product", (0, 1, 2), "full", m - 2, b0)
        row_ok = got == want and sum(got.values()) == oracle_total

        # middle piece again, from the ranks of the explicit first-page maps:
        # ker psi' contains im phi' exactly when psi' phi' = 0, and then the
        # quotient has dimension cols(psi') - rank psi' - rank phi'
        psi_p, phi_p = d1(1, m - 1), d1(0, m - 1)
        if psi_p is not None:
            phi_p = [] if phi_p is None else phi_p
            if any(mul(f, psi_p, phi_p)) or mid != (
                    len(psi_p) - len(pivot_pairs(f, psi_p)) - len(pivot_pairs(f, phi_p))):
                row_ok = False
        rows.append(
            {
                "total_degree": m,
                "abutment_index": m - 2,
                "pieces": {
                    "top": [top, want[(0, m)]],
                    "middle": [mid, want[(1, m - 1)]],
                    "bottom": [bottom, want[(2, m - 2)]],
                },
                "oracle": oracle_total,
                "ok": row_ok,
            }
        )
        ok = ok and row_ok
    return {"rows": rows, "pass": ok}

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
representative degree b0, and returns a result that names no degree:
``run_variant``, ``mv_les`` and ``infinity_filtration_report`` are the class
steps of the ``mvss:V`` and ``les`` tasks.  Each reads the class's
spectral sequences (``run_variant`` the variant's, ``mv_les`` the first
pages of 1a and 2a, ``infinity_filtration_report`` the 1a sequence), and
b0 only through the oracle, which reads it through the piece pattern.
``cli.compute`` runs them over a whole window, and ``cli.assemble_unit``
lists their results under the member degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# mvss builds no lattice; the name stays bound here because the benchmark's
# tracer test (perfbench/test_perfbench.py) checks its binding in this module
from .cech import CechProblem, OracleCache, cech_multicomplex  # noqa: F401
from .errors import InputError
from .grading import Exps
from .linalg import Columns, Subspace, mul, submatrix
from .spectral import FilteredComplex, LatticeSequences, Page, SpectralSequence

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
    """One spectral-sequence computation, valid for every degree of its class."""

    pages: list[Page]
    stabilized_at: int | None
    e1_mismatches: list[dict]
    abutment_mismatches: list[dict]


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
                b0: Exps, pages_r: int | None = None) -> ClassRun:
    """The chosen spectral sequence for one degree class: the variant's
    filtered complex, read from ``seqs``, the ``LatticeSequences`` of the
    class's full lattice, with its first page and abutment audited against
    the oracle at the representative degree b0."""
    if variant not in FILTRATION:
        raise InputError(f"unknown variant {variant!r}")
    n = problem.n
    ss = seqs.sequence(FILTRATION[variant])
    fc = ss.fc
    width = max(fc.width, 1) if fc.total.dims else 1
    r_top = max(width + 1, pages_r if pages_r is not None else 0)
    pages = [ss.page(r) for r in range(r_top + 1)]
    h_dims = ss.infinity()[1]

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
    span = n + sum(len(g) for g in problem.groups) + 2
    ab_mism = []
    for m in sorted(set(fc.total.dims) | set(range(span))):
        want = _expected_abutment(cache, variant, m, b0)
        got = h_dims.get(m, 0)
        if got != want:
            ab_mism.append({"m": m, "got": got, "want": want})

    return ClassRun(
        pages=pages,
        stabilized_at=_stabilized_at(pages),
        e1_mismatches=e1_mism,
        abutment_mismatches=ab_mism,
    )


def mv_les(p1a: Page, p2a: Page, cache: OracleCache, b0: Exps) -> dict:
    """The two-group long exact sequence at the representative degree b0 of
    the class whose 1a and 2a first pages are given, its exactness verified
    by rank bookkeeping.

    The connecting rank is inferred from exactness at the product term; the
    two independent joint identities (at the sum term and at the middle term)
    are then checked against the boundary maps of the two first pages.
    """
    problem = cache.problem
    top = sum(len(g) for g in problem.groups) + 2
    h_sum = {i: cache.raw("concat", (0, 1), "full", i, b0) for i in range(top)}
    h_mid = {
        i: cache.raw("concat", (0,), "full", i, b0) + cache.raw("concat", (1,), "full", i, b0)
        for i in range(top)
    }
    h_prod = {i: cache.raw("product", (0, 1), "full", i, b0) for i in range(top)}
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


def _middle_piece(fc: FilteredComplex, m: int) -> tuple[int, bool]:
    """The middle piece of the abutment at total degree m of a three-group
    1a filtration, and whether psi' phi' = 0, from the dimensions of spans
    over the level blocks of d.  With Z_p and B_p the cycles and boundaries
    of the level-p diagonal block and D_pq the block from level p to q:

      rank phi' = dim(B_1 + D_01 Z_0) - dim B_1,
      rank psi' = dim(B_2 + D_12 Z_1) - dim B_2,
      middle    = dim Z_1 - dim B_1 - rank psi' - rank phi',

    and psi' phi' = 0 exactly when D_12 D_01 Z_0 lies in B_2."""
    f = fc.total.field

    def block(k: int, p: int, q: int) -> Columns:  # D_pq out of degree k
        rows, cols = ([i for i, x in enumerate(fc.levels.get(j, [])) if x == lv]
                      for j, lv in ((k + 1, q), (k, p)))
        return submatrix(fc.total.matrix(k), rows, cols)

    def grows(sub: Subspace, vectors: Columns) -> int:  # dim(sub + span(vectors)) - dim sub
        return Subspace.span(f, None, sub.columns + vectors).dim - sub.dim

    z0, z1 = Subspace.kernel(f, block(m - 1, 0, 0)), Subspace.kernel(f, block(m, 1, 1))
    b1, b2 = Subspace.span(f, None, block(m - 1, 1, 1)), Subspace.span(f, None, block(m, 2, 2))
    phi_z0, d12 = mul(f, block(m - 1, 0, 1), z0.columns), block(m, 1, 2)
    rank_psi, rank_phi = grows(b2, mul(f, d12, z1.columns)), grows(b1, phi_z0)
    return z1.dim - b1.dim - rank_psi - rank_phi, not grows(b2, mul(f, d12, phi_z0))


def infinity_filtration_report(ss: SpectralSequence, cache: OracleCache, b0: Exps) -> dict:
    """For the 1a spectral sequence ``ss`` of one three-group degree class,
    recompute the three graded pieces of each abutment degree at the
    representative degree b0 from the first- and second-page maps and match
    them against the engine's limit page and the oracle.

    With d1 maps written phi (out of the leftmost column in the top relevant
    row), phi' and psi' (one row down), psi'' (two rows down), the pieces of
    the abutment at total degree m are:

      top piece      dim ker(phi)  - rank(d2 out of the phi cell),
      middle piece   dim ker(psi') - rank(phi'),
      bottom piece   dim coker(psi'') - rank(d2 into the coker cell).

    Where the middle cell of the first page is nonzero, the middle piece is
    recomputed independently from the dimensions of spans over the level
    blocks of ``ss.fc`` (``_middle_piece``), which also checks psi' phi' = 0.
    """
    p1, p2 = ss.page(1), ss.page(2)
    einf = ss.infinity()[0].cells
    m_vals = sorted({p + q for (p, q) in einf} | {p + q for (p, q) in p1.cells} | {2, 3})

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
        if p1.dim(1, m - 1) and _middle_piece(ss.fc, m) != (mid, True):
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

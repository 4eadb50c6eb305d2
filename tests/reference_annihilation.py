"""The annihilation audit, kept with the tests that exercise it
(``tests/test_cech.py``): no task of the command line reaches it.

``annihilation_report`` checks that every cohomology class of the augmented
interior complex of the Čech lattice is killed, within the window, by a power
of each generator-product monomial, by composing the maps that
multiplication induces on cohomology.  It builds its lattices through
``cech.cech_multicomplex``, looked up on the module, so a test can count the
builds by patching that one binding.
"""

from cechmv import cech
from cechmv.cech import CechProblem, OracleCache
from cechmv.errors import InputError
from cechmv.grading import Exps, monomial_mul, product_sequence
from cechmv.linalg import Columns, identity, mul
from cechmv.multicomplex import augment_interior, cube_extension, totalize
from conftest import alive_subsets, degrees, format_monomial, in_window
from reference_cohomology import cohomology_map


class _AugmentedFiber:
    """Augmented interior complex at a degree with piece pattern ``pattern``,
    plus the bookkeeping needed to map its basis elements across degrees
    (each element is a choice of generator subsets, whose localization
    support never changes)."""

    def __init__(self, problem: CechProblem, pattern: tuple[int, ...]):
        self.problem = problem
        mc = cech.cech_multicomplex(problem, pattern)
        # the interior (every coordinate positive) with the cube vertex
        # (-1, 1, ..., 1), the origin entry, glued below it
        self.plus = augment_interior(totalize(cube_extension(mc)), tuple(range(problem.n)))

        def basis(key) -> list:  # the origin entry is one piece, so one element
            if key[0] < 0:
                return [key]
            return [(key, combo) for combo in alive_subsets(problem, pattern, key[1:])]

        self.keys = {m: [k for key, _ in blk for k in basis(key)]
                     for m, blk in self.plus.blocks.items()}
        self.positions = {m: {k: i for i, k in enumerate(keys)} for m, keys in self.keys.items()}


def _step_chain(src: _AugmentedFiber, dst: _AugmentedFiber) -> dict[int, Columns]:
    """Multiplication-by-monomial chain map between two fibers: each basis
    element maps to its namesake if that one is still alive."""
    chain = {}
    for m in sorted(set(src.plus.dims) | set(dst.plus.dims)):
        rows = dst.positions.get(m, {})
        chain[m] = [{rows[key]: 1} if key in rows else {} for key in src.keys.get(m, [])]
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
    if not any(in_window(problem, monomial_mul(b, g)) for b in degrees(problem) for g in set(gens)):
        raise InputError("window too small to test annihilation for any exponent")

    # a fiber, and the map between two fibers, depend on their degrees only
    # through the piece patterns, so each is built once per pattern
    cache = cache or OracleCache(problem)
    fibers: dict[tuple[int, ...], _AugmentedFiber] = {}
    induced_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Columns]] = {}

    def fiber(b: Exps) -> _AugmentedFiber:
        pat = cache.pattern(b)
        if pat not in fibers:
            fibers[pat] = _AugmentedFiber(problem, pat)
        return fibers[pat]

    def induced(b: Exps, g: Exps) -> dict[int, Columns]:
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
    for b in degrees(problem):
        hdims = fiber(b).plus.cohomology_dims()
        for m, k in sorted(hdims.items()):
            if not k:
                continue
            for g in sorted(set(gens)):
                total_pairs += k
                cum = identity(k)
                cur = b
                found = [None] * k
                ran_out = False
                for nstep in range(1, bound + 1):
                    nxt = monomial_mul(cur, g)
                    if not in_window(problem, nxt):
                        ran_out = True
                        break
                    # no map at m means no classes at cur, so cum has no rows
                    cum = mul(f, induced(cur, g).get(m, []), cum)
                    for col in range(k):
                        if found[col] is None and not cum[col]:
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

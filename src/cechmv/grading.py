"""Multigraded bookkeeping for monomial quotients of a polynomial ring.

Everything downstream works with modules of the form M = R/J for a monomial
ideal J in R = k[x_1..x_m], localized at products of monomials.  Each
Z^m-graded piece of such a localization is 0- or 1-dimensional, so all graded
data reduces to integer tests on exponent vectors:

  dim (M_w)_b = 1  iff  b_j >= 0 for every variable j outside the support of
  the inverted monomial w, and no generator g of J satisfies g_j <= b_j for
  all such j.

Supports of inverted monomials are kept as bitmasks over the variables: the
piece only depends on the support, never on the exponents of w.
``cech.piece_pattern`` evaluates this test at every support of a degree.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import InputError

Exps = tuple[int, ...]

_FACTOR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")  # ASCII digits only, used with fullmatch


def parse_monomial(text: str, num_vars: int) -> Exps:
    """Parse ``x1^2*x3`` style text (1-based variables) into an exponent tuple.
    Spaces around a factor are dropped; a space inside one is an error."""
    factors = [t.strip(" ") for t in text.split("*")]
    if factors == [""]:
        raise InputError("empty monomial")
    exps = [0] * num_vars
    if factors == ["1"]:
        return tuple(exps)
    for factor in factors:
        m = _FACTOR_RE.fullmatch(factor)
        if not m:
            raise InputError(f"unparsable monomial factor: {factor!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= num_vars:
            raise InputError(f"variable index out of range in factor {factor!r}")
        exps[idx - 1] += int(m.group(2) or 1)
    return tuple(exps)


def monomial_mul(a: Exps, b: Exps) -> Exps:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def support_mask(exps: Exps) -> int:
    mask = 0
    for i, e in enumerate(exps):
        if e > 0:
            mask |= 1 << i
    return mask


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal held by its minimal generators (sorted, deduplicated)."""

    num_vars: int
    gens: tuple[Exps, ...]

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.num_vars:
                raise InputError(f"generator {g} has wrong length for {self.num_vars} variables")
            if any(e < 0 for e in g):
                raise InputError(f"generator {g} has a negative exponent")
        # lex order is compatible with divisibility, so one forward pass suffices
        minimal: list[Exps] = []
        for g in sorted(set(self.gens)):
            if not any(monomial_divides(h, g) for h in minimal):
                minimal.append(g)
        object.__setattr__(self, "gens", tuple(minimal))


def product_sequence(groups: tuple[tuple[Exps, ...], ...]) -> tuple[Exps, ...]:
    """All products of one generator per group, ordered lexicographically by
    the tuple of generator indices (i_1, ..., i_n)."""
    if not groups:
        return ()
    out = []
    for combo in itertools.product(*[range(len(g)) for g in groups]):
        exps = groups[0][combo[0]]
        for gi, ci in zip(groups[1:], combo[1:]):
            exps = monomial_mul(exps, gi[ci])
        out.append(exps)
    return tuple(out)

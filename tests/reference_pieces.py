"""The piece dimension of a localized monomial quotient, variable by variable
and generator by generator, kept as a test reference for the bitmask
evaluation in ``cech.piece_pattern``."""

from cechmv.errors import ContractError
from cechmv.grading import Exps, MonomialIdeal


def localized_piece_dim(support: int, ideal: MonomialIdeal, degree: Exps) -> int:
    """dim of ((R/J)_w)_degree where w has the given support bitmask."""
    m = ideal.num_vars
    if len(degree) != m:
        raise ContractError(f"degree {degree} has wrong length for {m} variables")
    for j in range(m):
        if not (support >> j) & 1 and degree[j] < 0:
            return 0
    for g in ideal.gens:
        if all((support >> j) & 1 or g[j] <= degree[j] for j in range(m)):
            return 0
    return 1

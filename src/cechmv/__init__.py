"""Multigraded Čech lattices, spectral sequences of filtered complexes, and
independent dimension oracles for auditing them.

The package is organized bottom-up:

* :mod:`cechmv.linalg` -- exact linear algebra over prime fields and the
  rationals (the oracle's dense rank on ``Dense`` lists of rows, the
  package's only dense matrices; the sparse column reduction and the
  sparse echelon subspaces built by it).  No module imports numpy.
* :mod:`cechmv.grading` -- monomials, monomial ideals, and the dimensions of
  graded pieces of localizations.
* :mod:`cechmv.jsonout` -- per-degree record lists and the JSON writer of
  the report files.
* :mod:`cechmv.multicomplex` -- lattice-graded complexes with one
  differential per axis, totalization, the restriction of a totalization
  to a region, the face half of the Koszul split and the cube extension.
* :mod:`cechmv.spectral` -- spectral sequences of coordinate filtrations,
  each built by ``filtration_from_blocks`` as one list of int levels per
  degree, every page (``SpectralSequence.page``) counted from the
  persistence pairs of one column reduction.
* :mod:`cechmv.cech` -- Čech complexes of monomial ideal sequences, the
  closed-form dimension oracle, and the product-vs-interior audits.
* :mod:`cechmv.mvss` -- the four Mayer-Vietoris style spectral sequence
  assemblies, their oracle audits, and the two-group long exact sequence.
* :mod:`cechmv.cli` -- ``compute``, the one driver of a whole degree
  window, and the ``cechmv`` command line front end, whose ``selftest``
  runs ``compute`` on small random problems.

Every module holds only what ``compute`` runs (a tier-1 gate,
``tests/test_imports.py::test_every_function_is_run_by_compute``, fails on a
function it does not call); test fixtures, references and test-only helpers
live with the tests.
"""

from .errors import ContractError, InputError, InternalCheckError
from .linalg import (
    DEFAULT_PRIME,
    Dense,
    PrimeField,
    RationalField,
    Subspace,
    is_prime,
    mul,
    rank,
    rref,
)
from .grading import (
    MonomialIdeal,
    monomial_divides,
    monomial_mul,
    parse_monomial,
    product_sequence,
    support_mask,
)
from .multicomplex import (
    CochainComplex,
    Multicomplex,
    augment_interior,
    composite_along,
    cube_extension,
    koszul_split,
    line_complex,
    restrict,
    totalize,
    validate,
)
from .spectral import (
    FilteredComplex,
    LatticeSequences,
    Page,
    SpectralSequence,
    edge_composite_check,
    filtration_from_blocks,
    region_convergence_report,
    split_column_report,
)
from .cech import (
    CechProblem,
    CohomologyTable,
    OracleCache,
    cech_multicomplex,
    default_window,
    degree_classes,
    piece_pattern,
)
from .mvss import VARIANTS

__version__ = "0.1.0"


def __getattr__(name):
    # imported on first use, so `python -m cechmv.cli` does not find the
    # module already loaded by its own package
    if name == "compute":
        from .cli import compute

        return compute
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CechProblem",
    "CochainComplex",
    "CohomologyTable",
    "ContractError",
    "DEFAULT_PRIME",
    "Dense",
    "FilteredComplex",
    "InputError",
    "InternalCheckError",
    "LatticeSequences",
    "MonomialIdeal",
    "Multicomplex",
    "OracleCache",
    "Page",
    "PrimeField",
    "RationalField",
    "SpectralSequence",
    "Subspace",
    "VARIANTS",
    "augment_interior",
    "cech_multicomplex",
    "composite_along",
    "compute",
    "cube_extension",
    "default_window",
    "degree_classes",
    "edge_composite_check",
    "filtration_from_blocks",
    "is_prime",
    "koszul_split",
    "line_complex",
    "monomial_divides",
    "monomial_mul",
    "mul",
    "parse_monomial",
    "piece_pattern",
    "product_sequence",
    "rank",
    "region_convergence_report",
    "restrict",
    "rref",
    "split_column_report",
    "support_mask",
    "totalize",
    "validate",
]

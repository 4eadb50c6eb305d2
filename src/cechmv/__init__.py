"""Multigraded Čech lattices, spectral sequences of filtered complexes, and
independent dimension oracles for auditing them.

The package is organized bottom-up:

* :mod:`cechmv.linalg` -- exact linear algebra over prime fields and the
  rationals (echelon forms, subspaces of a common ambient space).
* :mod:`cechmv.grading` -- monomials, monomial ideals, and the dimensions of
  graded pieces of localizations.
* :mod:`cechmv.jsonout` -- per-degree record lists and the JSON writer of
  the report files.
* :mod:`cechmv.multicomplex` -- lattice-graded complexes with one
  differential per axis, region restriction, totalization, the wedge/face
  splitting and the cube extension.
* :mod:`cechmv.spectral` -- spectral sequences of coordinate filtrations,
  every page counted from the persistence pairs of one column reduction.
* :mod:`cechmv.cech` -- Čech complexes of monomial ideal sequences, the
  closed-form dimension oracle, and the product-vs-interior audits.
* :mod:`cechmv.mvss` -- the four Mayer-Vietoris style spectral sequence
  assemblies, their oracle audits, and the two-group long exact sequence.
* :mod:`cechmv.cli` -- ``compute``, the one driver of a whole degree
  window, and the ``cechmv`` command line front end.
"""

from .errors import ContractError, FieldMismatchError, InputError, InternalCheckError
from .linalg import (
    DEFAULT_PRIME,
    PrimeField,
    RationalField,
    Subspace,
    image,
    is_prime,
    kernel,
    kernel_space,
    mul,
    rank,
    rref,
    solve,
)
from .grading import (
    MonomialIdeal,
    format_monomial,
    localized_piece_dim,
    monomial_divides,
    monomial_mul,
    parse_monomial,
    product_sequence,
    support_mask,
    window_degrees,
)
from .multicomplex import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    CochainComplex,
    KoszulSplit,
    Multicomplex,
    Region,
    augment_interior,
    cohomology_map,
    composite_along,
    cube_extension,
    drop_axis_top,
    koszul_complex,
    koszul_split,
    line_complex,
    puncture,
    restrict,
    sign_twist,
    tensor_product,
    totalize,
    validate,
)
from .spectral import (
    AbutmentFiltration,
    FilteredComplex,
    LatticeSequences,
    Page,
    SpectralSequence,
    complement_total_filtration,
    coordinate_filtration,
    edge_composite_check,
    filtration_from_blocks,
    nonzero_count_filtration,
    region_convergence_report,
    split_column_report,
    truncated_face_filtration,
)
from .cech import (
    CechProblem,
    CohomologyTable,
    OracleCache,
    annihilation_report,
    cech_complex,
    cech_multicomplex,
    default_window,
    degree_classes,
    piece_pattern,
)
from .mvss import VARIANTS, MvssRun

__version__ = "0.1.0"


def __getattr__(name):
    # imported on first use, so `python -m cechmv.cli` does not find the
    # module already loaded by its own package
    if name == "compute":
        from .cli import compute

        return compute
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ANTICOMMUTATIVE",
    "AbutmentFiltration",
    "COMMUTATIVE",
    "CechProblem",
    "CochainComplex",
    "CohomologyTable",
    "ContractError",
    "DEFAULT_PRIME",
    "FieldMismatchError",
    "FilteredComplex",
    "InputError",
    "InternalCheckError",
    "KoszulSplit",
    "LatticeSequences",
    "MonomialIdeal",
    "Multicomplex",
    "MvssRun",
    "OracleCache",
    "Page",
    "PrimeField",
    "RationalField",
    "Region",
    "SpectralSequence",
    "Subspace",
    "VARIANTS",
    "annihilation_report",
    "augment_interior",
    "cech_complex",
    "cech_multicomplex",
    "cohomology_map",
    "complement_total_filtration",
    "composite_along",
    "compute",
    "coordinate_filtration",
    "cube_extension",
    "default_window",
    "degree_classes",
    "drop_axis_top",
    "edge_composite_check",
    "filtration_from_blocks",
    "format_monomial",
    "image",
    "is_prime",
    "kernel",
    "kernel_space",
    "koszul_complex",
    "koszul_split",
    "line_complex",
    "localized_piece_dim",
    "monomial_divides",
    "monomial_mul",
    "mul",
    "parse_monomial",
    "piece_pattern",
    "product_sequence",
    "puncture",
    "rank",
    "region_convergence_report",
    "restrict",
    "rref",
    "sign_twist",
    "solve",
    "split_column_report",
    "support_mask",
    "tensor_product",
    "totalize",
    "truncated_face_filtration",
    "validate",
    "window_degrees",
]

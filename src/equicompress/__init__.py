"""Compression of simplicial complexes with finite regular group actions.

A complex X with a regular action of a finite group G compresses to the
triple (quotient complex, stabilizer per orbit class, transfer element per
codimension-1 relation); the triple reconstructs, up to equivariant
isomorphism, the original action.
"""

from .actions import (
    GroupAction,
    RegularityReport,
    action_from_doc,
    action_to_doc,
    check_regularity,
    induced_action_on_subdivision,
    quotient,
)
from .cog import (
    CompressedTriple,
    CompressionCertificate,
    ValidationReport,
    triple_from_doc,
    triple_to_doc,
    validate_against_action,
    validate_triple,
)
from .complexes import (
    SimplicialComplex,
    SubdivisionMap,
    barycentric_subdivision,
    build_complex,
    complex_from_doc,
    complex_to_doc,
    complexes_equal,
)
from .compress import LIFT_POLICIES, compress, compression_ratio
from .errors import (
    BruteForceBoundError,
    ComplexTooLargeError,
    EquicompressError,
    FormatError,
    GroupTooLargeError,
    InputMismatchError,
    MalformedSimplexError,
    NotAnAutomorphismError,
    ReconstructionIntegrityError,
    RegularityViolationError,
    TripleValidationError,
)
from .groups import FiniteGroup, Subgroup, enumerate_from_generators, uniqsort
from .reconstruct import ReconstructedComplex, check_partial_order, reconstruct, recovered_action
from .verify import EquivarianceReport, find_equivariant_isomorphism, verify_roundtrip

__all__ = [
    "BruteForceBoundError",
    "ComplexTooLargeError",
    "CompressedTriple",
    "CompressionCertificate",
    "EquicompressError",
    "EquivarianceReport",
    "FiniteGroup",
    "FormatError",
    "GroupAction",
    "GroupTooLargeError",
    "InputMismatchError",
    "LIFT_POLICIES",
    "MalformedSimplexError",
    "NotAnAutomorphismError",
    "ReconstructedComplex",
    "ReconstructionIntegrityError",
    "RegularityReport",
    "RegularityViolationError",
    "SimplicialComplex",
    "SubdivisionMap",
    "Subgroup",
    "TripleValidationError",
    "ValidationReport",
    "action_from_doc",
    "action_to_doc",
    "barycentric_subdivision",
    "build_complex",
    "check_partial_order",
    "check_regularity",
    "complex_from_doc",
    "complex_to_doc",
    "complexes_equal",
    "compress",
    "compression_ratio",
    "enumerate_from_generators",
    "find_equivariant_isomorphism",
    "induced_action_on_subdivision",
    "quotient",
    "reconstruct",
    "recovered_action",
    "triple_from_doc",
    "triple_to_doc",
    "uniqsort",
    "validate_against_action",
    "validate_triple",
    "verify_roundtrip",
]

__version__ = "0.1.0"

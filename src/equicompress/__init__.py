"""Compression of simplicial complexes with finite regular group actions.

A complex X with a regular action of a finite group G compresses to the
triple (quotient complex, stabilizer per orbit class, transfer element per
codimension-1 relation); the triple reconstructs, up to equivariant
isomorphism, the original action.

``equicompress.compress`` and ``equicompress.reconstruct`` are the functions,
which shadow the submodules of the same names; the modules are reached with
``importlib.import_module("equicompress.reconstruct")``.
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
    ValidationReport,
    triple_from_doc,
    triple_to_doc,
    validate_triple,
)
from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    build_complex,
    complex_from_doc,
    complex_to_doc,
    complexes_equal,
)
from .compress import compress, compression_ratio
from .errors import (
    ComplexTooLargeError,
    EquicompressError,
    FormatError,
    GroupTooLargeError,
    InputMismatchError,
    MalformedSimplexError,
    NotAnAutomorphismError,
    RegularityViolationError,
    TripleValidationError,
)
from .groups import FiniteGroup, Subgroup, enumerate_from_generators
from .reconstruct import ReconstructedComplex, reconstruct, recovered_action
from .verify import EquivarianceReport, verify_roundtrip

__all__ = [
    "ComplexTooLargeError",
    "CompressedTriple",
    "EquicompressError",
    "EquivarianceReport",
    "FiniteGroup",
    "FormatError",
    "GroupAction",
    "GroupTooLargeError",
    "InputMismatchError",
    "MalformedSimplexError",
    "NotAnAutomorphismError",
    "ReconstructedComplex",
    "RegularityReport",
    "RegularityViolationError",
    "SimplicialComplex",
    "Subgroup",
    "TripleValidationError",
    "ValidationReport",
    "action_from_doc",
    "action_to_doc",
    "barycentric_subdivision",
    "build_complex",
    "check_regularity",
    "complex_from_doc",
    "complex_to_doc",
    "complexes_equal",
    "compress",
    "compression_ratio",
    "enumerate_from_generators",
    "induced_action_on_subdivision",
    "quotient",
    "reconstruct",
    "recovered_action",
    "triple_from_doc",
    "triple_to_doc",
    "validate_triple",
    "verify_roundtrip",
]

__version__ = "0.1.0"

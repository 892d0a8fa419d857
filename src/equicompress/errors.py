"""Exception types shared across the package."""


class EquicompressError(Exception):
    """Base class for all errors raised by this package."""


class GroupTooLargeError(EquicompressError):
    """Generator closure exceeded the configured maximum group order."""


class ComplexTooLargeError(EquicompressError):
    """A derived complex would exceed ``complexes.MAX_SIMPLICES`` simplices."""


class MalformedSimplexError(EquicompressError):
    """A simplex was given with duplicate or negative vertex ids."""


class NotAnAutomorphismError(EquicompressError):
    """A purported action does not map simplices to simplices."""


class RegularityViolationError(EquicompressError):
    """An operation requiring a regular action received an irregular one.

    Carries the offending RegularityReport in ``report``.
    """

    def __init__(self, report):
        super().__init__(f"action is not regular: {report.condition}")
        self.report = report


class TripleValidationError(EquicompressError):
    """A compressed triple failed its algebraic validation."""

    def __init__(self, report):
        super().__init__("invalid compressed triple: " + "; ".join(report.violations[:3]))
        self.report = report


class ReconstructionIntegrityError(EquicompressError):
    """Reconstruction produced an inconsistent facet set (corrupt triple)."""


class FormatError(EquicompressError):
    """A document failed structural parsing.

    ``location`` is a JSON-path-like string pointing at the offending field.
    """

    def __init__(self, message, location="$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class InputMismatchError(EquicompressError):
    """Verifier inputs refer to different groups or complexes."""


class BruteForceBoundError(EquicompressError):
    """An exhaustive search was refused because the input exceeds the bound."""

"""Exception hierarchy shared by all modules.

``ValidationError`` covers every violated value or axiom invariant, so
callers that only care about "the input was bad" can catch one type while
tests can still pin down the precise failure.
"""


class PmsError(Exception):
    """Base class for all package errors."""


class ParseError(PmsError):
    """Malformed document text; carries a character position when known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ValidationError(PmsError):
    """A value or structure violates a documented invariant."""


# --- step cdf construction -------------------------------------------------

class NegativeBreakpoint(ValidationError):
    pass


class NonMonotoneValue(ValidationError):
    pass


class ValueOutOfRange(ValidationError):
    pass


class InvalidDelta(ValidationError):
    pass


class EmptyFamily(ValidationError):
    pass


# --- distances and t-norms ---------------------------------------------------

class ProbeOutOfRange(ValidationError):
    pass


class PreconditionViolated(ValidationError):
    pass


# --- space axioms ------------------------------------------------------------

class SpaceAxiomViolation(ValidationError):
    """Base for the three space axioms; ``witness`` names the offending points
    (and the offending probe time for triangle failures)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class IdentityViolation(SpaceAxiomViolation):
    pass


class SymmetryViolation(SpaceAxiomViolation):
    pass


class TriangleViolation(SpaceAxiomViolation):
    pass


class NotAMetric(ValidationError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class StarNotAdditiveOnHeaviside(ValidationError):
    pass


# --- lookups and domains -----------------------------------------------------

class UnknownPoint(ValidationError):
    pass


class DomainMismatch(ValidationError):
    pass


class EmptySubset(ValidationError):
    pass


class IndexOutOfRange(PmsError):
    pass


# --- extraction --------------------------------------------------------------

class InsufficientSequence(PmsError):
    pass

"""Exception types shared across the package."""


class EisenError(Exception):
    """Base class for all package errors."""


class InvalidPrimeError(EisenError, ValueError):
    """A p-adic operation was given a non-prime (or p < 2) modulus."""


class DomainError(EisenError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class WeightMismatchError(EisenError, ValueError):
    """Two nonzero graded forms of different weights were combined additively."""


class MissingWeightError(EisenError, LookupError):
    """A recurrence needed a table entry that has not been computed yet."""


class ConsistencyError(EisenError, RuntimeError):
    """An internal identity that must hold exactly failed to hold.

    Raised, for example, when the weight-2 generator fails to cancel in
    Popa's recurrence, when ``phi_by_division`` leaves a structural
    remainder, or when two independent computation routes disagree.  Any
    occurrence is a bug or corrupted input, never a recoverable condition.
    """

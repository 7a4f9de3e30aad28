"""Exception types shared across the package.

Every failure mode that callers are expected to handle programmatically
gets its own class here, so the command-line driver can map exceptions
to exit codes without string matching.
"""


class CoholapError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(CoholapError, ValueError):
    """Unparseable or schema-violating user input (words, elements, JSON specs)."""


class UnknownGeneratorError(MalformedInputError):
    """A letter refers to a generator index outside the presentation."""


class ShapeMismatchError(CoholapError, ValueError):
    """Matrix dimensions are incompatible for the requested operation."""


class EnumerationOverflowError(CoholapError):
    """Coset enumeration exceeded the configured coset budget.

    Raised when the quotient is too large for the budget or infinite;
    deliberately distinct from malformed-input errors.
    """


class InvariantError(CoholapError):
    """An internal consistency check failed: a defect of the package, not
    of the input, reported like any other computational failure."""


class ChainIdentityError(CoholapError):
    """d_{n+1} d_n failed to vanish under a representation."""


class NotPositiveSemidefiniteError(CoholapError):
    """A matrix expected to be PSD has an eigenvalue below -tolerance."""


class UnresolvedGapError(CoholapError):
    """The zero cluster could not be separated from the rest of the spectrum."""


class SizeBudgetError(CoholapError):
    """An evaluated operator exceeds one of two budgets: its dense grid
    would be wider than ``DENSE_EIG_CUTOFF``, or its ||M||_1 passes the
    float range, so its floats would overflow."""


class IncompleteComplexError(CoholapError):
    """An operation needed a full classifying-space complex but only a
    truncated one is available."""


class TraceBackendError(CoholapError):
    """No exact trace backend applies (infinite non-free quotient group)."""

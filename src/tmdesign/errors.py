"""Exception taxonomy shared across the package."""


class DesignError(Exception):
    """Base class for all library errors."""


class DomainError(DesignError, ValueError):
    """Input outside the documented domain (bad point, empty multiset, ...)."""


class PreconditionError(DesignError, ValueError):
    """A stated hypothesis inequality is violated (e.g. n > 2m)."""


class HypothesisError(DesignError):
    """The design condition itself fails.

    ``failing_index`` is the smallest odd index whose residual is nonzero,
    when that is what went wrong.
    """

    def __init__(self, message: str, failing_index: int | None = None):
        super().__init__(message)
        self.failing_index = failing_index


class ToleranceError(DesignError):
    """Approximate-mode certification could not complete.

    Raised by all three certifiers, ``certify_symmetry``,
    ``certify_weighted_symmetry`` and ``certify_antipodal``, which share one
    negation-pairing rule.  ``reason`` is ``"pairing ambiguous"`` when the
    best candidate partner misses the tolerance only narrowly (within 10x)
    or a point gets no free partner, and
    ``"hypothesis approximately violated"`` when no near-partner exists at
    all or a found pair fails its own check (unequal weights, coordinates
    that are not negations).
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class NotSquarefreeError(DesignError):
    """Polynomial has repeated roots; reduce to its squarefree part first."""


class InternalDefectError(DesignError):
    """An identity the theory guarantees failed to hold; indicates a bug."""

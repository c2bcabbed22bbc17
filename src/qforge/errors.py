"""Exception types shared across the package."""


class QForgeError(Exception):
    """Base class for all package errors."""


class SingularMatrixError(QForgeError):
    """Matrix has determinant zero."""


class InfeasibleError(QForgeError):
    """Linear system / program has no feasible point."""


class UnboundedError(QForgeError):
    """Polytope or linear program is unbounded."""


class NotInjectiveError(QForgeError):
    """The quotient map collapses a nonzero element of the span."""


class NotInvertibleError(QForgeError):
    """A restriction operator is not injective on the given window."""


class ComplementNotFoundError(QForgeError):
    """Complement-matching search exhausted without meeting the budget."""


class NormBudgetError(QForgeError):
    """A verified norm exceeded its configured budget."""

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


class SearchExhaustedError(QForgeError):
    """Stage search hit its horizon without satisfying all constraints."""


class NotAlmostDisjointError(QForgeError):
    """Two certified sets intersect in an infinite set."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class HypothesisViolationError(QForgeError):
    """A named hypothesis of an extension lemma failed."""

    def __init__(self, number, message):
        super().__init__("hypothesis (%d) violated: %s" % (number, message))
        self.number = number


class ParameterError(QForgeError):
    """Bad or out-of-cap user parameters."""

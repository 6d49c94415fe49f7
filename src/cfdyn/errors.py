"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the domain of an operation (bad fraction, malformed
    text, series that provably diverges for the given parameters)."""


class NonTerminatingError(DomainError):
    """A rational-only operation was handed an irrational expansion."""


class TruncationExhausted(RuntimeError):
    """A truncated expansion ran out of settled digits before the
    operation could decide its result."""


class PoleError(ZeroDivisionError):
    """A Mobius map was evaluated at its pole."""

    def __init__(self, pole):
        super().__init__(f"Mobius map has a pole at y = {pole}")
        self.pole = pole


class DerivativeUndefined(DomainError):
    """The map derivative does not exist at this point (branch endpoint)."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its budget.

    ``last`` carries the best iterate seen, when one exists."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class PrecisionBudgetError(ValueError):
    """A fixed budget does not fit the request: a randomised draw with
    too few bits or more than lyapunov.BITS_MAX, a digit sum past
    cf.QMARK_BITS, a squarefree split past cf.SQUAREFREE_TRIALS or a
    heatmap side past cli.GRID_MAX."""

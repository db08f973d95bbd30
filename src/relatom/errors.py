"""Exception types shared across the package."""


class RelatomError(Exception):
    """Base class for all computational failures in this package."""


class DomainError(RelatomError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergence(RelatomError):
    """Adaptive quadrature exhausted its subdivision budget."""

    def __init__(self, message, value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class StepFailure(RelatomError):
    """The IVP integrator could not continue (blow-up or step underflow)."""

    def __init__(self, message, last_x=None):
        super().__init__(message)
        self.last_x = last_x


class ShootingFailure(RelatomError):
    """A shooting parameter was not found: no sign-changing bracket, no
    convergence inside it, or no usable shot at the root."""


class ToleranceFailure(RelatomError):
    """A solver finished but missed its residual target."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PreconditionFailure(RelatomError):
    """An alpha-smallness (or similar) precondition does not hold."""

    def __init__(self, message, threshold=None):
        super().__init__(message)
        self.threshold = threshold


class DivergentIntegral(RelatomError):
    """The requested integral diverges; usually signals a caller bug."""


class BudgetViolation(RelatomError):
    """An error-budget term fails the o(alpha^{-4/3}) exponent requirement."""

    def __init__(self, message, term_name=None, budget=None):
        super().__init__(message)
        self.term_name = term_name
        self.budget = budget

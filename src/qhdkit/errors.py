"""Exception types shared across the package."""


class EvaluationError(ValueError):
    """A function or gradient produced a non-finite value.

    ``index`` identifies the offending grid node or iteration step.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ScheduleValidationError(ValueError):
    """A schedule violates its defining constraints (e.g. ideal scaling)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge; carries residuals if known."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class StabilityError(RuntimeError):
    """A time integration became unstable; use a smaller step."""


class BlowupError(RuntimeError):
    """Amplitudes became non-finite during an evolution."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ResourceError(ValueError):
    """A requested computation exceeds the dense-feasibility caps."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class StepGridError(ValueError):
    """A horizon or snapshot time does not lie on the integrator's step grid."""

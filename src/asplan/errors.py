"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConsistencyError(RuntimeError):
    """A computed quantity violates an internal identity beyond tolerance."""


class DegeneratePlanError(RuntimeError):
    """The continuation probability is 1, so the plan never terminates."""


class InfeasibleError(RuntimeError):
    """No point satisfying the constraints was found.

    ``best_point``/``best_violation`` describe the least-infeasible point seen;
    ``per_n`` (when set) lists the failure diagnostic for each group size tried.
    """

    def __init__(self, message, best_point=None, best_violation=None, per_n=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_violation = best_violation
        self.per_n = per_n

"""Exception types shared across the package."""


class SolverFailure(RuntimeError):
    """Iterative solver hit its cap without certifying optimality.

    Carries the best primal/dual pair found so far and the iterations run.
    """

    def __init__(self, message, primal=None, gap=None, povm=None, iterations=None, dual=None):
        super().__init__(message)
        self.primal = primal
        self.gap = gap
        self.povm = povm
        self.dual = dual
        self.iterations = iterations


class InternalInconsistency(RuntimeError):
    """Two independent routes to the same quantity disagree beyond tolerance."""

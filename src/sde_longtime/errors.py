"""The two exception types shared across the package.

The CLI maps these onto its exit-code contract: usage errors exit with 2,
solver failures with 3, quantitative check failures with 1.
"""

__all__ = ["UsageError", "SolverFailure"]


class UsageError(ValueError):
    """Invalid arguments, configuration, or preconditions supplied by the caller."""


class SolverFailure(RuntimeError):
    """The implicit solve left a row above both its absolute tolerance and
    the rounding of its terms; the message gives the residual and bound.

    Carries the last iterate and residual so callers can diagnose the step,
    and the step and path indices so they can replay it: `path_index` is the
    failing row of the solved batch, which the simulation engine turns into
    the global path index. The engine also sets `rank`, (fine index, track,
    path), by which it reports the earliest of several chunks' failures,
    and the failing step's start time `t`, its size `h` and the path's
    state before it, `state`: with the path's noise, all a replay needs.
    """

    def __init__(self, message, last_iterate=None, residual=None, step_index=None,
                 path_index=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.step_index = step_index
        self.path_index = path_index
        self.t = self.h = self.state = None

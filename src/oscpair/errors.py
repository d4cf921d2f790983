"""Exception types shared across the package, and the one time-window check."""

import numpy as np


class DomainError(ValueError):
    """A time argument lies outside the declared domain of a coefficient or system."""


def _check_window(t, lo, hi, what, slack=0.0):
    """t as a float array, or DomainError "<what> [lo, hi]" if any time lies
    outside [lo - slack, hi + slack] or is NaN (every comparison with NaN is false)."""
    t = np.asarray(t, dtype=float)
    if not (np.all(t >= lo - slack) and np.all(t <= hi + slack)):
        raise DomainError(f"{what} [{lo:g}, {hi:g}]")
    return t


class SchemaError(ValueError):
    """A scenario document violates the config schema.

    Carries *all* violations found, not just the first one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SolverFailure(RuntimeError):
    """An ODE solve did not reach the requested tolerance after refinement."""


class NonPositiveRho(RuntimeError):
    """The auxiliary amplitude lost positivity (internal inconsistency)."""


class CausticError(RuntimeError):
    """Kernel requested at (or too close to) a focal time where sin(phi) = 0."""

    def __init__(self, channel, sin_phi, nearest_caustic=None):
        self.channel = channel
        self.sin_phi = sin_phi
        self.nearest_caustic = nearest_caustic
        msg = f"channel {channel}: |sin phi| = {abs(sin_phi):.3e} at the endpoint"
        if nearest_caustic is not None:
            msg += f", nearest caustic at t = {nearest_caustic:.12g}"
        super().__init__(msg)


class InadmissibleSystem(RuntimeError):
    """No constant rotation angle removes the cross coupling for this system."""

    def __init__(self, gamma_max, worst_t):
        self.gamma_max = gamma_max
        self.worst_t = worst_t
        super().__init__(
            f"max |Gamma| = {gamma_max:.3e} (worst at t = {worst_t:.6g}); "
            "no constant angle decouples this system"
        )


class NonConvergentGaussian(RuntimeError):
    """The Gaussian integral over the initial coordinates does not converge.

    Signals a caustic-adjacent evaluation or a non-normalizable input state.
    """


class GridMismatch(ValueError):
    """Two grid states do not share the same grid."""

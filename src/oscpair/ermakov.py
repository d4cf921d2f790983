"""Auxiliary amplitude equation rho'' + Om^2(t) rho = 1 / rho^3.

Solved per channel through the Pinney construction: integrate the *linear*
equation u'' + Om^2 u = 0 for two solutions

    u(t0) = rho0,  u'(t0) = drho0        v(t0) = 0,  v'(t0) = 1/rho0

whose Wronskian u v' - u' v equals 1, and assemble

    rho  = sqrt(u^2 + v^2)
    phi  = unwrapped polar angle of (u, v),  so  phi' = 1/rho^2.

This is robust near the minima of rho where the nonlinear equation
stiffens (the 1/rho^3 term).  The accumulated phase phi is nevertheless
integrated as an augmented ODE component so it inherits the integrator's
error control; the polar-angle identity then provides a free cross-check.
Zeros of sin(phi) -- the focal (caustic) times -- are exactly the zeros
of v, bracketed on the phi grid and polished by root bisection.

Direct integration of the nonlinear equation is kept as an independent
cross-check oracle (`solve_ermakov_nonlinear`), not used by the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DomainError, NonPositiveRho, SolverFailure

__all__ = ["ErmakovSolution", "solve_ermakov", "solve_ermakov_nonlinear"]

DEFAULT_TOL = 1e-10
ILL_CONDITIONED_RHO = 1e8
_RESIDUAL_GRID = 1024


@dataclass(frozen=True)
class ErmakovSolution:
    """Dense-output auxiliary solution for one decoupled channel."""

    channel: int
    t_start: float
    t_end: float
    rho_start: float
    drho_start: float
    tol: float
    ill_conditioned: bool
    _sol: object = field(repr=False, compare=False)

    def _check(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t_start - 1e-12) or np.any(t > self.t_end + 1e-12):
            raise DomainError(
                f"time outside solved range [{self.t_start:g}, {self.t_end:g}]"
            )
        return t

    def _state(self, t):
        return self._sol(self._check(t))

    def rho(self, t):
        u, _, v, _, _ = self._state(t)
        return np.sqrt(u * u + v * v)

    def drho(self, t):
        return self.rho_drho_phi(t)[1]

    def rho_drho_phi(self, t):
        """rho, rho' and phi at t from one read of the dense output.

        Each value equals what ``rho``, ``drho`` and ``phi`` return.
        """
        u, du, v, dv, phi = self._state(t)
        rho = np.sqrt(u * u + v * v)
        return rho, (u * du + v * dv) / rho, phi

    def phi(self, t):
        """Accumulated phase int_{t_start}^t ds / rho(s)^2; phi(t_start) = 0."""
        return self._state(t)[4]

    def phase(self, ta, tb):
        """phi(tb) - phi(ta); exactly additive over subdivisions."""
        return self.phi(tb) - self.phi(ta)

    def wronskian(self, t):
        u, du, v, dv, _ = self._state(t)
        return u * dv - du * v

    def residual(self, t):
        """Pointwise |rho'' + Om^2 rho - 1/rho^3| of the dense output.

        Evaluated through the Pinney identity: with u, v exact solutions of
        the linear equation the residual reduces to (W^2 - 1)/rho^3, where
        W is the numerical Wronskian.  Its drift from 1 measures the true
        integration error of the dense output.
        """
        w = self.wronskian(t)
        return np.abs(w * w - 1.0) / self.rho(t) ** 3

    def caustics_in(self, ta, tb):
        """All t in (ta, tb] with sin(phi(t) - phi(ta)) = 0.

        phi is strictly increasing, so each level phi(ta) + n*pi is crossed
        exactly once; each crossing is bracketed on a dense grid and
        located by bisection to ~1e-12 relative accuracy.
        """
        ta, tb = float(ta), float(tb)
        if tb <= ta:
            return []
        phi_a = float(self.phi(ta))
        phi_b = float(self.phi(tb))
        out = []
        n = 1
        while phi_a + n * math.pi <= phi_b + 1e-15:
            level = phi_a + n * math.pi
            f = lambda t: float(self.phi(t)) - level
            t_root = brentq(f, ta, tb, xtol=1e-13, rtol=1e-13)
            out.append(float(t_root))
            n += 1
        return out

    def maslov_count(self, ta, tb):
        """Number of caustic passages in (ta, tb] (floor of phase/pi)."""
        return int(math.floor(float(self.phase(ta, tb)) / math.pi))


def _solve_linear(omega_sq, t0, t1, rho0, drho0, rtol, atol):
    def rhs(t, y):
        om2 = omega_sq(t)
        r2 = y[0] * y[0] + y[2] * y[2]
        return [y[1], -om2 * y[0], y[3], -om2 * y[2], 1.0 / r2]

    y0 = [rho0, drho0, 0.0, 1.0 / rho0, 0.0]
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise SolverFailure(f"linear auxiliary solve failed: {sol.message}")
    return sol


def solve_ermakov(omega_sq, t0, t1, ic=(1.0, 0.0), tol=DEFAULT_TOL,
                  channel=0) -> ErmakovSolution:
    """Solve the auxiliary equation on [t0, t1] with rho(t0), rho'(t0) = ic.

    The default initial condition (1, 0) is arbitrary -- the propagator is
    provably independent of it -- but fixing one makes runs reproducible.
    The returned solution is accepted only if the pointwise residual stays
    below ``tol`` on a dense check grid; otherwise the integration is
    retried with tighter tolerances before giving up.
    """
    rho0, drho0 = float(ic[0]), float(ic[1])
    if rho0 <= 0:
        raise ValueError("initial rho must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")

    rtol = tol
    for _ in range(4):
        sol = _solve_linear(omega_sq, t0, t1, rho0, drho0,
                            rtol=rtol, atol=rtol * 1e-2)
        ts = np.linspace(t0, t1, _RESIDUAL_GRID)
        u, du, v, dv, phi = sol.sol(ts)
        rho_sq = u * u + v * v
        if np.any(~np.isfinite(rho_sq)) or np.any(rho_sq <= 0.0):
            raise NonPositiveRho("auxiliary amplitude lost positivity")
        w = u * dv - du * v
        resid = np.abs(w * w - 1.0) / rho_sq**1.5
        if np.max(resid) <= tol:
            # phi must never decrease, and must strictly increase wherever
            # the expected increment dt/rho^2 is resolvable in float64
            dphi = np.diff(phi)
            expected = (ts[1] - ts[0]) / rho_sq[:-1]
            resolvable = expected > 8.0 * np.finfo(float).eps * (1.0 + np.abs(phi[:-1]))
            if np.any(dphi < 0.0) or np.any((dphi <= 0.0) & resolvable):
                raise SolverFailure("accumulated phase is not strictly increasing")
            return ErmakovSolution(
                channel=channel,
                t_start=float(t0),
                t_end=float(t1),
                rho_start=rho0,
                drho_start=drho0,
                tol=float(tol),
                ill_conditioned=bool(np.sqrt(np.max(rho_sq)) > ILL_CONDITIONED_RHO),
                _sol=sol.sol,
            )
        if rtol <= 1.1e-13:
            break
        rtol = max(rtol * 1e-2, 1e-13)
    raise SolverFailure(
        f"auxiliary residual {np.max(resid):.3e} above tolerance {tol:.1e} "
        "after refinement"
    )


class _DirectSolution:
    """Minimal rho/drho/phi interface for the nonlinear cross-check."""

    def __init__(self, sol):
        self._sol = sol

    def rho(self, t):
        return self._sol(t)[0]

    def drho(self, t):
        return self._sol(t)[1]

    def phi(self, t):
        return self._sol(t)[2]


def solve_ermakov_nonlinear(omega_sq, t0, t1, ic=(1.0, 0.0), tol=DEFAULT_TOL):
    """Integrate rho'' = 1/rho^3 - Om^2 rho directly (cross-check only)."""

    def rhs(t, y):
        r, dr, _ = y
        return [dr, 1.0 / r**3 - omega_sq(t) * r, 1.0 / r**2]

    sol = solve_ivp(rhs, (t0, t1), [float(ic[0]), float(ic[1]), 0.0],
                    method="DOP853", rtol=tol, atol=tol * 1e-2,
                    dense_output=True)
    if not sol.success:
        raise SolverFailure(f"nonlinear auxiliary solve failed: {sol.message}")
    return _DirectSolution(sol.sol)

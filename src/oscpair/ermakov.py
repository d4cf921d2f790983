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

The linear system is integrated by a DOP853 step loop that is scipy's
``solve_ivp(method="DOP853", dense_output=True)`` operation for operation
(same tableau, initial step, step control, error norm and dense output),
so its steps and interpolants are bit-identical to scipy's.  Om^2 enters
the right-hand side only through the time, so once a step size is fixed
all 15 stage times of the step (11 inner stages, t + h and 3 dense-output
stages) are read with one call.  ``omega_sq`` is therefore called with 1D
float arrays of times and must return an array of the same shape, or a
scalar, which stands for a constant Om^2; any other shape is a
ValueError.  An array read can differ from a 0-d read of the same
formula in the last bit (numpy's vector and scalar math paths), so the
solution equals scipy's when scipy's right-hand side reads Om^2 through
length-1 arrays.

Each accepted step checks the Wronskian residual at the points of the
check grid that its interpolant serves, and a tolerance attempt that
fails there stops at once instead of integrating to the end.

Direct integration of the nonlinear equation is kept as an independent
cross-check oracle (`solve_ermakov_nonlinear`, on ``solve_ivp``), not used
by the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.common import select_initial_step, validate_tol
from scipy.integrate._ivp.rk import DOP853, MAX_FACTOR, MIN_FACTOR, SAFETY, Dop853DenseOutput
from scipy.optimize import brentq

from .errors import DomainError, NonPositiveRho, SolverFailure

__all__ = ["ErmakovSolution", "SolveStats", "solve_ermakov", "solve_ermakov_nonlinear"]

DEFAULT_TOL = 1e-10
ILL_CONDITIONED_RHO = 1e8
_RESIDUAL_GRID = 1024

_N_STAGES = DOP853.n_stages
_ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
#: c of the stage times t + c*h read per step: the inner stages, t + h and
#: the dense-output extras
_C_READ = np.concatenate([DOP853.C[1:], [1.0], DOP853.C_EXTRA])


@dataclass(frozen=True)
class SolveStats:
    """What :func:`solve_ermakov` did for one channel.

    ``attempts`` counts the tolerance attempts made, of which
    ``aborted_attempts`` stopped at their first step whose check-grid
    points failed the residual tolerance.  ``final_rtol`` is the rtol of
    the accepted attempt, and ``accepted_steps`` and ``rejected_steps``
    are its step counts.  ``nfev`` counts right-hand-side evaluations
    the way scipy does, over every attempt, aborted ones included.
    ``max_residual`` is the largest Wronskian residual of the accepted
    solution on the check grid.
    """

    attempts: int
    aborted_attempts: int
    final_rtol: float
    accepted_steps: int
    rejected_steps: int
    nfev: int
    max_residual: float


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
    stats: SolveStats = field(compare=False)
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


def _omega_sq_reader(omega_sq):
    """Om^2 at a 1D array of times, as a list of floats."""

    def read(ts):
        om2 = np.asarray(omega_sq(ts), dtype=float)
        if om2.shape != ts.shape:
            if om2.ndim:
                raise ValueError(
                    "omega_sq must map a 1D array of times to an array of the "
                    f"same shape or to a scalar; got shape {om2.shape} for "
                    f"{ts.shape[0]} times")
            om2 = np.broadcast_to(om2, ts.shape)
        return om2.tolist()

    return read


def _rhs(om2, u, du, v, dv):
    """(u', u'', v', v'', phi') of the linear system at (u, u', v, v', phi)."""
    return (du, -om2 * u, dv, -om2 * v, 1.0 / (u * u + v * v))


def _stage_rhs(om2, y, dy, h):
    """``_rhs`` at scipy's stage state ``y + np.dot(K[:s].T, a) * h``.

    ``y`` and ``dy`` (the dot product) are lists and ``h`` a float; each
    component is y_i + dy_i * h in float arithmetic, numpy's roundings.
    """
    return _rhs(om2, y[0] + dy[0] * h, y[1] + dy[1] * h,
                y[2] + dy[2] * h, y[3] + dy[3] * h)


def _error_norm(K, h, scale):
    """DOP853's combined E3/E5 error norm (scipy's ``_estimate_error_norm``)."""
    err5 = np.dot(K.T, DOP853.E5) / scale
    err3 = np.dot(K.T, DOP853.E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


@dataclass
class _Attempt:
    """One DOP853 pass over the window at a fixed rtol."""

    ts: list
    interpolants: list = field(default_factory=list)
    rho_sq: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    nfev: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    max_residual: float = 0.0
    aborted: bool = False


def _attempt(read, t0, t1, y0, rtol, atol, grid, tol):
    """Integrate the linear system on [t0, t1] as scipy's DOP853 would.

    After each accepted step the residual |W^2 - 1| / rho^3 is checked at
    the points of ``grid`` that ``OdeSolution`` assigns to the step's
    interpolant, (t_old, t_new] (the first step also owns t0).  The pass
    stops at the first step where one exceeds ``tol``.
    """
    rtol, atol = validate_tol(rtol, atol, len(y0))
    att = _Attempt(ts=[t0])
    K_ext = np.empty((_dop.N_STAGES_EXTENDED, len(y0)))
    K = K_ext[:_N_STAGES + 1]
    # (K[:s].T, a[:s]) of the stages after the first, and of the extra stages
    stages = [(K[:s].T, a[:s]) for s, a in enumerate(DOP853.A[1:], start=1)]
    extras = [(K_ext[:s].T, a[:s]) for s, a in enumerate(DOP853.A_EXTRA, start=_N_STAGES + 1)]

    def fun(t, y):
        att.nfev += 1
        return np.array(_rhs(read(np.array([t]))[0], *y.tolist()[:4]))

    t, y = t0, y0
    f = fun(t, y)
    h_abs = select_initial_step(fun, t, y, t1, np.inf, f, 1.0,
                                DOP853.error_estimator_order, rtol, atol)
    lo = 0
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise SolverFailure("linear auxiliary solve failed: Required step "
                                    "size is less than spacing between numbers.")
            t_new = t + h_abs
            if t_new - t1 > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            om2 = read(t + _C_READ * h)
            ys, hf = y.tolist(), float(h)
            K[0] = f
            for s, (KT, a) in enumerate(stages, start=1):
                K[s] = _stage_rhs(om2[s - 1], ys, np.dot(KT, a).tolist(), hf)
            y_new = y + h * np.dot(K[:-1].T, DOP853.B)
            f_new = np.array(_rhs(om2[_N_STAGES - 1], *y_new.tolist()[:4]))
            K[-1] = f_new
            att.nfev += _N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            att.rejected_steps += 1

        for s, (KT, a) in enumerate(extras, start=_N_STAGES + 1):
            K_ext[s] = _stage_rhs(om2[s - 1], ys, np.dot(KT, a).tolist(), hf)
        att.nfev += len(DOP853.A_EXTRA)
        F = np.empty((_dop.INTERPOLATOR_POWER, len(y0)))
        f_old = K_ext[0]
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        F[3:] = h * np.dot(DOP853.D, K_ext)
        interpolant = Dop853DenseOutput(t, t_new, y, F)
        att.interpolants.append(interpolant)
        att.ts.append(t_new)
        att.accepted_steps += 1
        t, y, f = t_new, y_new, f_new

        hi = int(np.searchsorted(grid, t, side="right"))
        if hi > lo:
            u, du, v, dv, phi = interpolant(grid[lo:hi])
            lo = hi
            rho_sq = u * u + v * v
            if np.any(~np.isfinite(rho_sq)) or np.any(rho_sq <= 0.0):
                raise NonPositiveRho("auxiliary amplitude lost positivity")
            w = u * dv - du * v
            worst = np.max(np.abs(w * w - 1.0) / rho_sq**1.5)
            if not worst <= att.max_residual:
                att.max_residual = float(worst)
            if not worst <= tol:
                att.aborted = True
                return att
            att.rho_sq.append(rho_sq)
            att.phi.append(phi)
    return att


def solve_ermakov(omega_sq, t0, t1, ic=(1.0, 0.0), tol=DEFAULT_TOL,
                  channel=0) -> ErmakovSolution:
    """Solve the auxiliary equation on [t0, t1] with rho(t0), rho'(t0) = ic.

    The default initial condition (1, 0) is arbitrary -- the propagator is
    provably independent of it -- but fixing one makes runs reproducible.
    ``omega_sq`` is called with 1D float arrays of times and returns Om^2
    at each, as an array of the same shape or as a scalar (a constant
    Om^2); any other shape raises ValueError.

    The solution is accepted only if the pointwise residual stays below
    ``tol`` on a dense check grid; an attempt stops at its first step
    that fails there, and the integration is retried with tighter
    tolerances before giving up.  The residual in that SolverFailure's
    message is the largest one the last attempt reached before it stopped.
    ``stats`` on the result records what the solve did.
    """
    rho0, drho0 = float(ic[0]), float(ic[1])
    if rho0 <= 0:
        raise ValueError("initial rho must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")

    read = _omega_sq_reader(omega_sq)
    t0, t1 = float(t0), float(t1)
    grid = np.linspace(t0, t1, _RESIDUAL_GRID)
    y0 = np.array([rho0, drho0, 0.0, 1.0 / rho0, 0.0])
    nfev = 0
    rtol = tol
    for attempts in range(1, 5):
        att = _attempt(read, t0, t1, y0, rtol, rtol * 1e-2, grid, tol)
        nfev += att.nfev
        if not att.aborted:
            rho_sq = np.concatenate(att.rho_sq)
            phi = np.concatenate(att.phi)
            # phi must never decrease, and must strictly increase wherever
            # the expected increment dt/rho^2 is resolvable in float64
            dphi = np.diff(phi)
            expected = (grid[1] - grid[0]) / rho_sq[:-1]
            resolvable = expected > 8.0 * np.finfo(float).eps * (1.0 + np.abs(phi[:-1]))
            if np.any(dphi < 0.0) or np.any((dphi <= 0.0) & resolvable):
                raise SolverFailure("accumulated phase is not strictly increasing")
            return ErmakovSolution(
                channel=channel,
                t_start=t0,
                t_end=t1,
                rho_start=rho0,
                drho_start=drho0,
                tol=float(tol),
                ill_conditioned=bool(np.sqrt(np.max(rho_sq)) > ILL_CONDITIONED_RHO),
                stats=SolveStats(
                    attempts=attempts,
                    aborted_attempts=attempts - 1,
                    final_rtol=float(rtol),
                    accepted_steps=att.accepted_steps,
                    rejected_steps=att.rejected_steps,
                    nfev=nfev,
                    max_residual=att.max_residual,
                ),
                _sol=OdeSolution(np.array(att.ts), att.interpolants),
            )
        if rtol <= 1.1e-13:
            break
        rtol = max(rtol * 1e-2, 1e-13)
    raise SolverFailure(
        f"auxiliary residual {att.max_residual:.3e} above tolerance {tol:.1e} "
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

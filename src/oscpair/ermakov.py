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
so its steps and interpolants are bit-identical to scipy's.  The tableau
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.4-II.6) is read from
scipy's own ``integrate/_ivp/dop853_coefficients.py``, loaded by file
path: that file imports numpy only, while importing it as a submodule
would run the ``scipy.integrate`` package, which loads scipy.special,
optimize, linalg and sparse.  The step-control constants, the initial
step rule and the tolerance check are local copies of scipy's, which the
tests compare bit for bit.  ``brentq`` (caustic polishing) and
``solve_ivp`` (the nonlinear cross-check) are imported on first use, so
importing this module loads numpy and the standard library only.

Om^2 enters the right-hand side only through the time, so once a step
size is fixed all 15 stage times of the step (11 inner stages, t + h and
3 dense-output stages) are read with one call.  ``omega_sq`` is therefore called with 1D
float arrays of times and must return an array of the same shape, or a
scalar, which stands for a constant Om^2; any other shape is a
ValueError.  An array read can differ from a 0-d read of the same
formula in the last bit (numpy's vector and scalar math paths), so the
solution equals scipy's when scipy's right-hand side reads Om^2 through
length-1 arrays.

The accepted steps keep their dense output in stacked arrays (step
times, step sizes, start states and the 7 rows of each step's
interpolant), read by one evaluator: a gather of each time's step, then
the Horner steps of scipy's ``Dop853DenseOutput`` elementwise, with steps
assigned as ``OdeSolution`` assigns them.  Every value therefore equals
scipy's ``OdeSolution`` bit for bit, and the solution's reads, the
residual checks and the final checks all go through this one evaluator.

The Wronskian residual is checked at the points of the check grid that
the interpolants serve, for batches of ``_CHECK_BATCH`` accepted steps at
once, and at once when a step ends on a non-finite state, a non-positive
rho^2 or a residual above tolerance.  A failing batch ends the attempt as
its first failing step would have, checked alone: NonPositiveRho if that
step lost positivity, otherwise the next tolerance is tried without
integrating to the end.  An aborted attempt may run up to
``_CHECK_BATCH - 1`` steps past its first failing step.

Direct integration of the nonlinear equation is kept as an independent
cross-check oracle (`solve_ermakov_nonlinear`, on ``solve_ivp``), not used
by the kernel.
"""

from __future__ import annotations

import importlib.util
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, NonPositiveRho, SolverFailure

__all__ = ["ErmakovSolution", "SolveStats", "solve_ermakov", "solve_ermakov_nonlinear"]

DEFAULT_TOL = 1e-10
ILL_CONDITIONED_RHO = 1e8
_RESIDUAL_GRID = 1024
#: accepted steps whose check-grid points are read and checked together;
#: 8 was the fastest of 1-64 over the shipped channels (4 and 16 within 5%)
_CHECK_BATCH = 8


def _load_dop853_coefficients():
    """scipy's ``integrate/_ivp/dop853_coefficients.py``, loaded by path.

    That file imports numpy only; importing it as a submodule would run
    ``scipy.integrate``'s ``__init__``, which loads scipy.special,
    optimize, linalg and sparse.
    """
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = Path(scipy_dir, "integrate", "_ivp", "dop853_coefficients.py")
    spec = importlib.util.spec_from_file_location("_dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_dop = _load_dop853_coefficients()

# scipy's DOP853 class: the tableau slices it takes and its step control
_N_STAGES = _dop.N_STAGES
_A = _dop.A[:_N_STAGES, :_N_STAGES]
_C = _dop.C[:_N_STAGES]
_A_EXTRA = _dop.A[_N_STAGES + 1:]
_C_EXTRA = _dop.C[_N_STAGES + 1:]
_ERROR_ESTIMATOR_ORDER = 7
_ERROR_EXPONENT = -1 / (_ERROR_ESTIMATOR_ORDER + 1)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
_EPS = np.finfo(float).eps
#: c of the stage times t + c*h read per step: the inner stages, t + h and
#: the dense-output extras
_C_READ = np.concatenate([_C[1:], [1.0], _C_EXTRA])


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


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
        from scipy.optimize import brentq

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


class _DenseOutput:
    """DOP853 dense output of a step sequence, stacked in arrays.

    Step i holds t_old = ``ts[i]``, h = ``ts[i + 1] - ts[i]``, y_old and
    the 7 rows F of scipy's ``Dop853DenseOutput``.  A read gathers each
    time's step and runs that class's Horner scheme elementwise, and
    assigns steps as ``OdeSolution`` does (``searchsorted``,
    ``side="left"``, clipped to the first and last step), so every value
    equals ``OdeSolution`` over scipy's interpolants bit for bit.  Times
    are 0-d, giving shape (5,), or 1-D, giving (5, n), in any order.
    """

    def __init__(self, t0, n_states, capacity=64):
        self._ts = np.empty(capacity + 1)
        self._ts[0] = t0
        self._h = np.empty(capacity)
        self._y_old = np.empty((capacity, n_states))
        # indexed (F row, step, component): a gather of steps leaves each F
        # row one flat (time, component) array
        self._F = np.empty((_dop.INTERPOLATOR_POWER, capacity, n_states))
        self.n = 0

    @property
    def ts(self):
        return self._ts[:self.n + 1]

    def push(self, t_new, y_old):
        """Append the step (ts[-1], t_new] from y_old; return its F rows to fill."""
        i = self.n
        if i == len(self._h):
            self._ts = np.resize(self._ts, 2 * i + 1)
            self._h = np.resize(self._h, 2 * i)
            self._y_old = np.resize(self._y_old, (2 * i, self._y_old.shape[1]))
            F = np.empty((len(self._F), 2 * i, self._F.shape[2]))
            F[:, :i] = self._F
            self._F = F
        self._ts[i + 1] = t_new
        self._h[i] = t_new - self._ts[i]
        self._y_old[i] = y_old
        self.n = i + 1
        return self._F[:, i]

    def trim(self):
        """Drop the spare capacity: a finished solution keeps its arrays
        for as long as it lives, and unused capacity can be most of them."""
        n = self.n
        self._ts = self._ts[:n + 1].copy()
        self._h = self._h[:n].copy()
        self._y_old = self._y_old[:n].copy()
        self._F = self._F[:, :n].copy()

    def steps(self, t):
        """Index of the step whose interpolant serves each time.

        Counting the inner knots below t is ``OdeSolution``'s
        searchsorted(ts, t) - 1 clipped to [0, n - 1].
        """
        return np.searchsorted(self._ts[1:self.n], t, side="left")

    def at(self, t, step):
        """The state at times t, read from the given steps."""
        x = (t - self._ts[step]) / self._h[step]
        F = np.take(self._F, step, axis=1)  # C-ordered, unlike self._F[:, step]
        y_old = self._y_old[step]
        if np.ndim(t):
            # one flat array per F row: same-shape operands, no broadcasting
            x = np.repeat(x, F.shape[-1])
            F = F.reshape(len(F), -1)
            y_old = y_old.reshape(-1)
        x1 = 1 - x
        y = F[-1] + 0.0  # scipy adds the last row to zeros: -0.0 becomes 0.0
        y *= x
        for i, f in enumerate(F[-2::-1], start=1):
            y += f
            y *= x if i % 2 == 0 else x1
        y += y_old
        return y.reshape(-1, self._F.shape[2]).T if np.ndim(t) else y

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.at(t, self.steps(t))


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
    err5 = np.dot(K.T, _dop.E5) / scale
    err3 = np.dot(K.T, _dop.E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _validate_tol(rtol, atol):
    """scipy's ``validate_tol``: an rtol below 100 eps warns and is raised to it."""
    if np.any(rtol < 100 * _EPS):
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=3)
        rtol = np.maximum(rtol, 100 * _EPS)
    atol = np.asarray(atol)
    if np.any(atol < 0):
        raise ValueError("`atol` must be positive.")
    return rtol, atol


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t1, f0, rtol, atol):
    """scipy's ``select_initial_step`` for a forward solve with no step limit.

    The rule of Hairer, Norsett & Wanner, *Solving ODEs I*, II.4: one
    explicit Euler probe step sizes the first step from the first and
    second derivative norms.
    """
    interval_length = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


@dataclass
class _Attempt:
    """One DOP853 pass over the window at a fixed rtol."""

    dense: _DenseOutput
    rho_sq: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    nfev: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    max_residual: float = 0.0
    aborted: bool = False
    #: grid points and steps checked so far
    checked_points: int = 0
    checked_steps: int = 0


def _check_steps(att, grid, tol):
    """Check the grid points of the steps taken since the last check.

    The points are those ``OdeSolution`` assigns to these steps, (t_old,
    t_new] (the first step also owns t0).  At the first step with a failing
    point, NonPositiveRho is raised if one of its points has a non-finite or
    non-positive rho^2; otherwise a residual |W^2 - 1| / rho^3 above ``tol``
    (or NaN) stops the attempt, with the largest residual up to that step
    recorded.  These are the outcomes of checking step by step.
    """
    dense = att.dense
    lo = att.checked_points
    hi = int(np.searchsorted(grid, dense.ts[-1], side="right"))
    att.checked_points, att.checked_steps = hi, dense.n
    if hi == lo:
        return
    ts = grid[lo:hi]
    step = dense.steps(ts)
    u, du, v, dv, phi = dense.at(ts, step)
    rho_sq = u * u + v * v
    w = u * dv - du * v
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resid = np.abs(w * w - 1.0) / rho_sq**1.5
    positive = np.isfinite(rho_sq) & (rho_sq > 0.0)
    ok = positive & (resid <= tol)
    end = len(ts)
    if not ok.all():
        first = step[np.argmin(ok)]
        begin, end = np.searchsorted(step, [first, first + 1])
        if not positive[begin:end].all():
            raise NonPositiveRho("auxiliary amplitude lost positivity")
        att.aborted = True
    worst = np.max(resid[:end])
    if not worst <= att.max_residual:
        att.max_residual = float(worst)
    att.rho_sq.append(rho_sq)
    att.phi.append(phi)


def _attempt(read, t0, t1, y0, rtol, atol, grid, tol):
    """Integrate the linear system on [t0, t1] as scipy's DOP853 would.

    The accepted steps are checked by :func:`_check_steps` in batches of
    ``_CHECK_BATCH``, at once when a step ends on a non-finite or
    non-positive rho^2 or a residual above ``tol``, and at the end.  A
    failing batch stops the pass as its first failing step would have; a
    pass may so run up to ``_CHECK_BATCH - 1`` steps past that step.  A
    step end whose state is not finite, or whose rho^2 is not positive,
    raises NonPositiveRho even if no grid point falls in its step: the
    next step could not be taken.  A right-hand side or an initial step
    that is not finite at t0 raises SolverFailure: no step could be sized.
    """
    rtol, atol = _validate_tol(rtol, atol)
    att = _Attempt(dense=_DenseOutput(t0, len(y0)))
    K_ext = np.empty((_dop.N_STAGES_EXTENDED, len(y0)))
    K = K_ext[:_N_STAGES + 1]
    # (K[:s].T, a[:s]) of the stages after the first, and of the extra stages
    stages = [(K[:s].T, a[:s]) for s, a in enumerate(_A[1:], start=1)]
    extras = [(K_ext[:s].T, a[:s]) for s, a in enumerate(_A_EXTRA, start=_N_STAGES + 1)]

    def fun(t, y):
        att.nfev += 1
        return np.array(_rhs(read(np.array([t]))[0], *y.tolist()[:4]))

    t, y = t0, y0
    f = fun(t, y)
    if not np.isfinite(f).all():
        raise SolverFailure(f"linear auxiliary solve failed: Om^2 at t0 = {t0:g} "
                            "is not finite or overflows times rho(t0)")
    h_abs = _initial_step(fun, t, y, t1, f, rtol, atol)
    if not math.isfinite(h_abs):
        raise SolverFailure(f"linear auxiliary solve failed: initial step {h_abs} "
                            "is not finite")
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
            y_new = y + h * np.dot(K[:-1].T, _dop.B)
            state = y_new.tolist()
            f_new = np.array(_rhs(om2[_N_STAGES - 1], *state[:4]))
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
        att.nfev += len(_A_EXTRA)
        F = att.dense.push(t_new, y)
        f_old = K_ext[0]
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        F[3:] = h * np.dot(_dop.D, K_ext)
        att.accepted_steps += 1
        t, y, f = t_new, y_new, f_new

        # the step end's residual |W^2 - 1| <= tol rho^3 is tested as a
        # product: a rho^3 that underflows to 0 cannot divide
        u, du, v, dv, _ = state
        rho_sq, w = u * u + v * v, u * dv - du * v
        healthy = 0.0 < rho_sq < math.inf and all(map(math.isfinite, state))
        if (not healthy or not abs(w * w - 1.0) <= tol * rho_sq * math.sqrt(rho_sq)
                or att.dense.n - att.checked_steps == _CHECK_BATCH):
            _check_steps(att, grid, tol)
            if att.aborted:
                return att
            if not healthy:
                raise NonPositiveRho("auxiliary amplitude lost positivity")
    _check_steps(att, grid, tol)
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
    ``tol`` on a dense check grid; an attempt stops at the check of the
    batch holding its first step that fails there, and the integration is
    retried with tighter tolerances before giving up.  The residual in
    that SolverFailure's message is the largest one the last attempt
    reached up to that step.
    ``stats`` on the result records what the solve did.

    A non-finite initial condition or window, or a rho(t0) whose square
    underflows, raises ValueError; an Om^2(t0) that is not finite (or
    overflows times rho(t0)) raises SolverFailure.
    """
    rho0, drho0 = float(ic[0]), float(ic[1])
    t0, t1 = float(t0), float(t1)
    if not all(map(math.isfinite, (rho0, drho0, t0, t1))):
        raise ValueError("initial condition and window must be finite")
    if rho0 <= 0:
        raise ValueError("initial rho must be positive")
    if rho0 * rho0 < np.finfo(float).tiny:
        raise ValueError(f"initial rho {rho0:g} is too small: its square underflows")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")

    read = _omega_sq_reader(omega_sq)
    grid = np.linspace(t0, t1, _RESIDUAL_GRID)
    y0 = np.array([rho0, drho0, 0.0, 1.0 / rho0, 0.0])
    nfev = 0
    rtol = tol
    for attempts in range(1, 5):
        att = _attempt(read, t0, t1, y0, rtol, rtol * 1e-2, grid, tol)
        nfev += att.nfev
        if not att.aborted:
            att.dense.trim()
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
                _sol=att.dense,
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

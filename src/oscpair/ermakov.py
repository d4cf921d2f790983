"""Auxiliary amplitude equation rho'' + Om^2(t) rho = 1 / rho^3.

Solved per channel through the Pinney construction: solve the *linear*
equation u'' + Om^2 u = 0 for two solutions

    u(t0) = rho0,  u'(t0) = drho0        v(t0) = 0,  v'(t0) = 1/rho0

whose Wronskian u v' - u' v equals 1, and assemble

    rho  = sqrt(u^2 + v^2)
    phi  = unwrapped polar angle of (u, v),  so  phi' = 1/rho^2

(Pinney, *Proc. AMS* 1, 681 (1950)).  This is robust near the minima of
rho where the nonlinear equation stiffens (the 1/rho^3 term).  Zeros of
sin(phi) -- the focal (caustic) times -- are exactly the zeros of v,
bracketed on the phi grid and polished by root bisection.

A callable Om^2 is solved by spectral integration (Greengard, *SIAM J.
Numer. Anal.* 28, 1071 (1991)) on panels of the window, ``ORDER``
Gauss-Legendre nodes xi each.  On a panel [a, b] of half-width h the
node values of u solve

    (I + h^2 Q^2 diag(Om^2)) u = u(a) + h (xi + 1) u'(a),
    u' = u'(a) - h Q (Om^2 u),

with Q the spectral integration matrix of the nodes
(``quadrature.integration_matrix``), and u and u' at b follow from the
Gauss weights.  Each panel is solved once, for the two unit starts
(u, u') = (1, 0) and (0, 1): its basis, and the 2 x 2 map from its start
to its end.  The maps carry (u, u'; v, v') from t0 across the panels,
and a panel's node values are its basis times its start.  A read
interpolates barycentrically on its panel's nodes.

phi at the nodes is atan2(v, u) unwrapped along the nodes from
phi(t0) = 0, and a read lifts atan2(v, u) by the multiple of 2 pi
nearest phi at the nearest node, as the closed form lifts to w tau.  The
running integral of 1/rho^2 is no reference for the lift: where rho
dips, 1/rho^2 peaks far more sharply than u and v vary, and the panels
that resolve u and v miss whole turns of it (Om^2 = 100 from rho = 0.03
on [0, 20]: 12 rad).

A callable ``omega_sq`` is called once per refinement pass, with the 1D
float array of the node times of the panels solved in that pass, and
must return an array of the same shape, or a scalar, which stands for a
constant Om^2 and is still solved on panels; any other shape is a
ValueError.  The window starts as one panel.  Each pass splits in two
every panel that is not resolved -- the two trailing Legendre
coefficients of its basis, or of the basis's u'' = -Om^2 u, above
``_TAIL_TOL`` of their largest node value -- up to the first panel whose
node values are not finite (beyond it the state has overflowed, and
splitting cannot help).  The u'' test splits the panels around a kink
of Om^2, which u smooths out but u' integrates.  Once every panel is
resolved, the Wronskian residual is checked on the check grid, and the
panels that hold failing points are split.  (Gauss collocation keeps W
at the panel ends to roundoff even on a panel that is not resolved, so
the residual sees the error inside a panel, not the error carried
across panels: the tails are the accuracy test.)  A panel is split only
while it is wider than ``_MIN_WIDTH`` of the window and the solve holds
at most ``_MAX_PANELS`` panels; past that the solve fails.

A constant Om^2, passed as a number instead of a callable, needs no
panels: with tau = t - t0 the linear solutions are

    u = rho0 C + drho0 S,   u' = -Om^2 rho0 S + drho0 C,
    v = S / rho0,           v' = C / rho0,

where C = cos(w tau), cosh(k tau) or 1 and S = sin(w tau)/w,
sinh(k tau)/k or tau for Om^2 = w^2 > 0, -k^2 < 0 or 0, so that
W = C^2 + Om^2 S^2 = 1.  phi is the polar angle of (u, v), lifted by the
multiple of 2 pi that puts it nearest w tau (:class:`_ClosedForm`).

Both solves keep the same checks: the Wronskian residual on the check
grid against ``tol``, the phase-monotonicity check and the
ill-conditioned flag.  ``brentq`` (caustic polishing) is imported on
first use, so importing this module loads numpy and the standard library
only.  Direct integration of the nonlinear equation, the independent
cross-check of the Pinney route, lives with the tests that use it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveRho, SolverFailure, _check_window
from .quadrature import _gauss_legendre, integration_matrix

__all__ = ["ErmakovSolution", "SolveStats", "solve_ermakov"]

DEFAULT_TOL = 1e-10
ILL_CONDITIONED_RHO = 1e8
_RESIDUAL_GRID = 1024
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
#: Gauss-Legendre nodes per panel of a callable Om^2
ORDER = 16
#: a panel's basis is resolved when its two trailing Legendre coefficients
#: are at most this fraction of its largest node value
_TAIL_TOL = 1e-13
#: a solve holds at most this many panels, none narrower than _MIN_WIDTH
#: of the window
_MAX_PANELS = 4096
_MIN_WIDTH = 2.0**-30
#: times per barycentric read of a panel solution
_READ_CHUNK = 4096


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call.  No solve here
    calls it: it is kept only as the hook that the traced benchmark run
    (``perfbench/spans.py``) rebinds to count ODE right-hand sides."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class SolveStats:
    """What :func:`solve_ermakov` did for one channel.

    ``method`` is ``"gauss-legendre"`` for the panel solve of a callable
    Om^2 and ``"closed-form"`` for a constant one.  ``attempts`` counts the
    refinement passes of a panel solve, ``accepted_steps`` the panels of
    its solution and ``rejected_steps`` the panels it split on the way.
    ``nfev`` counts the times at which Om^2 was read, over every pass.  A
    closed-form solve makes no pass: its counts are 0.  ``max_residual``
    is the largest Wronskian residual of the accepted solution on the
    check grid.
    """

    method: str
    attempts: int
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

    def _state(self, t):
        t = _check_window(t, self.t_start, self.t_end, "time outside solved range", 1e-12)
        return self._sol(t)

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
        W is the numerical Wronskian.  Its drift from 1 measures the error
        of the dense output between the points where W is kept (the panel
        ends of a panel solve) and the rounding of W itself.
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


class _ClosedForm:
    """u, u', v, v' and phi of a constant Om^2 in closed form.

    Read like :class:`_Panels`: 0-d times give shape (5,), 1-D times
    (5, n).  A 0-d time is read as a length-1 array.  u, u', v and v' at
    a time do not depend on the other times of the read: each is a sum
    of products of one cos and sin (cosh and sinh, or 1 and tau) of that
    time alone.  phi can, by an ulp: numpy's vectorized arctan2 may
    round a value differently with the other values of its SIMD vector
    (seen on x86-64 with AVX-512 for a 1-element and a 6-element read of
    the same time, with identical u and v).

    phi is the polar angle of (u, v), atan2(v, u) in (-pi, pi], lifted by
    a multiple of 2 pi.  For Om^2 <= 0, v >= 0 for tau >= 0 and no lift is
    needed.  For Om^2 = w^2 > 0, v has the sign of sin(theta), theta =
    w tau, so phi and theta cross each k pi at the same times: both lie
    in [k pi, (k + 1) pi) with k = floor(theta / pi), less than pi apart,
    and the lift is the multiple of 2 pi that puts phi nearest theta
    (:func:`_lift`).  Near theta = k pi, phi is near theta itself, so a
    rounding of theta or of the sign of v cannot move phi by pi or 2 pi.
    """

    def __init__(self, omega_sq, t0, rho0, drho0):
        self.omega_sq, self.t0, self.rho0, self.drho0 = omega_sq, t0, rho0, drho0
        self.rate = math.sqrt(abs(omega_sq))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        y = self._at(t.reshape(-1))
        return y if t.ndim else y[:, 0]

    def _at(self, t):
        if self.omega_sq < 0.0:
            # cosh overflows on long windows: the solve reports the state
            with np.errstate(over="ignore", invalid="ignore"):
                return self._states(t - self.t0)
        return self._states(t - self.t0)

    def _states(self, tau):
        om2, rho0, drho0, w = self.omega_sq, self.rho0, self.drho0, self.rate
        y = np.empty((5, len(tau)))
        u, du, v, dv, phi = y
        if om2 > 0.0:
            theta = w * tau
            C, S = np.cos(theta), np.sin(theta)
        elif om2 < 0.0:
            C, S = np.cosh(w * tau), np.sinh(w * tau)
        else:
            C, S = np.ones_like(tau), tau
        if om2:
            S /= w
        np.multiply(C, rho0, out=u)
        u += drho0 * S
        np.multiply(S, -om2 * rho0, out=du)
        du += drho0 * C
        np.divide(S, rho0, out=v)
        np.divide(C, rho0, out=dv)
        np.arctan2(v, u, out=phi)
        if om2 > 0.0:
            phi += _lift(theta, phi)
        return y


def _lift(theta, angle):
    """The multiple of 2 pi that puts ``angle`` nearest ``theta``."""
    return 2.0 * math.pi * np.rint((theta - angle) / (2.0 * math.pi))


class _Panels:
    """u, u', v, v' and phi of a callable Om^2 on Gauss-Legendre panels.

    ``edges`` holds the panel ends, and ``uv`` and ``duv`` (panels, ORDER,
    2) the values (u, v) and (u', v') at each panel's nodes.  A time is
    read on the panel that holds it (the left
    one at an inner edge; times a little outside the window on the first
    or last panel) by the barycentric formula of its nodes, and phi is
    atan2(v, u) lifted by the multiple of 2 pi nearest phi at the nearest
    node.  0-d times give shape (5,), 1-D times (5, n).  A 0-d time is
    read as a length-1 array, and u, u', v and v' at a time do not depend
    on the other times of the read; phi can, by an ulp, where numpy's
    vectorized arctan2 rounds a value with its neighbours.
    """

    def __init__(self, edges, uv, duv):
        self.edges = edges
        self._inner = edges[1:-1]
        self._mid = 0.5 * (edges[:-1] + edges[1:])
        self._half = 0.5 * (edges[1:] - edges[:-1])
        # (panel, row, node): u, u', v, v' and a row of ones, whose weighted
        # sum is the barycentric denominator
        self._states = np.ones((len(uv), 5, ORDER))
        self._states[:, 0:4:2] = uv.transpose(0, 2, 1)
        self._states[:, 1:4:2] = duv.transpose(0, 2, 1)
        self._phi = _node_phases(uv)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        x = t.reshape(-1)
        # a read holds about 100 floats per time: read long arrays in chunks
        y = np.concatenate([self._at(x[i:i + _READ_CHUNK])
                            for i in range(0, max(len(x), 1), _READ_CHUNK)], axis=1)
        return y if t.ndim else y[:, 0]

    def _at(self, t):
        xi, _, _, _, _, lam = _tables(ORDER)
        p = self._inner.searchsorted(t)
        s = (t - self._mid[p]) / self._half[p]
        d = s[:, None] - xi
        hit = d == 0.0
        with np.errstate(divide="ignore"):
            c = lam / d
        if hit.any():
            # a time on a node reads that node's values
            rows = hit.any(axis=1)
            c[rows] = hit[rows]
        # one sum of products over the contiguous node axis per value, the
        # same whatever the other times of the read
        y = np.einsum("nm,nkm->kn", c, self._states[p])
        y[:4] /= y[4]
        u, _, v, _, phi = y
        np.arctan2(v, u, out=phi)
        nearest = (0.5 * (xi[1:] + xi[:-1])).searchsorted(s)
        phi += _lift(self._phi[p, nearest], phi)
        return y


@functools.lru_cache(maxsize=None)
def _tables(order):
    """Per-order tables of the panel solve, built once (read-only).

    The nodes xi and weights w on [-1, 1]; Q and Q^2; the two rows of the
    discrete Legendre transform c_n = (n + 1/2) sum_m w_m P_n(xi_m) f_m
    for n = order - 2 and order - 1 (exact for the interpolant); and the
    barycentric weights (-1)^m sqrt((1 - xi_m^2) w_m) of the nodes.
    """
    xi, wi = _gauss_legendre(order)
    Q = integration_matrix(order)
    P = np.polynomial.legendre.legvander(xi, order - 1)[:, -2:]
    tail = (np.arange(order - 2, order) + 0.5)[:, None] * (wi[:, None] * P).T
    lam = (-1.0) ** np.arange(order) * np.sqrt((1.0 - xi * xi) * wi)
    tables = xi, wi, Q, Q @ Q, tail, lam
    for a in tables:
        a.flags.writeable = False
    return tables


def _omega_sq_reader(omega_sq):
    """Om^2 at a 1D array of times, as an array of the same shape."""

    def read(ts):
        om2 = np.asarray(omega_sq(ts), dtype=float)
        if om2.shape != ts.shape:
            if om2.ndim:
                raise ValueError(
                    "omega_sq must map a 1D array of times to an array of the "
                    f"same shape or to a scalar; got shape {om2.shape} for "
                    f"{ts.shape[0]} times")
            om2 = np.broadcast_to(om2, ts.shape)
        return om2

    return read


def _panel_bases(read, a, b, rho0):
    """Bases, end maps and resolution of the panels [a, b] (1D arrays).

    Returns (basis, maps, resolved).  ``basis`` (panels, ORDER, 4) holds
    u and then u' at the nodes for the starts (u, u') = (1, 0) and
    (0, 1); ``maps`` (panels, 2, 2) takes (u, u') at a to (u, u') at b;
    ``resolved`` is True where the two trailing Legendre coefficients of
    both u, and of both u'' = -Om^2 u, are at most ``_TAIL_TOL`` of their
    largest node value: u'' carries a kink of Om^2 that u smooths out,
    and its integral is u'.  An Om^2
    that is not finite, or overflows times rho(t0), raises SolverFailure.
    """
    xi, wi, Q, QQ, tail, _ = _tables(ORDER)
    h = 0.5 * (b - a)
    t = (0.5 * (a + b))[:, None] + h[:, None] * xi
    om2 = read(t.ravel()).reshape(t.shape)
    bad = ~np.isfinite(om2 * rho0)
    if bad.any():
        raise SolverFailure(f"linear auxiliary solve failed: Om^2 at t = {t[bad][0]:g} "
                            "is not finite or overflows times rho(t0)")
    A = np.eye(ORDER) + (h * h)[:, None, None] * QQ * om2[:, None, :]
    starts = np.empty(t.shape + (2,))
    starts[..., 0] = 1.0
    starts[..., 1] = h[:, None] * (xi + 1.0)
    try:
        u = np.linalg.solve(A, starts)
    except np.linalg.LinAlgError:
        u = np.full(starts.shape, np.nan)
    f = om2[..., None] * u  # -u''
    du = -h[:, None, None] * (Q @ f)
    du[..., 1] += 1.0
    maps = np.empty((len(h), 2, 2))
    maps[:, 0] = h[:, None] * (wi @ du)
    maps[:, 1] = -h[:, None] * (wi @ f)
    maps[:, 0, 0] += 1.0
    maps[:, 1, 1] += 1.0
    resolved = np.ones(len(h), dtype=bool)
    for x in (u, f):
        resolved &= (np.abs(tail @ x).max(axis=1)
                     <= _TAIL_TOL * np.abs(x).max(axis=1)).all(axis=1)
    return np.concatenate([u, du], axis=2), maps, resolved


def _chain(maps, rho0, drho0):
    """(u, v; u', v') at the start of each panel, carried from t0 by ``maps``.

    Runs on Python floats; a state that overflows becomes inf or NaN.
    """
    s = (rho0, 0.0, drho0, 1.0 / rho0)
    out = []
    for (a, b), (c, d) in maps.tolist():
        out.append(s)
        u, v, du, dv = s
        s = (a * u + b * du, a * v + b * dv, c * u + d * du, c * v + d * dv)
    return np.array(out).reshape(-1, 2, 2)


def _split(edges, split):
    """Edges with the panels marked in ``split`` halved, and the mask of
    the new panels among them."""
    mids = 0.5 * (edges[:-1] + edges[1:])[split]
    return np.sort(np.concatenate([edges, mids])), np.repeat(split, 1 + split)


def _spread(old, kept, n):
    """An array of n panels holding the rows of ``old`` at ``kept``."""
    out = np.empty((n,) + old.shape[1:], dtype=old.dtype)
    out[kept] = old
    return out


def _panel_solve(read, t0, t1, rho0, drho0, grid, tol):
    """(evaluator, check-grid states, residual, stats) of a callable Om^2.

    Refines the panels in passes (see the module docstring): the panels
    marked new are solved, the maps are chained from t0, and either the
    unresolved panels up to the first non-finite one are split, or, when
    none is left, the check grid is read.  There the first failing point
    decides, as in the closed form: NonPositiveRho when its state is not
    finite or its rho^2 is not positive, otherwise the panels holding
    the points whose residual fails are split.  When no panel may be
    split, SolverFailure "... after refinement".
    """
    width = t1 - t0
    edges = np.array([t0, t1])
    new = np.array([True])
    basis = np.empty((1, ORDER, 4))
    maps = np.empty((1, 2, 2))
    resolved = np.empty(1, dtype=bool)
    attempts = nfev = rejected = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            attempts += 1
            a, b = edges[:-1][new], edges[1:][new]
            basis[new], maps[new], resolved[new] = _panel_bases(read, a, b, rho0)
            nfev += a.size * ORDER
            start = _chain(maps, rho0, drho0)
            # (u, v) and (u', v') at the nodes: (panels, ORDER, 2) each
            uv = basis[..., :2] @ start
            duv = basis[..., 2:] @ start
            finite = np.isfinite(uv).all(axis=(1, 2)) & np.isfinite(duv).all(axis=(1, 2))
            split = ~resolved
            split[int(np.argmin(finite)) + 1 if not finite.all() else len(split):] = False
            if not split.any() or not _splittable(edges, split, width):
                sol = _Panels(edges, uv, duv)
                y = sol(grid)
                rho_sq, resid, failing = _check_grid(y, tol)
                if not failing.any():
                    return sol, y, rho_sq, resid, SolveStats(
                        method="gauss-legendre", attempts=attempts,
                        accepted_steps=len(maps), rejected_steps=rejected, nfev=nfev,
                        max_residual=float(resid.max()))
                split = np.zeros(len(maps), dtype=bool)
                split[sol._inner.searchsorted(grid[failing])] = True
                if not _splittable(edges, split, width):
                    raise SolverFailure(_failure_message(resid[failing], tol))
            rejected += int(split.sum())
            edges, new = _split(edges, split)
            kept = ~new
            basis, maps, resolved = (_spread(x[~split], kept, len(new))
                                     for x in (basis, maps, resolved))


def _failure_message(resid, tol):
    """SolverFailure after refinement: the largest finite failing residual, and
    how many are not finite (a Wronskian may overflow where rho^2 does not)."""
    finite = resid[np.isfinite(resid)]
    worst = f"{finite.max():.3e}" if finite.size else "not finite"
    msg = f"auxiliary residual {worst} above tolerance {tol:.1e} after refinement"
    n_bad = resid.size - finite.size
    return msg + (f" ({n_bad} of {resid.size} not finite)" if n_bad else "")


def _splittable(edges, split, width):
    """True when every panel marked in ``split`` may be halved: wider than
    ``_MIN_WIDTH`` of the window, with a midpoint between its ends, and
    with room for the halves."""
    a, b = edges[:-1][split], edges[1:][split]
    mid = 0.5 * (a + b)
    wide = (b - a > _MIN_WIDTH * width) & (a < mid) & (mid < b)
    return bool(wide.all()) and len(edges) - 1 + int(split.sum()) <= _MAX_PANELS


def _node_phases(uv):
    """phi at every node: atan2(v, u), unwrapped along the nodes from
    phi(t0) = 0.  Resolved panels put consecutive nodes less than pi of
    phase apart."""
    angle = np.arctan2(uv[..., 1], uv[..., 0])
    return np.unwrap(np.concatenate(([0.0], angle.ravel())))[1:].reshape(angle.shape)


def _check_phase(grid, rho_sq, phi):
    """SolverFailure unless phi increases along the check grid.

    phi must strictly increase wherever the expected increment dt/rho^2 is
    resolvable in float64 (above 8 eps (1 + |phi|)).  Elsewhere it may
    fall by no more than that resolution: phi is a polar angle, not an
    accumulated sum, and where rho is huge atan2 may fall by an ulp
    between grid points.
    """
    dphi = phi[1:] - phi[:-1]
    if (dphi <= 0.0).any():
        ulps = 8.0 * _EPS * (1.0 + np.abs(phi[:-1]))
        resolvable = (grid[1] - grid[0]) / rho_sq[:-1] > ulps
        if (dphi < -ulps).any() or ((dphi <= 0.0) & resolvable).any():
            raise SolverFailure("accumulated phase is not strictly increasing")


def _check_grid(y, tol):
    """rho^2 and the residual |W^2 - 1| / rho^3 of the states y on the
    check grid, and the mask of the points that fail ``tol``.

    The first failing point decides: NonPositiveRho when its state is not
    finite or its rho^2 is not positive.  Otherwise the points whose
    residual is above ``tol`` (or NaN) before the first such state fail.
    The rounding of W = u v' - u' v grows like eps |Om| rho^2, and so the
    residual's like eps^2 |Om^2| rho: a growing solution usually fails the
    residual long before it overflows.
    """
    u, du, v, dv, _ = y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho_sq = u * u + v * v
        w = u * dv - du * v
        resid = np.abs(w * w - 1.0) / rho_sq**1.5
    positive = np.isfinite(y).all(axis=0) & np.isfinite(rho_sq) & (rho_sq > 0.0)
    failing = ~(positive & (resid <= tol))
    if failing.any():
        if not positive[np.argmax(failing)]:
            raise NonPositiveRho("auxiliary amplitude lost positivity")
        failing[np.argmin(positive) if not positive.all() else len(failing):] = False
    return rho_sq, resid, failing


def _closed_form(omega_sq, t0, rho0, drho0, grid, tol):
    """(evaluator, check-grid states, rho^2, residual) of a constant Om^2.

    The panel solve's errors for the same states: SolverFailure when Om^2
    times rho(t0) is not finite; along the grid the first failing point
    decides (:func:`_check_grid`), and a residual above ``tol`` raises
    SolverFailure at once: no refinement can change a closed form.
    """
    if not math.isfinite(omega_sq * rho0):
        raise SolverFailure(f"linear auxiliary solve failed: Om^2 at t0 = {t0:g} "
                            "is not finite or overflows times rho(t0)")
    sol = _ClosedForm(omega_sq, t0, rho0, drho0)
    y = sol(grid)
    rho_sq, resid, failing = _check_grid(y, tol)
    if failing.any():
        raise SolverFailure(f"auxiliary residual {resid[np.argmax(failing)]:.3e} above "
                            f"tolerance {tol:.1e} in closed form")
    return sol, y, rho_sq, resid


def solve_ermakov(omega_sq, t0, t1, ic=(1.0, 0.0), tol=DEFAULT_TOL,
                  channel=0) -> ErmakovSolution:
    """Solve the auxiliary equation on [t0, t1] with rho(t0), rho'(t0) = ic.

    The default initial condition (1, 0) is arbitrary -- the propagator is
    provably independent of it -- but fixing one makes runs reproducible.

    A real number ``omega_sq`` is a constant Om^2, solved in closed form
    (Pinney's construction with cos and sin, cosh and sinh, or 1 and
    t - t0).  A callable ``omega_sq`` selects the Gauss-Legendre panel
    solve, also when it returns a scalar: it is called with 1D float
    arrays of times and returns Om^2 at each, as an array of the same
    shape or as a scalar; any other shape raises ValueError.

    The solution is accepted only if the pointwise residual stays below
    ``tol`` on a dense check grid.  The panel solve splits the panels
    that hold failing points and tries again, up to its limits; its
    SolverFailure then names the largest failing residual of the last
    pass.  The closed form is checked on the same grid and raises
    SolverFailure at once.  ``stats`` on the result records what the
    solve did.

    A non-finite initial condition or window, or a rho(t0) whose square
    underflows, raises ValueError; an Om^2 that is not finite (or
    overflows times rho(t0)) at a time read raises SolverFailure; a state
    that overflows raises NonPositiveRho.
    """
    rho0, drho0 = float(ic[0]), float(ic[1])
    t0, t1 = float(t0), float(t1)
    if not all(map(math.isfinite, (rho0, drho0, t0, t1))):
        raise ValueError("initial condition and window must be finite")
    if rho0 <= 0:
        raise ValueError("initial rho must be positive")
    if rho0 * rho0 < _TINY:
        raise ValueError(f"initial rho {rho0:g} is too small: its square underflows")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")

    grid = np.linspace(t0, t1, _RESIDUAL_GRID)
    if isinstance(omega_sq, numbers.Real):
        sol, y, rho_sq, resid = _closed_form(float(omega_sq), t0, rho0, drho0, grid, tol)
        stats = SolveStats(method="closed-form", attempts=0, accepted_steps=0,
                           rejected_steps=0, nfev=0, max_residual=float(resid.max()))
    else:
        sol, y, rho_sq, resid, stats = _panel_solve(
            _omega_sq_reader(omega_sq), t0, t1, rho0, drho0, grid, tol)
    _check_phase(grid, rho_sq, y[4])
    return ErmakovSolution(
        channel=channel,
        t_start=t0,
        t_end=t1,
        rho_start=rho0,
        drho_start=drho0,
        tol=float(tol),
        ill_conditioned=math.sqrt(rho_sq.max()) > ILL_CONDITIONED_RHO,
        stats=stats,
        _sol=sol,
    )

"""Exact propagator assembly for the decoupled pair of driven channels.

For each channel the building blocks are the auxiliary amplitude rho_j,
its phase phi_j(t'', t') = int dt/rho_j^2, and the driven-phase integrals

    I''_j = int G_j(t) sin phi_j(t, t') dt
    I'_j  = int G_j(t) sin phi_j(t'', t) dt
    D_j   = int int_{tau <= t} G_j(t) G_j(tau)
                sin phi_j(t'', t) sin phi_j(tau, t') dtau dt

with G_j = F_j rho_j.  The full position-space kernel is the product over
channels of

    sqrt( (m_j'' m_j')^(1/2) / (2 pi i hbar rho_j'' rho_j' sin phi_j) )
    * exp( -i/(4 hbar) [ mdot_j x_j^2 ]_{t'}^{t''} )
    * exp(  i/(2 hbar) ( rho'_j''/rho_j'' Q_j''^2 - rho'_j'/rho_j' Q_j'^2 ) )
    * exp(  i/(2 hbar sin phi_j) [ (Q_j''^2/rho_j''^2 + Q_j'^2/rho_j'^2) cos phi_j
            - 2 Q_j'' Q_j' / (rho_j'' rho_j')
            + 2 Q_j''/rho_j'' I''_j + 2 Q_j'/rho_j' I'_j - 2 D_j ] )

where Q'' and Q' are the rotated, mass-scaled coordinates at the two
endpoints.  The boundary mass factor carries mdot_j x_j^2 (an action, as
the exponent must be); written in the mass-scaled coordinate y = sqrt(m) x
this is (mdot/m) y^2.  The square root takes the branch continuous in
time: amplitude from |sin phi| and a phase of -pi/4 plus -pi/2 per caustic
passage (Maslov count = floor(phi/pi)), which is what makes composition
over intermediate times work.

Everything is evaluated through one internal representation,

    log K(q) = c0 + L.q + q.M.q/2,    q = (x1'', x2'', x1', x2'),

shared by pointwise evaluation and by the closed-form Gaussian-state
update, so there is a single code path to validate.

Inside a window every kernel depends on the auxiliary data only through
rho_j and phi_j, so one auxiliary solve per window fixes them all.
``solve_channels`` is the one place that solve happens, and
``build_kernels`` assembles one ``Kernel`` from its pair: the stacked
kernels of any windows inside the solved one, in the windows' shape.
Those are the intervals of ``evolve_gaussian``, propagated straight from
the stacked c0, L and M, or the stencil times of the residual check,
which evaluates them all in two ``evaluate`` calls.  ``build_kernel`` is
the kernel of shape () of one window, after its own solve unless it is
handed ``solutions``.

``build_kernels`` checks its variant, admissibility and windows once and
reads each channel's dense output once (``ErmakovSolution.rho_drho_phi``):
at every window end and, for a driven channel, at the composite
Gauss-Legendre nodes of every window, where F_1 and F_2 alone are read
together (``channel_forces``).  The masses, mdot_j and T(t) are read once
as arrays, and the kernels are assembled together.  The node values serve
I''_j, I'_j and both integrals of D_j: the inner one at every node is the
panel-wise spectral running integral of ``quadrature.running_integral``.
When f_1 and f_2 are both Constant 0 (``DecoupledSystem.undriven``) the
driving integrals are 0 without a node set or a read of F_j.

The ``variant="lw"`` kernel reproduces the defective construction for the
comparison experiments: channel frequencies built from the bare w_j^2
(no mass-derivative correction) and no boundary mass factor.  For constant
masses the two variants coincide identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoupling import DecoupledSystem, channel_forces
from .ermakov import solve_ermakov
from .errors import CausticError, InadmissibleSystem
from .gaussian import GaussianState2D, _complete_square
from .quadrature import composite_gl_nodes, running_integral
from .system import potential

__all__ = [
    "Kernel",
    "build_kernel",
    "build_kernels",
    "evolve_gaussian",
    "solve_channels",
    "propagate_gaussian",
    "schrodinger_residual",
    "residual_sample_points",
]

DEFAULT_CAUSTIC_TOL = 1e-8
DEFAULT_QUAD_ORDER = 8
DEFAULT_QUAD_PANELS = 64
DEFAULT_ODE_TOL = 1e-10
#: share of the window at each end where residual samples are not drawn
_MARGIN_FRAC = 0.1
#: residual samples keep |sin phi_j| above this in both channels
_SIN_PHI_MIN = 0.15
#: the residual's kernel times tc + k h_t: the first-derivative stencils
#: of its two levels, steps h_t and h_t / 2 (columns _DT_COLUMNS), and tc
_STENCIL = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_DT_COLUMNS = np.array([[0, 1, 5, 6], [1, 2, 4, 5]])
#: the step of each level, as a share of h, and the x'' stencil in steps
_LEVELS, _SHIFTS = np.array([1.0, 0.5]), np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
#: the sign of each end, t'' and t', in the kernel's boundary terms
_ENDS_SIGN = np.array([[1.0], [-1.0]])
_DIAG = np.arange(4)


@dataclass(frozen=True, eq=False, repr=False)
class Kernel:
    """The complex Gaussian propagators K(x'', t''; x', t') of windows inside
    one solve, stacked: t_start, t_end and c0 in the windows' shape (shape ()
    for one window), L and M with trailing axes (4,) and (4, 4), and each
    channel's rho_q (rho at t''), drho_q, phi = phi(t'', t'), maslov, I_end
    (couples to Q''), I_start (couples to Q') and D behind a leading channel
    axis."""

    decoupled: DecoupledSystem
    variant: str
    solutions: tuple
    t_start: np.ndarray
    t_end: np.ndarray
    c0: np.ndarray
    L: np.ndarray
    M: np.ndarray
    rho_q: np.ndarray
    drho_q: np.ndarray
    phi: np.ndarray
    maslov: np.ndarray
    I_end: np.ndarray
    I_start: np.ndarray
    D: np.ndarray

    @property
    def system(self):
        return self.decoupled.system

    def log_evaluate(self, x1q, x2q, x1p, x2p):
        """log K at end positions (x1q, x2q) and start positions (x1p, x2p),
        broadcast against the windows."""
        q = np.stack(np.broadcast_arrays(
            np.asarray(x1q, dtype=float), np.asarray(x2q, dtype=float),
            np.asarray(x1p, dtype=float), np.asarray(x2p, dtype=float)), axis=-1)
        lin = (q[..., None, :] @ self.L[..., None])[..., 0, 0]
        quad = 0.5 * np.einsum("...i,...ij,...j->...", q, self.M, q)
        return self.c0 + lin + quad

    def evaluate(self, x1q, x2q, x1p, x2p):
        """K at end positions (x1q, x2q) and start positions (x1p, x2p)."""
        return np.exp(self.log_evaluate(x1q, x2q, x1p, x2p))

    def __call__(self, x1q, x2q, x1p, x2p):
        return self.evaluate(x1q, x2q, x1p, x2p)


def _is_corrected(decoupled, variant):
    """Check the variant name, and admissibility for the corrected one."""
    if variant not in ("corrected", "lw"):
        raise ValueError(f"unknown kernel variant {variant!r}")
    corrected = variant == "corrected"
    if corrected and not decoupled.admissible:
        raise InadmissibleSystem(decoupled.gamma_max, decoupled.worst_t)
    return corrected


def solve_channels(decoupled: DecoupledSystem, t_start, t_end, variant="corrected",
                   ode_tol=DEFAULT_ODE_TOL, ic=(1.0, 0.0)):
    """Auxiliary solutions (ErmakovSolution) of both channels on [t_start, t_end].

    Every kernel of ``variant`` whose window lies inside [t_start, t_end]
    can be built from the returned pair with ``build_kernel(...,
    solutions=...)``.  ``ic`` is (rho, rho') at t_start for both channels;
    the window is checked once per channel.  A channel whose Om_j^2 is
    constant (``DecoupledSystem.constant_omega_sq``) is passed to
    ``solve_ermakov`` as that number and solved in closed form; any other
    as the callable of ``omega_sq_on``, solved on Gauss-Legendre panels.
    """
    corrected = _is_corrected(decoupled, variant)

    def omega_sq(j):
        om2 = decoupled.omega_sq_on(j, t_start, t_end, corrected=corrected)
        constant = decoupled.constant_omega_sq(j, corrected)
        return om2 if constant is None else constant

    return tuple(solve_ermakov(omega_sq(j), t_start, t_end, ic=ic, tol=ode_tol, channel=j)
                 for j in (1, 2))


def build_kernels(decoupled: DecoupledSystem, t_start, t_end, solutions,
                  variant="corrected", quad_order=DEFAULT_QUAD_ORDER,
                  quad_panels=DEFAULT_QUAD_PANELS, caustic_tol=DEFAULT_CAUSTIC_TOL):
    """The Kernel of the windows [t_start, t_end], in the broadcast shape of
    the two arrays of window ends.

    ``solutions`` is the pair returned by ``solve_channels`` for the same
    variant on a window containing every one of them.  The
    variant, admissibility and windows are checked once, each channel's
    dense output is read once at every end and node, and F_j, the masses,
    mdot_j and T(t) once each, as arrays.  A window whose |sin phi_j| is at
    most ``caustic_tol`` raises CausticError: that of the first such
    window, channel 1 before channel 2, as ``build_kernel`` raises it for
    that window alone.
    """
    spec = decoupled.system
    corrected = _is_corrected(decoupled, variant)
    ends = np.empty((2, *np.broadcast(t_end, t_start).shape))
    ends[0], ends[1] = t_end, t_start
    t_end, t_start = ends
    n, shape = t_end.size, t_end.shape
    ends = ends.reshape(-1)  # every t'', then every t'
    if not n:
        raise ValueError("no windows: t_start and t_end are empty")
    if not (ends[:n] > ends[n:]).all():  # NaN too
        raise ValueError("t_end must exceed t_start")
    spec.check_time(ends)
    forces = (None, None)
    if not decoupled.undriven:
        t_nodes, w = composite_gl_nodes(ends[n:], ends[:n], quad_panels, quad_order)
        # a channel whose F_j is 0 at every node has no driving terms
        forces = tuple(F if np.max(np.abs(F)) != 0.0 else None
                       for F in channel_forces(spec, decoupled.alpha, t_nodes))
    reads = [sol.rho_drho_phi(ends if F is None else np.concatenate((ends, t_nodes.ravel())))
             for sol, F in zip(solutions, forces)]
    # rho, rho' and phi by (channel, end: t'' or t', window)
    rho, drho, phis = np.array([[x[:2 * n] for x in r] for r in reads]).reshape(
        2, 3, 2, n).transpose(1, 0, 2, 3)
    phi = phis[:, 0] - phis[:, 1]
    s = np.sin(phi)
    bad = np.abs(s) <= caustic_tol
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        j = 1 if bad[0, i] else 2
        sol = solutions[j - 1]
        caustics = sol.caustics_in(ends[n + i], min(sol.t_end, ends[i]))
        nearest = min(caustics, key=lambda tc: abs(tc - ends[i]), default=None)
        raise CausticError(j, float(s[j - 1, i]), nearest)

    # (I_end, I_start) by (channel, end), and D by channel
    I, D = np.zeros((2, 2, n)), np.zeros((2, n))
    for c, ((rho_c, _, phi_c), F) in enumerate(zip(reads, forces)):
        if F is not None:
            # phases are measured from t_start, wherever the solve started
            phase = phi_c[2 * n:].reshape(n, -1) - phi_c[n:2 * n, None]
            G = w * F * rho_c[2 * n:].reshape(n, -1)
            from_start = G * np.sin(phase)
            to_end = G * np.sin(phi[c, :, None] - phase)
            I[c, 0] = from_start.sum(axis=-1)
            I[c, 1] = to_end.sum(axis=-1)
            D[c] = (to_end * running_integral(from_start, quad_order)).sum(axis=-1)

    hbar = spec.hbar
    maslov = np.floor(phi / math.pi)
    k = 1.0 / (hbar * s)
    inv = 1.0 / rho
    # M / i in the rotated coordinates: a 2 x 2 block over (t'', t') per
    # channel, by (channel, end, end, window)
    Q = np.empty((2, 2, 2, n))
    Q[:, _DIAG[:2], _DIAG[:2]] = ((np.cos(phi) * k)[:, None] * inv**2
                                  + _ENDS_SIGN / hbar * drho * inv)
    Q[:, 0, 1] = Q[:, 1, 0] = -k * inv[:, 0] * inv[:, 1]
    # T(t) by (channel, end, coordinate, window), and M / i = T^T Q T
    T = decoupled.transform.position_matrix(ends).reshape(2, 2, 2, n).transpose(0, 2, 1, 3)
    X = (T[:, :, :, None, None] * Q[:, :, None, :, None]
         * T[:, None, None]).sum(axis=0).reshape(4, 4, n)
    # the window check covers the masses' domains: they are read unchecked
    masses = (spec.m1, spec.m2)
    if corrected:
        md = np.array([mj._deriv1(ends) for mj in masses]).reshape(2, 2, n)
        X[_DIAG, _DIAG] -= (0.5 / hbar) * (_ENDS_SIGN * md).transpose(1, 0, 2).reshape(4, n)
    Y = (T * (I * k[:, None] * inv)[:, :, None]).sum(axis=0).reshape(4, n)
    M = np.multiply(X.transpose(2, 0, 1), 1j, order="C")
    L = np.multiply(Y.T, 1j, order="C")
    m = np.array([mj._value(ends) for mj in masses])
    scale = 2.0 * math.pi * hbar * rho[:, 0] * rho[:, 1] * s
    c0 = (0.25 * np.log(m[:, :n] * m[:, n:] / scale**2)
          - 1j * ((maslov + 0.5) * (0.5 * math.pi) + D * k)).sum(axis=0)

    return Kernel(decoupled, variant, solutions, t_start, t_end, c0.reshape(shape),
                  L.reshape(*shape, 4), M.reshape(*shape, 4, 4),
                  *(v.reshape(2, *shape) for v in (rho[:, 0], drho[:, 0], phi,
                    maslov.astype(int), I[:, 0], I[:, 1], D)))


def build_kernel(decoupled: DecoupledSystem, t_start, t_end, variant="corrected",
                 quad_order=DEFAULT_QUAD_ORDER, quad_panels=DEFAULT_QUAD_PANELS,
                 ode_tol=DEFAULT_ODE_TOL, caustic_tol=DEFAULT_CAUSTIC_TOL,
                 ermakov_ic=(1.0, 0.0), solutions=None) -> Kernel:
    """Assemble the kernel for the window [t_start, t_end].

    The corrected variant requires an admissible decoupling.  ``ermakov_ic``
    fixes the auxiliary initial condition; the kernel value is independent
    of it (a tested property), the default merely makes runs reproducible.
    ``solutions`` is the pair returned by ``solve_channels`` for the same
    variant on a window containing [t_start, t_end]; it lets many kernels
    share one solve, and ``ode_tol`` and ``ermakov_ic`` are then unused.
    Without it the kernel solves its own window.  It is the ``build_kernels``
    result of that window, of shape ().
    """
    if solutions is None:
        solutions = solve_channels(decoupled, t_start, t_end, variant=variant,
                                   ode_tol=ode_tol, ic=ermakov_ic)
    return build_kernels(decoupled, t_start, t_end, solutions, variant, quad_order,
                         quad_panels, caustic_tol)


def evolve_gaussian(decoupled: DecoupledSystem, state, times,
                    quad_order=DEFAULT_QUAD_ORDER, quad_panels=DEFAULT_QUAD_PANELS,
                    ode_tol=DEFAULT_ODE_TOL, caustic_tol=DEFAULT_CAUSTIC_TOL):
    """The Gaussian ``state`` at times[0] carried through the corrected
    kernels of the intervals of the ascending ``times``: the list of states
    at every time, ``state`` first.

    One auxiliary solve on [times[0], times[-1]] serves the stacked kernel
    of the intervals, and the states are propagated in order straight from
    its c0, L and M, as ``propagate_gaussian`` does for each.
    """
    times = np.asarray(times, dtype=float)
    sols = solve_channels(decoupled, times[0], times[-1], ode_tol=ode_tol)
    kern = build_kernels(decoupled, times[:-1], times[1:], sols, quad_order=quad_order,
                         quad_panels=quad_panels, caustic_tol=caustic_tol)
    hbar = decoupled.system.hbar
    states = [state]
    for c0, L, M in zip(kern.c0.tolist(), kern.L, kern.M):
        states.append(_propagate(c0, L, M, states[-1], hbar))
    return states


def propagate_gaussian(kernel: Kernel, state: GaussianState2D) -> GaussianState2D:
    """psi''(x'') = int K(x''; x') psi'(x') d^2 x', in closed form, for a
    ``kernel`` of one window (shape ()).

    Completing the square in x' reduces the integral to 2x2 complex linear
    algebra; norm is preserved to roundoff.  Raises NonConvergentGaussian
    if the x' quadratic form loses its positive-definite real part (a
    caustic-adjacent degeneracy or a non-normalizable input), or if the
    propagated state's does.
    """
    if np.ndim(kernel.c0):
        raise ValueError("propagate_gaussian takes the kernel of one window, of shape ()")
    return _propagate(kernel.c0, kernel.L, kernel.M, state, kernel.system.hbar)


def _propagate(c0, L, M, state, hbar):
    """``state`` carried by the kernel log K(q) = c0 + L.q + q.M.q/2."""
    S_inv, mu, log_I = _complete_square(state.A - M[2:, 2:], state.b + L[2:],
                                        "the propagation quadratic form")
    M_es = M[:2, 2:]
    return GaussianState2D(A=-(M[:2, :2] + M_es @ S_inv @ M_es.T), b=L[:2] + M_es @ mu,
                           c=c0 + state.c + log_I, hbar=hbar)


# --- finite-difference Schrodinger-equation check --------------------------

def residual_sample_points(decoupled, t_start, t_end, n_points=20, seed=0,
                           variant="corrected", ode_tol=DEFAULT_ODE_TOL):
    """Interior (t, x'', x') samples away from caustics of both channels.

    Positions are drawn from a seeded normal with the system's natural
    length scale sqrt(hbar); times are spread over the interior of the
    window, rejecting those where either channel is within ``_SIN_PHI_MIN``
    of a caustic (the kernel is singular there by construction).
    Returns (times, points, solutions), the last from ``solve_channels``
    on the window.
    """
    return _sample_points(decoupled, t_start, t_end, n_points, seed, variant, ode_tol)[:3]


def _sample_points(decoupled, t_start, t_end, n_points, seed, variant, ode_tol):
    """``residual_sample_points``, and min_j |sin phi_j| at each time from
    the same read of phi."""
    spec = decoupled.system
    sols = solve_channels(decoupled, t_start, t_end, variant=variant, ode_tol=ode_tol)
    T = t_end - t_start
    candidates = np.linspace(t_start + _MARGIN_FRAC * T,
                             t_end - _MARGIN_FRAC * T, 8 * n_points)
    phis = [s.phi(candidates) for s in sols]
    ok = np.flatnonzero((np.abs(np.sin(phis[0])) > _SIN_PHI_MIN)
                        & (np.abs(np.sin(phis[1])) > _SIN_PHI_MIN))
    if not ok.size:
        raise CausticError(0, 0.0, None)
    kept = ok[np.linspace(0, len(ok) - 1, min(n_points, len(ok))).astype(int)]
    times = [candidates[i] for i in kept]
    s_min = [min(abs(math.sin(float(phi[i]))) for phi in phis) for i in kept]
    rng = np.random.default_rng(seed)
    ell = math.sqrt(spec.hbar)
    points = rng.normal(scale=ell, size=(len(times), 4))
    return times, points, sols, s_min


def schrodinger_residual(decoupled, t_start, t_end, variant="corrected",
                         n_points=20, seed=0, quad_order=DEFAULT_QUAD_ORDER,
                         quad_panels=DEFAULT_QUAD_PANELS, ode_tol=DEFAULT_ODE_TOL):
    """Relative residual |i hbar dK/dt - H K| / (|K| * energy scale).

    Time and space derivatives come from fourth-order five-point stencils;
    the step is validated by a Richardson halving (the smaller of the two
    estimates is reported per point, the levels agree where the finite
    difference is converged).  Near a caustic the kernel coefficients vary
    on the timescale sin^2(phi), so the time step shrinks with the caustic
    margin.  Returns (times, points, residuals).
    """
    spec = decoupled.system
    hbar = spec.hbar
    times, points, sols, s_mins = _sample_points(
        decoupled, t_start, t_end, n_points, seed, variant, ode_tol)
    tc, s_min = np.array(times), np.array(s_mins)
    T = t_end - t_start
    h_x = 2.5e-3 * math.sqrt(hbar) * _LEVELS
    h_t = (np.minimum(np.minimum(1e-3 * T, 0.2 * (t_end - tc)), 0.2 * (tc - t_start))
           * np.minimum(1.0, np.maximum(s_min**2, 0.02)))
    # every stencil time of every point, one kernel of shape (point, 7)
    kern = build_kernels(decoupled, t_start, tc[:, None] + h_t[:, None] * _STENCIL,
                         sols, variant, quad_order, quad_panels)
    K = kern.evaluate(*points.T[:, :, None])
    K_m2, K_m1, K_p1, K_p2 = K[:, _DT_COLUMNS].T  # by (level, point)
    lhs = 1j * hbar * ((K_m2 - 8 * K_m1 + 8 * K_p1 - K_p2) / (12 * (h_t * _LEVELS[:, None])))
    # x1'' and x2'' moved by each level's steps, by (shift, level, j, point,
    # window, coordinate); the kernel at tc is the window of column 3
    shifts = (_SHIFTS[:, None, None, None, None, None] * h_x[:, None, None, None, None]
              * np.eye(4)[:2, None, None])
    v = kern.evaluate(*np.moveaxis(points[:, None] + shifts, -1, 0))[..., 3]
    d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h_x[:, None, None]**2)
    lap = (-hbar**2 / (2.0 * np.array([spec.m1(tc), spec.m2(tc)])) * d2).sum(axis=1)
    VK = potential(spec, points[:, 0], points[:, 1], tc) * K[:, 3]
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(lap)),
                       np.maximum(np.maximum(np.abs(VK), hbar / T * np.abs(K[:, 3])), 1e-300))
    return tc, points, (np.abs(lhs - (lap + VK)) / scale).min(axis=0)

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
``solve_channels`` is the one place that solve happens: ``build_kernel``
calls it unless it is handed ``solutions``, the residual check solves
once and builds every stencil kernel from that pair, and the command
line's ``evolve`` solves once for the scenario window and builds each
interval's kernel from it (2 solves per run, not 2 per interval).

A kernel reads each channel's dense output once
(``ErmakovSolution.rho_drho_phi``): at its two endpoints and, for a
driven channel, at the composite Gauss-Legendre nodes of the window.
Those nodes are built once per kernel, and F_1 and F_2 alone are read
there together (``channel_forces``).  The node values serve I''_j, I'_j
and both integrals of D_j: the inner one at every node is the panel-wise
spectral running integral of ``quadrature.running_integral``.  When f_1 and f_2 are both
Constant 0 (``DecoupledSystem.undriven``) the driving integrals are 0
without a node set or a read of F_j.

The ``variant="lw"`` kernel reproduces the defective construction for the
comparison experiments: channel frequencies built from the bare w_j^2
(no mass-derivative correction) and no boundary mass factor.  For constant
masses the two variants coincide identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decoupling import DecoupledSystem, channel_forces
from .ermakov import ErmakovSolution, solve_ermakov
from .errors import CausticError, InadmissibleSystem, NonConvergentGaussian
from .gaussian import GaussianState2D, log_sqrt_det, _require_posdef_real
from .quadrature import composite_gl_nodes, running_integral
from .system import potential

__all__ = [
    "ChannelKernelData",
    "Kernel",
    "build_kernel",
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


@dataclass(frozen=True)
class ChannelKernelData:
    """Cached per-channel endpoint scalars and driving integrals."""

    channel: int
    solution: ErmakovSolution
    rho_p: float      # rho at t'
    drho_p: float
    rho_q: float      # rho at t''
    drho_q: float
    phi: float        # phi(t'', t')
    sin_phi: float
    cos_phi: float
    maslov: int
    I_end: float      # int G sin phi(t, t') dt   (couples to Q'')
    I_start: float    # int G sin phi(t'', t) dt  (couples to Q')
    D: float          # double integral over tau <= t


@dataclass(frozen=True)
class Kernel:
    """Evaluatable complex Gaussian propagator K(x'', t''; x', t')."""

    decoupled: DecoupledSystem
    t_start: float
    t_end: float
    variant: str
    channels: tuple
    c0: complex = field(repr=False)
    L: np.ndarray = field(repr=False)
    M: np.ndarray = field(repr=False)

    @property
    def system(self):
        return self.decoupled.system

    def log_evaluate(self, x1q, x2q, x1p, x2p):
        q = np.stack(np.broadcast_arrays(
            np.asarray(x1q, dtype=float), np.asarray(x2q, dtype=float),
            np.asarray(x1p, dtype=float), np.asarray(x2p, dtype=float)), axis=-1)
        lin = q @ self.L
        quad = 0.5 * np.einsum("...i,ij,...j->...", q, self.M, q)
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


def _driving_integrals(F, rho, phase, phi, w, order):
    """(I_end, I_start, D) of one channel on [t_start, t_end].

    F, rho and phase = phi_j(t) - phi_j(t_start) are read at the nodes of
    ``composite_gl_nodes(t_start, t_end, panels, order)``, whose weights
    are ``w``; phi is phi_j(t_end) - phi_j(t_start).  The inner integral
    of D at each node is the ``running_integral`` of G sin phase from the
    same values, so no further node set or read is needed.
    """
    G = F * rho
    from_start = G * np.sin(phase)
    to_end = G * np.sin(phi - phase)
    I_end = float(np.dot(w, from_start))
    I_start = float(np.dot(w, to_end))
    D = float(np.sum(w * to_end * running_integral(w * from_start, order)))
    return I_end, I_start, D


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
    Without it the kernel solves its own window.
    """
    spec = decoupled.system
    t_start, t_end = float(t_start), float(t_end)
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    spec.check_time([t_start, t_end])
    corrected = _is_corrected(decoupled, variant)
    if solutions is None:
        solutions = solve_channels(decoupled, t_start, t_end, variant=variant,
                                   ode_tol=ode_tol, ic=ermakov_ic)

    hbar = spec.hbar
    # the window is checked above, so the masses are read unchecked, at the
    # 0-d arrays that their checked reads would pass on
    masses = (spec.m1, spec.m2)
    at_start, at_end = np.asarray(t_start), np.asarray(t_end)
    forces = (None, None)
    if not decoupled.undriven:
        t_nodes, w = composite_gl_nodes(t_start, t_end, quad_panels, quad_order)
        # a channel whose F_j is 0 at every node has no driving terms
        forces = tuple(F if np.max(np.abs(F)) != 0.0 else None
                       for F in channel_forces(spec, decoupled.alpha, t_nodes))
    channels = []
    per_channel = []
    for j, sol, F in zip((1, 2), solutions, forces):
        t_read = [t_start, t_end] if F is None else np.concatenate(([t_start, t_end], t_nodes))
        rho, drho, phis = sol.rho_drho_phi(t_read)
        (rho_p, rho_q), (drho_p, drho_q), (phi_p, phi_q) = (
            x[:2].tolist() for x in (rho, drho, phis))
        phi = phi_q - phi_p
        sin_phi = math.sin(phi)
        if abs(sin_phi) <= caustic_tol:
            caustics = sol.caustics_in(t_start, min(sol.t_end, t_end))
            nearest = min(caustics, key=lambda tc: abs(tc - t_end), default=None)
            raise CausticError(j, sin_phi, nearest)
        if F is None:
            I_end = I_start = D = 0.0
        else:
            # phases are measured from t_start, wherever the solve started
            I_end, I_start, D = _driving_integrals(
                F, rho[2:], phis[2:] - phi_p, phi, w, quad_order)
        data = ChannelKernelData(
            channel=j, solution=sol,
            rho_p=rho_p, drho_p=drho_p, rho_q=rho_q, drho_q=drho_q,
            phi=phi, sin_phi=sin_phi, cos_phi=math.cos(phi),
            maslov=int(math.floor(phi / math.pi)),
            I_end=I_end, I_start=I_start, D=D,
        )
        channels.append(data)

        s = sin_phi
        a_end = 0.5j / hbar * (drho_q / rho_q) + 0.5j * data.cos_phi / (hbar * s * rho_q**2)
        a_start = -0.5j / hbar * (drho_p / rho_p) + 0.5j * data.cos_phi / (hbar * s * rho_p**2)
        cross = -1j / (hbar * s * rho_q * rho_p)
        lin_end = 1j * I_end / (hbar * s * rho_q)
        lin_start = 1j * I_start / (hbar * s * rho_p)
        m_q = masses[j - 1]._value(at_end)
        m_p = masses[j - 1]._value(at_start)
        log_pref = (0.25 * math.log(m_q * m_p)
                    - 0.5 * math.log(2.0 * math.pi * hbar * rho_q * rho_p * abs(s))
                    - 0.25j * math.pi - 0.5j * math.pi * data.maslov)
        const = log_pref - 1j * D / (hbar * s)
        per_channel.append((a_end, a_start, cross, lin_end, lin_start, const))

    T_end = decoupled.transform.position_matrix(t_end)
    T_start = decoupled.transform.position_matrix(t_start)
    a_end = np.array([pc[0] for pc in per_channel])
    a_start = np.array([pc[1] for pc in per_channel])
    cross = np.array([pc[2] for pc in per_channel])
    lin_end = np.array([pc[3] for pc in per_channel])
    lin_start = np.array([pc[4] for pc in per_channel])
    c0 = complex(sum(pc[5] for pc in per_channel))

    if corrected:
        md_end = np.array([m._deriv1(at_end) for m in masses])
        md_start = np.array([m._deriv1(at_start) for m in masses])
        bnd_end = np.diag(-0.25j / hbar * md_end)
        bnd_start = np.diag(0.25j / hbar * md_start)
    else:
        bnd_end = bnd_start = np.zeros((2, 2), dtype=complex)

    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2] = 2.0 * (T_end.T @ np.diag(a_end) @ T_end + bnd_end)
    M[2:, 2:] = 2.0 * (T_start.T @ np.diag(a_start) @ T_start + bnd_start)
    M[:2, 2:] = T_end.T @ np.diag(cross) @ T_start
    M[2:, :2] = M[:2, 2:].T
    L = np.concatenate([T_end.T @ lin_end, T_start.T @ lin_start])

    return Kernel(decoupled=decoupled, t_start=t_start, t_end=t_end,
                  variant=variant, channels=tuple(channels),
                  c0=c0, L=L, M=M)


def propagate_gaussian(kernel: Kernel, state: GaussianState2D) -> GaussianState2D:
    """psi''(x'') = int K(x''; x') psi'(x') d^2 x', in closed form.

    Completing the square in x' reduces the integral to 2x2 complex linear
    algebra; norm is preserved to roundoff.  Raises NonConvergentGaussian
    if the x' quadratic form loses its positive-definite real part (a
    caustic-adjacent degeneracy or a non-normalizable input).
    """
    M, L, c0 = kernel.M, kernel.L, kernel.c0
    M_ee, M_es, M_ss = M[:2, :2], M[:2, 2:], M[2:, 2:]
    S = state.A - M_ss
    _require_posdef_real(S, "the propagation quadratic form")
    v0 = state.b + L[2:]
    Sinv_v0 = np.linalg.solve(S, v0)
    Sinv_Mse = np.linalg.solve(S, M_es.T)
    A_new = -(M_ee + M_es @ Sinv_Mse)
    b_new = L[:2] + M_es @ Sinv_v0
    c_new = (c0 + state.c + math.log(2.0 * math.pi)
             - log_sqrt_det(S) + 0.5 * v0 @ Sinv_v0)
    A_new = 0.5 * (A_new + A_new.T)
    if not (np.real(A_new)[0, 0] > 0
            and np.linalg.det(np.real(A_new)) > 0):
        raise NonConvergentGaussian("propagated state lost normalizability")
    return GaussianState2D(A=A_new, b=b_new, c=c_new, hbar=kernel.system.hbar)


# --- finite-difference Schrodinger-equation check --------------------------

def residual_sample_points(decoupled, t_start, t_end, n_points=20, seed=0,
                           sin_phi_min=0.15, variant="corrected",
                           ode_tol=DEFAULT_ODE_TOL, margin_frac=_MARGIN_FRAC):
    """Interior (t, x'', x') samples away from caustics of both channels.

    Positions are drawn from a seeded normal with the system's natural
    length scale sqrt(hbar); times are spread over the interior of the
    window, rejecting those where either channel is within ``sin_phi_min``
    of a caustic (the kernel is singular there by construction).
    Returns (times, points, solutions), the last from ``solve_channels``
    on the window.
    """
    return _sample_points(decoupled, t_start, t_end, n_points, seed, sin_phi_min,
                          variant, ode_tol, margin_frac)[:3]


def _sample_points(decoupled, t_start, t_end, n_points, seed, sin_phi_min, variant,
                   ode_tol, margin_frac):
    """``residual_sample_points``, and min_j |sin phi_j| at each time from
    the same read of phi."""
    spec = decoupled.system
    sols = solve_channels(decoupled, t_start, t_end, variant=variant, ode_tol=ode_tol)
    T = t_end - t_start
    candidates = np.linspace(t_start + margin_frac * T,
                             t_end - margin_frac * T, 8 * n_points)
    phis = [s.phi(candidates) for s in sols]
    ok = np.flatnonzero((np.abs(np.sin(phis[0])) > sin_phi_min)
                        & (np.abs(np.sin(phis[1])) > sin_phi_min))
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
                         quad_panels=DEFAULT_QUAD_PANELS, ode_tol=DEFAULT_ODE_TOL,
                         sin_phi_min=0.15):
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
        decoupled, t_start, t_end, n_points, seed, sin_phi_min, variant, ode_tol,
        _MARGIN_FRAC)

    T = t_end - t_start
    residuals = np.empty(len(times))
    for i, (tc, pt, s_min) in enumerate(zip(times, points, s_mins)):
        x1q, x2q, x1p, x2p = pt
        h_t = min(1e-3 * T, 0.2 * (t_end - tc), 0.2 * (tc - t_start))
        h_t *= min(1.0, max(s_min**2, 0.02))
        h_x = 2.5e-3 * math.sqrt(hbar)

        def kernel_at(t_eval):
            return build_kernel(decoupled, t_start, t_eval, variant=variant,
                                quad_order=quad_order, quad_panels=quad_panels,
                                solutions=sols)

        cache = {}

        def K_of_t(dt):
            if dt not in cache:
                cache[dt] = kernel_at(tc + dt)
            return cache[dt].evaluate(x1q, x2q, x1p, x2p)

        k0 = kernel_at(tc)
        K0 = complex(k0.evaluate(x1q, x2q, x1p, x2p))

        def residual_for(ht, hx):
            dKdt = (K_of_t(-2 * ht) - 8 * K_of_t(-ht)
                    + 8 * K_of_t(ht) - K_of_t(2 * ht)) / (12 * ht)
            shifts = np.array([-2, -1, 0, 1, 2]) * hx
            lap = 0.0
            for m_j, vals in [
                (spec.m1(tc), k0.evaluate(x1q + shifts, x2q, x1p, x2p)),
                (spec.m2(tc), k0.evaluate(x1q, x2q + shifts, x1p, x2p)),
            ]:
                d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2]
                      + 16 * vals[3] - vals[4]) / (12 * hx**2)
                lap += -hbar**2 / (2.0 * m_j) * d2
            VK = potential(spec, x1q, x2q, tc) * K0
            lhs = 1j * hbar * dKdt
            rhs = lap + VK
            scale = max(abs(lhs), abs(lap), abs(VK), hbar / T * abs(K0), 1e-300)
            return abs(lhs - rhs) / scale

        r1 = residual_for(h_t, h_x)
        r2 = residual_for(h_t / 2, h_x / 2)
        residuals[i] = min(r1, r2)
    return np.array(times), points, residuals

"""Constant-angle canonical transformation that decouples the two oscillators.

The transformation scales out the masses, removes the mdot cross terms with
a quadratic gauge, and rotates by a constant angle alpha:

    x_1 = (Q_1 cos a + Q_2 sin a) / sqrt(m_1)
    x_2 = (-Q_1 sin a + Q_2 cos a) / sqrt(m_2)
    p_1 = sqrt(m_1) (P_1 cos a + P_2 sin a + beta_1 x_1)
    p_2 = sqrt(m_2) (-P_1 sin a + P_2 cos a + beta_2 x_2)

with beta_j = -mdot_j / (2 sqrt(m_j)).  In the new variables the
Hamiltonian becomes a pair of unit-mass driven oscillators

    sum_j [ P_j^2/2 + (1/2) Om_j^2(t) Q_j^2 - F_j(t) Q_j ] + Gam(t) Q_1 Q_2

with (g = lam / sqrt(m_1 m_2), w~_j^2 the effective frequencies):

    Om_1^2 = w~_1^2 cos^2 a + w~_2^2 sin^2 a - g sin 2a
    Om_2^2 = w~_1^2 sin^2 a + w~_2^2 cos^2 a + g sin 2a
    Gam    = (1/2)(w~_1^2 - w~_2^2) sin 2a + g cos 2a
    F_1    = sqrt(m_1) f_1 cos a - sqrt(m_2) f_2 sin a
    F_2    = sqrt(m_1) f_1 sin a + sqrt(m_2) f_2 cos a

These expressions are validated against integrated classical trajectories
in the test suite rather than taken on faith.  Decoupling holds when a
constant alpha makes Gam vanish identically, i.e. when

    lam(t) = (1/2) sqrt(m_1 m_2) (w~_2^2 - w~_1^2) tan(2a)

for some fixed a; systems violating this are flagged inadmissible (with
diagnostics), never silently accepted.  The best angle is exact on the
time grid: max_t |Gam| is the support function of the centrally symmetric
polygon conv(+-(D(t), g(t))), D = (w~_1^2 - w~_2^2)/2, and is least along
the normal of its hull edge nearest the origin (:func:`solve_angle`).

The auxiliary ODE solve reads Om_j^2 once per integration step, tens of
times per window, so :meth:`DecoupledSystem.omega_sq_on` checks the window
once and returns an unchecked callable, with the terms that do not depend
on time (built from Constant coefficients) folded into numbers.  One
check is enough: SystemSpec guarantees that every coefficient's domain
covers [t_min, t_max], and the DOP853 integrator only evaluates its
right-hand side at stage times t + c*h with c in [0, 1] and the step
clipped to the solve window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Constant
from .system import (
    PhasePoint,
    SystemSpec,
    TransformedPhasePoint,
    _effective_frequency_sq,
)

__all__ = [
    "CanonicalTransform",
    "DecoupledSystem",
    "normalize_angle",
    "channel_quantities",
    "decoupled_at_angle",
    "solve_angle",
]

#: Gam and Om_j^2 are pi-periodic in 2*alpha, so (-pi/4, pi/4] covers every
#: distinct transformation exactly once.
ANGLE_LO = -np.pi / 4

DEFAULT_GAMMA_TOL = 1e-9


def normalize_angle(alpha):
    """Reduce alpha modulo pi/2 into the canonical branch (-pi/4, pi/4]."""
    a = float(alpha) - np.pi / 2 * np.round(float(alpha) / (np.pi / 2))
    if a <= ANGLE_LO + 0.0:
        a += np.pi / 2
    return a


@dataclass(frozen=True)
class CanonicalTransform:
    """Constant-angle transform bound to a particular system (for the masses)."""

    system: SystemSpec
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", normalize_angle(self.alpha))

    def _parts(self, t):
        s = self.system
        t = s.check_time(t)
        sm1, sm2 = np.sqrt(s.m1(t)), np.sqrt(s.m2(t))
        b1 = -s.m1.deriv1(t) / (2.0 * sm1)
        b2 = -s.m2.deriv1(t) / (2.0 * sm2)
        return sm1, sm2, b1, b2, np.cos(self.alpha), np.sin(self.alpha)

    def to_rotated(self, pt: PhasePoint, t) -> TransformedPhasePoint:
        """Lab (x, p) -> rotated (Q, P) at time t."""
        sm1, sm2, b1, b2, c, s = self._parts(t)
        u1, u2 = sm1 * pt.x1, sm2 * pt.x2
        w1 = pt.p1 / sm1 - b1 * pt.x1
        w2 = pt.p2 / sm2 - b2 * pt.x2
        return TransformedPhasePoint(
            Q1=u1 * c - u2 * s,
            Q2=u1 * s + u2 * c,
            P1=w1 * c - w2 * s,
            P2=w1 * s + w2 * c,
        )

    def from_rotated(self, tpt: TransformedPhasePoint, t) -> PhasePoint:
        """Rotated (Q, P) -> lab (x, p); exact inverse of :meth:`to_rotated`."""
        sm1, sm2, b1, b2, c, s = self._parts(t)
        x1 = (tpt.Q1 * c + tpt.Q2 * s) / sm1
        x2 = (-tpt.Q1 * s + tpt.Q2 * c) / sm2
        p1 = sm1 * (tpt.P1 * c + tpt.P2 * s + b1 * x1)
        p2 = sm2 * (-tpt.P1 * s + tpt.P2 * c + b2 * x2)
        return PhasePoint(x1=x1, x2=x2, p1=p1, p2=p2)

    def position_matrix(self, t):
        """2x2 matrix T(t) with Q = T x for the position block."""
        sm1, sm2, _, _, c, s = self._parts(t)
        return np.array([[c * sm1, -s * sm2], [s * sm1, c * sm2]])


def _channel_terms(spec: SystemSpec, t, corrected, folded=(None, None, None)):
    """(w~_1^2, w~_2^2, g) at times already inside [t_min, t_max].

    Each coefficient is evaluated at most once, through its unchecked
    formula.  A term given in ``folded`` (the value of a time-independent
    one) is returned as it is and not evaluated.
    """
    wt1, wt2, g = folded
    m1 = m2 = None
    if wt1 is None:
        wt1, m1 = _frequency_term(spec.omega1, spec.m1, t, corrected)
    if wt2 is None:
        wt2, m2 = _frequency_term(spec.omega2, spec.m2, t, corrected)
    if g is None:
        m1 = spec.m1._value(t) if m1 is None else m1
        m2 = spec.m2._value(t) if m2 is None else m2
        g = spec.coupling._value(t) / np.sqrt(m1 * m2)
    return wt1, wt2, g


def _frequency_term(w, m, t, corrected):
    """(w~^2, m) at t, or the bare (w^2, None) when not ``corrected``."""
    if not corrected:
        w = w._value(t)
        return w * w, None
    mv, md, mdd = m._value_derivs(t)
    return _effective_frequency_sq(w._value(t), mv, md, mdd), mv


def _time_independent_terms(spec: SystemSpec, corrected):
    """Which of (w~_1^2, w~_2^2, g) are built from Constant coefficients only."""
    def constant(*cs):
        return all(isinstance(c, Constant) for c in cs)

    if corrected:
        return (constant(spec.omega1, spec.m1), constant(spec.omega2, spec.m2),
                constant(spec.coupling, spec.m1, spec.m2))
    return (constant(spec.omega1), constant(spec.omega2),
            constant(spec.coupling, spec.m1, spec.m2))


def _channel_weights(alpha):
    """Per-channel (p, q, r) for :func:`_omega_sq`.

    Channel 2 swaps cos^2 and sin^2 and negates sin 2a; x - g*(-s) equals
    x + g*s exactly, so both channels share one formula.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    s2 = np.sin(2 * alpha)
    return (ca**2, sa**2, s2), (sa**2, ca**2, -s2)


def _omega_sq(wt1, wt2, g, weights):
    """Om_j^2 = w~_1^2 p + w~_2^2 q - g r for channel weights (p, q, r)."""
    p, q, r = weights
    return wt1 * p + wt2 * q - g * r


def channel_quantities(spec: SystemSpec, alpha, t, corrected=True):
    """(Om1^2, Om2^2, F1, F2, Gam) at time(s) t for a given angle.

    With ``corrected=False`` the effective frequencies are replaced by the
    bare w_j^2 (no mass-derivative correction); that variant exists only to
    reproduce the defective construction for comparison runs.
    """
    t = spec.check_time(t)
    wt1, wt2, g = _channel_terms(spec, t, corrected)
    m1, m2 = spec.m1._value(t), spec.m2._value(t)
    w1, w2 = _channel_weights(alpha)
    ca, sa = np.cos(alpha), np.sin(alpha)
    s2, c2 = np.sin(2 * alpha), np.cos(2 * alpha)
    gam = 0.5 * (wt1 - wt2) * s2 + g * c2
    sf1 = np.sqrt(m1) * spec.f1._value(t)
    sf2 = np.sqrt(m2) * spec.f2._value(t)
    return (_omega_sq(wt1, wt2, g, w1), _omega_sq(wt1, wt2, g, w2),
            sf1 * ca - sf2 * sa, sf1 * sa + sf2 * ca, gam)


@dataclass(frozen=True)
class DecoupledSystem:
    """Result of fixing the rotation angle: two driven channels plus residual."""

    transform: CanonicalTransform
    gamma_max: float
    worst_t: float
    gamma_tol: float
    admissible: bool

    @property
    def system(self) -> SystemSpec:
        return self.transform.system

    @property
    def alpha(self) -> float:
        return self.transform.alpha

    def omega_sq(self, j, t, corrected=True):
        q = channel_quantities(self.system, self.alpha, t, corrected=corrected)
        return q[0] if j == 1 else q[1]

    def omega_sq_on(self, j, t_start, t_end, corrected=True):
        """Unchecked callable t -> Om_j^2(t) for times in [t_start, t_end].

        The window is checked here, once (DomainError if it leaves
        [t_min, t_max]); the callable then skips every domain check.  It
        returns an array shaped like its input.

        Each time-independent term is folded here, once per callable: w~_j^2
        when w_j and m_j are Constant (w_j alone for the bare variant), and
        g when lam, m_1 and m_2 are.  A folded term is computed by the array
        formula on a length-1 array, so it has the bits of the term an array
        read computes, and the callable equals ``omega_sq(j, t, corrected)``
        on arrays bit for bit.  Squares are products, so a 0-d read and an
        array read of the same time agree too, up to numpy's scalar and
        vector transcendentals (exp, cos, sin), which may round
        differently; none did on 20,000 pulsed-coupling times.
        """
        spec = self.system
        spec.check_time([t_start, t_end])
        weights = _channel_weights(self.alpha)[j - 1]
        fold = _time_independent_terms(spec, corrected)
        folded = (None, None, None)
        if any(fold):
            at_start = _channel_terms(spec, np.array([float(t_start)]), corrected)
            folded = tuple(float(x[0]) if f else None for x, f in zip(at_start, fold))
        if all(fold):
            value = _omega_sq(*folded, weights)
            return lambda t: np.full(np.shape(t), value)

        def omega_sq(t):
            return _omega_sq(*_channel_terms(spec, t, corrected, folded), weights)

        return omega_sq

    def driving(self, j, t):
        q = channel_quantities(self.system, self.alpha, t)
        return q[2] if j == 1 else q[3]

    def gamma(self, t):
        return channel_quantities(self.system, self.alpha, t)[4]


def _grid(spec, n_time):
    return np.linspace(spec.t_min, spec.t_max, int(n_time))


def decoupled_at_angle(spec: SystemSpec, alpha, n_time=1024,
                       gamma_tol=DEFAULT_GAMMA_TOL) -> DecoupledSystem:
    """Bind a given (possibly user-overridden) angle and judge admissibility.

    ``worst_t`` is the grid time of the largest |Gam|, except when that is
    at the roundoff floor, max |Gam| <= 64 eps (1 + stiffness): the argmax
    of roundoff carries no information and jumps when alpha moves by an
    ulp, so it is reported as the grid start, t_min.
    """
    alpha = normalize_angle(alpha)
    ts = _grid(spec, n_time)
    om1, om2, _, _, gam = channel_quantities(spec, alpha, ts)
    gam = np.abs(gam)
    i = int(np.argmax(gam))
    stiffness = float(max(np.max(np.abs(om1)), np.max(np.abs(om2))))
    tol_abs = gamma_tol * (1.0 + stiffness)
    i_worst = 0 if gam[i] <= 64.0 * np.finfo(float).eps * (1.0 + stiffness) else i
    return DecoupledSystem(
        transform=CanonicalTransform(system=spec, alpha=alpha),
        gamma_max=float(gam[i]),
        worst_t=float(ts[i_worst]),
        gamma_tol=tol_abs,
        admissible=bool(gam[i] <= tol_abs),
    )


def _nearest_edge(dd, g):
    """Edge vector (e_x, e_y) of conv(+-(dd[i], g[i])) nearest the origin.

    Andrew's monotone chain builds the lower chain.  The hull is centrally
    symmetric, so the upper chain is the lower one negated and holds the
    same edge distances.  Collinear points are dropped: points on one line
    through the origin leave the single edge from the leftmost point to the
    rightmost, at distance 0 up to roundoff.
    """
    x = np.concatenate([dd, -dd])
    y = np.concatenate([g, -g])
    order = np.lexsort((y, x))
    chain = []
    for px, py in zip(x[order].tolist(), y[order].tolist()):
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            chain.pop()
        chain.append((px, py))
    v = np.array(chain)
    e = np.diff(v, axis=0)
    dist = np.abs(v[:-1, 0] * e[:, 1] - v[:-1, 1] * e[:, 0]) / np.hypot(e[:, 0], e[:, 1])
    return e[np.argmin(dist)]


def solve_angle(spec: SystemSpec, n_time=1024,
                gamma_tol=DEFAULT_GAMMA_TOL) -> DecoupledSystem:
    """The constant angle minimizing max_t |Gam(t)| on the time grid, exactly.

    With p_t = (D(t), g(t)), D = (w~_1^2 - w~_2^2)/2, and the unit vector
    n = (sin 2a, cos 2a), Gam(t) = <p_t, n>, so max_t |Gam(t)| = h(n) is the
    support function of the polygon P = conv(+-p_t) over the n_time grid
    points.  P is centrally symmetric, so its width along n is 2 h(n) and
    the best angle realises the minimum width of P.  Between two adjacent
    edge normals h(n) = |v| cos(angle(n, v)) for the one vertex v between
    those edges, a concave function of the angle, so its minimum lies at an
    edge normal.  There h is the distance |v x e| / |e| from the origin to
    the edge's line, and the nearest edge e gives 2a = atan2(e_y, -e_x).

    An admissible system has g/D constant (lam = (1/2) sqrt(m_1 m_2)
    (w~_2^2 - w~_1^2) tan 2a), so every p_t lies on one line through the
    origin: P is a 2-vertex hull whose edge normal gives width 0.  Two exact
    special cases skip the hull: lam identically zero (alpha = 0) and
    identical effective frequencies with nonzero coupling (alpha = pi/4, the
    branch boundary, where cos 2a = 0 kills Gam).

    Inadmissibility is reported in the result, never raised.
    """
    ts = _grid(spec, n_time)
    wt1, wt2, g = _channel_terms(spec, ts, True)
    dd = 0.5 * (wt1 - wt2)
    scale = float(np.max(np.abs(wt1)) + np.max(np.abs(wt2)) + np.max(np.abs(g)) + 1.0)

    if np.max(np.abs(g)) <= 1e-300:
        return decoupled_at_angle(spec, 0.0, n_time, gamma_tol)
    if np.max(np.abs(dd)) <= 1e-13 * scale:
        return decoupled_at_angle(spec, np.pi / 4, n_time, gamma_tol)

    ex, ey = _nearest_edge(dd, g)
    return decoupled_at_angle(spec, 0.5 * math.atan2(ey, -ex), n_time, gamma_tol)

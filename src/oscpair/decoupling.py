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

Om_j^2 has one code path, ``_channel_terms``, read by
:func:`channel_quantities`, :func:`solve_angle` and the callable of
:meth:`DecoupledSystem.omega_sq_on`.  It reads a Constant coefficient as
its float, and m_2 once when it equals m_1 by value.  IEEE +, -, *, / and
sqrt round a float operand as they round each element of an array filled
with it, so a term of Constant coefficients has the bits of the array it
used to be, and ``np.full`` broadcasts a result to the shape of the times
only where an array is needed.

When Om_j^2 is constant by construction (constant w_j, and masses and
coupling of the Caldirola-Kanai class),
:meth:`DecoupledSystem.constant_omega_sq` returns it as a float, and the
auxiliary solve takes its closed form.  Otherwise the auxiliary panel
solve reads Om_j^2 once per refinement pass, at the Gauss-Legendre nodes
of the panels it solves, so ``omega_sq_on`` checks the window once and
returns an unchecked callable.  One check is enough: SystemSpec
guarantees that every coefficient's domain covers [t_min, t_max], and
the nodes of a panel lie inside the panel, inside the solve window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Constant, Exponential
from .system import (
    PhasePoint,
    SystemSpec,
    TransformedPhasePoint,
    _mass_correction,
)

__all__ = [
    "CanonicalTransform",
    "DecoupledSystem",
    "normalize_angle",
    "channel_forces",
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

    def _roots(self, t):
        """(t as checked, sqrt m_1, sqrt m_2) at t."""
        s = self.system
        # the window check covers every coefficient's domain, so the masses
        # are read unchecked, at the float array their checked reads would pass on
        t = s.check_time(t)
        return t, np.sqrt(s.m1._value(t)), np.sqrt(s.m2._value(t))

    def _parts(self, t):
        s = self.system
        t, sm1, sm2 = self._roots(t)
        b1 = -s.m1._deriv1(t) / (2.0 * sm1)
        b2 = -s.m2._deriv1(t) / (2.0 * sm2)
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
        """2x2 matrix T(t) with Q = T x for the position block; for an
        array of times, shape (2, 2, *t.shape)."""
        _, sm1, sm2 = self._roots(t)
        c, s = np.cos(self.alpha), np.sin(self.alpha)
        return np.array([[c * sm1, -s * sm2], [s * sm1, c * sm2]])


def _reads(c, t, derivs=False):
    """c at unchecked times t, as (value, first, second derivative) when
    ``derivs``; a Constant is read as its float (and zeros), no array."""
    if isinstance(c, Constant):
        v = float(c.value)
        return (v, 0.0, 0.0) if derivs else v
    return c._value_derivs(t) if derivs else c._value(t)


def _mass_reads(m, t, corrected):
    """(m, its term of w~^2) at unchecked times t; the term is None unless
    ``corrected``."""
    if not corrected:
        return _reads(m, t), None
    mv, md, mdd = _reads(m, t, True)
    return mv, _mass_correction(mv, md, mdd)


def _masses(spec: SystemSpec, t, corrected):
    """``_mass_reads`` of m_1 and m_2; m_2 is not read when it equals m_1 by
    value."""
    m1 = _mass_reads(spec.m1, t, corrected)
    return m1, (m1 if spec.m2 == spec.m1 else _mass_reads(spec.m2, t, corrected))


def _channel_terms(spec: SystemSpec, t, corrected):
    """(w~_1^2, w~_2^2, g) at times already inside [t_min, t_max].

    Each coefficient is evaluated at most once, through its unchecked
    formula.  A term built from Constant coefficients only is a float;
    :func:`_filled` shapes a result like t.  w~_j^2 is w_j^2 plus the mass
    term, as in ``_effective_frequency_sq``, and the bare w_j^2 when not
    ``corrected``.
    """
    (m1, c1), (m2, c2) = _masses(spec, t, corrected)
    w1, w2 = _reads(spec.omega1, t), _reads(spec.omega2, t)
    wt1, wt2 = w1 * w1, w2 * w2
    if corrected:
        wt1, wt2 = wt1 + c1, wt2 + c2
    return wt1, wt2, _reads(spec.coupling, t) / np.sqrt(m1 * m2)


def _rate(c):
    """g of c(t) = a exp(g t): 0.0 for a Constant, None for other families."""
    if isinstance(c, Constant):
        return 0.0
    return float(c.gamma) if isinstance(c, Exponential) else None


def _filled(x, t):
    """x as an array shaped like t, filled when it is a number."""
    return x if isinstance(x, np.ndarray) else np.full(np.shape(t), x)


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
    w1, w2 = _channel_weights(alpha)
    s2, c2 = np.sin(2 * alpha), np.cos(2 * alpha)
    gam = 0.5 * (wt1 - wt2) * s2 + g * c2
    return (_filled(_omega_sq(wt1, wt2, g, w1), t), _filled(_omega_sq(wt1, wt2, g, w2), t),
            *_forces(spec, alpha, t), _filled(gam, t))


def channel_forces(spec: SystemSpec, alpha, t):
    """(F1, F2) at time(s) t for a given angle, equal to those of
    :func:`channel_quantities` without forming Om_j^2 and Gam."""
    return _forces(spec, alpha, spec.check_time(t))


def _forces(spec: SystemSpec, alpha, t):
    """(F1, F2) at times already inside [t_min, t_max]."""
    (m1, _), (m2, _) = _masses(spec, t, False)
    ca, sa = np.cos(alpha), np.sin(alpha)
    sf1 = np.sqrt(m1) * _reads(spec.f1, t)
    sf2 = np.sqrt(m2) * _reads(spec.f2, t)
    return _filled(sf1 * ca - sf2 * sa, t), _filled(sf1 * sa + sf2 * ca, t)


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

    @functools.cached_property
    def undriven(self) -> bool:
        """True when f_1 and f_2 are both Constant 0, so F_1 = F_2 = 0."""
        spec = self.system
        return all(isinstance(f, Constant) and f.value == 0.0
                   for f in (spec.f1, spec.f2))

    def omega_sq(self, j, t, corrected=True):
        q = channel_quantities(self.system, self.alpha, t, corrected=corrected)
        return q[0] if j == 1 else q[1]

    def omega_sq_on(self, j, t_start, t_end, corrected=True):
        """Unchecked callable t -> Om_j^2(t) for times in [t_start, t_end].

        The window is checked here, once (DomainError if it leaves
        [t_min, t_max]); the callable then skips every domain check.  It
        returns an array shaped like its input, and equals ``omega_sq(j, t,
        corrected)`` bit for bit: both read ``_channel_terms``.
        """
        spec = self.system
        spec.check_time([t_start, t_end])
        weights = _channel_weights(self.alpha)[j - 1]

        def omega_sq(t):
            return _filled(_omega_sq(*_channel_terms(spec, t, corrected), weights), t)

        return omega_sq

    def constant_omega_sq(self, j, corrected=True):
        """Om_j^2 as a float when it is constant by construction, else None.

        It is constant when w_1 and w_2 are Constant, each mass is Constant
        or Exponential (needed for ``corrected`` and for a coupling other
        than Constant 0), and the coupling is Constant 0 or has the rate
        (g_1 + g_2)/2 of the masses' rates g_j, compared exactly, a
        Constant counting as rate 0.  Then w~_j^2 = w_j^2 - g_j^2/4 and
        g = lam / sqrt(m_1 m_2) are constant (the Caldirola-Kanai class).
        The value is read once through ``_channel_terms``, at t_min.
        """
        spec = self.system
        if not (isinstance(spec.omega1, Constant) and isinstance(spec.omega2, Constant)):
            return None
        rates = (_rate(spec.m1), _rate(spec.m2))
        if corrected and None in rates:
            return None
        lam = spec.coupling
        if not (isinstance(lam, Constant) and lam.value == 0.0):
            if None in rates or _rate(lam) != (rates[0] + rates[1]) / 2:
                return None
        t = np.array([spec.t_min])
        return float(self.omega_sq_on(j, spec.t_min, spec.t_min, corrected)(t)[0])

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

    Repeated points (equal bits; Constant coefficients give one point per
    time) are dropped after the sort, before the chain.  The chain itself
    would pop each repeat through a zero cross product or at the next
    point, so the edge is the same.
    """
    x = np.concatenate([dd, -dd])
    y = np.concatenate([g, -g])
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    bits = np.stack([x, y]).view(np.int64)
    first = np.ones(x.size, dtype=bool)
    first[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    chain = []
    for px, py in zip(x[first].tolist(), y[first].tolist()):
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
    wt1, wt2, g = (_filled(x, ts) for x in _channel_terms(spec, ts, True))
    dd = 0.5 * (wt1 - wt2)
    scale = float(np.max(np.abs(wt1)) + np.max(np.abs(wt2)) + np.max(np.abs(g)) + 1.0)

    if np.max(np.abs(g)) <= 1e-300:
        return decoupled_at_angle(spec, 0.0, n_time, gamma_tol)
    if np.max(np.abs(dd)) <= 1e-13 * scale:
        return decoupled_at_angle(spec, np.pi / 4, n_time, gamma_tol)

    ex, ey = _nearest_edge(dd, g)
    return decoupled_at_angle(spec, 0.5 * math.atan2(ey, -ex), n_time, gamma_tol)

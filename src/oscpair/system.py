"""Two coupled, driven oscillators with time-dependent masses and frequencies.

The physical problem is

    H(t) = sum_j [ p_j^2 / 2 m_j(t) + (1/2) m_j(t) w_j(t)^2 x_j^2
                   - m_j(t) f_j(t) x_j ]  +  lam(t) x_1 x_2

with j = 1, 2.  A time-dependent mass feeds into the dynamics through the
effective frequency

    w~_j^2(t) = w_j^2 + (1/4) (mdot_j^2 / m_j^2  -  2 mddot_j / m_j),

which is what replaces w_j^2 after the mass-scaling part of the canonical
transformation.  It may be negative (a transiently inverted channel); that
is allowed everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Coefficient, Constant
from .errors import _check_window

__all__ = [
    "SystemSpec",
    "PhasePoint",
    "TransformedPhasePoint",
    "effective_frequency_sq",
    "hamiltonian",
    "kinetic_energy",
    "potential",
]

#: times on [t_min, t_max] at which a system's coefficients are checked
_SAMPLES = 10_000
_COEFFICIENT_NAMES = ("m1", "m2", "omega1", "omega2", "f1", "f2", "coupling")


def _finite_reads(what, window, read, *args):
    """``read(*args)``, a tuple of arrays, or ValueError naming ``what`` when
    the read overflows, divides by zero, is invalid or is not finite.

    numpy's floating-point errors are raised, not warned, so nothing is
    printed; Python float arithmetic raises its own ``OverflowError``.  An
    underflow to zero is finite and passes.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            out = read(*args)
    except ArithmeticError as exc:
        reason = str(exc.args[-1])
    else:
        if all(np.isfinite(v).all() for v in out):
            return out
        reason = "a value is not finite"
    raise ValueError(f"{what} is not finite on {window} ({reason})")


@dataclass(frozen=True)
class PhasePoint:
    """Lab-frame phase-space point."""

    x1: float
    x2: float
    p1: float
    p2: float


@dataclass(frozen=True)
class TransformedPhasePoint:
    """Phase-space point in the rotated, mass-scaled frame."""

    Q1: float
    Q2: float
    P1: float
    P2: float


@dataclass(frozen=True)
class SystemSpec:
    """Full problem specification on a closed time window [t_min, t_max].

    ``coupling`` is the position-position coupling strength (the JSON key
    is "lambda"). hbar is carried explicitly; nothing in the package
    assumes hbar = 1.

    Construction samples [t_min, t_max] at ``_SAMPLES`` times (a Constant
    at one): every coefficient with its first two derivatives and both
    w~_j^2 must be finite there, and both masses positive.  ValueError
    names the first quantity that fails.
    """

    m1: Coefficient
    m2: Coefficient
    omega1: Coefficient
    omega2: Coefficient
    f1: Coefficient
    f2: Coefficient
    coupling: Coefficient
    t_min: float
    t_max: float
    hbar: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.t_min) or not np.isfinite(self.t_max):
            raise ValueError("time window must be finite")
        if self.t_max <= self.t_min:
            raise ValueError("t_max must exceed t_min")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        for name in _COEFFICIENT_NAMES:
            lo, hi = getattr(self, name).domain
            if self.t_min < lo or self.t_max > hi:
                raise ValueError(
                    f"coefficient {name} is only defined on [{lo:g}, {hi:g}], "
                    f"which does not cover [{self.t_min:g}, {self.t_max:g}]"
                )
        ts = np.linspace(self.t_min, self.t_max, _SAMPLES)
        window = f"[{self.t_min:g}, {self.t_max:g}]"

        def read(name):
            # a constant is read at one time; one channel at a time keeps
            # few sample arrays alive at once
            c = getattr(self, name)
            return _finite_reads(f"coefficient {name} (value, first or second derivative)",
                                 window, c._value_derivs,
                                 ts[:1] if isinstance(c, Constant) else ts)

        for j in (1, 2):
            mass = read(f"m{j}")
            vals = np.asarray(mass[0], dtype=float)
            bad = np.nonzero(vals <= 0.0)[0]
            if bad.size:
                raise ValueError(
                    f"mass m{j} is non-positive at t = {ts[bad[0]]:.6g} "
                    f"(value {vals[bad[0]]:.6g})"
                )
            omega = read(f"omega{j}")[0]
            _finite_reads(f"effective frequency squared w~{j}^2 (from omega{j} and m{j})",
                          window, lambda w, m: (_effective_frequency_sq(w, *m),),
                          omega, mass)
        for name in ("f1", "f2", "coupling"):
            read(name)

    def check_time(self, t):
        """t as a float array, or DomainError if any time leaves [t_min, t_max]
        or is NaN.

        Every coefficient's domain covers the window (checked above), so
        times that pass may go to the unchecked coefficient formulas.
        """
        return _check_window(t, self.t_min, self.t_max, "time outside system domain")

    def mass_deriv(self, j, t):
        return (self.m1 if j == 1 else self.m2).deriv1(t)


def effective_frequency_sq(spec: SystemSpec, j: int, t):
    """w~_j^2(t); vectorized over t. May be negative."""
    t = spec.check_time(t)
    m = spec.m1 if j == 1 else spec.m2
    w = spec.omega1 if j == 1 else spec.omega2
    return _effective_frequency_sq(w._value(t), m._value(t), m._deriv1(t), m._deriv2(t))


def _effective_frequency_sq(w, mv, md, mdd):
    """w~^2 from w, m, mdot and mddot already evaluated at the same times.

    Squares are products: numpy squares an array as x*x, while a 0-d
    ``x ** 2`` goes through libm ``pow``, which is not always correctly
    rounded, so a product keeps 0-d and array reads equal.
    """
    return w * w + 0.25 * (md * md / (mv * mv) - 2.0 * mdd / mv)


def potential(spec: SystemSpec, x1, x2, t):
    """Lab-frame potential, including driving and coupling terms."""
    t = spec.check_time(t)
    return _potential(_potential_coefficients(spec, t), x1, x2, x1**2, x2**2)


def _potential_coefficients(spec: SystemSpec, t):
    """(m1 w1^2 / 2, m1 f1, m2 w2^2 / 2, m2 f2, lam) at checked times t.

    The scalar products are formed left to right, as in
    ``0.5 * m1 * w1**2 * x1**2``, so folding them first changes no bit of V.
    """
    m1, m2 = spec.m1._value(t), spec.m2._value(t)
    return (0.5 * m1 * spec.omega1._value(t) ** 2, m1 * spec.f1._value(t),
            0.5 * m2 * spec.omega2._value(t) ** 2, m2 * spec.f2._value(t),
            spec.coupling._value(t))


def _potential(coeffs, x1, x2, x1_sq, x2_sq):
    """V from ``_potential_coefficients``; x1 and x2 may be broadcast axes."""
    a1, b1, a2, b2, lam = coeffs
    v = a1 * x1_sq - b1 * x1
    v = v + (a2 * x2_sq - b2 * x2)
    return v + lam * x1 * x2


def kinetic_energy(spec: SystemSpec, pt: PhasePoint, t):
    t = spec.check_time(t)
    return pt.p1**2 / (2.0 * spec.m1(t)) + pt.p2**2 / (2.0 * spec.m2(t))


def hamiltonian(spec: SystemSpec, pt: PhasePoint, t):
    """Classical Hamiltonian value at a lab-frame phase point."""
    return kinetic_energy(spec, pt, t) + potential(spec, pt.x1, pt.x2, t)

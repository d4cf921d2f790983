"""Time-dependent scalar coefficients with exact first and second derivatives.

Every physical input of the problem (masses, frequencies, drivings,
coupling) is a member of a closed family of C^2 functions of time:
constant, polynomial, exponential a*exp(g*t), sinusoidal a + b*cos(nu*t +
theta), power (a + b*t)**n, or a cubic spline through tabulated knots.
Restricting to this family keeps derivatives reproducible: there is no
finite-difference fallback for black-box callables.

All evaluators accept scalars or numpy arrays of times.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import _check_window

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "Coefficient",
    "Constant",
    "Polynomial",
    "Exponential",
    "Sinusoidal",
    "Power",
    "Spline",
    "coefficient_from_dict",
    "coefficient_to_dict",
]


class Coefficient:
    """Base class: a C^2 scalar function of time on a declared domain."""

    #: (lo, hi) closed interval on which eval/deriv are defined
    domain = (-np.inf, np.inf)

    def _check(self, t):
        return _check_window(t, *self.domain, f"{type(self).__name__}: time outside domain")

    # checked entry points; subclasses supply unchecked _value/_deriv1/_deriv2
    def __call__(self, t):
        return self._value(self._check(t))

    def deriv1(self, t):
        return self._deriv1(self._check(t))

    def deriv2(self, t):
        return self._deriv2(self._check(t))

    def _value_derivs(self, t):
        """(value, first, second derivative) at unchecked times t, each equal
        to what ``_value``, ``_deriv1`` and ``_deriv2`` return."""
        return self._value(t), self._deriv1(t), self._deriv2(t)


@dataclass(frozen=True)
class Constant(Coefficient):
    value: float

    def _value(self, t):
        return np.full(np.shape(t), float(self.value)) if np.ndim(t) else float(self.value)

    def _deriv1(self, t):
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0

    _deriv2 = _deriv1


@dataclass(frozen=True)
class Polynomial(Coefficient):
    """c0 + c1*t + c2*t**2 + ... with real coefficients."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")

    def _horner(self, t, coeffs):
        out = np.zeros_like(t) if np.ndim(t) else 0.0
        for c in reversed(coeffs):
            out = out * t + c
        return out

    def _value(self, t):
        return self._horner(t, self.coeffs)

    def _deriv1(self, t):
        d = [k * c for k, c in enumerate(self.coeffs)][1:] or [0.0]
        return self._horner(t, d)

    def _deriv2(self, t):
        d = [k * (k - 1) * c for k, c in enumerate(self.coeffs)][2:] or [0.0]
        return self._horner(t, d)


@dataclass(frozen=True)
class Exponential(Coefficient):
    """a * exp(gamma * t)."""

    a: float
    gamma: float

    def _value(self, t):
        return self.a * np.exp(self.gamma * t)

    def _deriv1(self, t):
        return self.gamma * self.a * np.exp(self.gamma * t)

    def _deriv2(self, t):
        return self.gamma**2 * self.a * np.exp(self.gamma * t)

    def _value_derivs(self, t):
        e = np.exp(self.gamma * t)
        return self.a * e, self.gamma * self.a * e, self.gamma**2 * self.a * e


@dataclass(frozen=True)
class Sinusoidal(Coefficient):
    """a + b * cos(nu * t + theta)."""

    a: float
    b: float
    nu: float
    theta: float = 0.0

    def _value(self, t):
        return self.a + self.b * np.cos(self.nu * t + self.theta)

    def _deriv1(self, t):
        return -self.b * self.nu * np.sin(self.nu * t + self.theta)

    def _deriv2(self, t):
        return -self.b * self.nu**2 * np.cos(self.nu * t + self.theta)

    def _value_derivs(self, t):
        arg = self.nu * t + self.theta
        c = np.cos(arg)
        return self.a + self.b * c, -self.b * self.nu * np.sin(arg), -self.b * self.nu**2 * c


@dataclass(frozen=True)
class Power(Coefficient):
    """(a + b*t)**n.

    For non-integer n the base must stay positive, which restricts the
    domain to the half line where a + b*t > 0.
    """

    a: float
    b: float
    n: float

    @property
    def domain(self):
        if float(self.n) == int(self.n) and self.n >= 0:
            return (-np.inf, np.inf)
        if self.b == 0.0:
            if self.a <= 0.0:
                raise ValueError("power coefficient with non-positive constant base")
            return (-np.inf, np.inf)
        root = -self.a / self.b
        # open side where a + b*t > 0; nudge off the root itself
        eps = 1e-12 * (1.0 + abs(root))
        return (root + eps, np.inf) if self.b > 0 else (-np.inf, root - eps)

    def _base(self, t):
        """a + b*t as an array, also for a 0-d t: numpy's array power squares
        for n = 2 where a scalar power calls libm ``pow``, which is not always
        correctly rounded, so 0-d and array reads would differ."""
        return np.asarray(self.a + self.b * t)

    def _value(self, t):
        return self._base(t) ** self.n

    def _deriv1(self, t):
        return self.n * self.b * self._base(t) ** (self.n - 1)

    def _deriv2(self, t):
        return self.n * (self.n - 1) * self.b**2 * self._base(t) ** (self.n - 2)


@dataclass(frozen=True)
class Spline(Coefficient):
    """Cubic spline through (knots, values); C^2 by construction.

    Natural boundary conditions by default; pass ``bc="clamped"`` with
    ``end_derivs=(d0, d1)`` to pin the first derivative at both ends.
    """

    knots: tuple
    values: tuple
    bc: str = "natural"
    end_derivs: tuple | None = None
    _pp: CubicSpline = field(init=False, repr=False, compare=False)
    _d1: CubicSpline = field(init=False, repr=False, compare=False)
    _d2: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("spline needs at least two knot times")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("spline knot times must be strictly increasing")
        if values.shape != knots.shape:
            raise ValueError("spline values must match knot times in length")
        if self.bc == "natural":
            bc_type = "natural"
        elif self.bc == "clamped":
            if self.end_derivs is None or len(self.end_derivs) != 2:
                raise ValueError("clamped spline requires end_derivs=(d0, d1)")
            bc_type = ((1, float(self.end_derivs[0])), (1, float(self.end_derivs[1])))
        else:
            raise ValueError(f"unknown spline boundary condition {self.bc!r}")
        from scipy.interpolate import CubicSpline

        pp = CubicSpline(knots, values, bc_type=bc_type)
        object.__setattr__(self, "knots", tuple(knots))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_pp", pp)
        object.__setattr__(self, "_d1", pp.derivative(1))
        object.__setattr__(self, "_d2", pp.derivative(2))

    @property
    def domain(self):
        return (self.knots[0], self.knots[-1])

    def _value(self, t):
        return self._pp(t)

    def _deriv1(self, t):
        return self._d1(t)

    def _deriv2(self, t):
        return self._d2(t)


# --- JSON (de)serialization ----------------------------------------------
#
# The wire format is the config contract documented in the CLI module:
#   {"kind": "constant",    "value": 2.5}
#   {"kind": "polynomial",  "coeffs": [c0, c1, ...]}
#   {"kind": "exponential", "a": 1.0, "gamma": 0.3}
#   {"kind": "sinusoidal",  "a": 0.0, "b": 1.0, "nu": 2.0, "theta": 0.0}
#   {"kind": "power",       "a": 1.0, "b": 0.5, "n": 2}
#   {"kind": "spline",      "knots": [...], "values": [...],
#                           "bc": "natural" | "clamped", "end_derivs": [d0, d1]}

_KINDS = {
    "constant": (Constant, {"value"}, set()),
    "polynomial": (Polynomial, {"coeffs"}, set()),
    "exponential": (Exponential, {"a", "gamma"}, set()),
    "sinusoidal": (Sinusoidal, {"a", "b", "nu"}, {"theta"}),
    "power": (Power, {"a", "b", "n"}, set()),
    "spline": (Spline, {"knots", "values"}, {"bc", "end_derivs"}),
}

#: fields holding a list of numbers; every other field but ``bc`` is one number
_LIST_FIELDS = {"coeffs", "knots", "values", "end_derivs"}


def _finite_number(v):
    """A real, non-boolean number that is finite as a float."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _parameter_problems(doc, fields, where):
    """One message per parameter that is not a finite number (or a list of
    them); JSON's NaN, Infinity, strings and booleans are all rejected."""
    problems = []
    for name in sorted(fields - {"bc"}):
        v = doc[name]
        if name == "end_derivs" and v is None:
            continue
        if name in _LIST_FIELDS:
            if not (isinstance(v, (list, tuple)) and all(map(_finite_number, v))):
                problems.append(f"{where}: field {name!r} must be a list of finite numbers")
        elif not _finite_number(v):
            problems.append(f"{where}: field {name!r} must be a finite number")
    return problems


def coefficient_from_dict(doc, where="coefficient"):
    """Build a Coefficient from its JSON dict; strict about field names and
    about parameter values, which must be finite numbers.

    Raises ValueError listing every problem found (the scenario parser
    aggregates these per document).
    """
    problems = []
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"{where}: unknown kind {kind!r} (expected one of {sorted(_KINDS)})"
        )
    cls, required, optional = _KINDS[kind]
    fields = set(doc) - {"kind"}
    for name in sorted(fields - required - optional):
        problems.append(f"{where}: unknown field {name!r} for kind {kind!r}")
    for name in sorted(required - fields):
        problems.append(f"{where}: missing field {name!r} for kind {kind!r}")
    problems += _parameter_problems(doc, fields & (required | optional), where)
    if problems:
        raise ValueError("; ".join(problems))
    kwargs = {k: doc[k] for k in fields}
    if "end_derivs" in kwargs and kwargs["end_derivs"] is not None:
        kwargs["end_derivs"] = tuple(kwargs["end_derivs"])
    if "coeffs" in kwargs:
        kwargs["coeffs"] = tuple(kwargs["coeffs"])
    if "knots" in kwargs:
        kwargs["knots"] = tuple(kwargs["knots"])
    if "values" in kwargs:
        kwargs["values"] = tuple(kwargs["values"])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def coefficient_to_dict(c):
    if isinstance(c, Constant):
        return {"kind": "constant", "value": c.value}
    if isinstance(c, Polynomial):
        return {"kind": "polynomial", "coeffs": list(c.coeffs)}
    if isinstance(c, Exponential):
        return {"kind": "exponential", "a": c.a, "gamma": c.gamma}
    if isinstance(c, Sinusoidal):
        return {"kind": "sinusoidal", "a": c.a, "b": c.b, "nu": c.nu, "theta": c.theta}
    if isinstance(c, Power):
        return {"kind": "power", "a": c.a, "b": c.b, "n": c.n}
    if isinstance(c, Spline):
        out = {"kind": "spline", "knots": list(c.knots), "values": list(c.values), "bc": c.bc}
        if c.end_derivs is not None:
            out["end_derivs"] = list(c.end_derivs)
        return out
    raise TypeError(f"not a known coefficient: {type(c).__name__}")

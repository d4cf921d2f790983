"""Scenario documents: the JSON config contract for the command line.

A scenario bundles the physical system, the propagation window, optional
overrides (rotation angle, tolerances, quadrature order), grid defaults
and the initial Gaussian.  Parsing is strict -- unknown fields are
rejected, and *all* violations found are reported together, because silent
typos in physics parameters are the most dangerous failure mode.

Top-level schema (all coefficients use the sub-schema documented in
:mod:`oscpair.coefficients`):

    {
      "name": "caldirola-kanai",
      "m1": {...}, "m2": {...},
      "omega1": {...}, "omega2": {...},
      "f1": {...}, "f2": {...},
      "lambda": {...},
      "hbar": 1.0,
      "t_min": 0.0, "t_max": 10.0,
      "window": [0.0, 2.0],
      "alpha": null,                  # optional angle override (radians)
      "tolerances": {"ode_tol": 1e-10, "gamma_tol": 1e-9,
                     "caustic_tol": 1e-8},
      "quad_order": 8, "quad_panels": 64,
      "grid": {"points": 256, "extent": [12.0, 12.0], "steps": 2048},
      "initial": {"center": [0,0], "momentum": [0,0],
                  "sigma": [0.7071, 0.7071]}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .coefficients import _finite_number, coefficient_from_dict
from .decoupling import DEFAULT_GAMMA_TOL
from .errors import SchemaError
from .gaussian import GaussianState2D
from .oracle import GRID_POINTS_RULE, Grid2D, _grid_points_ok, suggest_extent
from .propagator import (DEFAULT_CAUSTIC_TOL, DEFAULT_ODE_TOL, DEFAULT_QUAD_ORDER,
                         DEFAULT_QUAD_PANELS)
from .system import SystemSpec

__all__ = ["Scenario", "parse_scenario", "load_scenario", "shipped_scenarios",
           "load_shipped"]

#: a driven kernel reads quad_panels * quad_order nodes, and its node
#: tables are quad_order x quad_order: at most 65,536 nodes and a 64 x 64
#: integration matrix
MAX_QUAD_ORDER = 64
MAX_QUAD_PANELS = 1024

_COEFF_FIELDS = ("m1", "m2", "omega1", "omega2", "f1", "f2", "lambda")
_TOP_FIELDS = set(_COEFF_FIELDS) | {
    "name", "hbar", "t_min", "t_max", "window", "alpha",
    "tolerances", "quad_order", "quad_panels", "grid", "initial",
}
_TOL_FIELDS = {"ode_tol", "gamma_tol", "caustic_tol"}
_GRID_FIELDS = {"points", "extent", "steps"}
_INITIAL_FIELDS = {"center", "momentum", "sigma"}


@dataclass(frozen=True)
class Scenario:
    name: str
    system: SystemSpec
    window: tuple
    alpha: float | None
    ode_tol: float
    gamma_tol: float
    caustic_tol: float
    quad_order: int
    quad_panels: int
    grid_points: tuple
    grid_extent: tuple | None
    grid_steps: int
    initial_center: tuple
    initial_momentum: tuple
    initial_sigma: tuple

    def initial_state(self) -> GaussianState2D:
        return GaussianState2D.coherent(
            center=self.initial_center, momentum=self.initial_momentum,
            sigma=self.initial_sigma, hbar=self.system.hbar)

    def grid(self, points=None, extent=None) -> Grid2D:
        pts = self.grid_points if points is None else points
        if isinstance(pts, int):
            pts = (pts, pts)
        ext = extent or self.grid_extent
        if ext is None:
            ext = suggest_extent([self.initial_state()])
            # never smaller than a sane floor for the shipped parameter range
            ext = (max(ext[0], 12.0), max(ext[1], 12.0))
        return Grid2D(extent=tuple(ext), points=tuple(pts))


def _num(doc, key, problems, where="", default=None, required=False):
    full = f"{where}{key}"
    if key not in doc:
        if required:
            problems.append(f"missing field {full!r}")
        return default
    v = doc[key]
    if not _finite_number(v):
        problems.append(f"field {full!r} must be a finite number")
        return default
    return float(v)


def _pair(doc, key, problems, where="", default=None, required=False):
    full = f"{where}{key}"
    if key not in doc:
        if required:
            problems.append(f"missing field {full!r}")
        return default
    v = doc[key]
    if not (isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(_finite_number, v))):
        problems.append(f"field {full!r} must be a pair of finite numbers")
        return default
    return (float(v[0]), float(v[1]))


def _count(doc, key, problems, where="", default=None, most=None):
    """A whole number >= 1 (JSON 8 or 8.0), and at most ``most`` when given;
    fractions are rejected, not cut."""
    v = _num(doc, key, problems, where=where, default=default)
    if v is not None and (not float(v).is_integer() or v < 1):
        problems.append(f"field {where + key!r} must be a positive integer")
        return default
    if v is not None and most is not None and v > most:
        problems.append(f"field {where + key!r} must be at most {most}")
        return default
    return v


def parse_scenario(text) -> Scenario:
    """Parse and validate a scenario document (bytes or str of UTF-8 JSON).

    Raises SchemaError carrying every violation found, not just the first.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError([f"not UTF-8: {exc}"]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise SchemaError(["top level must be a JSON object"])

    problems = []
    for key in sorted(set(doc) - _TOP_FIELDS):
        problems.append(f"unknown field {key!r}")

    coeffs = {}
    for key in _COEFF_FIELDS:
        if key not in doc:
            problems.append(f"missing field {key!r}")
            continue
        try:
            coeffs[key] = coefficient_from_dict(doc[key], where=key)
        except ValueError as exc:
            problems.append(str(exc))

    hbar = _num(doc, "hbar", problems, default=1.0)
    if hbar <= 0:
        problems.append("field 'hbar' must be positive")
    t_min = _num(doc, "t_min", problems, required=True)
    t_max = _num(doc, "t_max", problems, required=True)
    window = _pair(doc, "window", problems)
    alpha = None
    if doc.get("alpha") is not None:
        alpha = _num(doc, "alpha", problems)

    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        problems.append("field 'tolerances' must be an object")
        tols = {}
    for key in sorted(set(tols) - _TOL_FIELDS):
        problems.append(f"unknown field 'tolerances.{key}'")
    ode_tol = _num(tols, "ode_tol", problems, where="tolerances.", default=DEFAULT_ODE_TOL)
    gamma_tol = _num(tols, "gamma_tol", problems, where="tolerances.",
                     default=DEFAULT_GAMMA_TOL)
    caustic_tol = _num(tols, "caustic_tol", problems, where="tolerances.",
                       default=DEFAULT_CAUSTIC_TOL)
    if ode_tol is not None and ode_tol <= 0:
        problems.append("field 'tolerances.ode_tol' must be positive")
    if gamma_tol is not None and gamma_tol < 0:
        problems.append("field 'tolerances.gamma_tol' must not be negative")
    if caustic_tol is not None and not 0 <= caustic_tol < 1:
        problems.append("field 'tolerances.caustic_tol' must lie in [0, 1)")

    quad_order = _count(doc, "quad_order", problems, default=DEFAULT_QUAD_ORDER,
                        most=MAX_QUAD_ORDER)
    quad_panels = _count(doc, "quad_panels", problems, default=DEFAULT_QUAD_PANELS,
                         most=MAX_QUAD_PANELS)

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        problems.append("field 'grid' must be an object")
        grid_doc = {}
    for key in sorted(set(grid_doc) - _GRID_FIELDS):
        problems.append(f"unknown field 'grid.{key}'")
    pts = grid_doc.get("points", 256)
    if not isinstance(pts, (list, tuple)):
        pts = (pts, pts)
    if len(pts) == 2 and all(_finite_number(n) and float(n).is_integer() and n >= 1
                             for n in pts):
        grid_points = (int(pts[0]), int(pts[1]))
        if not all(_grid_points_ok(n) for n in grid_points):
            problems.append(f"field 'grid.points' must be {GRID_POINTS_RULE}")
    else:
        problems.append("field 'grid.points' must be a positive integer or a pair")
        grid_points = (256, 256)
    grid_extent = _pair(grid_doc, "extent", problems, where="grid.")
    if grid_extent is not None and min(grid_extent) <= 0:
        problems.append("field 'grid.extent' entries must be positive")
    grid_steps = int(_count(grid_doc, "steps", problems, where="grid.", default=2048.0))

    init_doc = doc.get("initial", {})
    if not isinstance(init_doc, dict):
        problems.append("field 'initial' must be an object")
        init_doc = {}
    for key in sorted(set(init_doc) - _INITIAL_FIELDS):
        problems.append(f"unknown field 'initial.{key}'")
    center = _pair(init_doc, "center", problems, where="initial.", default=(0.0, 0.0))
    momentum = _pair(init_doc, "momentum", problems, where="initial.", default=(0.0, 0.0))
    sigma_default = (np.sqrt(hbar / 2.0), np.sqrt(hbar / 2.0)) if hbar > 0 else None
    sigma = _pair(init_doc, "sigma", problems, where="initial.", default=sigma_default)
    if sigma is not None and (sigma[0] <= 0 or sigma[1] <= 0):
        problems.append("field 'initial.sigma' entries must be positive")

    system = None
    if not problems:
        try:
            system = SystemSpec(
                m1=coeffs["m1"], m2=coeffs["m2"],
                omega1=coeffs["omega1"], omega2=coeffs["omega2"],
                f1=coeffs["f1"], f2=coeffs["f2"],
                coupling=coeffs["lambda"],
                t_min=t_min, t_max=t_max, hbar=hbar)
        except ValueError as exc:
            problems.append(str(exc))

    if system is not None:
        if window is None:
            window = (t_min, t_max)
        if not (t_min <= window[0] < window[1] <= t_max):
            problems.append(
                f"window [{window[0]:g}, {window[1]:g}] must be increasing and "
                f"inside [{t_min:g}, {t_max:g}]")

    if problems:
        raise SchemaError(problems)

    return Scenario(
        name=str(doc.get("name", "")),
        system=system,
        window=window,
        alpha=alpha,
        ode_tol=ode_tol,
        gamma_tol=gamma_tol,
        caustic_tol=caustic_tol,
        quad_order=int(quad_order),
        quad_panels=int(quad_panels),
        grid_points=grid_points,
        grid_extent=grid_extent,
        grid_steps=grid_steps,
        initial_center=center,
        initial_momentum=momentum,
        initial_sigma=sigma,
    )


def load_scenario(path) -> Scenario:
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())


def shipped_scenarios():
    """Names of the scenario files bundled with the package."""
    pkg = resources.files("oscpair.scenarios")
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_shipped(name) -> Scenario:
    pkg = resources.files("oscpair.scenarios")
    return parse_scenario(pkg.joinpath(f"{name}.json").read_bytes())

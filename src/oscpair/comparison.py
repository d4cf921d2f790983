"""Experiment runner: corrected kernel vs defective variant vs grid oracle.

Evolves one initial Gaussian three ways over the same window -- through the
corrected kernel, through the "lw" variant (no effective-frequency
correction, no boundary mass phase), and with the split-operator solver --
and reports state fidelities of each analytic result against the oracle,
plus finite-difference Schrodinger residuals of both kernels.

Fidelity is the headline metric because the oracle produces states, not
kernels; kernel-level residuals come from the propagator module's check.
The numerical noise floor of a run is taken to be the corrected variant's
own infidelity (the corrected kernel is exact, so its gap from the oracle
measures grid truncation plus roundoff); a variant discrepancy counts as
significant only when it exceeds a multiple of that floor.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .decoupling import DecoupledSystem
from .errors import InadmissibleSystem
from .gaussian import GaussianState2D
from .oracle import Grid2D, evolve, fidelity, from_gaussian
from .propagator import (DEFAULT_ODE_TOL, DEFAULT_QUAD_ORDER, DEFAULT_QUAD_PANELS,
                         _residual, build_kernels, propagate_gaussian, solve_channels)

__all__ = ["ComparisonReport", "run_comparison", "discrepancy_significant"]


@dataclass(frozen=True)
class ComparisonReport:
    scenario: str
    variant: str
    fidelity_vs_oracle: float
    max_residual: float
    gamma_max: float
    alpha: float
    maslov: tuple
    window: tuple
    grid_points: tuple
    n_steps: int
    runtime_s: float


def run_comparison(decoupled: DecoupledSystem, window, initial: GaussianState2D,
                   grid: Grid2D, n_steps, scenario_id="", n_residual_points=20,
                   seed=0, quad_order=DEFAULT_QUAD_ORDER, quad_panels=DEFAULT_QUAD_PANELS,
                   ode_tol=DEFAULT_ODE_TOL):
    """Run both kernel variants against the oracle on one scenario.

    Each variant's auxiliary solve of the window serves both its kernel and
    its residual check.  Returns (corrected report, lw report).  Raises
    InadmissibleSystem when no constant angle decouples the system (then
    there is no corrected kernel to compare).
    """
    if not decoupled.admissible:
        raise InadmissibleSystem(decoupled.gamma_max, decoupled.worst_t)
    spec = decoupled.system
    t_start, t_end = float(window[0]), float(window[1])

    psi0 = from_gaussian(grid, initial.normalized(), time=t_start)
    t0 = _time.perf_counter()
    psi_oracle = evolve(spec, psi0, t_start, t_end, n_steps)
    oracle_s = _time.perf_counter() - t0

    reports = []
    for variant in ("corrected", "lw"):
        t0 = _time.perf_counter()
        sols = solve_channels(decoupled, t_start, t_end, variant=variant, ode_tol=ode_tol)
        kern = build_kernels(decoupled, t_start, t_end, sols, variant, quad_order, quad_panels)
        final = propagate_gaussian(kern, initial.normalized())
        fid = fidelity(psi_oracle, from_gaussian(grid, final, time=t_end))
        _, _, resid = _residual(decoupled, t_start, t_end, sols, variant,
                                n_residual_points, seed, quad_order, quad_panels)
        reports.append(ComparisonReport(
            scenario=scenario_id,
            variant=variant,
            fidelity_vs_oracle=float(fid),
            max_residual=float(np.max(resid)),
            gamma_max=decoupled.gamma_max,
            alpha=decoupled.alpha,
            maslov=tuple(kern.maslov.tolist()),
            window=(t_start, t_end),
            grid_points=grid.points,
            n_steps=int(n_steps),
            runtime_s=_time.perf_counter() - t0 + oracle_s,
        ))
    return reports[0], reports[1]


def discrepancy_significant(corrected: ComparisonReport, lw: ComparisonReport,
                            noise_factor=10.0):
    """True when the lw variant's infidelity exceeds the noise floor.

    The floor is the corrected variant's own infidelity (its distance from
    the oracle is pure discretization error); the gap must exceed
    ``noise_factor`` times it.
    """
    floor = max(1.0 - corrected.fidelity_vs_oracle, 1e-14)
    gap = corrected.fidelity_vs_oracle - lw.fidelity_vs_oracle
    return bool(gap > noise_factor * floor)

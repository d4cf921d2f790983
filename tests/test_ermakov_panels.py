"""The Gauss-Legendre panel solve of a callable Om^2 against scipy's DOP853.

The reference integrates the linear system u'' = -Om^2 u, v'' = -Om^2 v
with ``solve_ivp(method="DOP853", rtol=1e-13)``.  The property test runs
with hypothesis, derandomized, so every run draws the same cases; it
takes about 3 s on a 2-vCPU VM.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from oscpair import load_shipped, solve_angle, solve_ermakov
from oscpair.coefficients import Spline

from conftest import random_admissible_spec

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

#: rho and rho' relative to max(1, |value|), phi per unit of 1 + |phi|
REF_TOL = 1e-11


def _reference(omega_sq, t0, t1, ic):
    """u, u', v, v' of the linear system by DOP853, as a dense output."""

    def rhs(t, y):
        om2 = omega_sq(np.array([t]))[0]
        return [y[1], -om2 * y[0], y[3], -om2 * y[2]]

    return solve_ivp(rhs, (t0, t1), [ic[0], ic[1], 0.0, 1.0 / ic[0]], method="DOP853",
                     rtol=1e-13, atol=1e-15, dense_output=True).sol


def _scaled(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _check_against_reference(omega_sq, t0, t1, ic, tol=1e-10):
    """The solution's reads against the reference, its Wronskian, its phase
    and its caustics; returns the solution."""
    sol = solve_ermakov(omega_sq, t0, t1, ic=ic, tol=tol)
    ref = _reference(omega_sq, t0, t1, ic)
    ts = np.linspace(t0, t1, 2001)
    u, du, v, dv = ref(ts)
    rho = np.hypot(u, v)
    rho_s, drho_s, phi_s = sol.rho_drho_phi(ts)
    assert _scaled(rho_s, rho) <= REF_TOL
    assert _scaled(drho_s, (u * du + v * dv) / rho) <= REF_TOL
    phi = np.unwrap(np.arctan2(v, u))
    assert np.max(np.abs(phi_s - phi) / (1.0 + np.abs(phi))) <= REF_TOL
    # W = u v' - u' v = 1 to the roundoff of its two products, and phi
    # strictly increasing
    products = np.abs(u * dv) + np.abs(du * v)
    assert np.max(np.abs(sol.wronskian(ts) - 1.0) / products) <= 1e-13
    assert np.all(np.diff(phi_s) > 0.0)
    # the caustics are the zeros of v after t0
    zeros = [brentq(lambda t: ref(t)[2], a, b, xtol=1e-14, rtol=1e-14)
             for a, b, va, vb in zip(ts[1:-1], ts[2:], v[1:-1], v[2:]) if va * vb < 0.0]
    got = sol.caustics_in(t0, t1)
    assert len(got) == len(zeros)
    assert np.max(np.abs(np.subtract(got, zeros)), initial=0.0) <= 1e-9
    return sol


@st.composite
def smooth_omega_sq(draw):
    """(Om^2, t0, t1, ic): a sinusoid or a quadratic that may change sign,
    on windows where rho stays below about 1e3."""
    t0 = draw(st.floats(-3.0, 3.0))
    length = draw(st.floats(0.5, 6.0))
    if draw(st.booleans()):
        a, b = draw(st.floats(-0.5, 6.0)), draw(st.floats(0.0, 4.0))
        nu, theta = draw(st.floats(0.1, 3.0)), draw(st.floats(0.0, 2.0 * math.pi))

        def omega_sq(t):
            return a + b * np.cos(nu * (t - t0) + theta)
    else:
        c0, c1, c2 = draw(st.floats(-0.5, 6.0)), draw(st.floats(-2.0, 2.0)), draw(
            st.floats(-1.0, 1.0))

        def omega_sq(t):
            s = (t - t0) / length
            return c0 + (c1 + c2 * s) * s
    x, y = draw(st.floats(-0.7, 0.7)), draw(st.floats(-1.0, 1.0))
    return omega_sq, t0, t0 + length, (math.exp(x), y)


@PROPERTY
@given(smooth_omega_sq())
def test_panel_solve_matches_dop853(case):
    omega_sq, t0, t1, ic = case
    _check_against_reference(omega_sq, t0, t1, ic)


def test_kinked_omega_sq_forces_refinement():
    """Om^2 = 2 + s'' of a cubic spline: piecewise linear, kinked at every
    knot.  Panels are split around the kinks, and the solution still
    matches the reference."""
    s = Spline((0.0, 0.7, 1.9, 2.6, 4.0), (0.0, 0.3, -0.2, 0.4, 0.1))
    sol = _check_against_reference(lambda t: 2.0 + s.deriv2(t), 0.0, 4.0, (1.0, 0.0))
    assert sol.stats.rejected_steps > 2 and sol.stats.accepted_steps > 3


def test_pulsed_coupling_and_time_dependent_random_channels():
    """The shipped pulsed-coupling channels and seeded random systems of
    power-law masses (time-dependent Om_j^2): within 1e-11 of the
    reference, with check residuals at most 1e-13 on pulsed-coupling."""
    sc = load_shipped("pulsed-coupling")
    dec = solve_angle(sc.system)
    for corrected in (True, False):
        for j in (1, 2):
            sol = _check_against_reference(dec.omega_sq_on(j, *sc.window, corrected),
                                           *sc.window, (1.0, 0.0), tol=sc.ode_tol)
            assert sol.stats.max_residual <= 1e-13
    rng = np.random.default_rng(71)
    for _ in range(4):
        dec = solve_angle(random_admissible_spec(rng, kind=2))
        for j in (1, 2):
            _check_against_reference(dec.omega_sq_on(j, 0.0, 6.0), 0.0, 6.0, (1.0, 0.0))


@pytest.mark.parametrize("om2, t1, ic", [
    (2.89, 5.0, (2.89**-0.25, 0.0)),
    (25.0, 4.0, (1.0, 0.0)),
])
def test_oscillatory_channels_reach_1e_12(om2, t1, ic):
    """Both raised SolverFailure at tol 1e-12 with the former DOP853
    tolerance ladder, whose last rung was rtol 1e-13."""
    sol = solve_ermakov(lambda t: om2, 0.0, t1, ic=ic, tol=1e-12)
    closed = solve_ermakov(om2, 0.0, t1, ic=ic)
    ts = np.linspace(0.0, t1, 501)
    assert sol.stats.max_residual <= 1e-12
    assert _scaled(np.stack(sol.rho_drho_phi(ts)), np.stack(closed.rho_drho_phi(ts))) <= 1e-12


def test_phase_through_sharp_dips_of_rho():
    """rho dips to 0.03 twice per period at Om^2 = 100, and phi turns by
    nearly pi within a node gap there.  phi, lifted from the node angles,
    still follows the closed form; a lift to the running integral of
    1/rho^2 drifted by 12 rad on this window."""
    sol = solve_ermakov(lambda t: 100.0, 0.0, 20.0, ic=(0.03, 0.0))
    closed = solve_ermakov(100.0, 0.0, 20.0, ic=(0.03, 0.0))
    ts = np.linspace(0.0, 20.0, 4001)
    phi = closed.phi(ts)
    assert np.max(np.abs(sol.phi(ts) - phi) / (1.0 + np.abs(phi))) <= 1e-11
    assert sol.maslov_count(0.0, 20.0) == closed.maslov_count(0.0, 20.0) == 63

"""The closed-form auxiliary solve of a constant Om^2 against the panel solve.

A number passed as ``omega_sq`` selects the closed form; the same constant
behind a callable is solved on Gauss-Legendre panels and serves as the
reference.  The property tests run with hypothesis, derandomized, so
every run draws the same cases; together they take about 3 s on a 2-vCPU
VM.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oscpair import solve_ermakov
from oscpair.ermakov import _RESIDUAL_GRID, _lift
from oscpair.errors import NonPositiveRho, SolverFailure

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

#: closed form against the panel solve at tol 1e-12: rho relative, phi
#: absolute per unit of 1 + |phi|; the panel solution is good to about 1e-13
REF_TOL = 1e-11


def _stepped(om2, t0, t1, ic, tol=1e-12):
    """The panel solve of the same constant, which reaches ``tol``."""
    return solve_ermakov(lambda t: om2, t0, t1, ic=ic, tol=tol)


@st.composite
def constant_channels(draw):
    """(Om^2, t0, t1, ic): Om^2 < 0, 0, tiny or > 0, random initial
    conditions, and windows that cross 1.5-4 caustics when Om^2 > 0."""
    kind = draw(st.sampled_from(["negative", "zero", "tiny", "positive"]))
    t0 = draw(st.floats(-5.0, 5.0))
    x, y = draw(st.floats(-0.7, 0.7)), draw(st.floats(-1.0, 1.0))
    if kind == "positive":
        om2 = draw(st.floats(0.01, 25.0))
        w = math.sqrt(om2)
        # rho within a factor e^0.7 of the equilibrium w^(-1/2)
        rho0 = om2 ** -0.25 * math.exp(x)
        return om2, t0, t0 + draw(st.floats(1.5, 4.0)) * math.pi / w, (rho0, y * rho0 * w)
    if kind == "negative":
        om2 = -draw(st.floats(0.01, 4.0))
        length = draw(st.floats(0.1, 1.0)) * min(6.0, 8.0 / math.sqrt(-om2))
    elif kind == "zero":
        om2, length = 0.0, draw(st.floats(0.1, 6.0))
    else:
        om2 = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, -12.0))
        length = draw(st.floats(0.1, 6.0))
    return om2, t0, t0 + length, (math.exp(x), y)


@PROPERTY
@given(constant_channels())
def test_closed_form_matches_stepped_solve(case):
    om2, t0, t1, ic = case
    closed = solve_ermakov(om2, t0, t1, ic=ic)
    ref = _stepped(om2, t0, t1, ic)
    stats = closed.stats
    assert (stats.method, ref.stats.method) == ("closed-form", "gauss-legendre")
    assert (stats.attempts, stats.accepted_steps, stats.rejected_steps,
            stats.nfev) == (0, 0, 0, 0)
    assert stats.max_residual <= closed.tol
    assert closed.ill_conditioned == ref.ill_conditioned
    ts = np.linspace(t0, t1, 301)
    rho, drho, phi = closed.rho_drho_phi(ts)
    r_rho, r_drho, r_phi = ref.rho_drho_phi(ts)
    assert np.max(np.abs(rho / r_rho - 1.0)) <= REF_TOL
    assert np.max(np.abs(drho - r_drho) / np.maximum(1.0, np.abs(r_drho))) <= REF_TOL
    assert np.max(np.abs(phi - r_phi) / (1.0 + np.abs(r_phi))) <= REF_TOL
    # a 0-d read is the matching element of a 1-D read
    for i in (0, 150, 300):
        assert np.array_equal(np.stack(closed.rho_drho_phi(ts[i])),
                              np.stack([rho[i], drho[i], phi[i]]))


def _near(t, n):
    """t and the floats within n ulps of it, in order."""
    below, above = [t], [t]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below[:0:-1] + above)


def test_phi_continuous_at_multiples_of_pi_unit_frequency():
    """With Om^2 = 1 and t0 = 0, theta is t itself: at the floats next to
    k pi, v changes sign, and phi must stay at k pi there, not jump by pi
    or 2 pi."""
    sol = solve_ermakov(1.0, 0.0, 50 * math.pi + 1.0, ic=(1.3, -0.4))
    for k in range(1, 51):
        phi = sol.phi(_near(k * math.pi, 6))
        assert np.max(np.abs(phi - k * math.pi)) <= 1e-12 * k, k
        assert np.all(np.diff(phi) >= -1e-13 * k), k


@pytest.mark.parametrize("k", [0, 1, 2, 7, 1000])
def test_lift_survives_a_sign_slip_of_v(k):
    """Next to (k + 1) pi on either side, a v of either sign may come out
    of sin: the lifted angle is (k + 1) pi to within ulps in all four
    cases, never k pi or (k + 2) pi."""
    for theta in (math.nextafter((k + 1) * math.pi, 0.0),
                  math.nextafter((k + 1) * math.pi, math.inf)):
        u = -((-1.0) ** k) * np.ones(2)
        v = np.array([1e-17, -1e-17])
        angle = np.arctan2(v, u)
        phi = angle + _lift(np.full(2, theta), angle)
        assert np.max(np.abs(phi - (k + 1) * math.pi)) <= 1e-15 * (k + 1)


@PROPERTY
@given(om2=st.floats(0.01, 100.0), k=st.integers(1, 40), t0=st.floats(-5.0, 5.0),
       x=st.floats(-0.7, 0.7), y=st.floats(-1.0, 1.0))
def test_phi_continuous_at_multiples_of_pi(om2, k, t0, x, y):
    w = math.sqrt(om2)
    rho0 = om2 ** -0.25 * math.exp(x)
    tc = t0 + k * math.pi / w
    sol = solve_ermakov(om2, t0, tc + 1.0, ic=(rho0, y * rho0 * w))
    phi = sol.phi(_near(tc, 8))
    # phi(t0 + k pi / w) = k pi exactly; a few ulps of t move it by less
    # than 1e-13 here, while a branch slip moves it by pi
    assert np.max(np.abs(phi - k * math.pi)) <= 1e-11 * k


@PROPERTY
@given(om2=st.floats(0.05, 30.0), periods=st.floats(1.2, 6.0), start=st.floats(0.0, 0.9),
       t0=st.floats(-5.0, 5.0), x=st.floats(-0.7, 0.7), y=st.floats(-1.0, 1.0))
def test_caustics_every_half_period(om2, periods, start, t0, x, y):
    """sin(phi(t) - phi(ta)) vanishes exactly at ta + k pi / w, whatever the
    initial condition: rho(t) rho(ta) sin(phi(t) - phi(ta)) is the Green's
    function sin(w (t - ta)) / w."""
    w = math.sqrt(om2)
    rho0 = om2 ** -0.25 * math.exp(x)
    t1 = t0 + periods * math.pi / w
    ta = t0 + start * (t1 - t0)
    n = math.floor((t1 - ta) * w / math.pi)
    # a caustic within 1e-6 of t1 may or may not be counted
    if abs((t1 - ta) * w / math.pi - round((t1 - ta) * w / math.pi)) < 1e-6:
        reject()
    sol = solve_ermakov(om2, t0, t1, ic=(rho0, y * rho0 * w))
    got = sol.caustics_in(ta, t1)
    want = ta + np.arange(1, n + 1) * math.pi / w
    assert len(got) == n
    assert np.max(np.abs(np.array(got) - want), initial=0.0) <= 1e-9
    assert sol.maslov_count(ta, t1) == n


@settings(PROPERTY, max_examples=15)
@given(kappa=st.floats(0.1, 100.0), reach=st.floats(360.0, 1000.0),
       x=st.floats(-0.7, 0.7), y=st.floats(-0.5, 1.0))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_cosh_overflow_raises_as_the_stepped_solve(kappa, reach, x, y):
    """rho ~ cosh(kappa tau) overflows rho^2 at kappa tau ~ 355, and cosh
    itself at 710.  The first check-grid point after t0 lies at kappa tau =
    ``reach``, past the overflow, so the overflow is the first failure of
    both paths: the panel solve refines no panel past the one where the
    state overflows, and both raise NonPositiveRho."""
    ic = (math.exp(x), y * kappa)
    t1 = (_RESIDUAL_GRID - 1) * reach / kappa
    with pytest.raises(NonPositiveRho):
        solve_ermakov(-kappa**2, 0.0, t1, ic=ic)
    with pytest.raises(NonPositiveRho):
        solve_ermakov(lambda t: -kappa**2, 0.0, t1, ic=ic)


def test_growing_solution_fails_the_residual_first_in_both_paths():
    """Rounding in W = u v' - u' v grows like eps^2 Om^2 rho^4 against the
    tolerance's rho^3, so a growing solution sampled on the way up fails
    the residual long before rho^2 overflows: SolverFailure in both paths."""
    kappa = 1.6685
    ic = (1.0154, 0.1429 * kappa)
    for om2 in (-kappa**2, lambda t: -kappa**2):
        with pytest.raises(SolverFailure, match="above tolerance 1.0e-10"):
            solve_ermakov(om2, 0.0, 432.7 / kappa, ic=ic)


@pytest.mark.parametrize("om2, rho0", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                       (1e308, 1e10)])
def test_non_finite_omega_sq_raises_as_the_stepped_solve(om2, rho0):
    with pytest.raises(SolverFailure, match="is not finite or overflows"):
        solve_ermakov(om2, 0.0, 1.0, ic=(rho0, 0.0))
    with pytest.raises(SolverFailure, match="is not finite or overflows"):
        solve_ermakov(lambda t: om2, 0.0, 1.0, ic=(rho0, 0.0))


def test_closed_form_keeps_the_checks():
    # rho grows like exp(2 t): ill-conditioned, with phi flat to roundoff
    steep = solve_ermakov(-4.0, 0.0, 10.0, ic=(1.0, 0.0), tol=1e-9)
    assert steep.ill_conditioned
    assert not solve_ermakov(1.0, 0.0, 10.0).ill_conditioned
    # the check grid's residual against tol: rho dips to 0.03 at Om^2 = 100,
    # where roundoff in W is amplified 37,000-fold
    with pytest.raises(SolverFailure, match="above tolerance 1.0e-12 in closed form"):
        solve_ermakov(100.0, 0.0, 20.0, ic=(0.03, 0.0), tol=1e-12)


def test_callables_keep_the_stepped_solve():
    for om2 in (lambda t: 2.25, lambda t: np.full(t.shape, 2.25)):
        assert solve_ermakov(om2, 0.0, 3.0).stats.method == "gauss-legendre"
    for om2 in (2.25, 2, np.float64(2.25)):
        assert solve_ermakov(om2, 0.0, 3.0).stats.method == "closed-form"

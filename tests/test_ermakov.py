import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp

import oscpair.ermakov
from oscpair import decoupled_at_angle, load_shipped, solve_angle, solve_ermakov, solve_ermakov_nonlinear
from oscpair.ermakov import _attempt, _omega_sq_reader
from oscpair.errors import DomainError, SolverFailure

from conftest import SHIPPED, ck_spec, random_admissible_spec


def test_equilibrium_solution():
    om0 = 1.7
    sol = solve_ermakov(lambda t: om0**2, 0.0, 5.0, ic=(om0**-0.5, 0.0))
    ts = np.linspace(0.0, 5.0, 100)
    assert np.allclose(sol.rho(ts), om0**-0.5, rtol=1e-10)
    assert np.allclose(sol.phi(ts), om0 * ts, rtol=1e-10, atol=1e-12)


def test_free_channel():
    sol = solve_ermakov(lambda t: 0.0, 0.0, 6.0, ic=(1.0, 0.0))
    ts = np.linspace(0.0, 6.0, 100)
    assert np.allclose(sol.rho(ts), np.sqrt(1 + ts**2), rtol=1e-11)
    assert np.allclose(sol.phi(ts), np.arctan(ts), rtol=1e-9, atol=1e-12)
    assert sol.caustics_in(0.0, 6.0) == []


def test_pinney_formula_and_nonlinear_cross_check():
    # Omega = 1, rho(0) = 2: rho = sqrt(4 cos^2 + sin^2/4)
    sol = solve_ermakov(lambda t: 1.0, 0.0, 7.0, ic=(2.0, 0.0))
    ts = np.linspace(0.0, 7.0, 200)
    exact = np.sqrt(4 * np.cos(ts) ** 2 + 0.25 * np.sin(ts) ** 2)
    assert np.allclose(sol.rho(ts), exact, rtol=1e-10)
    direct = solve_ermakov_nonlinear(lambda t: 1.0, 0.0, 7.0, ic=(2.0, 0.0))
    assert np.max(np.abs(sol.rho(ts) - direct.rho(ts))) < 1e-8
    assert np.max(np.abs(sol.phi(ts) - direct.phi(ts))) < 1e-8


def test_nonlinear_cross_check_sinusoidal():
    om_sq = lambda t: 1.5 + 0.8 * np.cos(1.3 * t)
    a = solve_ermakov(om_sq, 0.0, 6.0, ic=(1.1, -0.2), tol=1e-10)
    b = solve_ermakov_nonlinear(om_sq, 0.0, 6.0, ic=(1.1, -0.2), tol=1e-10)
    ts = np.linspace(0.0, 6.0, 300)
    assert np.max(np.abs(a.rho(ts) - b.rho(ts))) < 1e-8


def test_phase_properties():
    om0 = 1.7
    sol = solve_ermakov(lambda t: om0**2, 0.0, 5.0, ic=(om0**-0.5, 0.0))
    assert sol.phase(2.0, 2.0) == 0.0
    assert sol.phase(0.0, np.pi / 2) == pytest.approx(om0 * np.pi / 2, rel=1e-11)
    rng = np.random.default_rng(8)
    sol2 = solve_ermakov(lambda t: 1.5 + np.sin(t), 0.0, 5.0)
    for _ in range(20):
        a, b, c = np.sort(rng.uniform(0, 5, size=3))
        assert sol2.phase(a, c) == pytest.approx(
            sol2.phase(a, b) + sol2.phase(b, c), abs=1e-14)
    # strictly increasing phase
    ts = np.linspace(0.0, 5.0, 1000)
    assert np.all(np.diff(sol2.phi(ts)) > 0)


def test_caustics():
    sol = solve_ermakov(lambda t: 1.0, 0.0, 8.0, ic=(1.0, 0.0))
    assert sol.caustics_in(0.0, np.pi / 2) == []
    cs = sol.caustics_in(0.0, 3.5)
    assert len(cs) == 1
    assert cs[0] == pytest.approx(np.pi, abs=1e-10)
    cs = sol.caustics_in(0.0, 6.5)
    assert len(cs) == 2
    assert cs[1] == pytest.approx(2 * np.pi, abs=1e-10)
    # intervals measured from a later start time
    cs = sol.caustics_in(1.0, 1.0 + 3.5)
    assert len(cs) == 1
    assert cs[0] == pytest.approx(1.0 + np.pi, abs=1e-10)
    assert sol.maslov_count(0.0, 3.5) == 1
    assert sol.maslov_count(0.0, 6.5) == 2


def test_residual_small_on_shipped_channels():
    spec = ck_spec()
    dec = solve_angle(spec)
    ts = np.linspace(0.0, 2.0, 1000)
    for j in (1, 2):
        sol = solve_ermakov(lambda t, j=j: dec.omega_sq(j, t), 0.0, 2.0,
                            tol=1e-10, channel=j)
        assert np.max(sol.residual(ts)) <= 1e-10


def test_finite_difference_residual():
    # independent check that rho actually satisfies the nonlinear equation:
    # second derivative from dense output, wide stencil
    om_sq = lambda t: 1.5 + 0.8 * np.cos(1.3 * t)
    sol = solve_ermakov(om_sq, 0.0, 6.0, ic=(1.0, 0.0))
    h = 1e-3
    for t in np.linspace(0.5, 5.5, 41):
        ddr = (sol.drho(t - 2 * h) - 8 * sol.drho(t - h)
               + 8 * sol.drho(t + h) - sol.drho(t + 2 * h)) / (12 * h)
        resid = ddr + om_sq(t) * sol.rho(t) - sol.rho(t) ** -3
        assert abs(resid) < 1e-8


def test_ermakov_invariant_between_two_solutions():
    om_sq = lambda t: 1.5 + 0.8 * np.cos(1.3 * t)
    tol = 1e-10
    a = solve_ermakov(om_sq, 0.0, 6.0, ic=(1.0, 0.0), tol=tol)
    b = solve_ermakov(om_sq, 0.0, 6.0, ic=(2.0, 0.3), tol=tol)
    ts = np.linspace(0.0, 6.0, 200)
    ra, rb = a.rho(ts), b.rho(ts)
    dra, drb = a.drho(ts), b.drho(ts)
    inv = (ra * drb - dra * rb) ** 2 + (ra / rb) ** 2 + (rb / ra) ** 2
    assert np.max(np.abs(inv - inv[0])) <= 100 * tol * np.max(np.abs(inv))


def test_inputs_validated():
    with pytest.raises(ValueError):
        solve_ermakov(lambda t: 1.0, 0.0, 1.0, ic=(-1.0, 0.0))
    with pytest.raises(ValueError):
        solve_ermakov(lambda t: 1.0, 1.0, 1.0)
    sol = solve_ermakov(lambda t: 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        sol.rho(2.0)


def test_ill_conditioned_flag():
    # strongly inverted channel: rho grows like exp(2t)
    sol = solve_ermakov(lambda t: -4.0, 0.0, 10.0, ic=(1.0, 0.0), tol=1e-9)
    assert sol.ill_conditioned
    tame = solve_ermakov(lambda t: 1.0, 0.0, 10.0)
    assert not tame.ill_conditioned


# --- the DOP853 step loop against scipy ------------------------------------

def _scipy_reference(omega_sq, t0, t1, rtol, ic=(1.0, 0.0)):
    """solve_ivp's DOP853 on the linear system, reading Om^2 through length-1 arrays.

    A length-1 read rounds like a long-array read; a 0-d read need not.
    """

    def rhs(t, y):
        om2 = omega_sq(np.array([t]))[0]
        r2 = y[0] * y[0] + y[2] * y[2]
        return [y[1], -om2 * y[0], y[3], -om2 * y[2], 1.0 / r2]

    y0 = [ic[0], ic[1], 0.0, 1.0 / ic[0], 0.0]
    return solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                     rtol=rtol, atol=rtol * 1e-2, dense_output=True)


def _ladder_reference(reference, t0, t1, tol):
    """The full-grid retry ladder: (rtol, solve_ivp result, max residual) or None.

    ``reference(rtol)`` is ``_scipy_reference`` on the channel at rtol.
    """
    rtol = tol
    ts = np.linspace(t0, t1, 1024)
    for _ in range(4):
        sol = reference(rtol)
        u, du, v, dv, _ = sol.sol(ts)
        rho_sq = u * u + v * v
        w = u * dv - du * v
        resid = np.abs(w * w - 1.0) / rho_sq**1.5
        if np.max(resid) <= tol:
            return rtol, sol, float(np.max(resid))
        if rtol <= 1.1e-13:
            break
        rtol = max(rtol * 1e-2, 1e-13)
    return None


def _shipped_channels():
    """(label, Om_j^2 callable, t0, t1, ode_tol) for every shipped scenario,
    variant and channel."""
    out = []
    for name in SHIPPED:
        sc = load_shipped(name)
        dec = (solve_angle(sc.system, gamma_tol=sc.gamma_tol) if sc.alpha is None
               else decoupled_at_angle(sc.system, sc.alpha, gamma_tol=sc.gamma_tol))
        t0, t1 = sc.window
        for corrected in (True, False):
            for j in (1, 2):
                out.append(((name, corrected, j), dec.omega_sq_on(j, t0, t1, corrected),
                            t0, t1, sc.ode_tol))
    return out


def _random_channels():
    rng = np.random.default_rng(43)
    out = []
    for k in range(12):
        spec = random_admissible_spec(rng, kind=k % 3, drive=k % 2 == 1)
        dec = solve_angle(spec)
        for corrected in (True, False):
            for j in (1, 2):
                out.append(((k, corrected, j), dec.omega_sq_on(j, 0.0, 6.0, corrected),
                            0.0, 6.0, 1e-10))
    return out


@pytest.fixture(scope="module")
def channels():
    return _shipped_channels() + _random_channels()


@pytest.fixture(scope="module")
def scipy_reference():
    """``_scipy_reference`` by (channel label, rtol), each solved once."""
    cache = {}

    def reference(label, omega_sq, t0, t1, rtol):
        if (label, rtol) not in cache:
            cache[label, rtol] = _scipy_reference(omega_sq, t0, t1, rtol)
        return cache[label, rtol]

    return reference


def _assert_same_as_scipy(label, got_ts, got_sol, ref, t0, t1):
    assert np.array_equal(got_ts, ref.t), label
    pts = np.linspace(t0, t1, 1024)
    assert np.array_equal(got_sol(pts), ref.sol(pts)), label


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_step_loop_bit_identical_to_scipy(rtol, channels, scipy_reference):
    for label, om, t0, t1, _ in channels:
        ref = scipy_reference(label, om, t0, t1, rtol)
        grid = np.linspace(t0, t1, 1024)
        att = _attempt(_omega_sq_reader(om), t0, t1, np.array([1.0, 0.0, 0.0, 1.0, 0.0]),
                       rtol, rtol * 1e-2, grid, np.inf)
        assert not att.aborted
        assert att.nfev == ref.nfev, label
        assert att.nfev == 2 + 12 * (att.accepted_steps + att.rejected_steps) \
            + 3 * att.accepted_steps, label
        sol = OdeSolution(np.array(att.ts), att.interpolants)
        _assert_same_as_scipy(label, sol.ts, sol, ref, t0, t1)
        # the per-step pieces are the full-grid read, for the final checks
        u, _, v, _, phi = ref.sol(grid)
        assert np.array_equal(np.concatenate(att.rho_sq), u * u + v * v), label
        assert np.array_equal(np.concatenate(att.phi), phi), label


def test_solve_matches_full_grid_ladder(channels, scipy_reference):
    for label, om, t0, t1, tol in channels:
        rtol, ref, ref_resid = _ladder_reference(
            lambda rtol: scipy_reference(label, om, t0, t1, rtol), t0, t1, tol)
        sol = solve_ermakov(om, t0, t1, tol=tol)
        st = sol.stats
        assert st.final_rtol == rtol, label
        assert st.attempts == st.aborted_attempts + 1
        assert st.accepted_steps == len(ref.t) - 1, label
        assert st.max_residual == ref_resid <= tol, label
        if st.attempts == 1:
            assert st.nfev == ref.nfev, label
        _assert_same_as_scipy(label, sol._sol.ts, sol._sol, ref, t0, t1)


def test_failing_attempt_stops_early():
    sc = load_shipped("pulsed-coupling")
    dec = solve_angle(sc.system)
    t0, t1 = sc.window
    om = dec.omega_sq_on(2, t0, t1)
    st = solve_ermakov(om, t0, t1, tol=sc.ode_tol).stats
    assert (st.attempts, st.aborted_attempts) == (2, 1)
    full_first = _scipy_reference(om, t0, t1, sc.ode_tol).nfev
    final = _scipy_reference(om, t0, t1, st.final_rtol).nfev
    assert st.nfev - final < full_first


def test_unreachable_tolerance_raises_after_full_ladder(monkeypatch):
    passes = []
    attempt = oscpair.ermakov._attempt

    def recorded(read, t0, t1, y0, rtol, atol, grid, tol):
        passes.append((rtol, attempt(read, t0, t1, y0, rtol, atol, grid, tol)))
        return passes[-1][1]

    monkeypatch.setattr(oscpair.ermakov, "_attempt", recorded)
    # rho dips to 0.03 twice per period over 32 periods, and the residual
    # |W^2 - 1| / rho^3 amplifies the Wronskian error there 37,000-fold
    with pytest.raises(SolverFailure, match="above tolerance 1.0e-10 after refinement") as exc:
        solve_ermakov(lambda t: 100.0, 0.0, 20.0, ic=(0.03, 0.0), tol=1e-10)
    assert [rtol for rtol, _ in passes] == pytest.approx([1e-10, 1e-12, 1e-13], rel=1e-12)
    assert all(att.aborted for _, att in passes)
    last = passes[-1][1].max_residual
    assert last > 1e-10
    assert str(exc.value).startswith(f"auxiliary residual {last:.3e} ")


def test_omega_sq_read_with_1d_arrays():
    seen = []

    def om(t):
        seen.append(t)
        return 1.5 + 0.8 * np.cos(1.3 * t)

    solve_ermakov(om, 0.0, 6.0)
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == float
               for t in seen)
    assert {t.size for t in seen} == {1, 15}
    # a scalar stands for a constant Om^2
    a = solve_ermakov(lambda t: 2.25, 0.0, 3.0)
    b = solve_ermakov(lambda t: np.full(t.shape, 2.25), 0.0, 3.0)
    ts = np.linspace(0.0, 3.0, 50)
    assert np.array_equal(a.rho(ts), b.rho(ts))


@pytest.mark.parametrize("bad", [lambda t: np.ones(3), lambda t: np.ones((t.size, 1)),
                                 lambda t: np.ones(t.size + 1)])
def test_omega_sq_of_wrong_shape_rejected(bad):
    with pytest.raises(ValueError, match="omega_sq must map a 1D array of times"):
        solve_ermakov(bad, 0.0, 1.0)


def test_benchmark_hooks_exist():
    # the traced benchmark run (perfbench/spans.py) wraps these two names
    assert callable(oscpair.ermakov.solve_ivp)
    assert callable(oscpair.ermakov.solve_ermakov)
    assert oscpair.ermakov.solve_ermakov is solve_ermakov

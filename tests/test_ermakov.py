import inspect
import json
import math
import sys
import warnings

import numpy as np
import pytest

from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

import oscpair.ermakov
from oscpair import decoupled_at_angle, load_shipped, solve_angle, solve_ermakov, solve_ermakov_nonlinear
from oscpair.ermakov import ErmakovSolution, _Attempt, _attempt, _check_steps, _DenseOutput, _omega_sq_reader
from oscpair.errors import DomainError, NonPositiveRho, SolverFailure

from conftest import SHIPPED, SRC, ck_spec, random_admissible_spec, run_python


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
        _assert_same_as_scipy(label, att.dense.ts, att.dense, ref, t0, t1)
        # the batched pieces are the full-grid read, for the final checks
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
    # ... and spans these methods as dense-output reads, counting the size
    # of their first argument after self as points: they must stay public
    # functions of the class itself, taking the times first
    for name in ("rho", "drho", "phi", "wronskian"):
        method = vars(ErmakovSolution)[name]
        assert inspect.isfunction(method), name
        assert list(inspect.signature(method).parameters)[:2] == ["self", "t"], name


# --- the stacked dense output ------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _read_times(ts, rng):
    """1-D and 0-d times covering every way ``OdeSolution`` assigns a step."""
    t0, t1 = ts[0], ts[-1]
    inside = rng.uniform(t0, t1, size=300)
    slack = np.array([t0 - 5e-13, t0 - 1e-12, t1 + 5e-13, t1 + 1e-12])
    arrays = [
        np.linspace(t0, t1, 1024),                               # sorted
        inside,                                                  # unsorted
        rng.permutation(np.repeat(np.concatenate([inside[:40], ts[:5]]), 3)),  # repeated
        ts,                                                      # every knot
        np.array([t0, t1]), np.array([t1, t0]),
        slack,
        rng.permutation(np.concatenate([inside[:50], ts, slack])),
        inside[:1],
    ]
    scalars = [t0, t1, *ts[1:-1][:20], *inside[:20], *slack, np.float64(inside[0]), np.array(ts[1])]
    return arrays, scalars


def test_dense_output_equals_scipy_ode_solution(channels, scipy_reference):
    """Stacked reads equal solve_ivp's OdeSolution over scipy's interpolants."""
    rng = np.random.default_rng(17)
    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    for label, om, t0, t1, _ in channels:
        ref = scipy_reference(label, om, t0, t1, 1e-10)
        att = _attempt(_omega_sq_reader(om), t0, t1, y0, 1e-10, 1e-12,
                       np.linspace(t0, t1, 1024), np.inf)
        dense = att.dense
        assert np.array_equal(dense.ts, ref.t), label
        arrays, scalars = _read_times(dense.ts, rng)
        for t in arrays:
            got, want = dense(t), ref.sol(t)
            assert got.shape == want.shape == (5, len(t)), label
            assert np.array_equal(_bits(got), _bits(want)), (label, t)
        for t in scalars:
            got, want = dense(t), ref.sol(t)
            assert got.shape == want.shape == (5,), label
            assert np.array_equal(_bits(got), _bits(want)), (label, t)


def test_dense_output_equals_ode_solution_of_its_own_steps():
    """Reads equal OdeSolution over Dop853DenseOutput objects made from the
    stacked arrays, also across the buffer growth and with -0.0 in F."""
    rng = np.random.default_rng(5)
    dense = _DenseOutput(0.25, 5, capacity=1)
    ts = 0.25 + np.cumsum(rng.uniform(0.01, 0.3, size=40))
    interpolants = []
    t_old = 0.25
    for t_new in ts:
        y_old = rng.normal(size=5)
        F = rng.normal(size=(7, 5))
        F[rng.uniform(size=(7, 5)) < 0.2] = -0.0
        # a component that is -0.0 throughout reads as +0.0 in scipy
        F[:, 2] = y_old[2] = -0.0
        dense.push(t_new, y_old)[:] = F
        interpolants.append(Dop853DenseOutput(t_old, t_new, y_old, F))
        t_old = t_new
    ref = OdeSolution(dense.ts, interpolants)
    arrays, scalars = _read_times(dense.ts, rng)
    for t in arrays + scalars:
        assert np.array_equal(_bits(dense(t)), _bits(ref(t))), t


def test_solution_reads_have_scipy_shapes_and_exact_arrays():
    sol = solve_ermakov(lambda t: 1.0 + 0.0 * t, 0.0, 3.0)
    assert sol._sol(1.0).shape == (5,)
    assert sol._sol(np.array([1.0, 0.5])).shape == (5, 2)
    assert np.shape(sol.rho(1.0)) == ()
    assert sol.rho([0.5, 1.0, 0.5]).shape == (3,)
    assert np.array_equal(sol._sol.ts, np.unique(sol._sol.ts))
    # a finished solution keeps no spare capacity
    n = sol.stats.accepted_steps
    assert len(sol._sol.ts) == n + 1
    assert sol._sol._F.shape == (7, n, 5) and sol._sol._y_old.shape == (n, 5)


# --- batched residual checks ---------------------------------------------------

#: constant interpolant states: rho = 1 and W = 1 (residual 0), W = 2
#: (residual 3), and rho = 0
GOOD = (1.0, 0.0, 0.0, 1.0, 0.0)
LOOSE = (1.0, 0.0, 0.0, 2.0, 0.0)
ZERO = (0.0, 0.0, 0.0, 1.0, 0.0)
#: u falls linearly from 1 to 0 over the step, with v' = 3: residual 10 at
#: the step's midpoint, then rho = 0 at its end
FALLING = ((1.0, 0.0, 0.0, 3.0, 0.0), (-1.0, 0.0, 0.0, 0.0, 0.0))


def _outcome(states, grid, batch):
    """Check unit steps, ``batch`` steps at a time: ("raised", steps) or
    ("aborted" | "passed", steps, max_residual).  A state is constant over
    its step, or a (start, slope) pair: F[0] alone makes y linear in x."""
    att = _Attempt(dense=_DenseOutput(0.0, 5))
    for i, y in enumerate(states, start=1):
        y_old, slope = (y, 0.0) if len(y) == 5 else y
        F = att.dense.push(float(i), np.array(y_old))
        F[:] = 0.0
        F[0] = slope
        if i % batch == 0 or i == len(states):
            try:
                _check_steps(att, grid, 1e-10)
            except NonPositiveRho:
                return "raised", i
            if att.aborted:
                return "aborted", i, att.max_residual
    return "passed", len(states), att.max_residual


@pytest.mark.parametrize("states, step_by_step", [
    ([GOOD, LOOSE, ZERO, GOOD], ("aborted", 2, 3.0)),
    ([GOOD, ZERO, LOOSE, GOOD], ("raised", 2)),
    ([GOOD, GOOD, GOOD, LOOSE], ("aborted", 4, 3.0)),
    ([GOOD, (np.nan,) * 5, GOOD, GOOD], ("raised", 2)),
    ([GOOD, FALLING, LOOSE, GOOD], ("raised", 2)),
    ([GOOD] * 4, ("passed", 4, 0.0)),
])
def test_batched_check_takes_first_failing_step(states, step_by_step):
    """A batch ends as checking its steps one at a time would: the first
    failing step decides, positivity before residual within that step."""
    grid = np.linspace(0.0, 4.0, 9)
    assert _outcome(states, grid, 1) == step_by_step
    batched = _outcome(states, grid, len(states))
    assert batched[0] == step_by_step[0]
    assert batched[2:] == step_by_step[2:]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_rho_overflow_mid_batch_raises_at_once(monkeypatch):
    """rho^2 = u^2 + v^2 overflows at about t = 134 (u' = 1e152, Om^2 = 0).
    The attempt raises at the step where it does, without waiting for the
    batch or the window end (the steps grow tenfold, so that is before 1,400)."""
    monkeypatch.setattr(oscpair.ermakov, "_CHECK_BATCH", 10**6)
    latest = []

    def om(t):
        latest.append(float(t.max()))
        return np.zeros_like(t)

    with pytest.raises(NonPositiveRho):
        solve_ermakov(om, 0.0, 1e4, ic=(1.0, 1e152))
    assert 134.0 < max(latest) < 1400.0
    # also when no check-grid point falls in that step
    latest.clear()
    with pytest.raises(NonPositiveRho):
        _attempt(_omega_sq_reader(om), 0.0, 1e4, np.array([1.0, 1e152, 0.0, 1.0, 0.0]),
                 1e-10, 1e-12, np.array([0.0, 1e4]), 1e-10)
    assert 134.0 < max(latest) < 1400.0


# --- the DOP853 tableau and step rules, read without scipy.integrate ---------

def test_tableau_and_step_control_equal_scipy():
    from scipy.integrate._ivp import dop853_coefficients, rk

    erm = oscpair.ermakov
    D = rk.DOP853
    for ours, theirs in [(erm._A, D.A), (erm._C, D.C), (erm._dop.B, D.B),
                         (erm._dop.E3, D.E3), (erm._dop.E5, D.E5), (erm._dop.D, D.D),
                         (erm._A_EXTRA, D.A_EXTRA), (erm._C_EXTRA, D.C_EXTRA)]:
        assert ours.shape == theirs.shape
        assert np.array_equal(_bits(ours), _bits(theirs))
    assert erm._N_STAGES == D.n_stages
    assert erm._ERROR_ESTIMATOR_ORDER == D.error_estimator_order
    for name in ("N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(erm._dop, name) == getattr(dop853_coefficients, name)
    for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
        ours, theirs = getattr(erm, name), getattr(rk, name)
        assert type(ours) is type(theirs) and ours == theirs, name


# --- the float step arithmetic against scipy's numpy expressions --------------

#: zeros of both signs, subnormals, the least normal, infinities and NaN
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, -3.3e-320, 1e-310, 2.2250738585072014e-308,
            np.inf, -np.inf, np.nan]


def _components(rng, shape, special_frac, log_range):
    """Random float64 components of random sign and magnitude e^u, u uniform
    in +-log_range, a fraction of them replaced by ``_SPECIAL`` values."""
    x = rng.normal(size=shape) * np.exp(rng.uniform(-log_range, log_range, size=shape))
    special = rng.uniform(size=shape) < special_frac
    x[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    return x


def test_float_error_scale_and_norm_equal_scipy():
    """``_error_scale`` and ``_error_norm`` on floats give the bits of scipy's
    numpy expressions, NaN, infinities, zeros and subnormals included."""
    import types

    from scipy.integrate._ivp.rk import DOP853

    erm = oscpair.ermakov
    scipy_self = types.SimpleNamespace(E3=DOP853.E3, E5=DOP853.E5)
    rng = np.random.default_rng(61)
    seen = set()
    with np.errstate(all="ignore"):
        cases = [(0.0, 30.0), (0.02, 30.0), (0.2, 30.0), (0.05, 700.0), (0.0, 700.0)]
        for i in range(4000):
            frac, spread = cases[i % len(cases)]
            y, y_new = (_components(rng, 5, frac, spread) for _ in range(2))
            rtol = float(rng.choice([1e-10, 1e-12, 1e-13, 100 * np.finfo(float).eps]))
            atol = rtol * 1e-2 if i % 7 else 0.0
            scale = erm._error_scale(tuple(y.tolist()), tuple(y_new.tolist()), rtol, atol)
            want = np.asarray(atol) + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            assert _bits(scale).tobytes() == _bits(want).tobytes(), (y, y_new)

            K = _components(rng, (13, 5), frac / 4, spread / 4)
            if i % 50 == 0:
                K[:] = 0.0
            h = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-20.0, 2.0)))
            got = erm._error_norm(K.T, h, scale)
            ref = DOP853._estimate_error_norm(scipy_self, K, h, want)
            assert type(got) is float
            assert _bits(got) == _bits(ref), (K, h, scale)
            seen.add("nan" if math.isnan(got) else "zero" if got == 0.0
                     else "finite" if math.isfinite(got) else "inf")
        # err5's squared norm underflows to 0 while err3's is a subnormal
        # that 0.01 * underflows: 0 / 0
        K = np.zeros((13, 5))
        K[0, 0] = 1e-161 / -DOP853.E3[0]
        got = erm._error_norm(K.T, 0.5, [1.0] * 5)
        ref = DOP853._estimate_error_norm(scipy_self, K, 0.5, np.ones(5))
        assert math.isnan(got) and _bits(got) == _bits(ref)
    assert {"nan", "zero", "finite"} <= seen


def test_float_norm_square_near_overflow_equals_numpy():
    """Where e.dot(e) overflows, and where it is at most the largest float,
    the float square has the bits and the warnings of numpy's."""
    big = math.sqrt(sys.float_info.max)
    for e in ([1e160, 0.0, 0.0, 0.0, 0.0], [big, 0.0, 0.0, 0.0, 0.0],
              [big / 2] * 4 + [0.0], [big, 1e-300, 0.0, -0.0, 1.0], [1e154] * 5):
        e = np.array(e)
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = np.linalg.norm(e)**2
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = oscpair.ermakov._norm_sq(e)
        assert type(got) is float and _bits(got) == _bits(want), e
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]


def _rtol_ladder(tol):
    """The rtols ``solve_ermakov`` tries, in order."""
    rtols = [tol]
    while rtols[-1] > 1.1e-13 and len(rtols) < 4:
        rtols.append(max(rtols[-1] * 1e-2, 1e-13))
    return rtols


def test_initial_step_equals_scipy_on_every_rung(channels):
    from scipy.integrate._ivp.common import select_initial_step, validate_tol
    from scipy.integrate._ivp.rk import DOP853

    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    rungs = 0
    for label, om, t0, t1, tol in channels:
        read = _omega_sq_reader(om)

        def fun(t, y):
            return np.array(oscpair.ermakov._rhs(read(np.array([t]))[0], *y.tolist()[:4]))

        f0 = fun(t0, y0)
        for rtol in _rtol_ladder(tol):
            ours = oscpair.ermakov._validate_tol(rtol, rtol * 1e-2)
            theirs = validate_tol(rtol, rtol * 1e-2, len(y0))
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(ours, theirs))
            h = oscpair.ermakov._initial_step(fun, t0, y0, t1, f0, *ours)
            ref = select_initial_step(fun, t0, y0, t1, np.inf, f0, 1.0,
                                      DOP853.error_estimator_order, *theirs)
            assert float(h).hex() == float(ref).hex(), (label, rtol)
            rungs += 1
    assert rungs > len(channels)


def test_rtol_below_100_eps_warns_and_clamps():
    from scipy.integrate._ivp.common import validate_tol

    floor = 100 * np.finfo(float).eps
    with pytest.warns(UserWarning, match="`rtol` is too small") as ours:
        rtol, _ = oscpair.ermakov._validate_tol(1e-15, 1e-17)
    with pytest.warns(UserWarning) as theirs:
        ref, _ = validate_tol(1e-15, 1e-17, 5)
    assert rtol == ref == floor
    assert str(ours[0].message) == str(theirs[0].message)
    # an attempt at a clamped rtol is the attempt at the floor
    read = _omega_sq_reader(lambda t: 1.5 + np.sin(t))
    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    grid = np.linspace(0.0, 2.0, 1024)
    with pytest.warns(UserWarning, match="`rtol` is too small"):
        low = _attempt(read, 0.0, 2.0, y0, 1e-15, 1e-17, grid, np.inf)
    at_floor = _attempt(read, 0.0, 2.0, y0, floor, 1e-17, grid, np.inf)
    assert np.array_equal(low.dense.ts, at_floor.dense.ts)
    assert np.array_equal(low.dense(grid), at_floor.dense(grid))
    # a tolerance below the floor reaches the clamp through solve_ermakov
    with pytest.warns(UserWarning, match="`rtol` is too small"):
        with pytest.raises(SolverFailure, match="above tolerance"):
            solve_ermakov(lambda t: 1.0, 0.0, 1.0, tol=1e-15)


# --- non-finite and underflowing starts ---------------------------------------

#: solves that looped forever: a NaN initial step never falls below min_step
_HANGING_STARTS = {
    "nan-omega-sq-at-t0": ("lambda t: np.full(t.shape, np.nan), 0.0, 1.0", "SolverFailure"),
    "inf-omega-sq": ("lambda t: np.inf, 0.0, 1.0", "SolverFailure"),
    "nan-rho0": ("lambda t: 1.0, 0.0, 1.0, ic=(np.nan, 0.0)", "ValueError"),
    "nan-drho0": ("lambda t: 1.0, 0.0, 1.0, ic=(1.0, np.nan)", "ValueError"),
    "inf-rho0": ("lambda t: 1.0, 0.0, 1.0, ic=(np.inf, 0.0)", "ValueError"),
    "inf-t1": ("lambda t: 1.0, 0.0, np.inf", "ValueError"),
}


@pytest.mark.parametrize("case", sorted(_HANGING_STARTS))
def test_non_finite_start_fails_without_hanging(case):
    args, expected = _HANGING_STARTS[case]
    code = ("import numpy as np\nfrom oscpair import solve_ermakov\n"
            f"try:\n    solve_ermakov({args})\n"
            "except Exception as exc:\n    print(type(exc).__name__)\n")
    proc = run_python(["-c", code], timeout=60)
    assert proc.stdout.split() == [expected], proc.stderr


def test_non_finite_omega_sq_after_t0_fails():
    def om(t):
        return np.where(t > 0.5, np.nan, 1.0)

    with pytest.raises(SolverFailure):
        solve_ermakov(om, 0.0, 1.0)


@pytest.mark.parametrize("rho0", [1e-160, 1e-170, 5e-324])
def test_underflowing_rho0_rejected(rho0):
    with pytest.raises(ValueError, match="square underflows"):
        solve_ermakov(lambda t: 1.0, 0.0, 1.0, ic=(rho0, 0.0))


def test_cli_kernel_with_overflowing_masses_fails_without_hanging(tmp_path):
    """Caldirola-Kanai with all rates 400 on [3, 4]: the masses overflow
    on [t_min, t_max], so the scenario is rejected when it is parsed (at
    the solve, Om^2(t0) would be NaN in the lw variant)."""
    sc = json.loads((SRC / "oscpair" / "scenarios" / "caldirola-kanai.json").read_text())
    for key in ("m1", "m2", "lambda"):
        sc[key]["gamma"] = 400.0
    sc["window"] = [3.0, 4.0]
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(sc))
    points = tmp_path / "points.csv"
    points.write_text("0.1,0.2,0.3,0.4\n")
    proc = run_python(["-m", "oscpair.cli", "kernel", "--scenario", str(scenario),
                       "--points", str(points), "--variant", "lw",
                       "--out", str(tmp_path / "out.csv")], timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "error: coefficient m1 (value, first or second derivative) is not finite" \
        in proc.stderr

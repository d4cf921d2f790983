import inspect
import json
import math
import re
import sys
import time
import warnings

import numpy as np
import pytest

import oscpair.ermakov
from oscpair import (decoupled_at_angle, load_shipped, solve_angle, solve_channels,
                     solve_ermakov)
from oscpair.ermakov import ORDER, ErmakovSolution, _check_grid
from oscpair.errors import DomainError, NonPositiveRho, SolverFailure

from conftest import (SHIPPED, SRC, ck_spec, random_admissible_spec, run_python,
                      solve_ermakov_nonlinear)


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


def test_unreachable_tolerance_raises_after_full_ladder(monkeypatch):
    """A tolerance below the roundoff floor: the panels holding failing
    points are split until no more may be, then SolverFailure names the
    largest failing residual of the last check."""
    checks = []
    check = oscpair.ermakov._check_grid

    def recorded(y, tol):
        out = check(y, tol)
        checks.append(out)
        return out

    monkeypatch.setattr(oscpair.ermakov, "_check_grid", recorded)
    # rho dips to 0.03 twice per period over 32 periods, and the residual
    # |W^2 - 1| / rho^3 amplifies the Wronskian error there 37,000-fold:
    # even the closed form misses 1e-12 (test_closed_form_keeps_the_checks)
    with pytest.raises(SolverFailure, match="above tolerance 1.0e-12 after refinement") as exc:
        solve_ermakov(lambda t: 100.0, 0.0, 20.0, ic=(0.03, 0.0), tol=1e-12)
    assert len(checks) >= 2 and all(failing.any() for _, _, failing in checks)
    _, resid, failing = checks[-1]
    last = resid[failing].max()
    assert last > 1e-12
    assert str(exc.value).startswith(f"auxiliary residual {last:.3e} ")


def test_omega_sq_read_with_1d_arrays():
    seen = []

    def om(t):
        seen.append(t)
        return 1.5 + 0.8 * np.cos(1.3 * t)

    sol = solve_ermakov(om, 0.0, 6.0)
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == float
               for t in seen)
    # one read per pass, of the nodes of the panels solved in it
    assert len(seen) == sol.stats.attempts and seen[0].size == ORDER
    assert all(t.size % ORDER == 0 for t in seen)
    assert sum(t.size for t in seen) == sol.stats.nfev
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


def test_solution_reads_have_scipy_shapes_and_exact_arrays():
    sol = solve_ermakov(lambda t: 1.0 + 0.0 * t, 0.0, 3.0)
    assert sol._sol(1.0).shape == (5,)
    assert sol._sol(np.array([1.0, 0.5])).shape == (5, 2)
    assert np.shape(sol.rho(1.0)) == ()
    assert sol.rho([0.5, 1.0, 0.5]).shape == (3,)
    edges = sol._sol.edges
    assert np.array_equal(edges, np.unique(edges)) and (edges[0], edges[-1]) == (0.0, 3.0)
    # the solution keeps exactly its panels' node values
    n = sol.stats.accepted_steps
    assert len(edges) == n + 1
    assert sol._sol._states.shape == (n, 5, ORDER) and sol._sol._phi.shape == (n, ORDER)
    # a 0-d read is the matching element of a 1-D read, on nodes and edges
    # too; phi to an ulp, which numpy's vectorized arctan2 may round apart
    ts = np.concatenate([np.linspace(0.0, 3.0, 101), edges, sol._sol._half[0] * np.array(
        oscpair.quadrature._gauss_legendre(ORDER)[0]) + sol._sol._mid[0]])
    full = sol._sol(ts)
    for i, t in enumerate(ts):
        y = sol._sol(t)
        assert np.array_equal(y[:4], full[:4, i]), t
        assert abs(y[4] - full[4, i]) <= np.spacing(full[4, i]), t


# --- the check-grid rule ------------------------------------------------------

#: states at check-grid points: rho = 1 and W = 1 (residual 0), W = 2
#: (residual 3), and rho = 0
GOOD = (1.0, 0.0, 0.0, 1.0, 0.0)
LOOSE = (1.0, 0.0, 0.0, 2.0, 0.0)
ZERO = (0.0, 0.0, 0.0, 1.0, 0.0)
#: u falls from 1 to 0 over a step, with v' = 3: residual 10 at its first
#: point, then rho = 0
FALLING = ((0.5, 0.0, 0.0, 3.0, 0.0), (0.0, 0.0, 0.0, 3.0, 0.0))


def _outcome(states, ends):
    """Check two grid points per step, up to each of ``ends`` in turn:
    ("raised", step) or ("refined" | "passed", step, largest failing
    residual).  A step is one state for both points or a pair."""
    y = np.array([state for step in states
                  for state in ((step, step) if len(step) == 5 else step)]).T
    for end in ends:
        try:
            _, resid, failing = _check_grid(y[:, :end], 1e-10)
        except NonPositiveRho:
            return "raised", end // 2
        if failing.any():
            return "refined", int(np.argmax(failing)) // 2 + 1, float(resid[failing].max())
    return "passed", len(states), float(resid.max())


@pytest.mark.parametrize("states, step_by_step", [
    ([GOOD, LOOSE, ZERO, GOOD], ("refined", 2, 3.0)),
    ([GOOD, ZERO, LOOSE, GOOD], ("raised", 2)),
    ([GOOD, GOOD, GOOD, LOOSE], ("refined", 4, 3.0)),
    ([GOOD, (np.nan,) * 5, GOOD, GOOD], ("raised", 2)),
    ([GOOD, FALLING, LOOSE, GOOD], ("refined", 2, 10.0)),
    ([GOOD] * 4, ("passed", 4, 0.0)),
])
def test_batched_check_takes_first_failing_step(states, step_by_step):
    """The whole check grid, checked at once, ends as checking it a step
    at a time would: the first failing point decides.  A state that is not
    finite or whose rho^2 is not positive raises NonPositiveRho; a
    residual above tol before it marks the points to refine, and the
    points at and after such a state are not marked."""
    points = 2 * len(states)
    assert _outcome(states, range(2, points + 1, 2)) == step_by_step
    at_once = _outcome(states, [points])
    assert at_once[0] == step_by_step[0]
    assert at_once[2:] == step_by_step[2:]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_rho_overflow_mid_batch_raises_at_once():
    """rho^2 = u^2 + v^2 overflows at about t = 134 (u' = 1e152, Om^2 = 0).
    u is linear, so one panel resolves it, and the first check raises
    NonPositiveRho without refining: one read of one panel's nodes."""
    seen = []

    def om(t):
        seen.append(t.size)
        return np.zeros_like(t)

    with pytest.raises(NonPositiveRho):
        solve_ermakov(om, 0.0, 1e4, ic=(1.0, 1e152))
    assert seen == [ORDER]


@pytest.mark.parametrize("omega_sq", [lambda t: -1.0, -1.0], ids=["callable", "constant"])
def test_rho_overflow_late_in_a_long_window_raises_promptly(omega_sq):
    """Om^2 = -1 on [0, 1000]: rho grows like cosh t and its square
    overflows near t = 355, far past the first grid points.  The panel
    solve and the closed form both raise NonPositiveRho, well inside 5 s."""
    t0 = time.perf_counter()
    with pytest.raises(NonPositiveRho):
        solve_ermakov(omega_sq, 0.0, 1000.0)
    assert time.perf_counter() - t0 < 5.0


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


def test_failure_names_the_largest_finite_residual():
    """Om^2 = -2.78 over 259 time units: rho grows like e^431, the Wronskian
    of the failing points overflows to inf or NaN while rho^2 stays finite,
    and the message names the largest finite residual and counts the rest."""
    with pytest.raises(SolverFailure) as exc:
        solve_ermakov(lambda t: -2.78 + 0 * t, 0.0, 259.0, ic=(1.0154, 0.238))
    m = re.fullmatch(r"auxiliary residual (\S+) above tolerance 1\.0e-10 after "
                     r"refinement \((\d+) of (\d+) not finite\)", str(exc.value))
    assert m, str(exc.value)
    assert math.isfinite(float(m[1])) and float(m[1]) > 1e-10
    assert 0 < int(m[2]) < int(m[3])
    # the closed form of the same window names its first failing residual
    with pytest.raises(SolverFailure, match="^auxiliary residual 1.010e-10 above "
                       "tolerance 1.0e-10 in closed form$"):
        solve_ermakov(-2.78, 0.0, 259.0, ic=(1.0154, 0.238))


def test_nan_time_read_rejected():
    sc = load_shipped("caldirola-kanai")
    sols = solve_channels(solve_angle(sc.system), *sc.window)
    for t in (np.nan, [sc.window[0], np.nan]):
        with pytest.raises(DomainError):
            sols[0].rho_drho_phi(t)
    with pytest.raises(DomainError):
        sols[1].rho(np.nan)

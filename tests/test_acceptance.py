"""Acceptance suite: every criterion at its stated tolerance.

Each test measures first, prints one PASS/FAIL line (visible with -s),
then asserts.  Criteria with stated runtime budgets assert those too.
Run:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from oscpair import (
    GaussianState2D,
    build_kernel,
    gaussian_fidelity,
    load_shipped,
    propagate_gaussian,
    schrodinger_residual,
    solve_angle,
    solve_ermakov,
)
from oscpair.comparison import discrepancy_significant, run_comparison
from oscpair.errors import CausticError
from oscpair.oracle import evolve, from_gaussian

from conftest import SHIPPED, const_spec, random_admissible_spec, solve_ermakov_nonlinear
from test_propagator import feynman_ho, free_kernel


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} {status} {name}: {detail} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_static_closed_form():
    t0 = time.perf_counter()
    dec = solve_angle(const_spec(w1=1.0, w2=1.0, lam=0.0))
    T = np.pi / 4
    kern = build_kernel(dec, 0.0, T)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        x1q, x2q, x1p, x2p = rng.normal(size=4)
        ref = feynman_ho(x1q, x1p, 1.0, T) * feynman_ho(x2q, x2p, 1.0, T)
        err = abs(kern.evaluate(x1q, x2q, x1p, x2p) - ref) / abs(ref)
        worst = max(worst, float(err))
    _report(1, "static-limit closed form", worst <= 1e-8,
            f"max rel err {worst:.2e} (tol 1e-8, 50 tuples)",
            time.perf_counter() - t0, 5.0)


def test_criterion_02_free_closed_form():
    t0 = time.perf_counter()
    dec = solve_angle(const_spec(w1=0.0, w2=0.0))
    kern = build_kernel(dec, 0.0, 1.0)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        x1q, x2q, x1p, x2p = rng.normal(size=4)
        ref = free_kernel(x1q, x1p, 1.0) * free_kernel(x2q, x2p, 1.0)
        err = abs(kern.evaluate(x1q, x2q, x1p, x2p) - ref) / abs(ref)
        worst = max(worst, float(err))
    _report(2, "free-limit closed form", worst <= 1e-8,
            f"max rel err {worst:.2e} (tol 1e-8, 20 tuples)",
            time.perf_counter() - t0, 5.0)


def test_criterion_03_ermakov_gauge_invariance():
    t0 = time.perf_counter()
    sc = load_shipped("caldirola-kanai")
    dec = solve_angle(sc.system)
    k1 = build_kernel(dec, *sc.window, ermakov_ic=(1.0, 0.0))
    k2 = build_kernel(dec, *sc.window, ermakov_ic=(2.0, 0.3))
    rng = np.random.default_rng(103)
    pts = rng.normal(size=(50, 4))
    Ka = k1.evaluate(*pts.T)
    Kb = k2.evaluate(*pts.T)
    worst = float(np.max(np.abs(Ka - Kb) / np.abs(Ka)))
    _report(3, "auxiliary-solution gauge invariance", worst <= 1e-8,
            f"max pointwise rel diff {worst:.2e} (tol 1e-8)",
            time.perf_counter() - t0, 10.0)


def test_criterion_04_semigroup():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    g0 = GaussianState2D.coherent(center=(0.4, -0.1), momentum=(0.2, 0.3))
    worst_infid = 0.0
    checked = 0
    while checked < 10:
        spec = random_admissible_spec(rng, drive=bool(checked % 2))
        dec = solve_angle(spec)
        t_end = float(rng.uniform(1.0, 2.0))
        s = float(rng.uniform(0.3, 0.7)) * t_end
        try:
            one = propagate_gaussian(build_kernel(dec, 0.0, t_end), g0)
            two = propagate_gaussian(
                build_kernel(dec, s, t_end),
                propagate_gaussian(build_kernel(dec, 0.0, s), g0))
        except CausticError:
            continue
        worst_infid = max(worst_infid, 1.0 - gaussian_fidelity(one, two))
        checked += 1
    _report(4, "semigroup composition", worst_infid <= 1e-8,
            f"max infidelity {worst_infid:.2e} over 10 scenarios (tol 1e-8)",
            time.perf_counter() - t0, 30.0)


def test_criterion_05_schrodinger_residual_all_scenarios():
    t0 = time.perf_counter()
    worst = {}
    for name in SHIPPED:
        sc = load_shipped(name)
        dec = solve_angle(sc.system, gamma_tol=sc.gamma_tol)
        _, _, res = schrodinger_residual(dec, *sc.window, n_points=20, seed=105,
                                         quad_order=sc.quad_order,
                                         quad_panels=sc.quad_panels,
                                         ode_tol=sc.ode_tol)
        worst[name] = float(np.max(res))
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    top = max(worst, key=worst.get)
    _report(5, "Schrodinger residual on all shipped scenarios", not bad,
            f"worst {worst[top]:.2e} ({top}); tol 1e-4 at 20 points each",
            time.perf_counter() - t0, 60.0)


def test_criterion_06_lw_discrepancy():
    t0 = time.perf_counter()
    sc = load_shipped("caldirola-kanai")
    dec = solve_angle(sc.system)
    rep_c, rep_lw = run_comparison(dec, sc.window, sc.initial_state(),
                                   sc.grid(), 4096, scenario_id=sc.name,
                                   seed=106)
    ratio = rep_lw.max_residual / rep_c.max_residual
    gap_ok = discrepancy_significant(rep_c, rep_lw, noise_factor=10.0)

    agree_worst = 0.0
    rng = np.random.default_rng(106)
    for name in ("static", "static-uncoupled", "free", "driven-static",
                 "pulsed-coupling"):
        s2 = load_shipped(name)
        d2 = solve_angle(s2.system)
        kc = build_kernel(d2, *s2.window, variant="corrected")
        kl = build_kernel(d2, *s2.window, variant="lw")
        pts = rng.normal(size=(20, 4))
        diff = np.max(np.abs(kc.evaluate(*pts.T) - kl.evaluate(*pts.T))
                      / np.abs(kc.evaluate(*pts.T)))
        agree_worst = max(agree_worst, float(diff))

    ok = ratio >= 1e2 and gap_ok and agree_worst <= 1e-10
    _report(6, "defective-variant discrepancy", ok,
            f"residual ratio {ratio:.1e} (>=1e2), fidelity gap "
            f"{rep_c.fidelity_vs_oracle - rep_lw.fidelity_vs_oracle:.2e} "
            f"significant={gap_ok}, constant-mass agreement {agree_worst:.1e} "
            f"(<=1e-10)", time.perf_counter() - t0, 120.0)


def test_criterion_07_oracle_cross_validation():
    t0 = time.perf_counter()
    fids = {}
    for name in ("driven-static", "pulsed-coupling", "caldirola-kanai"):
        sc = load_shipped(name)
        dec = solve_angle(sc.system)
        kern = build_kernel(dec, *sc.window, quad_order=sc.quad_order,
                            quad_panels=sc.quad_panels, ode_tol=sc.ode_tol)
        final = propagate_gaussian(kern, sc.initial_state().normalized())
        grid = sc.grid()
        psi0 = from_gaussian(grid, sc.initial_state().normalized(), sc.window[0])
        psi1 = evolve(sc.system, psi0, *sc.window, sc.grid_steps)
        from oscpair.oracle import fidelity as grid_fid
        fids[name] = grid_fid(psi1, from_gaussian(grid, final, sc.window[1]))
    worst = min(fids.values())
    _report(7, "oracle cross-validation", worst >= 1 - 1e-4,
            f"min fidelity {worst:.10f} over {sorted(fids)} (tol 1-1e-4, "
            f"grid 256^2)", time.perf_counter() - t0, 300.0)


def test_criterion_08_decoupling_angles():
    t0 = time.perf_counter()
    dec = solve_angle(const_spec(w1=1.0, w2=2.0, lam=1.5))
    err_angle = abs(dec.alpha - np.pi / 8)
    sc = load_shipped("equal-effective-frequency")
    dec_eq = solve_angle(sc.system)
    ok = (err_angle <= 1e-10
          and abs(dec_eq.alpha - np.pi / 4) <= 1e-12
          and dec_eq.gamma_max <= 1e-12)
    _report(8, "decoupling angle solver", ok,
            f"pi/8 err {err_angle:.1e} (tol 1e-10); equal-frequency alpha "
            f"{dec_eq.alpha:.12f}, gamma_max {dec_eq.gamma_max:.1e} (tol 1e-12)",
            time.perf_counter() - t0, 5.0)


def test_criterion_09_ermakov_solver():
    t0 = time.perf_counter()
    worst_resid = 0.0
    for name in SHIPPED:
        sc = load_shipped(name)
        dec = solve_angle(sc.system, gamma_tol=sc.gamma_tol)
        ts = np.linspace(*sc.window, 1000)
        for j in (1, 2):
            sol = solve_ermakov(lambda t, j=j: dec.omega_sq(j, t),
                                sc.window[0], sc.window[1], tol=1e-10, channel=j)
            worst_resid = max(worst_resid, float(np.max(sol.residual(ts))))
    om_sq = lambda t: 1.5 + 0.8 * np.cos(1.3 * t)
    a = solve_ermakov(om_sq, 0.0, 6.0, ic=(1.1, -0.2), tol=1e-10)
    b = solve_ermakov_nonlinear(om_sq, 0.0, 6.0, ic=(1.1, -0.2), tol=1e-10)
    ts = np.linspace(0.0, 6.0, 500)
    cross = float(np.max(np.abs(a.rho(ts) - b.rho(ts))))
    ok = worst_resid <= 1e-9 and cross <= 1e-8
    _report(9, "auxiliary-equation solver", ok,
            f"max residual {worst_resid:.2e} (tol 1e-9); Pinney vs direct "
            f"{cross:.2e} (tol 1e-8)", time.perf_counter() - t0, 10.0)


def test_criterion_10_oracle_self_checks():
    t0 = time.perf_counter()
    sc = load_shipped("caldirola-kanai")
    spec = sc.system
    grid = sc.grid(points=128)
    st = from_gaussian(grid, sc.initial_state().normalized(), 0.0)
    out = evolve(spec, st, 0.0, 2.0, 1000)
    drift = abs(out.norm_sq() - st.norm_sq())

    ref = evolve(spec, st, 0.0, 1.0, 2048)
    errs = []
    for n in (128, 256):
        o = evolve(spec, st, 0.0, 1.0, n)
        errs.append(np.sqrt(np.sum(np.abs(o.psi - ref.psi) ** 2) * grid.cell))
    order = float(np.log2(errs[0] / errs[1]))
    ok = drift <= 1e-12 and 1.8 <= order <= 2.2
    _report(10, "oracle self-checks", ok,
            f"norm drift {drift:.2e} per 1e3 steps (tol 1e-12); Richardson "
            f"order {order:.3f} (in [1.8, 2.2])", time.perf_counter() - t0, 60.0)

import dataclasses

import numpy as np
import pytest

from oscpair import (
    CausticError,
    GaussianState2D,
    InadmissibleSystem,
    build_kernel,
    decoupled_at_angle,
    gaussian_fidelity,
    load_shipped,
    overlap,
    propagate_gaussian,
    schrodinger_residual,
    solve_angle,
    solve_channels,
)
from oscpair import propagator
from oscpair.decoupling import DecoupledSystem
from oscpair.propagator import _driving_integrals
from oscpair.ermakov import solve_ermakov

from conftest import ck_spec, const_spec, random_admissible_spec


def feynman_ho(xq, xp, w, T, hbar=1.0, m=1.0):
    """Static-oscillator kernel with the branch continued past caustics."""
    s = np.sin(w * T)
    mu = int(np.floor(w * T / np.pi))
    pref = np.sqrt(m * w / (2 * np.pi * hbar * abs(s))) * np.exp(
        -0.25j * np.pi - 0.5j * np.pi * mu)
    return pref * np.exp(1j * m * w / (2 * hbar * s)
                         * ((xq**2 + xp**2) * np.cos(w * T) - 2 * xq * xp))


def free_kernel(xq, xp, T, hbar=1.0, m=1.0):
    return np.sqrt(m / (2j * np.pi * hbar * T)) * np.exp(
        1j * m * (xq - xp) ** 2 / (2 * hbar * T))


def test_static_kernel_matches_feynman_product():
    dec = solve_angle(const_spec())
    T = np.pi / 4
    kern = build_kernel(dec, 0.0, T)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x1q, x2q, x1p, x2p = rng.normal(size=4)
        K = kern.evaluate(x1q, x2q, x1p, x2p)
        ref = feynman_ho(x1q, x1p, 1.0, T) * feynman_ho(x2q, x2p, 1.0, T)
        assert abs(K - ref) <= 1e-8 * abs(ref)
    # modulus at the origin
    assert abs(kern.evaluate(0, 0, 0, 0)) == pytest.approx(
        1.0 / (2 * np.pi * np.sin(T)), rel=1e-12)
    # equilibrium auxiliary data: rho stays 1, phase advances by T
    for ch in kern.channels:
        assert ch.rho_q == pytest.approx(1.0, rel=1e-11)
        assert ch.drho_q == pytest.approx(0.0, abs=1e-11)
        assert ch.phi == pytest.approx(T, rel=1e-11)


def test_static_kernel_past_caustic():
    # T > pi: one caustic passed per channel, phase -pi/2 each
    dec = solve_angle(const_spec())
    for T in (2.0, 3.5):
        kern = build_kernel(dec, 0.0, T)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x1q, x2q, x1p, x2p = rng.normal(size=4)
            ref = feynman_ho(x1q, x1p, 1.0, T) * feynman_ho(x2q, x2p, 1.0, T)
            assert abs(kern.evaluate(x1q, x2q, x1p, x2p) - ref) <= 1e-8 * abs(ref)
    assert build_kernel(dec, 0.0, 3.5).channels[0].maslov == 1


def test_static_kernel_hbar_not_one():
    hbar, w, T = 0.7, 1.3, 0.9
    dec = solve_angle(const_spec(w1=w, w2=w, hbar=hbar))
    kern = build_kernel(dec, 0.0, T)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x1q, x2q, x1p, x2p = rng.normal(size=4)
        ref = (feynman_ho(x1q, x1p, w, T, hbar=hbar)
               * feynman_ho(x2q, x2p, w, T, hbar=hbar))
        assert abs(kern.evaluate(x1q, x2q, x1p, x2p) - ref) <= 1e-9 * abs(ref)


def _static_normal_modes(spec):
    """(w_j, R) with W = R diag(w_j^2) R^T for unit masses, from numpy's
    eigh of the potential matrix, independent of the decoupling angle."""
    assert spec.m1.value == spec.m2.value == 1.0
    W = np.array([[spec.omega1.value**2, spec.coupling.value],
                  [spec.coupling.value, spec.omega2.value**2]])
    w_sq, R = np.linalg.eigh(W)
    return np.sqrt(w_sq), R


def test_shipped_static_kernel_is_the_mehler_product():
    """Constant coefficients give constant Om_j^2, solved in closed form:
    the coupled static kernel equals the product of the normal modes'
    Mehler kernels to roundoff, and rho and phi their exact Ermakov curves
    (rho^2 = cos^2 + sin^2 / w^2 and phi = atan2(sin / w, cos) of w t
    from rho = 1, rho' = 0)."""
    sc = load_shipped("static")
    w, R = _static_normal_modes(sc.system)
    t0, t1 = sc.window
    T = t1 - t0
    assert np.all(w * T < np.pi)  # no caustic: phi stays on atan2's branch
    dec = solve_angle(sc.system, gamma_tol=sc.gamma_tol)
    kern = build_kernel(dec, t0, t1)
    pts = np.random.default_rng(11).normal(size=(256, 4))
    yq, yp = pts[:, :2] @ R, pts[:, 2:] @ R
    ref = feynman_ho(yq[:, 0], yp[:, 0], w[0], T) * feynman_ho(yq[:, 1], yp[:, 1], w[1], T)
    K = kern.evaluate(*pts.T)
    assert np.max(np.abs(K - ref) / np.abs(ref)) <= 1e-12

    ts = np.linspace(t0, t1, 301)
    for ch in kern.channels:
        om2 = dec.constant_omega_sq(ch.channel)
        wj = w[np.argmin(np.abs(w**2 - om2))]
        theta = wj * (ts - t0)
        rho, _, phi = ch.solution.rho_drho_phi(ts)
        exact_rho = np.sqrt(np.cos(theta) ** 2 + np.sin(theta) ** 2 / wj**2)
        assert np.max(np.abs(rho / exact_rho - 1.0)) <= 1e-14
        assert np.max(np.abs(phi - np.arctan2(np.sin(theta) / wj, np.cos(theta)))) <= 1e-14


def test_free_kernel():
    dec = solve_angle(const_spec(w1=0.0, w2=0.0))
    kern = build_kernel(dec, 0.0, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x1q, x2q, x1p, x2p = rng.normal(size=4)
        ref = free_kernel(x1q, x1p, 1.0) * free_kernel(x2q, x2p, 1.0)
        assert abs(kern.evaluate(x1q, x2q, x1p, x2p) - ref) <= 1e-8 * abs(ref)


def test_kernel_symmetric_in_endpoints_without_driving():
    # time-independent undriven system: K is symmetric under swapping the
    # end and start position pairs
    dec = solve_angle(const_spec(w1=1.0, w2=2.0, lam=1.5))
    kern = build_kernel(dec, 0.0, 1.2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c, d = rng.normal(size=4)
        K1 = kern.evaluate(a, b, c, d)
        K2 = kern.evaluate(c, d, a, b)
        assert abs(K1 - K2) <= 1e-8 * abs(K1)


def test_driving_integrals_zero_without_forcing():
    dec = solve_angle(ck_spec())
    kern = build_kernel(dec, 0.0, 2.0)
    for ch in kern.channels:
        assert ch.I_end == 0.0
        assert ch.I_start == 0.0
        assert ch.D == 0.0


def test_driving_integrals_constant_force():
    # Omega = 1, rho = 1, F = F0: closed forms (verified against dblquad)
    #   I'' = I' = F0 (1 - cos T),  D = F0^2 (1 - cos T - (T/2) sin T)
    F0, T = 0.7, 1.3
    sol = solve_ermakov(lambda t: 1.0, 0.0, T, ic=(1.0, 0.0), tol=1e-12)
    I_end, I_start, D = _driving_integrals(sol, lambda t: F0 * np.ones_like(t),
                                           0.0, T, panels=64, order=8)
    assert I_end == pytest.approx(F0 * (1 - np.cos(T)), abs=1e-10)
    assert I_start == pytest.approx(F0 * (1 - np.cos(T)), abs=1e-10)
    assert D == pytest.approx(F0**2 * (1 - np.cos(T) - T / 2 * np.sin(T)), abs=1e-10)


def test_injected_solve_starting_before_window():
    """Driving phases are measured from t_start, not from the solve's start."""
    dec = solve_angle(load_shipped("driven-static").system)
    t_start, t_end = 0.4, 1.1
    injected = build_kernel(dec, t_start, t_end,
                            solutions=solve_channels(dec, 0.0, t_end, ode_tol=1e-12))
    fresh = build_kernel(dec, t_start, t_end, ode_tol=1e-12)
    assert any(ch.I_end != 0.0 for ch in fresh.channels)
    pts = np.random.default_rng(41).normal(size=(32, 4))
    a = injected.evaluate(*pts.T)
    b = fresh.evaluate(*pts.T)
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-10


def test_driving_integrals_panel_refinement():
    sc = ck_spec()
    spec = const_spec(w1=1.0, w2=2.0, lam=1.5, f1=0.4)
    dec = solve_angle(spec)
    k32 = build_kernel(dec, 0.0, 1.2, quad_panels=32)
    k64 = build_kernel(dec, 0.0, 1.2, quad_panels=64)
    for a, b in zip(k32.channels, k64.channels):
        assert a.I_end == pytest.approx(b.I_end, abs=1e-12)
        assert a.D == pytest.approx(b.D, abs=1e-12)


def test_caustic_error():
    dec = solve_angle(const_spec())
    with pytest.raises(CausticError) as exc:
        build_kernel(dec, 0.0, np.pi)
    assert exc.value.channel in (1, 2)
    assert exc.value.nearest_caustic == pytest.approx(np.pi, abs=1e-6)


def test_corrected_variant_requires_admissible():
    spec = const_spec(w1=1.0, w2=2.0, lam=1.5)
    dec = decoupled_at_angle(spec, 0.05)  # wrong angle on purpose
    with pytest.raises(InadmissibleSystem):
        build_kernel(dec, 0.0, 1.0)
    # the lw variant builds anyway (it exists to quantify the defect)
    build_kernel(dec, 0.0, 1.0, variant="lw")


def test_gauge_invariance():
    """The kernel must not depend on the auxiliary initial condition."""
    dec = solve_angle(ck_spec())
    k1 = build_kernel(dec, 0.0, 2.0, ermakov_ic=(1.0, 0.0))
    k2 = build_kernel(dec, 0.0, 2.0, ermakov_ic=(2.0, 0.3))
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(50, 4))
    Ka = k1.evaluate(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    Kb = k2.evaluate(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    assert np.max(np.abs(Ka - Kb) / np.abs(Ka)) <= 1e-8


def test_gauge_invariance_with_driving():
    spec = const_spec(w1=1.0, w2=2.0, lam=1.5, f1=0.4, f2=-0.2)
    dec = solve_angle(spec)
    k1 = build_kernel(dec, 0.0, 1.2, ermakov_ic=(1.0, 0.0))
    k2 = build_kernel(dec, 0.0, 1.2, ermakov_ic=(0.7, -0.2))
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 4))
    Ka = k1.evaluate(*pts.T)
    Kb = k2.evaluate(*pts.T)
    assert np.max(np.abs(Ka - Kb) / np.abs(Ka)) <= 1e-8


def test_variants_identical_for_constant_mass():
    for spec in (const_spec(w1=1.0, w2=2.0, lam=1.5, f1=0.3),
                 const_spec(w1=0.0, w2=0.0)):
        dec = solve_angle(spec)
        kc = build_kernel(dec, 0.0, 1.2, variant="corrected")
        kl = build_kernel(dec, 0.0, 1.2, variant="lw")
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(20, 4))
        Kc = kc.evaluate(*pts.T)
        Kl = kl.evaluate(*pts.T)
        assert np.max(np.abs(Kc - Kl) / np.abs(Kc)) <= 1e-10


def test_propagate_gaussian_norm_and_moments():
    dec = solve_angle(ck_spec())
    kern = build_kernel(dec, 0.0, 2.0)
    g0 = GaussianState2D.coherent(center=(0.5, -0.3), momentum=(0.2, 0.1)).normalized()
    g1 = propagate_gaussian(kern, g0)
    assert g1.norm() == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.isfinite(g1.mean_position()))


def test_coherent_state_periodicity():
    # matched-width coherent state returns to itself after one period
    dec = solve_angle(const_spec())
    g0 = GaussianState2D.coherent(center=(0.3, -0.2), momentum=(0.1, 0.4),
                                  sigma=(np.sqrt(0.5),) * 2)
    ka = build_kernel(dec, 0.0, 2.5)
    kb = build_kernel(dec, 2.5, 2 * np.pi)
    g1 = propagate_gaussian(kb, propagate_gaussian(ka, g0))
    assert gaussian_fidelity(g0, g1) >= 1 - 1e-8
    # the accumulated phase is exp(-i E0 T / hbar) with E0 = hbar * w: unity
    ov = overlap(g0.normalized(), g1.normalized())
    assert np.angle(ov) == pytest.approx(0.0, abs=1e-8)


def test_free_gaussian_spreading():
    dec = solve_angle(const_spec(w1=0.0, w2=0.0))
    T, s0 = 1.7, 0.6
    kern = build_kernel(dec, 0.0, T)
    g1 = propagate_gaussian(kern, GaussianState2D.coherent(sigma=(s0, s0)))
    expected = s0**2 * (1 + (T / (2 * s0**2)) ** 2)
    assert np.diag(g1.covariance_position()) == pytest.approx(expected, rel=1e-8)


def test_driven_center_follows_classical_path():
    eps, w, T = 0.25, 1.0, 2.1
    dec = solve_angle(const_spec(w1=w, w2=w, f1=eps))
    kern = build_kernel(dec, 0.0, T)
    g1 = propagate_gaussian(kern, GaussianState2D.coherent(sigma=(np.sqrt(0.5),) * 2))
    xc = eps / w**2 * (1 - np.cos(w * T))
    pc = eps / w * np.sin(w * T)
    assert g1.mean_position()[0] == pytest.approx(xc, abs=1e-6)
    assert g1.mean_position()[1] == pytest.approx(0.0, abs=1e-12)
    assert g1.mean_momentum()[0] == pytest.approx(pc, abs=1e-6)


def test_semigroup_property():
    rng = np.random.default_rng(11)
    g0 = GaussianState2D.coherent(center=(0.4, -0.1), momentum=(0.2, 0.3))
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
        assert gaussian_fidelity(one, two) >= 1 - 1e-8
        assert np.max(np.abs(one.A - two.A)) <= 1e-7
        assert np.max(np.abs(one.b - two.b)) <= 1e-7
        checked += 1


def test_kernels_from_one_solve_compose():
    """Kernels on [0, s] and [s, t] cut from one window solve compose exactly."""
    rng = np.random.default_rng(12)
    g0 = GaussianState2D.coherent(center=(0.4, -0.1), momentum=(0.2, 0.3))
    checked = 0
    while checked < 10:
        spec = random_admissible_spec(rng, drive=bool(checked % 2))
        dec = solve_angle(spec)
        t_end = float(rng.uniform(1.0, 2.0))
        s = float(rng.uniform(0.3, 0.7)) * t_end
        sols = solve_channels(dec, 0.0, t_end)
        try:
            one = propagate_gaussian(build_kernel(dec, 0.0, t_end, solutions=sols), g0)
            two = propagate_gaussian(
                build_kernel(dec, s, t_end, solutions=sols),
                propagate_gaussian(build_kernel(dec, 0.0, s, solutions=sols), g0))
        except CausticError:
            continue
        assert np.max(np.abs(one.A - two.A)) <= 1e-12
        assert np.max(np.abs(one.b - two.b)) <= 1e-12
        checked += 1


def test_schrodinger_residual_corrected_vs_lw():
    dec = solve_angle(ck_spec())
    _, _, res_c = schrodinger_residual(dec, 0.0, 2.0, n_points=6, seed=3)
    _, _, res_lw = schrodinger_residual(dec, 0.0, 2.0, n_points=6, seed=3,
                                        variant="lw")
    assert np.max(res_c) <= 1e-4
    assert np.max(res_lw) >= 1e2 * np.max(res_c)


def test_kernel_vectorized_evaluation():
    dec = solve_angle(const_spec())
    kern = build_kernel(dec, 0.0, 1.0)
    xs = np.linspace(-1, 1, 5)
    vals = kern.evaluate(xs, 0.0, 0.0, 0.0)
    assert vals.shape == (5,)
    assert vals[2] == pytest.approx(kern.evaluate(0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("name, limit", [("driven-static", 4), ("static", 2)])
def test_kernel_reads_each_solution_once_per_node_set(name, limit):
    """Endpoints, composite nodes and partial nodes: one dense-output read each."""
    sc = load_shipped(name)
    dec = solve_angle(sc.system)
    calls = {1: 0, 2: 0}

    def counted(sol):
        def read(t):
            calls[sol.channel] += 1
            return sol._sol(t)
        return dataclasses.replace(sol, _sol=read)

    sols = tuple(counted(s) for s in solve_channels(dec, *sc.window))
    kern = build_kernel(dec, *sc.window, solutions=sols)
    driven = name == "driven-static"
    assert all((ch.I_end != 0.0) == driven for ch in kern.channels)
    assert all(0 < n <= limit for n in calls.values()), calls


@pytest.mark.parametrize("name", ["static", "driven-static"])
def test_undriven_kernel_reads_no_drive_and_builds_no_nodes(name, monkeypatch):
    sc = load_shipped(name)
    calls = {"nodes": 0, "driving": 0}
    nodes, driving = propagator.composite_gl_nodes, DecoupledSystem.driving

    def counted_nodes(*args):
        calls["nodes"] += 1
        return nodes(*args)

    def counted_driving(self, j, t):
        calls["driving"] += 1
        return driving(self, j, t)

    monkeypatch.setattr(propagator, "composite_gl_nodes", counted_nodes)
    monkeypatch.setattr(DecoupledSystem, "driving", counted_driving)
    dec = solve_angle(sc.system)
    sols = solve_channels(dec, *sc.window)
    kern = build_kernel(dec, *sc.window, solutions=sols)
    if name == "static":
        assert dec.undriven
        assert calls == {"nodes": 0, "driving": 0}
    else:
        assert not dec.undriven
        assert calls["nodes"] == 2 and calls["driving"] >= 4
    monkeypatch.setattr(DecoupledSystem, "undriven", False)
    full = build_kernel(solve_angle(sc.system), *sc.window, solutions=sols)
    for a, b in ((kern.c0, full.c0), (kern.L, full.L), (kern.M, full.M)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("name", ["caldirola-kanai", "driven-static"])
def test_build_kernel_reads_masses_unchecked(name, monkeypatch):
    """build_kernel checks its window once; m_j and mdot_j at the endpoints
    are then read without the checked ``SystemSpec.mass`` and ``mass_deriv``."""
    sc = load_shipped(name)
    dec = solve_angle(sc.system)
    for attr in ("mass", "mass_deriv"):
        monkeypatch.setattr(type(sc.system), attr,
                            lambda *args: pytest.fail("checked mass read"))
    for variant in ("corrected", "lw"):
        sols = solve_channels(dec, *sc.window, variant=variant)
        build_kernel(dec, *sc.window, variant=variant, solutions=sols)

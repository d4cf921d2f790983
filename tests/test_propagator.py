import dataclasses
import inspect
import math

import numpy as np
import pytest

from oscpair import (
    CausticError,
    GaussianState2D,
    InadmissibleSystem,
    build_kernel,
    build_kernels,
    decoupled_at_angle,
    evolve_gaussian,
    gaussian_fidelity,
    load_shipped,
    overlap,
    propagate_gaussian,
    schrodinger_residual,
    solve_angle,
    solve_channels,
)
import oscpair.decoupling
from oscpair import propagator
from oscpair.decoupling import DecoupledSystem
from oscpair.errors import NonConvergentGaussian
from oscpair.ermakov import ErmakovSolution
from oscpair.system import potential as spec_potential

from conftest import (SHIPPED, ck_spec, const_spec, random_admissible_spec,
                      reference_completion)


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
    assert kern.rho_q.shape == kern.drho_q.shape == kern.phi.shape == (2,)
    assert kern.rho_q == pytest.approx(1.0, rel=1e-11)
    assert kern.drho_q == pytest.approx(0.0, abs=1e-11)
    assert kern.phi == pytest.approx(T, rel=1e-11)


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
    assert build_kernel(dec, 0.0, 3.5).maslov[0] == 1


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
    for sol in kern.solutions:
        om2 = dec.constant_omega_sq(sol.channel)
        wj = w[np.argmin(np.abs(w**2 - om2))]
        theta = wj * (ts - t0)
        rho, _, phi = sol.rho_drho_phi(ts)
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
    assert np.all(kern.I_end == 0.0)
    assert np.all(kern.I_start == 0.0)
    assert np.all(kern.D == 0.0)


def test_driving_integrals_constant_force():
    # Omega = 1, rho = 1, F = F0: closed forms (verified against dblquad)
    #   I'' = I' = F0 (1 - cos T),  D = F0^2 (1 - cos T - (T/2) sin T)
    F0, T = 0.7, 1.3
    dec = solve_angle(const_spec(w2=2.0, f1=F0))
    kern = build_kernel(dec, 0.0, T, ode_tol=1e-12)
    assert dec.alpha == 0.0 and kern.rho_q[0] == pytest.approx(1.0, abs=1e-12)
    I_end, I_start, D = kern.I_end[0], kern.I_start[0], kern.D[0]
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
    assert np.any(fresh.I_end != 0.0)
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
    assert k32.I_end == pytest.approx(k64.I_end, abs=1e-12)
    assert k32.D == pytest.approx(k64.D, abs=1e-12)


def test_caustic_error():
    dec = solve_angle(const_spec())
    with pytest.raises(CausticError) as exc:
        build_kernel(dec, 0.0, np.pi)
    assert exc.value.channel in (1, 2)
    assert exc.value.nearest_caustic == pytest.approx(np.pi, abs=1e-6)


@pytest.mark.parametrize("w2, t_ends, first, channel", [
    (1.0, [1.0, 2.0, np.pi, 4.0], 2, 1),
    (2.0, [1.0, np.pi / 2, np.pi, 4.0], 1, 2),
])
def test_family_raises_the_caustic_error_of_its_first_caustic_window(w2, t_ends, first,
                                                                     channel):
    """Windows before, at and past the first caustic, pi / w_j: the family
    raises what its first caustic window raises alone, channel 1 before
    channel 2 (both meet a caustic at pi when w2 = 2)."""
    dec = solve_angle(const_spec(w2=w2))
    sols = solve_channels(dec, 0.0, 4.0)
    with pytest.raises(CausticError) as family:
        build_kernels(dec, 0.0, t_ends, sols)
    with pytest.raises(CausticError) as alone:
        build_kernel(dec, 0.0, t_ends[first], solutions=sols)
    assert family.value.channel == alone.value.channel == channel
    assert family.value.sin_phi == alone.value.sin_phi
    assert family.value.nearest_caustic == alone.value.nearest_caustic
    assert family.value.nearest_caustic == pytest.approx(np.pi / w2, abs=1e-9)


@pytest.mark.parametrize("t_end", [0.5, 1.0, np.nan, None])
def test_family_rejects_windows_that_do_not_end_after_they_start(t_end):
    """A window that does not end after it starts, or no window at all
    (None), is rejected before any array is assembled."""
    dec = solve_angle(const_spec())
    sols = solve_channels(dec, 0.0, 2.0)
    if t_end is None:
        ends, match = [], "no windows: t_start and t_end are empty"
    else:
        ends, match = [1.5, t_end], "t_end must exceed t_start"
    with pytest.raises(ValueError, match=match):
        build_kernels(dec, 1.0, ends, sols)


def _family_cases():
    """(name, decoupled, window) of the shipped scenarios and of 8 seeded
    driven random admissible systems."""
    for name in SHIPPED:
        sc = load_shipped(name)
        yield name, solve_angle(sc.system, gamma_tol=sc.gamma_tol), sc.window
    rng = np.random.default_rng(19)
    for case in range(8):
        spec = random_admissible_spec(rng, drive=True)
        t_start = float(rng.uniform(0.0, 2.0))
        yield f"random-{case}", solve_angle(spec), (
            t_start, t_start + float(rng.uniform(0.5, 3.5)))


@pytest.mark.parametrize("variant", ["corrected", "lw"])
def test_family_kernels_equal_their_one_window_kernels(variant):
    """Every interval of a 64-step grid, built in one kernel, is the kernel
    ``build_kernel`` builds for it alone from the same solve: c0, L and M
    within 1e-12 scaled, the Maslov counts exactly.  ``log_evaluate`` at
    seeded points broadcast against the 64 windows is c0 + L.q + q.M.q/2
    of each window."""
    pts = np.random.default_rng(23).normal(size=(16, 1, 4))
    for name, dec, window in _family_cases():
        sols = solve_channels(dec, *window, variant=variant)
        times = np.linspace(*window, 65)
        family = build_kernels(dec, times[:-1], times[1:], sols, variant)
        assert family.c0.shape == (64,)
        logs = family.log_evaluate(*pts.T[..., 0, :, None])
        assert logs.shape == (16, 64)
        q = pts[:, 0]
        for i, (t_start, t_end) in enumerate(zip(times[:-1], times[1:])):
            one = build_kernel(dec, t_start, t_end, variant=variant, solutions=sols)
            assert one.c0.shape == () and one.maslov.shape == (2,)
            assert (family.t_start[i], family.t_end[i]) == (one.t_start, one.t_end)
            c0, L, M = family.c0[i], family.L[i], family.M[i]
            for got, want in ((c0, one.c0), (L, one.L), (M, one.M)):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (name, t_end)
            assert family.maslov[:, i].tolist() == one.maslov.tolist(), (name, t_end)
            want = c0 + q @ L + 0.5 * np.einsum("pi,ij,pj->p", q, M, q)
            assert np.max(np.abs(logs[:, i] - want)) <= 1e-13 * max(
                1.0, float(np.max(np.abs(want)))), (name, t_end)


def test_family_arrays_and_indexing():
    """A (3, 2) kernel: window arrays in the broadcast shape of the ends,
    per-channel values behind a channel axis, and its windows in C order
    those of a flat kernel of the same windows, bit for bit."""
    sc = load_shipped("driven-static")
    dec = solve_angle(sc.system)
    sols = solve_channels(dec, *sc.window)
    t_start = np.array([[0.0], [0.1], [0.2]])
    t_end = np.array([0.6, 0.9])
    family = build_kernels(dec, t_start, t_end, sols)
    assert family.t_start.shape == family.t_end.shape == family.c0.shape == (3, 2)
    assert family.L.shape == (3, 2, 4) and family.M.shape == (3, 2, 4, 4)
    for v in (family.rho_q, family.drho_q, family.phi, family.maslov, family.I_end,
              family.I_start, family.D):
        assert v.shape == (2, 3, 2)
    flat = build_kernels(dec, np.repeat(t_start.ravel(), 2), np.tile(t_end, 3), sols)
    assert family.t_start[-1, -1] == 0.2 and family.t_end[-1, -1] == 0.9
    assert family.solutions is flat.solutions is sols
    for name in ("t_start", "t_end", "c0", "L", "M",
                 "rho_q", "drho_q", "phi", "maslov", "I_end", "I_start", "D"):
        got, want = getattr(family, name), getattr(flat, name)
        assert got.reshape(want.shape).tobytes() == want.tobytes(), name
    with pytest.raises(ValueError, match="the kernel of one window"):
        propagate_gaussian(family, GaussianState2D.coherent())


def test_kernels_and_families_compare_and_hash_by_identity():
    dec = solve_angle(ck_spec())
    sols = solve_channels(dec, 0.0, 1.0)
    family = build_kernels(dec, np.array([0.0, 0.5]), np.array([0.5, 1.0]), sols)
    a, b = (build_kernel(dec, 0.0, 0.5, solutions=sols) for _ in range(2))
    twin = dataclasses.replace(family)
    assert a == a and a != b and family == family and family != twin
    assert len({a, b, family, twin}) == 4
    assert dataclasses.replace(a, c0=0j).c0 == 0j


def test_benchmark_kernel_contract():
    """What the benchmark uses of the kernel (``perfbench/workloads.py`` and
    ``perfbench/spans.py``): ``build_kernel(...).log_evaluate(*points.T)``,
    a ``dataclasses.replace`` of c0, L and M passed to ``propagate_gaussian``,
    and ``Kernel.evaluate`` on four coordinates, which the traced run wraps
    once, through the one name in ``propagator.__all__`` bound to the class."""
    sc = load_shipped("driven-static")
    kern = build_kernel(solve_angle(sc.system, gamma_tol=sc.gamma_tol), *sc.window)
    pts = np.random.default_rng(37).normal(size=(64, 4))
    log_k = kern.log_evaluate(*pts.T)
    assert log_k.shape == (64,)
    assert np.array_equal(np.exp(log_k), kern.evaluate(*pts.T))
    fitted = dataclasses.replace(kern, c0=complex(kern.c0), L=kern.L.copy(), M=kern.M.copy())
    g = propagate_gaussian(fitted, sc.initial_state().normalized())
    assert abs(g.norm() - 1.0) <= 1e-9
    assert "Kernel" in propagator.__all__
    assert propagator.Kernel.__module__ == "oscpair.propagator"
    evaluate = vars(propagator.Kernel)["evaluate"]
    assert inspect.isfunction(evaluate)
    assert list(inspect.signature(evaluate).parameters) == ["self", "x1q", "x2q", "x1p", "x2p"]
    assert [name for name in propagator.__all__
            if getattr(propagator, name) is propagator.Kernel] == ["Kernel"]


def _reference_propagate(c0, L, M, A, b, c):
    """(A, b, c) carried by the kernel (c0, L, M), the square completed on
    the former route."""
    S_inv, mu, log_I = reference_completion(A - M[2:, 2:], b + L[2:])
    M_es = M[:2, 2:]
    A_new = -(M[:2, :2] + M_es @ S_inv @ M_es.T)
    return 0.5 * (A_new + A_new.T), L[:2] + M_es @ mu, c0 + c + log_I


def _evolve_cases():
    """(name, decoupled, initial state, times) of the shipped scenarios and of
    2 seeded driven random admissible systems, 64 intervals each."""
    for name in SHIPPED:
        sc = load_shipped(name)
        yield (name, solve_angle(sc.system, gamma_tol=sc.gamma_tol), sc.initial_state(),
               np.linspace(*sc.window, 65))
    rng = np.random.default_rng(31)
    for case in range(2):
        spec = random_admissible_spec(rng, drive=True)
        g0 = GaussianState2D.coherent(center=rng.normal(size=2), momentum=rng.normal(size=2),
                                      hbar=spec.hbar)
        yield (f"random-{case}", solve_angle(spec), g0,
               np.linspace(0.0, float(rng.uniform(1.5, 3.0)), 65))


def test_evolve_gaussian_matches_the_linalg_chain():
    """Every state of ``evolve_gaussian`` is that of the former chain, one
    interval's c0, L and M at a time through ``np.linalg``: A, b and c
    within 1e-12, scaled by max(1, |.|).  The worst is 2.4e-13
    (static-uncoupled)."""
    for name, dec, g0, times in _evolve_cases():
        states = evolve_gaussian(dec, g0, times)
        family = build_kernels(dec, times[:-1], times[1:], solve_channels(dec, *times[[0, -1]]))
        want = (g0.A, g0.b, g0.c)
        assert states[0] is g0 and len(states) == 65
        for i, st in enumerate(states[1:]):
            want = _reference_propagate(family.c0[i], family.L[i], family.M[i], *want)
            for got, w in zip((st.A, st.b, st.c), want):
                scale = max(1.0, float(np.max(np.abs(w))))
                assert np.max(np.abs(got - w)) <= 1e-12 * scale, (name, i)


def test_propagation_error_keeps_its_type_and_message():
    dec = solve_angle(const_spec())
    kern = build_kernel(dec, 0.0, 1.0)
    M = kern.M.copy()
    M[2:, 2:] += 3.0 * np.eye(2)  # S = A - M_ss loses its positive real part
    with pytest.raises(NonConvergentGaussian, match="^real part of the propagation "
                       "quadratic form is not positive definite$"):
        propagate_gaussian(dataclasses.replace(kern, M=M), GaussianState2D.coherent())


def _loop_residual(dec, t_start, t_end, variant, n_points=20, seed=0):
    """The per-sample residual loop, one sample at a time, each value read
    from ``Kernel.evaluate`` of its point against all stencil windows: a
    reference for ``schrodinger_residual``."""
    spec, hbar = dec.system, dec.system.hbar
    times, points, sols, s_mins = propagator._sample_points(
        dec, t_start, t_end, n_points, seed, variant, propagator.DEFAULT_ODE_TOL)
    T = t_end - t_start
    h_x = 2.5e-3 * math.sqrt(hbar)
    h_ts = [min(1e-3 * T, 0.2 * (t_end - tc), 0.2 * (tc - t_start))
            * min(1.0, max(s_min**2, 0.02)) for tc, s_min in zip(times, s_mins)]
    family = build_kernels(dec, t_start, np.array(times)[:, None]
                           + np.array(h_ts)[:, None] * propagator._STENCIL, sols, variant)
    residuals = []
    for i, (tc, (x1q, x2q, x1p, x2p), h_t) in enumerate(zip(times, points, h_ts)):
        K = list(family.evaluate(x1q, x2q, x1p, x2p)[i])
        K0 = K[3]
        levels = []
        for ht, hx, (K_m2, K_m1, K_p1, K_p2) in ((h_t, h_x, K[:2] + K[5:]),
                                                  (h_t / 2, h_x / 2, K[1:3] + K[4:6])):
            dKdt = (K_m2 - 8 * K_m1 + 8 * K_p1 - K_p2) / (12 * ht)
            shifts = np.array([-2, -1, 0, 1, 2]) * hx
            lap = 0.0
            moved = shifts[:, None, None]  # by (shift, point, window)
            for m_j, K_j in ((spec.m1(tc), family.evaluate(x1q + moved, x2q, x1p, x2p)),
                             (spec.m2(tc), family.evaluate(x1q, x2q + moved, x1p, x2p))):
                v = K_j[:, i, 3]  # the kernel at tc
                d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * hx**2)
                lap += -hbar**2 / (2.0 * m_j) * d2
            VK = spec_potential(spec, x1q, x2q, tc) * K0
            lhs = 1j * hbar * dKdt
            scale = max(abs(lhs), abs(lap), abs(VK), hbar / T * abs(K0), 1e-300)
            levels.append(abs(lhs - lap - VK) / scale)
        residuals.append(min(levels))
    return np.array(times), np.array(residuals)


def _residual_cases():
    """(name, decoupled, window, bound) of the shipped scenarios and of 2
    seeded driven random admissible systems.  Both residuals are finite
    differences of kernels that differ in the last bits of log K; divided
    by steps down to 1e-5 T, those bits leave a noise of about 1e-10 (the
    corrected residual's floor, up to 2e-9): within 3e-11 on the shipped
    windows, up to 3.1e-10 on 60 random driven cases."""
    for name in SHIPPED:
        sc = load_shipped(name)
        yield name, solve_angle(sc.system, gamma_tol=sc.gamma_tol), sc.window, 1e-10
    rng = np.random.default_rng(29)
    for case in range(2):
        yield f"random-{case}", solve_angle(random_admissible_spec(rng, drive=True)), (
            0.0, float(rng.uniform(1.5, 3.0))), 1e-9


@pytest.mark.parametrize("variant", ["corrected", "lw"])
def test_residual_matches_the_per_sample_loop(variant):
    for name, dec, window, bound in _residual_cases():
        times, _, got = schrodinger_residual(dec, *window, variant=variant)
        want_times, want = _loop_residual(dec, *window, variant)
        assert np.array_equal(times, want_times), name
        assert np.max(np.abs(got - want)) <= bound, name


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
    assert np.all((kern.I_end != 0.0) == driven)
    assert all(0 < n <= limit for n in calls.values()), calls


@pytest.mark.parametrize("name", ["static", "driven-static"])
def test_undriven_kernel_reads_no_drive_and_builds_no_nodes(name, monkeypatch):
    """A driven kernel, or family of kernels, builds one composite node set
    and reads F_1 and F_2 there in one ``channel_forces`` call, with no
    ``channel_quantities`` call; an undriven one does neither.  Both read
    each channel's dense output once."""
    sc = load_shipped(name)
    dec = solve_angle(sc.system)
    calls = {"nodes": 0, "forces": 0, "quantities": 0, 1: 0, 2: 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    sols = tuple(dataclasses.replace(s, _sol=counted(s.channel, s._sol))
                 for s in solve_channels(dec, *sc.window))
    monkeypatch.setattr(propagator, "composite_gl_nodes",
                        counted("nodes", propagator.composite_gl_nodes))
    monkeypatch.setattr(propagator, "channel_forces",
                        counted("forces", propagator.channel_forces))
    monkeypatch.setattr(oscpair.decoupling, "channel_quantities",
                        counted("quantities", oscpair.decoupling.channel_quantities))
    kern = build_kernel(dec, *sc.window, solutions=sols)
    driven = name == "driven-static"
    assert dec.undriven != driven
    assert np.all((kern.I_end != 0.0) == driven)
    assert calls == {"nodes": int(driven), "forces": int(driven), "quantities": 0,
                     1: 1, 2: 1}
    # a family of 64 windows makes the same calls
    calls.update(dict.fromkeys(calls, 0))
    times = np.linspace(*sc.window, 65)
    assert build_kernels(dec, times[:-1], times[1:], sols).c0.shape == (64,)
    assert calls == {"nodes": int(driven), "forces": int(driven), "quantities": 0,
                     1: 1, 2: 1}
    monkeypatch.setattr(DecoupledSystem, "undriven", False)
    full = build_kernel(solve_angle(sc.system), *sc.window, solutions=sols)
    for a, b in ((kern.c0, full.c0), (kern.L, full.L), (kern.M, full.M)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_residual_sample_points_read_phi_once_per_channel(monkeypatch):
    """The 8 n_points candidate times are screened for caustics by one phi
    read per channel, and the times kept are those that a screen of scalar
    reads keeps.  ``schrodinger_residual`` reads phi only there."""
    sc = load_shipped("caldirola-kanai")
    dec = solve_angle(sc.system)
    calls = {1: 0, 2: 0}
    solve = propagator.solve_channels

    def counted(sol):
        def read(t):
            calls[sol.channel] += 1
            return sol._sol(t)
        return dataclasses.replace(sol, _sol=read)

    monkeypatch.setattr(propagator, "solve_channels",
                        lambda *args, **kwargs: tuple(map(counted, solve(*args, **kwargs))))
    times, _, sols = propagator.residual_sample_points(dec, *sc.window, n_points=20)
    assert calls == {1: 1, 2: 1}
    # the residual check reuses those phi values: no further phi read
    phi_reads = []
    phi = ErmakovSolution.phi
    monkeypatch.setattr(ErmakovSolution, "phi",
                        lambda self, t: phi_reads.append(np.shape(t)) or phi(self, t))
    propagator.schrodinger_residual(dec, *sc.window, n_points=4)
    assert phi_reads == [(32,), (32,)]
    t0, t1 = sc.window
    candidates = np.linspace(t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0), 160)
    ok = [t for t in candidates
          if all(abs(math.sin(float(s.phi(t)))) > 0.15 for s in sols)]
    assert 20 < len(ok) < 160
    assert times == [ok[i] for i in np.linspace(0, len(ok) - 1, 20).astype(int)]


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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from oscpair import (
    CanonicalTransform,
    PhasePoint,
    SystemSpec,
    TransformedPhasePoint,
    channel_quantities,
    decoupled_at_angle,
    effective_frequency_sq,
    load_shipped,
    normalize_angle,
    solve_angle,
)
from oscpair.coefficients import (
    Coefficient, Constant, Exponential, Polynomial, Power, Sinusoidal, Spline,
)
from oscpair.decoupling import DEFAULT_GAMMA_TOL, _channel_terms, _grid, _nearest_edge
from oscpair.ermakov import ORDER
from oscpair.errors import DomainError
from oscpair.propagator import build_kernels, solve_channels
from oscpair.quadrature import _gauss_legendre

from conftest import SHIPPED, ck_spec, const_spec, random_admissible_spec


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert normalize_angle(np.pi / 3) == pytest.approx(np.pi / 3 - np.pi / 2)
    assert normalize_angle(np.pi / 4) == pytest.approx(np.pi / 4)
    # the open end maps to the closed end
    assert normalize_angle(-np.pi / 4) == pytest.approx(np.pi / 4)


def test_identity_transform():
    ct = CanonicalTransform(const_spec(), 0.0)
    pt = PhasePoint(0.3, -1.1, 0.8, 0.2)
    out = ct.to_rotated(pt, 1.0)
    assert (out.Q1, out.Q2, out.P1, out.P2) == pytest.approx(
        (pt.x1, pt.x2, pt.p1, pt.p2))


def test_rotation_values():
    # alpha = pi/6, m1 = 4: x1 = Q1 cos(pi/6) / 2 for Q = (1, 0)
    spec = const_spec(m1=4.0)
    ct = CanonicalTransform(spec, np.pi / 6)
    pt = ct.from_rotated(TransformedPhasePoint(1.0, 0.0, 0.0, 0.0), 0.5)
    assert pt.x1 == pytest.approx(np.cos(np.pi / 6) / 2, rel=1e-14)
    assert pt.x2 == pytest.approx(-np.sin(np.pi / 6), rel=1e-14)


def test_momentum_gauge_term():
    # time-dependent mass shifts the momentum: P1 = gamma/2 at t=0 for
    # x1 = 1, p1 = 0, alpha = 0
    gamma = 0.6
    spec = SystemSpec(m1=Exponential(1.0, gamma), m2=Constant(1.0),
                      omega1=Constant(1.0), omega2=Constant(1.0),
                      f1=Constant(0.0), f2=Constant(0.0), coupling=Constant(0.0),
                      t_min=0.0, t_max=4.0)
    ct = CanonicalTransform(spec, 0.0)
    out = ct.to_rotated(PhasePoint(1.0, 0.0, 0.0, 0.0), 0.0)
    assert out.P1 == pytest.approx(gamma / 2, rel=1e-14)


def test_round_trip():
    rng = np.random.default_rng(4)
    spec = ck_spec()
    ct = CanonicalTransform(spec, 0.31)
    for _ in range(100):
        pt = PhasePoint(*rng.normal(size=4))
        t = float(rng.uniform(0, 4))
        back = ct.from_rotated(ct.to_rotated(pt, t), t)
        for name in ("x1", "x2", "p1", "p2"):
            assert getattr(back, name) == pytest.approx(getattr(pt, name), abs=1e-12)


def test_channel_quantities_no_rotation():
    spec = ck_spec(lam0=0.7)
    ts = np.linspace(0.1, 3.9, 9)
    om1, om2, F1, F2, gam = channel_quantities(spec, 0.0, ts)
    assert np.allclose(om1, effective_frequency_sq(spec, 1, ts), rtol=1e-14)
    assert np.allclose(om2, effective_frequency_sq(spec, 2, ts), rtol=1e-14)
    assert np.allclose(gam, spec.coupling(ts) / np.sqrt(spec.m1(ts) * spec.m2(ts)),
                       rtol=1e-14)
    driven = const_spec(f1=0.4, f2=-0.2, m1=2.0)
    _, _, F1, F2, _ = channel_quantities(driven, 0.0, np.array([1.0]))
    assert F1[0] == pytest.approx(np.sqrt(2.0) * 0.4)
    assert F2[0] == pytest.approx(-0.2)


def test_equal_frequency_quarter_rotation():
    # identical effective frequencies: pi/4 kills Gamma for any coupling
    spec = SystemSpec(m1=Exponential(1.0, 0.3), m2=Exponential(1.0, 0.3),
                      omega1=Constant(1.2), omega2=Constant(1.2),
                      f1=Constant(0.0), f2=Constant(0.0),
                      coupling=Sinusoidal(0.4, 0.2, 1.1),
                      t_min=0.0, t_max=4.0)
    ts = np.linspace(0.0, 4.0, 33)
    om1, om2, _, _, gam = channel_quantities(spec, np.pi / 4, ts)
    wt = effective_frequency_sq(spec, 1, ts)
    g = spec.coupling(ts) / spec.m1(ts)
    assert np.max(np.abs(gam)) < 1e-13
    assert np.allclose(om1, wt - g, rtol=1e-12)
    assert np.allclose(om2, wt + g, rtol=1e-12)


def test_constraint_zeroes_gamma():
    # lambda = (1/2) sqrt(m1 m2) (wt2^2 - wt1^2) tan(2 alpha)
    rng = np.random.default_rng(9)
    for _ in range(20):
        spec = random_admissible_spec(rng)
        dec = solve_angle(spec)
        assert dec.admissible
        ts = np.linspace(spec.t_min, spec.t_max, 65)
        assert np.max(np.abs(dec.gamma(ts))) <= dec.gamma_tol


def test_trace_invariance():
    rng = np.random.default_rng(13)
    spec = ck_spec()
    ts = np.linspace(0.0, 4.0, 41)
    wt_sum = effective_frequency_sq(spec, 1, ts) + effective_frequency_sq(spec, 2, ts)
    for _ in range(10):
        alpha = float(rng.uniform(-np.pi / 4, np.pi / 4))
        om1, om2, _, _, _ = channel_quantities(spec, alpha, ts)
        assert np.allclose(om1 + om2, wt_sum, rtol=0, atol=1e-12 * np.max(np.abs(wt_sum)))


def test_gamma_symmetries():
    """True symmetries of the reconstructed cross term.

    Swapping the oscillators while flipping the angle leaves Gamma
    invariant (it is the relabeling symmetry); flipping both the coupling
    sign and the angle negates it, as does shifting the angle by pi/2.
    """
    spec = ck_spec(lam0=0.9)
    swapped = SystemSpec(m1=spec.m2, m2=spec.m1, omega1=spec.omega2,
                         omega2=spec.omega1, f1=spec.f2, f2=spec.f1,
                         coupling=spec.coupling, t_min=spec.t_min,
                         t_max=spec.t_max, hbar=spec.hbar)
    negated = SystemSpec(m1=spec.m1, m2=spec.m2, omega1=spec.omega1,
                         omega2=spec.omega2, f1=spec.f1, f2=spec.f2,
                         coupling=Exponential(-0.9, 0.4), t_min=spec.t_min,
                         t_max=spec.t_max, hbar=spec.hbar)
    ts = np.linspace(0.0, 4.0, 17)
    for alpha in (0.1, -0.3, 0.6):
        gam = channel_quantities(spec, alpha, ts)[4]
        gam_swap = channel_quantities(swapped, -alpha, ts)[4]
        gam_neg = channel_quantities(negated, -alpha, ts)[4]
        gam_shift = channel_quantities(spec, alpha + np.pi / 2, ts)[4]
        assert np.allclose(gam_swap, gam, rtol=1e-12)
        assert np.allclose(gam_neg, -gam, rtol=1e-12)
        assert np.allclose(gam_shift, -gam, rtol=1e-12)


def test_solve_angle_uncoupled():
    dec = solve_angle(const_spec(w1=1.0, w2=2.0, lam=0.0))
    assert dec.alpha == 0.0
    assert dec.admissible
    assert dec.gamma_max == 0.0


def test_solve_angle_closed_form():
    dec = solve_angle(const_spec(w1=1.0, w2=2.0, lam=1.5))
    assert abs(dec.alpha - np.pi / 8) <= np.spacing(np.pi / 8)
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = random_admissible_spec(rng, kind=0)
        dec = solve_angle(spec)
        g = spec.coupling(0.0) / np.sqrt(spec.m1(0.0) * spec.m2(0.0))
        d21 = (effective_frequency_sq(spec, 2, 0.0)
               - effective_frequency_sq(spec, 1, 0.0))
        expected = normalize_angle(0.5 * np.arctan2(2 * g, d21))
        assert dec.alpha == pytest.approx(expected, abs=1e-10)


def test_solve_angle_equal_effective_frequencies():
    spec = SystemSpec(m1=Exponential(1.0, 0.3), m2=Exponential(1.0, 0.3),
                      omega1=Constant(1.2), omega2=Constant(1.2),
                      f1=Constant(0.0), f2=Constant(0.0),
                      coupling=Exponential(0.8, 0.3),
                      t_min=0.0, t_max=4.0)
    dec = solve_angle(spec)
    assert dec.alpha == pytest.approx(np.pi / 4, abs=1e-12)
    assert dec.admissible
    assert dec.gamma_max <= 1e-12


def test_solve_angle_grid_stability():
    for spec in (ck_spec(), random_admissible_spec(np.random.default_rng(3), kind=1)):
        alphas = [solve_angle(spec, n_time=n).alpha for n in (512, 1024, 2048)]
        assert max(alphas) - min(alphas) <= 1e-8


def _inadmissible_spec(omega1=Constant(1.0), coupling=Sinusoidal(0.0, 1.0, 1.3)):
    # by default a sinusoidal coupling with constant everything else, which
    # no constant angle can remove
    return SystemSpec(m1=Constant(1.0), m2=Constant(1.0),
                      omega1=omega1, omega2=Constant(2.0),
                      f1=Constant(0.0), f2=Constant(0.0),
                      coupling=coupling, t_min=0.0, t_max=4.0)


def test_inadmissible_flagged_not_raised():
    spec = _inadmissible_spec()
    dec = solve_angle(spec)
    assert not dec.admissible
    assert dec.gamma_max > 0.1
    assert spec.t_min <= dec.worst_t <= spec.t_max


def test_alpha_override():
    spec = const_spec(w1=1.0, w2=2.0, lam=1.5)
    dec = decoupled_at_angle(spec, 0.1)
    assert dec.alpha == pytest.approx(0.1)
    assert not dec.admissible
    assert dec.gamma_max > 0.1


@st.composite
def _verdict_cases(draw):
    """(spec, the angle solve_angle must find or None) of a seeded random
    admissible system, a system with g = 0 (alpha = 0), one with w~_1^2 =
    w~_2^2 and g != 0 (alpha = pi/4), or an inadmissible one of
    ``_inadmissible_spec``'s kinds."""
    kind = draw(st.sampled_from(["admissible", "uncoupled", "equal", "inadmissible"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("admissible", "uncoupled"):
        spec = random_admissible_spec(rng, kind=draw(st.sampled_from([0, 1, 2])),
                                      drive=draw(st.booleans()))
        if kind == "admissible":
            return spec, None
        return dataclasses.replace(spec, coupling=Constant(0.0)), 0.0
    a, b, nu = (float(x) for x in rng.uniform([0.5, 0.1, 0.5], [2.0, 1.0, 2.5]))
    if kind == "equal":
        # equal-rate masses shift both w_j^2 by the same -g^2/4
        g = float(rng.uniform(0.0, 0.4))
        spec = SystemSpec(m1=Exponential(a, g), m2=Exponential(b + 0.5, g),
                          omega1=Constant(nu), omega2=Constant(nu),
                          f1=Constant(0.0), f2=Constant(0.0),
                          coupling=Exponential(b, g), t_min=0.0, t_max=4.0)
        return spec, np.pi / 4
    if draw(st.booleans()):
        theta = float(rng.uniform(-3.0, 3.0))
        return _inadmissible_spec(coupling=Sinusoidal(a - 1.0, b, nu, theta)), None
    return _inadmissible_spec(omega1=Sinusoidal(a, b / 2, nu), coupling=Constant(b)), None


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_verdict_cases())
def test_solve_angle_verdict_equals_decoupled_at_its_angle(case):
    """solve_angle judges its angle from its own read of the grid; that
    verdict is decoupled_at_angle's at the same angle, bit for bit."""
    spec, alpha = case
    got = solve_angle(spec)
    want = decoupled_at_angle(spec, got.alpha)
    if alpha is not None:
        assert got.alpha == alpha
    fields = ("alpha", "gamma_max", "worst_t", "gamma_tol")
    assert [getattr(got, f).hex() for f in fields] == [getattr(want, f).hex() for f in fields]
    assert got.admissible is want.admissible


def _lab_rhs(spec):
    def rhs(t, y):
        x1, x2, p1, p2 = y
        m1, m2 = spec.m1(t), spec.m2(t)
        lam = spec.coupling(t)
        return [p1 / m1, p2 / m2,
                -m1 * spec.omega1(t) ** 2 * x1 + m1 * spec.f1(t) - lam * x2,
                -m2 * spec.omega2(t) ** 2 * x2 + m2 * spec.f2(t) - lam * x1]
    return rhs


def test_rotated_trajectories_satisfy_decoupled_equations():
    """The load-bearing oracle for the reconstructed Omega/F/Gamma.

    Integrate the lab equations of motion, map through the transform, and
    check the mapped trajectory against Hamilton's equations of the
    transformed Hamiltonian (including the residual cross term, so the
    check is valid at any angle, admissible or not).
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    for case in range(20):
        spec = random_admissible_spec(rng, drive=bool(case % 2))
        alpha = (solve_angle(spec).alpha if case % 3
                 else float(rng.uniform(-0.7, 0.7)))
        ct = CanonicalTransform(spec, alpha)
        y0 = rng.normal(size=4)
        sol = solve_ivp(_lab_rhs(spec), (0.0, 2.0), y0, method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=True)

        def rotated(t):
            out = ct.to_rotated(PhasePoint(*sol.sol(t)), t)
            return np.array([out.Q1, out.Q2, out.P1, out.P2])

        h = 1e-4
        for t in np.linspace(0.1, 1.9, 13):
            dz = (rotated(t - 2 * h) - 8 * rotated(t - h)
                  + 8 * rotated(t + h) - rotated(t + 2 * h)) / (12 * h)
            om1, om2, F1, F2, gam = channel_quantities(spec, ct.alpha, t)
            Q1, Q2, P1, P2 = rotated(t)
            expected = np.array([P1, P2,
                                 -om1 * Q1 + F1 - gam * Q2,
                                 -om2 * Q2 + F2 - gam * Q1])
            worst = max(worst, float(np.max(np.abs(dz - expected))))
    assert worst <= 1e-6


# --- window-bound Om_j^2 --------------------------------------------------------

def _window_specs():
    rng = np.random.default_rng(29)
    specs = {name: load_shipped(name).system for name in SHIPPED}
    for kind in range(3):
        specs[f"random-{kind}"] = random_admissible_spec(rng, kind=kind, drive=True)
    return specs


@pytest.mark.parametrize("corrected", [True, False])
def test_window_omega_sq_matches_channel_quantities_bitwise(corrected):
    rng = np.random.default_rng(31)
    for name, spec in _window_specs().items():
        dec = solve_angle(spec)
        t0, t1 = spec.t_min, spec.t_max
        fns = [dec.omega_sq_on(j, t0, t1, corrected=corrected) for j in (1, 2)]
        times = rng.uniform(t0, t1, size=12)
        for t in list(times) + [float(times[0]), t0, t1]:
            q = channel_quantities(spec, dec.alpha, t, corrected=corrected)
            for j in (1, 2):
                assert fns[j - 1](t) == q[j - 1], (name, corrected, j, t)
        q = channel_quantities(spec, dec.alpha, times, corrected=corrected)
        for j in (1, 2):
            assert np.array_equal(fns[j - 1](times), q[j - 1]), (name, corrected, j)


def test_window_omega_sq_checks_window_once():
    spec = ck_spec(t_max=4.0)
    dec = solve_angle(spec)
    with pytest.raises(DomainError):
        dec.omega_sq_on(1, -0.1, 2.0)
    with pytest.raises(DomainError):
        dec.omega_sq_on(2, 1.0, 4.5, corrected=False)
    dec.omega_sq_on(1, 0.0, 4.0)(2.0)


def _filled_reference(spec, alpha, t, corrected):
    """(Om_1^2, Om_2^2) with every coefficient read as an array shaped like
    t, Constants filled: the array formula the float reads must reproduce."""
    t = np.asarray(t, dtype=float)

    def arr(c, read="_value"):
        if isinstance(c, Constant):
            return np.full(t.shape, float(c.value) if read == "_value" else 0.0)
        return np.asarray(getattr(c, read)(t), dtype=float)

    def eff(w, m):
        w = arr(w)
        if not corrected:
            return w * w
        mv, md, mdd = arr(m), arr(m, "_deriv1"), arr(m, "_deriv2")
        return w * w + 0.25 * (md * md / (mv * mv) - 2.0 * mdd / mv)

    wt1, wt2 = eff(spec.omega1, spec.m1), eff(spec.omega2, spec.m2)
    g = arr(spec.coupling) / np.sqrt(arr(spec.m1) * arr(spec.m2))
    ca, sa, s2 = np.cos(alpha), np.sin(alpha), np.sin(2 * alpha)
    return (wt1 * ca**2 + wt2 * sa**2 - g * s2,
            wt1 * sa**2 + wt2 * ca**2 - g * -s2)


#: one member of each coefficient family, positive on [0, 4], and the same
#: member with integer fields spelled as integers (equal by value)
_FAMILIES = {
    "constant": (Constant(1.0), Constant(1)),
    "polynomial": (Polynomial((1.0, 0.3, 0.05)), Polynomial((1, 0.3, 0.05))),
    "exponential": (Exponential(1.0, 0.35), Exponential(1, 0.35)),
    "sinusoidal": (Sinusoidal(2.0, 0.4, 1.0, 0.3), Sinusoidal(2, 0.4, 1, 0.3)),
    "power": (Power(1.0, 0.5, 2.0), Power(1, 0.5, 2)),
    "power, non-integer n": (Power(1.0, 0.5, 1.5), Power(1, 0.5, 1.5)),
    "spline": (Spline((0.0, 1.0, 2.5, 4.0), (1.0, 1.4, 0.9, 1.2)),
               Spline((0, 1, 2.5, 4), (1, 1.4, 0.9, 1.2))),
}


def _family_specs():
    """Specs with each family as a mass (m_2 equal to m_1, also spelled with
    integers, and m_2 different), as a frequency and as the coupling."""
    base = dict(m1=Constant(1.0), m2=Constant(1.0), omega1=Constant(1.1),
                omega2=Constant(1.9), f1=Constant(0.0), f2=Constant(0.0),
                coupling=Constant(0.6), t_min=0.0, t_max=4.0)
    specs = {}
    for name, (c, same) in _FAMILIES.items():
        assert c == same, name
        specs[f"m1=m2 {name}"] = dict(base, m1=c, m2=c)
        specs[f"m1=m2 {name} spelled 1"] = dict(base, m1=c, m2=same)
        specs[f"m2 {name}"] = dict(base, m1=Constant(1.2), m2=c)
        specs[f"m1 {name}, m2 other"] = dict(base, m1=c, m2=Exponential(0.8, -0.1))
        specs[f"omega {name}"] = dict(base, omega1=c, omega2=c)
        specs[f"lambda {name}"] = dict(base, coupling=c, f1=c)
    return {k: SystemSpec(**v) for k, v in specs.items()}


def test_one_omega_sq_path_is_bit_identical():
    """omega_sq_on equals channel_quantities bit for bit, and both equal the
    array formula with Constants filled, on the node times of a panel of
    the auxiliary solve, 1-point arrays and 0-d times, for both variants."""
    rng = np.random.default_rng(53)
    specs = {name: load_shipped(name).system for name in SHIPPED}
    for k in range(20):
        specs[f"random-{k}"] = random_admissible_spec(rng, kind=k % 3, drive=k % 2 == 1)
    specs.update(_family_specs())
    for name, spec in specs.items():
        dec = decoupled_at_angle(spec, rng.uniform(-0.7, 0.7))
        t0, t1 = spec.t_min, spec.t_max
        h = rng.uniform(0.0, t1 - t0)
        stage = rng.uniform(t0, t1 - h) + 0.5 * (1.0 + _gauss_legendre(ORDER)[0]) * h
        reads = [stage, stage[5:6], np.float64(stage[3]), float(stage[7]), np.array(t1)]
        for corrected in (True, False):
            fns = [dec.omega_sq_on(j, t0, t1, corrected) for j in (1, 2)]
            for t in reads:
                q = channel_quantities(spec, dec.alpha, t, corrected=corrected)
                ref = _filled_reference(spec, dec.alpha, t, corrected)
                for j in (1, 2):
                    got = fns[j - 1](t)
                    label = (name, corrected, j, np.shape(t))
                    assert isinstance(got, np.ndarray) and got.shape == np.shape(t), label
                    assert got.tobytes() == np.asarray(q[j - 1]).tobytes(), label
                    assert got.tobytes() == ref[j - 1].tobytes(), label


# --- exact angle against the former scan -------------------------------------

def _scan_reference(spec, n_time=1024, gamma_tol=DEFAULT_GAMMA_TOL):
    """solve_angle as it was before the hull: a 2,048-angle scan, then golden
    section.

    The full (angle, time) table gives the same per-angle maxima as the
    former blocked scan, so this returns the former angle bit for bit.
    """
    ts = _grid(spec, n_time)
    # a term of Constant coefficients is a float
    wt1, wt2, g = (np.broadcast_to(x, ts.shape) for x in _channel_terms(spec, ts, True))
    dd = 0.5 * (wt1 - wt2)
    scale = float(np.max(np.abs(wt1)) + np.max(np.abs(wt2)) + np.max(np.abs(g)) + 1.0)
    if np.max(np.abs(g)) <= 1e-300:
        return decoupled_at_angle(spec, 0.0, n_time, gamma_tol)
    if np.max(np.abs(dd)) <= 1e-13 * scale:
        return decoupled_at_angle(spec, np.pi / 4, n_time, gamma_tol)

    def worst(alpha):
        return float(np.max(np.abs(dd * math.sin(2 * alpha) + g * math.cos(2 * alpha))))

    alphas = np.linspace(-np.pi / 4, np.pi / 4, 2048, endpoint=True)
    table = (np.multiply.outer(np.sin(2 * alphas), dd)
             + np.multiply.outer(np.cos(2 * alphas), g))
    k = int(np.argmin(np.abs(table).max(axis=1)))
    step = alphas[1] - alphas[0]
    a, b = alphas[k] - step, alphas[k] + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = worst(c), worst(d)
    for _ in range(120):
        if b - a < 1e-14:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = worst(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = worst(d)
    return decoupled_at_angle(spec, 0.5 * (a + b), n_time, gamma_tol)


def _reference_specs():
    specs = {name: load_shipped(name).system for name in SHIPPED}
    rng = np.random.default_rng(43)
    for i in range(20):
        specs[f"random-{i}"] = random_admissible_spec(rng, kind=i % 3,
                                                      drive=bool(i % 2))
    specs["sinusoidal-coupling"] = _inadmissible_spec()
    specs["offset-sinusoidal-coupling"] = _inadmissible_spec(
        coupling=Sinusoidal(0.4, 1.0, 1.3))
    specs["constant-coupling-sinusoidal-omega1"] = _inadmissible_spec(
        omega1=Sinusoidal(1.2, 0.3, 0.9), coupling=Constant(0.8))
    return specs


def test_hull_angle_no_worse_than_scan():
    """The exact minimax is never worse than the former scan, beyond roundoff."""
    eps = np.finfo(float).eps
    for name, spec in _reference_specs().items():
        new, ref = solve_angle(spec), _scan_reference(spec)
        ts = _grid(spec, 1024)
        om1, om2, _, _, _ = channel_quantities(spec, new.alpha, ts)
        stiffness = float(max(np.max(np.abs(om1)), np.max(np.abs(om2))))
        assert new.gamma_max <= ref.gamma_max + 8 * eps * (1 + stiffness), name
        assert new.admissible == ref.admissible, name
        if ref.admissible:
            assert abs(new.alpha - ref.alpha) <= 1e-13, name


def _chain_edge_reference(dd, g):
    """The nearest hull edge by the monotone chain over every point,
    repeated points included (the chain before duplicates were dropped)."""
    x = np.concatenate([dd, -dd])
    y = np.concatenate([g, -g])
    order = np.lexsort((y, x))
    chain = []
    for px, py in zip(x[order].tolist(), y[order].tolist()):
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            chain.pop()
        chain.append((px, py))
    v = np.array(chain)
    e = np.diff(v, axis=0)
    dist = np.abs(v[:-1, 0] * e[:, 1] - v[:-1, 1] * e[:, 0]) / np.hypot(e[:, 0], e[:, 1])
    return e[np.argmin(dist)]


def _repeated_end_points(rng):
    """Point sets whose leftmost and rightmost points repeat, with +-0."""
    sets = []
    for n in (3, 8, 50):
        dd, g = rng.normal(size=n), rng.normal(size=n)
        lo, hi = np.argmin(dd), np.argmax(dd)
        reps = np.array([lo, lo, hi, hi, hi, lo])
        sets.append((np.concatenate([dd, dd[reps]]), np.concatenate([g, g[reps]])))
    sets.append((np.array([0.0, -0.0, 0.0, 1.0, 1.0]), np.array([1.0, 1.0, -0.0, 0.0, 0.0])))
    sets.append((np.full(6, 2.0), np.full(6, -1.0)))
    sets.append((np.array([1.0, 1.0, 2.0, 3.0, 3.0]), np.array([2.0, 2.0, 4.0, 6.0, 6.0])))
    return sets


def test_nearest_edge_without_repeats_matches_the_full_chain():
    cases = []
    for spec in _reference_specs().values():
        ts = _grid(spec, 1024)
        wt1, wt2, g = (np.broadcast_to(x, ts.shape) for x in _channel_terms(spec, ts, True))
        if np.max(np.abs(g)) > 1e-300:  # else solve_angle takes alpha = 0
            cases.append((0.5 * (wt1 - wt2), g))
    cases += _repeated_end_points(np.random.default_rng(12))
    for dd, g in cases:
        got, want = _nearest_edge(dd, g), _chain_edge_reference(dd, g)
        assert got.tobytes() == want.tobytes()


HULL_SCENARIOS = ["static", "driven-static", "caldirola-kanai", "pulsed-coupling"]


@pytest.mark.parametrize("name", HULL_SCENARIOS)
def test_worst_t_at_roundoff_floor_is_grid_start(name):
    # |Gam| is pure roundoff at the solved angle; its argmax jumped across
    # the window when alpha moved by one ulp
    spec = load_shipped(name).system
    dec = solve_angle(spec)
    assert dec.admissible and dec.gamma_max <= 1e-15
    for alpha in (np.nextafter(dec.alpha, -1.0), dec.alpha, np.nextafter(dec.alpha, 1.0)):
        assert decoupled_at_angle(spec, alpha).worst_t == spec.t_min, alpha


def test_worst_t_above_roundoff_floor_is_argmax():
    spec = _inadmissible_spec(coupling=Sinusoidal(0.0, 1.0, 1.3, -2.0))
    dec = solve_angle(spec)
    ts = _grid(spec, 1024)
    gam = np.abs(channel_quantities(spec, dec.alpha, ts)[4])
    assert dec.worst_t == ts[np.argmax(gam)] > spec.t_min


def test_scalar_and_array_omega_sq_reads_agree():
    """A 0-d read of Om_j^2 has the bits of the array read at the same time."""
    sc = load_shipped("pulsed-coupling")
    dec = solve_angle(sc.system)
    cases = [(dec, np.random.default_rng(0).uniform(sc.system.t_min, sc.system.t_max, 20_000))]
    rng = np.random.default_rng(7)
    for k in range(12):
        spec = random_admissible_spec(rng, kind=k % 3, drive=k % 2 == 1)
        cases.append((solve_angle(spec), rng.uniform(spec.t_min, spec.t_max, 500)))
    for d, ts in cases:
        for corrected in (True, False):
            for j in (1, 2):
                want = d.omega_sq(j, ts, corrected).view(np.uint64)
                got = np.array([d.omega_sq(j, float(t), corrected) for t in ts])
                assert np.array_equal(got.view(np.uint64), want), (corrected, j)
        window = d.omega_sq_on(1, d.system.t_min, d.system.t_max)
        got = np.array([window(float(t)) for t in ts[:200]])
        assert np.array_equal(got, window(ts[:200]))


def test_omega_sq_on_folds_time_independent_terms(monkeypatch):
    """A Constant coefficient is read as its float: no Constant method
    evaluates it, neither when the callable is made nor per read."""
    ts = np.linspace(0.0, 1.0, 15)
    for name in SHIPPED:
        spec = load_shipped(name).system
        dec = solve_angle(spec)
        for corrected in (True, False):
            want = channel_quantities(spec, dec.alpha, ts, corrected=corrected)
            read = set()
            with monkeypatch.context() as m:
                for attr in ("__call__", "deriv1", "deriv2",
                             "_value", "_deriv1", "_deriv2", "_value_derivs"):
                    def recorded(c, t, attr=attr, f=getattr(Constant, attr)):
                        read.add(attr)
                        return f(c, t)
                    m.setattr(Constant, attr, recorded)
                fns = [dec.omega_sq_on(j, 0.0, 1.0, corrected) for j in (1, 2)]
                got = [f(ts) for f in fns]
                at_0d = [f(0.5) for f in fns]
            assert read == set(), (name, corrected)
            for j in (1, 2):
                assert np.array_equal(got[j - 1], want[j - 1]), (name, corrected, j)
                # a read keeps its shape, also where every term is a float
                assert isinstance(at_0d[j - 1], np.ndarray) and at_0d[j - 1].shape == ()


# --- constant Om_j^2: which channels the closed-form solve takes -------------

def test_shipped_channels_take_the_expected_solve():
    """Every shipped channel has a constant Om_j^2 but pulsed-coupling's
    (a Sinusoidal w_2 and coupling): 24 of the 28 kernel solves."""
    closed = 0
    for name in SHIPPED:
        sc = load_shipped(name)
        dec = solve_angle(sc.system, gamma_tol=sc.gamma_tol)
        for variant in ("corrected", "lw"):
            corrected = variant == "corrected"
            sols = solve_channels(dec, *sc.window, variant=variant)
            for j, sol in zip((1, 2), sols):
                om2 = dec.constant_omega_sq(j, corrected)
                if name == "pulsed-coupling":
                    assert om2 is None and sol.stats.method == "gauss-legendre"
                    continue
                closed += 1
                assert sol.stats.method == "closed-form", (name, variant, j)
                assert (sol.stats.attempts, sol.stats.nfev) == (0, 0)
                # the value is Om_j^2 read through the one Om^2 path
                ts = np.linspace(sc.system.t_min, sc.system.t_max, 101)
                assert np.allclose(dec.omega_sq(j, ts, corrected), om2, rtol=1e-14, atol=1e-14)
    assert closed == 24


def test_constant_omega_sq_of_the_caldirola_kanai_class():
    """w~_j^2 = w_j^2 - g^2/4 and g = lam / sqrt(m1 m2) are constant when
    the coupling's rate is the mean of the masses' rates."""
    spec = SystemSpec(m1=Exponential(1.0, 0.2), m2=Exponential(2.0, 0.6),
                      omega1=Constant(1.0), omega2=Constant(2.0),
                      f1=Constant(0.0), f2=Constant(0.0),
                      coupling=Exponential(0.3, 0.4), t_min=0.0, t_max=4.0)
    dec = decoupled_at_angle(spec, 0.3)
    for corrected in (True, False):
        for j in (1, 2):
            om2 = dec.constant_omega_sq(j, corrected)
            assert isinstance(om2, float)
            ts = np.linspace(0.0, 4.0, 101)
            assert np.allclose(dec.omega_sq(j, ts, corrected), om2, rtol=1e-13, atol=1e-14)
    # a Constant mass has rate 0, so an Exponential coupling needs the other's half
    mixed = SystemSpec(m1=Constant(1.0), m2=Exponential(2.0, 0.6),
                       omega1=Constant(1.0), omega2=Constant(2.0),
                       f1=Constant(0.0), f2=Constant(0.0),
                       coupling=Exponential(0.3, 0.3), t_min=0.0, t_max=4.0)
    assert decoupled_at_angle(mixed, 0.3).constant_omega_sq(1) is not None


def test_coupling_rate_one_ulp_off_takes_the_stepped_solve():
    for rate in (math.nextafter(0.4, 1.0), math.nextafter(0.4, 0.0)):
        spec = ck_spec()
        spec = SystemSpec(**{**vars(spec), "coupling": Exponential(1.5, rate)})
        dec = solve_angle(spec)
        assert dec.admissible
        for variant in ("corrected", "lw"):
            assert [dec.constant_omega_sq(j, variant == "corrected") for j in (1, 2)] \
                == [None, None]
            sols = solve_channels(dec, 0.0, 2.0, variant=variant)
            assert [s.stats.method for s in sols] == ["gauss-legendre", "gauss-legendre"]


_SPLINE = Spline((0.0, 1.0, 2.0, 4.0), (1.0, 1.2, 1.1, 1.3))


@pytest.mark.parametrize("field, coefficient, lw_constant", [
    ("omega1", Sinusoidal(1.0, 0.2, 1.3), False),
    ("omega2", Power(1.0, 0.1, 2), False),
    ("omega2", Polynomial((2.0, 0.1)), False),
    ("omega1", _SPLINE, False),
    # masses matter to corrected always, and to lw only through the coupling
    ("m1", Sinusoidal(1.0, 0.2, 1.3), True),
    ("m1", Power(1.0, 0.1, 2), True),
    ("m2", Polynomial((1.0, 0.1)), True),
    ("m2", _SPLINE, True),
    ("coupling", Sinusoidal(0.0, 0.2, 1.3), False),
    ("coupling", Power(0.5, 0.1, 2), False),
    ("coupling", Polynomial((0.0, 0.1)), False),
    ("coupling", _SPLINE, False),
])
def test_other_families_take_the_stepped_solve(field, coefficient, lw_constant):
    spec = SystemSpec(**{**vars(const_spec(w1=1.0, w2=2.0, t_max=4.0)), field: coefficient})
    dec = decoupled_at_angle(spec, 0.0)
    for j in (1, 2):
        assert dec.constant_omega_sq(j, True) is None
        assert (dec.constant_omega_sq(j, False) is not None) == lw_constant


@pytest.mark.parametrize("name", ["caldirola-kanai", "driven-static"])
def test_canonical_transform_reads_coefficients_unchecked(name, monkeypatch):
    """The transform checks its times once; m_j and mdot_j are then read
    without the checked ``Coefficient.__call__`` and ``deriv1``, with the
    same bytes."""
    sc = load_shipped(name)
    dec = solve_angle(sc.system)
    ct = dec.transform
    ts = np.linspace(*sc.window, 7)
    pt = PhasePoint(0.3, -1.1, 0.8, 0.2)
    tpt = TransformedPhasePoint(0.4, 0.1, -0.7, 0.5)

    def outputs():
        out = [ct.position_matrix(t) for t in (sc.window[0], ts)]
        for t in (sc.window[1], ts):
            out += list(vars(ct.to_rotated(pt, t)).values())
            out += list(vars(ct.from_rotated(tpt, t)).values())
        kern = build_kernels(dec, *sc.window, solve_channels(dec, *sc.window))
        return [np.asarray(x).tobytes() for x in out + [kern.c0, kern.L, kern.M]]

    want = outputs()
    for attr in ("__call__", "deriv1"):
        monkeypatch.setattr(Coefficient, attr,
                            lambda *args: pytest.fail("checked coefficient read"))
    assert outputs() == want


def test_position_matrix_reads_only_the_masses(monkeypatch):
    sc = load_shipped("caldirola-kanai")
    ct = solve_angle(sc.system).transform
    ts = np.linspace(*sc.window, 5)
    want = ct.position_matrix(ts)
    monkeypatch.setattr(type(sc.system.m1), "_deriv1",
                        lambda *args: pytest.fail("mass derivative read"))
    assert np.array_equal(ct.position_matrix(ts), want)
    roots = np.sqrt(sc.system.m1(ts)), np.sqrt(sc.system.m2(ts))
    c, s = np.cos(ct.alpha), np.sin(ct.alpha)
    assert np.array_equal(want, np.array([[c * roots[0], -s * roots[1]],
                                          [s * roots[0], c * roots[1]]]))

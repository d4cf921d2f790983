import numpy as np
import pytest

from oscpair.coefficients import (
    Constant,
    Exponential,
    Polynomial,
    Power,
    Sinusoidal,
    Spline,
    coefficient_from_dict,
    coefficient_to_dict,
)
from oscpair.errors import DomainError


def test_eval_examples():
    assert Constant(2.5)(7.0) == 2.5
    assert Exponential(1.0, 0.3)(0.0) == 1.0
    assert Power(1.0, 0.5, 2)(2.0) == pytest.approx(4.0, rel=1e-15)


def test_deriv_examples():
    assert Constant(2.5).deriv1(3.3) == 0.0
    assert Constant(2.5).deriv2(3.3) == 0.0
    assert Exponential(1.0, 0.3).deriv2(0.0) == pytest.approx(0.09, rel=1e-15)
    assert Sinusoidal(0.0, 1.0, 2.0, 0.0).deriv1(0.0) == 0.0


def test_polynomial_horner():
    p = Polynomial((1.0, -2.0, 0.5))
    t = 1.7
    assert p(t) == pytest.approx(1 - 2 * t + 0.5 * t**2, rel=1e-15)
    assert p.deriv1(t) == pytest.approx(-2 + t, rel=1e-14)
    assert p.deriv2(t) == pytest.approx(1.0, rel=1e-15)


def _random_coefficients(rng):
    yield Constant(float(rng.uniform(-3, 3)))
    yield Polynomial(tuple(rng.uniform(-2, 2, size=rng.integers(1, 5))))
    yield Exponential(float(rng.uniform(0.2, 2)), float(rng.uniform(-0.8, 0.8)))
    yield Sinusoidal(*(float(v) for v in rng.uniform(-2, 2, size=4)))
    yield Power(float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.05, 0.3)),
                float(rng.uniform(0.5, 3.0)))


def test_derivatives_match_finite_differences():
    # spec'd tolerance: 1e-6 relative at h = 1e-4 * span on the sampled span
    rng = np.random.default_rng(7)
    span = 4.0
    h = 1e-4 * span
    count = 0
    while count < 100:
        for c in _random_coefficients(rng):
            t = float(rng.uniform(-span / 2, span / 2))
            lo, hi = c.domain
            if t - 2 * h < lo or t + 2 * h > hi:
                continue
            fd1 = (c(t + h) - c(t - h)) / (2 * h)
            fd2 = (c(t + h) - 2 * c(t) + c(t - h)) / h**2
            assert abs(c.deriv1(t) - fd1) <= 1e-6 * (1 + abs(c.deriv1(t)))
            assert abs(c.deriv2(t) - fd2) <= 1e-6 * (1 + abs(c.deriv2(t)))
            count += 1


def test_value_derivs_equal_separate_reads_bitwise():
    rng = np.random.default_rng(13)
    spline = Spline((0.0, 0.7, 1.5, 2.0), (1.0, 1.3, 0.8, 1.1))
    for _ in range(20):
        for c in [*_random_coefficients(rng), spline]:
            ts = rng.uniform(0.0, 2.0, size=64)
            for t in (ts, ts[0], float(ts[1])):
                got = c._value_derivs(t)
                want = (c._value(t), c._deriv1(t), c._deriv2(t))
                for g, w in zip(got, want):
                    assert np.shape(g) == np.shape(w)
                    assert np.array_equal(np.asarray(g, float).view(np.uint64),
                                          np.asarray(w, float).view(np.uint64)), c


def test_power_scalar_read_equals_array_read():
    # a 0-d (a + b t)**2 must not go through libm pow, which is not always
    # correctly rounded, where the array path squares
    rng = np.random.default_rng(2)
    p = Power(float(np.sqrt(1.2)), float(np.sqrt(1.2)) * 0.15, 2)
    ts = rng.uniform(0.0, 6.0, 20_000)
    for read in (p, p.deriv1, p.deriv2):
        want = read(ts)
        assert np.array_equal(np.array([read(float(t)) for t in ts]), want)


def test_spline_reproduces_knots_and_is_smooth():
    rng = np.random.default_rng(3)
    knots = np.sort(rng.uniform(0, 5, size=12))
    knots[0], knots[-1] = 0.0, 5.0
    vals = rng.uniform(-1, 1, size=12)
    sp = Spline(tuple(knots), tuple(vals))
    assert np.allclose(sp(np.array(knots)), vals, rtol=0, atol=1e-13)
    # natural ends: second derivative vanishes
    assert abs(sp.deriv2(knots[0])) < 1e-10
    assert abs(sp.deriv2(knots[-1])) < 1e-10
    # C2: second derivative continuous across an interior knot
    tk = knots[5]
    assert sp.deriv2(tk - 1e-9) == pytest.approx(sp.deriv2(tk + 1e-9), abs=1e-5)


def test_clamped_spline_end_slopes():
    sp = Spline((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), bc="clamped", end_derivs=(0.5, -0.5))
    assert sp.deriv1(0.0) == pytest.approx(0.5, abs=1e-12)
    assert sp.deriv1(2.0) == pytest.approx(-0.5, abs=1e-12)


def test_spline_validation():
    with pytest.raises(ValueError):
        Spline((0.0, 0.0, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        Spline((0.0, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        Spline((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), bc="clamped")


def test_domain_errors():
    sp = Spline((0.0, 1.0, 2.0), (1.0, 2.0, 0.5))
    with pytest.raises(DomainError):
        sp(2.5)
    with pytest.raises(DomainError):
        sp.deriv1(np.array([0.5, -0.1]))
    pw = Power(1.0, -0.5, 0.5)  # base positive only for t < 2
    with pytest.raises(DomainError):
        pw(3.0)
    assert pw(0.0) == 1.0
    # NaN fails every checked read, on an unbounded domain too
    for read in (Constant(1.0).__call__, Exponential(1.0, 0.5).deriv1,
                 Sinusoidal(1.0, 0.5, 2.0, 0.3).deriv2, sp):
        for t in (np.nan, [0.5, np.nan]):
            with pytest.raises(DomainError, match="time outside domain"):
                read(t)


def test_json_round_trip():
    rng = np.random.default_rng(11)
    coeffs = list(_random_coefficients(rng))
    coeffs.append(Spline((0.0, 1.0, 2.0), (0.3, -0.2, 0.9)))
    coeffs.append(Spline((0.0, 1.0, 2.0), (0.3, -0.2, 0.9),
                         bc="clamped", end_derivs=(0.1, 0.2)))
    ts = rng.uniform(0.1, 1.9, size=16)
    for c in coeffs:
        c2 = coefficient_from_dict(coefficient_to_dict(c))
        assert np.allclose(c(ts), c2(ts), rtol=0, atol=0)
        assert np.allclose(c.deriv2(ts), c2.deriv2(ts), rtol=0, atol=0)


def test_json_strictness():
    with pytest.raises(ValueError, match="unknown kind"):
        coefficient_from_dict({"kind": "cubic", "value": 1.0})
    with pytest.raises(ValueError, match="unknown field"):
        coefficient_from_dict({"kind": "constant", "value": 1.0, "extra": 2})
    with pytest.raises(ValueError, match="missing field"):
        coefficient_from_dict({"kind": "exponential", "a": 1.0})
    with pytest.raises(ValueError, match="expected an object"):
        coefficient_from_dict([1, 2, 3])

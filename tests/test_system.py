import warnings

import numpy as np
import pytest

from oscpair import (
    DomainError,
    PhasePoint,
    SystemSpec,
    channel_quantities,
    effective_frequency_sq,
    hamiltonian,
    kinetic_energy,
    load_shipped,
    potential,
)
from oscpair.coefficients import (
    Constant,
    Exponential,
    Polynomial,
    Power,
    Sinusoidal,
    Spline,
)

from conftest import ck_spec, const_spec


def test_hamiltonian_examples():
    free = const_spec(w1=0.0, w2=0.0)
    pt = PhasePoint(x1=0.3, x2=-1.2, p1=0.7, p2=-0.4)
    assert hamiltonian(free, pt, 1.0) == pytest.approx(0.5 * (0.7**2 + 0.4**2))

    ho = const_spec(w1=1.0, w2=1.0)
    assert hamiltonian(ho, PhasePoint(1.0, 0.0, 0.0, 0.0), 2.0) == pytest.approx(0.5)

    coupled = const_spec(w1=0.0, w2=0.0, lam=2.0)
    assert hamiltonian(coupled, PhasePoint(1.0, 3.0, 0.0, 0.0), 0.5) == pytest.approx(6.0)


def test_potential_examples():
    zero = const_spec(w1=0.0, w2=0.0)
    assert potential(zero, 0.7, -0.3, 1.0) == 0.0
    assert potential(const_spec(w1=2.0, w2=0.0), 1.0, 0.0, 1.0) == pytest.approx(2.0)
    driven = const_spec(w1=0.0, w2=0.0, f1=3.0)
    assert potential(driven, 2.0, 0.0, 1.0) == pytest.approx(-6.0)


def test_hamiltonian_is_kinetic_plus_potential():
    rng = np.random.default_rng(5)
    spec = ck_spec()
    for _ in range(50):
        pt = PhasePoint(*rng.normal(size=4))
        t = float(rng.uniform(0, 4))
        assert hamiltonian(spec, pt, t) == pytest.approx(
            kinetic_energy(spec, pt, t) + potential(spec, pt.x1, pt.x2, t), rel=1e-14)


def test_effective_frequency_constant_mass():
    spec = const_spec(w1=1.3, w2=0.4)
    ts = np.random.default_rng(2).uniform(0, 10, size=100)
    assert np.allclose(effective_frequency_sq(spec, 1, ts), 1.3**2, rtol=1e-14)
    # time-dependent frequency with constant mass passes straight through
    spec2 = SystemSpec(m1=Constant(2.0), m2=Constant(1.0),
                       omega1=Sinusoidal(1.5, 0.3, 2.0), omega2=Constant(1.0),
                       f1=Constant(0.0), f2=Constant(0.0), coupling=Constant(0.0),
                       t_min=0.0, t_max=10.0)
    assert np.allclose(effective_frequency_sq(spec2, 1, ts),
                       spec2.omega1(ts) ** 2, rtol=1e-14)


def test_effective_frequency_exponential_mass():
    gamma, w0 = 0.4, 1.0
    spec = ck_spec(gamma=gamma, w1=w0)
    ts = np.linspace(0.0, 3.0, 7)
    expected = w0**2 - gamma**2 / 4
    assert np.allclose(effective_frequency_sq(spec, 1, ts), expected, rtol=1e-13)
    # independent check: rebuild the formula from finite differences of m
    m = spec.m1
    h = 1e-4
    for t in ts[1:-1]:
        md = (m(t + h) - m(t - h)) / (2 * h)
        mdd = (m(t + h) - 2 * m(t) + m(t - h)) / h**2
        fd = w0**2 + 0.25 * (md**2 / m(t) ** 2 - 2 * mdd / m(t))
        assert effective_frequency_sq(spec, 1, t) == pytest.approx(fd, abs=1e-6)


def test_effective_frequency_quadratic_power_mass():
    # m = (1 + b t)^2 makes the correction vanish identically
    b, w0 = 0.2, 1.1
    spec = SystemSpec(m1=Power(1.0, b, 2), m2=Constant(1.0),
                      omega1=Constant(w0), omega2=Constant(1.0),
                      f1=Constant(0.0), f2=Constant(0.0), coupling=Constant(0.0),
                      t_min=0.0, t_max=3.0)
    ts = np.linspace(0.0, 3.0, 50)
    assert np.allclose(effective_frequency_sq(spec, 1, ts), w0**2, rtol=1e-12)


def test_effective_frequency_may_go_negative():
    spec = ck_spec(gamma=1.0, w1=0.3)
    assert effective_frequency_sq(spec, 1, 1.0) < 0.0  # inverted channel is fine


def _spec(t_max=1.0, **coefficients):
    base = dict(m1=Constant(1.0), m2=Constant(1.0), omega1=Constant(1.0),
                omega2=Constant(1.0), f1=Constant(0.0), f2=Constant(0.0),
                coupling=Constant(0.0))
    return SystemSpec(**{**base, **coefficients}, t_min=0.0, t_max=t_max)


NON_FINITE = {
    # exp(800) overflows in the value
    "value": ({"omega1": Exponential(1.0, 800.0)}, "coefficient omega1"),
    # a finite value whose second derivative overflows in Python floats
    "derivative": ({"f2": Exponential(1.0, 1e160)}, "coefficient f2"),
    "coupling": ({"coupling": Sinusoidal(0.0, 1e308, 1e308)}, "coefficient coupling"),
    # no floating-point error: the library takes any float, the parser does not
    "constant": ({"f2": Constant(np.inf)}, "coefficient f2"),
    "nan mass": ({"m1": Constant(np.nan)}, "coefficient m1"),
    # m2 and its derivatives are finite, mdot^2 is not
    "effective frequency": ({"m2": Polynomial((1.0, 1e200))},
                            r"effective frequency squared w~2\^2"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_coefficients_not_finite_on_the_domain_rejected(case):
    coefficients, name = NON_FINITE[case]
    t_max = 1e-300 if case == "derivative" else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} .* is not finite on \[0, 1"):
            _spec(t_max=t_max, **coefficients)


def test_underflow_to_zero_is_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = _spec(t_max=2.0, f1=Exponential(1.0, -2000.0))
    assert spec.f1(2.0) == 0.0


def test_mass_positivity_rejected():
    with pytest.raises(ValueError, match="non-positive at t"):
        SystemSpec(m1=Sinusoidal(0.5, 1.0, 1.0), m2=Constant(1.0),
                   omega1=Constant(1.0), omega2=Constant(1.0),
                   f1=Constant(0.0), f2=Constant(0.0), coupling=Constant(0.0),
                   t_min=0.0, t_max=10.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="hbar"):
        const_spec(hbar=-1.0)
    with pytest.raises(ValueError, match="t_max"):
        SystemSpec(m1=Constant(1.0), m2=Constant(1.0),
                   omega1=Constant(1.0), omega2=Constant(1.0),
                   f1=Constant(0.0), f2=Constant(0.0), coupling=Constant(0.0),
                   t_min=1.0, t_max=1.0)
    # coefficient domain must cover the window
    with pytest.raises(ValueError, match="does not cover"):
        SystemSpec(m1=Constant(1.0), m2=Constant(1.0),
                   omega1=Spline((0.0, 1.0), (1.0, 1.0)), omega2=Constant(1.0),
                   f1=Constant(0.0), f2=Constant(0.0), coupling=Constant(0.0),
                   t_min=0.0, t_max=2.0)


def test_time_domain_checked():
    spec = const_spec(t_max=5.0)
    with pytest.raises(DomainError):
        potential(spec, 0.0, 0.0, 6.0)
    with pytest.raises(DomainError):
        effective_frequency_sq(spec, 1, -0.5)


def test_nan_time_rejected():
    """Every comparison with NaN is false, so a test for leaving the domain
    must be one that NaN fails."""
    spec = load_shipped("caldirola-kanai").system
    with pytest.raises(DomainError):
        channel_quantities(spec, 0.1, np.nan)
    with pytest.raises(DomainError):
        spec.check_time([0.5, np.nan, 1.0])
    assert spec.check_time([]).shape == (0,)

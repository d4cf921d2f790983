import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscpair import GaussianState2D, Grid2D, from_gaussian, gaussian_fidelity, overlap
from oscpair.errors import NonConvergentGaussian
from oscpair.gaussian import _complete_square

from conftest import reference_completion

#: about 2 s of cases, the same ones on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def test_coherent_moments():
    g = GaussianState2D.coherent(center=(0.4, -0.7), momentum=(1.2, -0.3),
                                 sigma=(0.6, 0.9), hbar=0.7)
    assert g.norm() == pytest.approx(1.0, rel=1e-13)
    assert g.mean_position() == pytest.approx([0.4, -0.7], rel=1e-13)
    assert g.mean_momentum() == pytest.approx([1.2, -0.3], rel=1e-13)
    cov = g.covariance_position()
    assert np.diag(cov) == pytest.approx([0.36, 0.81], rel=1e-13)
    assert cov[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_norm_against_grid_quadrature():
    g = GaussianState2D(A=np.array([[1.3, 0.2j], [0.2j, 0.9 + 0.1j]]),
                        b=np.array([0.3 - 0.1j, 0.2j]), c=0.1 + 0.2j)
    grid = Grid2D(extent=(24.0, 24.0), points=(256, 256))
    st = from_gaussian(grid, g)
    assert st.norm_sq() == pytest.approx(np.exp(g.log_norm_sq()), rel=1e-10)
    # the moments of the same chirped state (Im A != 0): x from |psi|^2,
    # p from the spectral density |FFT psi|^2
    rho, rho_k = np.abs(st.psi) ** 2, np.abs(np.fft.fft2(st.psi)) ** 2
    x, k = grid.mesh(), grid.k_mesh()
    mean = [np.sum(rho * xi) / np.sum(rho) for xi in x]
    assert g.mean_position() == pytest.approx(mean, abs=1e-12)
    assert g.mean_momentum() == pytest.approx(
        [np.sum(rho_k * ki) / np.sum(rho_k) for ki in k], abs=1e-12)
    cov = [[np.sum(rho * (xi - mi) * (xj - mj)) / np.sum(rho) for xj, mj in zip(x, mean)]
           for xi, mi in zip(x, mean)]
    assert g.covariance_position() == pytest.approx(np.array(cov), abs=1e-12)


def test_overlap_against_grid_quadrature():
    a = GaussianState2D.coherent(center=(0.3, 0.0), momentum=(0.5, -0.2),
                                 sigma=(0.8, 0.7))
    b = GaussianState2D.coherent(center=(-0.2, 0.4), momentum=(0.0, 0.3),
                                 sigma=(0.6, 1.0))
    grid = Grid2D(extent=(24.0, 24.0), points=(256, 256))
    sa, sb = from_gaussian(grid, a), from_gaussian(grid, b)
    num = np.sum(np.conj(sa.psi) * sb.psi) * grid.cell
    assert overlap(a, b) == pytest.approx(complex(num), rel=1e-10)


def test_fidelity_properties():
    g = GaussianState2D.coherent(center=(0.2, 0.1), momentum=(0.4, 0.0))
    assert gaussian_fidelity(g, g) == pytest.approx(1.0, abs=1e-13)
    # global phase invariance
    g_phase = GaussianState2D(g.A, g.b, g.c + 1.234j, hbar=g.hbar)
    assert gaussian_fidelity(g, g_phase) == pytest.approx(1.0, abs=1e-13)
    far = GaussianState2D.coherent(center=(8.0, 0.0))
    assert gaussian_fidelity(g, far) < 1e-8


def test_fidelity_of_states_far_from_unit_norm():
    """Norms of exp(+-400) neither overflow nor underflow; the logs of size
    800 that cancel leave about 800 eps."""
    g = GaussianState2D.coherent(center=(0.2, 0.1), momentum=(0.4, 0.0))
    for shift in (400.0, -400.0):
        far = GaussianState2D(g.A, g.b, g.c + shift, hbar=g.hbar)
        assert gaussian_fidelity(far, far) == pytest.approx(1.0, abs=1e-12)
        assert gaussian_fidelity(far, g) == pytest.approx(1.0, abs=1e-12)


def test_requires_normalizable_width():
    with pytest.raises(NonConvergentGaussian):
        GaussianState2D(A=np.array([[-1.0, 0.0], [0.0, 1.0]]),
                        b=np.zeros(2), c=0.0)


def test_asymmetric_A_is_symmetrized():
    g = GaussianState2D(A=np.array([[1.0, 0.3], [0.1, 1.0]]), b=np.zeros(2), c=0.0)
    assert g.A[0, 1] == pytest.approx(0.2)
    assert g.A[0, 1] == g.A[1, 0]


def test_evaluate_matches_parameters():
    g = GaussianState2D.coherent(center=(0.5, -0.2), momentum=(0.3, 0.1),
                                 sigma=(0.7, 0.8))
    x = np.array([0.4, 0.9])
    val = g(x[0], x[1])
    expected = np.exp(-0.5 * x @ g.A @ x + g.b @ x + g.c)
    assert val == pytest.approx(expected, rel=1e-14)


def test_non_finite_c_is_rejected():
    for c in (complex("nan"), complex("inf"), complex(0.0, float("-inf"))):
        with pytest.raises(ValueError, match="non-finite Gaussian parameters"):
            GaussianState2D(np.eye(2), np.zeros(2), c)


def test_state_arrays_are_its_own_and_read_only():
    A, b = np.array([[1.0, 0.2], [0.2, 1.5]], dtype=complex), np.array([0.3, -0.1j])
    g = GaussianState2D(A, b, 0.0)
    mean = g.mean_position()
    A[0, 0], b[0] = 5.0, 9.0
    assert np.array_equal(g.mean_position(), mean)
    for x in (g.A, g.b):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0


def test_states_compare_and_hash_by_identity():
    g = GaussianState2D.coherent(center=(0.2, 0.1))
    twin = dataclasses.replace(g)
    assert g == g and g != twin
    assert hash(g) == hash(g) and len({g, twin}) == 2
    assert np.array_equal(twin.A, g.A) and twin.c == g.c


@st.composite
def completions(draw):
    """(S, v): Re S = R diag(scale, scale * ratio) R^T at scales 1e-3 to 1e3
    and ratios down to 1e-4 (nearly singular); Im S a rotated diagonal of
    either sign and up to 1e4 times Re S (eigenvalue arguments near +-pi/2),
    or 0 (a real S, as for |psi|^2); v of the matching size."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    ratio = 10.0 ** draw(st.floats(-4.0, 0.0))
    stretch = draw(st.sampled_from([0.0, 1.0, 1e2, 1e4]))

    def rotated(d0, d1):
        th = draw(st.floats(0.0, math.pi))
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        return R @ np.diag([d0, d1]) @ R.T

    im = st.floats(0.5, 1.0).flatmap(lambda x: st.sampled_from([x, -x]))
    S = rotated(scale, scale * ratio) + 1j * stretch * scale * rotated(draw(im), draw(im))
    unit = st.floats(-1.0, 1.0)
    v = math.sqrt(scale) * np.array([complex(draw(unit), draw(unit)) for _ in range(2)])
    return S, v


@PROPERTY
@given(completions())
def test_one_completion_matches_the_linalg_route(case):
    """S^-1, mu and log I agree with ``np.linalg`` and the eigenvalue half-logs
    to 1e-12, scaled by max(1, |reference|).  The worst of the 400 cases is
    1.2e-14, at cond(S) up to 3.8e3; both routes are off the exact inverse
    by about cond(S) eps, so an S singular in both parts is left out."""
    S, v = case
    got, want = _complete_square(S, v, "S"), reference_completion(S, v)
    for g, w in zip(got, want):
        scale = max(1.0, float(np.max(np.abs(w))))
        assert np.max(np.abs(np.asarray(g) - w)) <= 1e-12 * scale


def test_overlap_error_keeps_its_type_and_message():
    ket = GaussianState2D.coherent()
    bra = types.SimpleNamespace(A=-3.0 * np.eye(2), b=np.zeros(2), c=0j)
    with pytest.raises(NonConvergentGaussian,
                       match="^real part of the overlap quadratic form is not positive definite$"):
        overlap(bra, ket)

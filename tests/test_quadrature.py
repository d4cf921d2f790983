import numpy as np
import pytest

from oscpair import CausticError, build_kernel, load_shipped, solve_angle
from oscpair.decoupling import channel_quantities
from oscpair.quadrature import (
    _gauss_legendre,
    composite_gl_nodes,
    integration_matrix,
    running_integral,
)

from conftest import random_admissible_spec


def triangle_double_integral(g_outer, g_inner, f_inner, a, b, panels=64, order=8):
    """Reference: int_a^b g(t) [ int_a^t f(tau) dtau ] dt by partial panels.

    ``g_outer`` and ``g_inner`` are g and f at the nodes of
    ``composite_gl_nodes(a, b, panels, order)``.  The inner integral at
    each outer node is the prefix sum of the whole panels before it plus
    its own Gauss rule on [panel edge, node], whose panels * order * order
    nodes ``f_inner`` (the vectorized f) is called on.
    """
    xi, wi = _gauss_legendre(int(order))
    edges = np.linspace(a, b, int(panels) + 1)
    t_outer, w_outer = (x.reshape(panels, order)
                        for x in composite_gl_nodes(a, b, panels, order))

    h_part = 0.5 * (t_outer - edges[:-1, None])
    m_part = 0.5 * (t_outer + edges[:-1, None])
    t_part = m_part[:, :, None] + h_part[:, :, None] * xi[None, None, :]
    w_part = h_part[:, :, None] * wi[None, None, :]

    g_outer = np.asarray(g_outer).reshape(t_outer.shape)
    g_full = np.asarray(g_inner).reshape(t_outer.shape)
    g_part = np.asarray(f_inner(t_part.ravel())).reshape(t_part.shape)

    per_panel = np.sum(w_outer * g_full, axis=1)
    prefix = np.concatenate(([0.0], np.cumsum(per_panel)[:-1]))
    inner_vals = prefix[:, None] + np.sum(w_part * g_part, axis=2)
    return float(np.sum(w_outer * g_outer * inner_vals))


@pytest.mark.parametrize("order", [1, 2, 8, 40, 64])
def test_integration_matrix_is_exact_below_the_order(order):
    xi, _ = _gauss_legendre(order)
    Q = integration_matrix(order)
    assert Q.shape == (order, order) and not Q.flags.writeable
    for d in range(order):
        exact = (xi ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
        assert np.max(np.abs(Q @ xi**d - exact)) <= 1e-14, d


def test_running_integral_of_polynomials_and_smooth_functions():
    a, b = -0.7, 2.3
    t, w = composite_gl_nodes(a, b, 5, 8)
    # degree 7 is integrated exactly on each panel, hence at every node
    coef = np.array([0.3, -1.1, 0.4, 2.0, -0.5, 0.25, -0.125, 0.0625])
    P = np.polynomial.Polynomial(coef)
    exact = P.integ()(t) - P.integ()(a)
    assert np.max(np.abs(running_integral(w * P(t), 8) - exact)) <= 1e-13
    t, w = composite_gl_nodes(a, b, 64, 8)
    got = running_integral(w * np.cos(3.0 * t), 8)
    assert np.max(np.abs(got - (np.sin(3.0 * t) - np.sin(3.0 * a)) / 3.0)) <= 1e-15


def _reference_driving(dec, sol, t_start, t_end, panels, order):
    """(I_end, I_start, D) of the kernel channel of ``sol``, D by the
    triangle rule."""
    k = 1 + sol.channel
    phi_start = float(sol.phi(t_start))
    phi = float(sol.phi(t_end)) - phi_start

    def G_and_phase(t):
        F = channel_quantities(dec.system, dec.alpha, t)[k]
        rho, _, phis = sol.rho_drho_phi(t)
        return F * rho, phis - phi_start

    def G_sin_from_start(t):
        G, phase = G_and_phase(t)
        return G * np.sin(phase)

    t, w = composite_gl_nodes(t_start, t_end, panels, order)
    G, phase = G_and_phase(t)
    from_start, to_end = G * np.sin(phase), G * np.sin(phi - phase)
    D = triangle_double_integral(to_end, from_start, G_sin_from_start,
                                 t_start, t_end, panels, order)
    return float(np.dot(w, from_start)), float(np.dot(w, to_end)), D


def _windows():
    sc = load_shipped("driven-static")
    yield "driven-static", solve_angle(sc.system), sc.window
    rng = np.random.default_rng(53)
    for case in range(8):
        spec = random_admissible_spec(rng, drive=True)
        t_start = float(rng.uniform(0.0, 2.0))
        yield f"random-{case}", solve_angle(spec), (
            t_start, t_start + float(rng.uniform(0.5, 3.5)))


def test_driven_kernels_agree_with_the_triangle_rule():
    """At the default 64 panels of order 8 the spectral inner integral gives
    the partial-panel rule's I''_j, I'_j and D_j to 1e-12 scaled."""
    checked = 0
    for name, dec, (t_start, t_end) in _windows():
        try:
            kern = build_kernel(dec, t_start, t_end)
        except CausticError:
            continue
        checked += 1
        for c, sol in enumerate(kern.solutions):
            ref = _reference_driving(dec, sol, t_start, t_end, 64, 8)
            assert ref[2] != 0.0, (name, sol.channel)
            for got, want in zip((kern.I_end[c], kern.I_start[c], kern.D[c]), ref):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (
                    name, sol.channel, got, want)
    assert checked >= 6

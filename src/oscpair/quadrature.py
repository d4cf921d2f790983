"""Composite Gauss-Legendre rules used for the driving-phase integrals."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["composite_gl_nodes", "triangle_double_integral"]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Nodes and weights of the order-point rule on [-1, 1], built once (read-only)."""
    xi, wi = np.polynomial.legendre.leggauss(order)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def _panel_rule(a, b, panels, order):
    """Panel edges, and composite nodes and weights shaped (panels, order)."""
    xi, wi = _gauss_legendre(int(order))
    edges = np.linspace(a, b, int(panels) + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = mid[:, None] + half[:, None] * xi[None, :]
    w = half[:, None] * wi[None, :]
    return edges, t, w


def composite_gl_nodes(a, b, panels, order):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    Returns flat arrays of length panels*order; nodes are ordered panel by
    panel, ascending.
    """
    _, t, w = _panel_rule(a, b, panels, order)
    return t.ravel(), w.ravel()


def triangle_double_integral(g_outer, g_inner, f_inner, a, b, panels=64, order=8):
    """int_a^b g(t) [ int_a^t f(tau) dtau ] dt.

    ``g_outer`` and ``g_inner`` are g and f at the nodes of
    ``composite_gl_nodes(a, b, panels, order)``, in its order; the caller
    has them already.  The inner cumulative antiderivative is built panel
    by panel and shared across outer nodes: full panels contribute cached
    prefix sums, and the partial stretch from a panel edge to each outer
    node gets its own scaled Gauss rule.  ``f_inner`` is the vectorized f,
    called once on all of those partial nodes.
    """
    xi, wi = _gauss_legendre(int(order))
    edges, t_outer, w_outer = _panel_rule(a, b, panels, order)   # (P, O)

    # inner nodes for the partial integrals [edge_p, t_outer[p, k]]
    h_part = 0.5 * (t_outer - edges[:-1, None])               # (P, O)
    m_part = 0.5 * (t_outer + edges[:-1, None])
    t_part = m_part[:, :, None] + h_part[:, :, None] * xi[None, None, :]  # (P, O, O)
    w_part = h_part[:, :, None] * wi[None, None, :]

    g_outer = np.asarray(g_outer).reshape(t_outer.shape)
    g_full = np.asarray(g_inner).reshape(t_outer.shape)
    g_part = np.asarray(f_inner(t_part.ravel())).reshape(t_part.shape)

    per_panel = np.sum(w_outer * g_full, axis=1)
    prefix = np.concatenate(([0.0], np.cumsum(per_panel)[:-1]))  # F at panel edges
    inner_vals = prefix[:, None] + np.sum(w_part * g_part, axis=2)
    return float(np.sum(w_outer * g_outer * inner_vals))

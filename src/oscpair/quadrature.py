"""Composite Gauss-Legendre rules used for the driving-phase integrals."""

from __future__ import annotations

import numpy as np

__all__ = ["composite_gl_nodes", "triangle_double_integral"]


def composite_gl_nodes(a, b, panels, order):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    Returns flat arrays of length panels*order; nodes are ordered panel by
    panel, ascending.
    """
    xi, wi = np.polynomial.legendre.leggauss(int(order))
    edges = np.linspace(a, b, int(panels) + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return t, w


def triangle_double_integral(f_outer, f_inner, a, b, panels=64, order=8):
    """int_a^b f_outer(t) [ int_a^t f_inner(tau) dtau ] dt.

    The inner cumulative antiderivative is built panel by panel and shared
    across outer nodes: full panels contribute cached prefix sums, and the
    partial stretch from a panel edge to each outer node gets its own
    scaled Gauss rule.  Both integrands must be vectorized; every
    evaluation is batched into two calls.
    """
    xi, wi = np.polynomial.legendre.leggauss(int(order))
    edges = np.linspace(a, b, int(panels) + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t_outer = mid[:, None] + half[:, None] * xi[None, :]      # (P, O)
    w_outer = half[:, None] * wi[None, :]                     # (P, O)

    # inner nodes for the partial integrals [edge_p, t_outer[p, k]]
    h_part = 0.5 * (t_outer - edges[:-1, None])               # (P, O)
    m_part = 0.5 * (t_outer + edges[:-1, None])
    t_part = m_part[:, :, None] + h_part[:, :, None] * xi[None, None, :]  # (P, O, O)
    w_part = h_part[:, :, None] * wi[None, None, :]

    g_outer = np.asarray(f_outer(t_outer.ravel())).reshape(t_outer.shape)
    g_part = np.asarray(f_inner(t_part.ravel())).reshape(t_part.shape)
    g_full = np.asarray(f_inner(t_outer.ravel())).reshape(t_outer.shape)

    per_panel = np.sum(w_outer * g_full, axis=1)
    prefix = np.concatenate(([0.0], np.cumsum(per_panel)[:-1]))  # F at panel edges
    inner_vals = prefix[:, None] + np.sum(w_part * g_part, axis=2)
    return float(np.sum(w_outer * g_outer * inner_vals))

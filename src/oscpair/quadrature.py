"""Composite Gauss-Legendre rules used for the driving-phase integrals.

``running_integral`` gives int_a^t f at every node t of a composite rule
from the weighted values w f at its nodes: the whole panels before t, plus
t's own panel up to t through the spectral integration matrix of the order
(Dutt, Greengard & Rokhlin, BIT 40, 241 (2000)), exact for polynomials of
lower degree.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["composite_gl_nodes", "integration_matrix", "running_integral"]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Nodes and weights of the order-point rule on [-1, 1], built once (read-only)."""
    xi, wi = np.polynomial.legendre.leggauss(order)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


@functools.lru_cache(maxsize=None)
def integration_matrix(order):
    """Q with Q[k, m] = int_{-1}^{xi_k} l_m(x) dx, built once (read-only).

    xi are the order-point Gauss-Legendre nodes and l_m their Lagrange
    basis, so Q @ f(xi) is int_{-1}^{xi_k} of the interpolant of f.  The
    rule integrates l_m P_n exactly for n < order, which gives
    l_m = sum_n (n + 1/2) w_m P_n(xi_m) P_n, and
    int_{-1}^x P_n = (P_{n+1} - P_{n-1})(x) / (2n + 1), with P_{-1} = -1
    for n = 0; the two factors of n cancel to 1/2.  No Vandermonde matrix
    is inverted.
    """
    xi, wi = _gauss_legendre(order)
    P = np.empty((order + 2, order))  # P[n + 1] = P_n(xi), n = -1 ... order
    P[0], P[1] = -1.0, 1.0
    for n in range(order):
        P[n + 2] = ((2 * n + 1) * xi * P[n + 1] - n * P[n]) / (n + 1)
    Q = (P[2:] - P[:-2]).T @ (0.5 * wi * P[1:-1])
    Q.flags.writeable = False
    return Q


def composite_gl_nodes(a, b, panels, order):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b].

    Returns flat arrays of length panels*order; nodes are ordered panel by
    panel, ascending.  Arrays a and b of equal shape give one rule per
    window [a[i], b[i]], along a last axis of that length.
    """
    xi, wi = _gauss_legendre(int(order))
    edges = np.linspace(a, b, int(panels) + 1, axis=-1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    t = mid[..., None] + half[..., None] * xi
    w = half[..., None] * wi
    return t.reshape(*edges.shape[:-1], -1), w.reshape(*edges.shape[:-1], -1)


def running_integral(wf, order):
    """int_a^t f(s) ds at every node t of a ``composite_gl_nodes`` rule of
    ``order`` points per panel, from wf = w f, its weights times f at its
    nodes, both in its order along the last axis (one rule per row).

    Q[k, m] w_m^(-1) turns w_m f(xi_m) into the panel's share up to xi_k,
    so the panel widths are not needed.
    """
    order = int(order)
    _, wi = _gauss_legendre(order)
    wf = np.asarray(wf)
    panels = wf.reshape(*wf.shape[:-1], -1, order)
    sums = np.sum(panels, axis=-1)
    before = np.zeros_like(sums)
    np.cumsum(sums[..., :-1], axis=-1, out=before[..., 1:])
    return (before[..., None] + panels @ (integration_matrix(order) / wi).T).reshape(wf.shape)

"""Independent ground truth: split-operator solver on a 2D periodic grid.

Strang splitting with midpoint coefficient sampling: half potential phase,
full kinetic phase in the spectral domain, half potential phase, all with
coefficients frozen at t + dt/2.  The kinetic operator is diagonal in
momentum space even with time-dependent masses, so every substep is a pure
phase and the scheme is unconditionally stable and exactly unitary;
midpoint sampling keeps it second order in dt for time-dependent
coefficients.

Loop invariants are built once per grid.  ``Grid2D`` holds its axes and
their squares, x_j^2 and k_j^2, as read-only 1D arrays; a step broadcasts
them (x1 down the rows, x2 along the columns) instead of building meshes.
The kinetic phase is separable, exp(-i dt hbar k1^2 / 2 m1) times
exp(-i dt hbar k2^2 / 2 m2), so it is applied as two 1D factors.  The
potential half kick exp(-i dt V / 2 hbar) is built from 1D phases too
(``_half_kick``): the x1 and x2 terms of V are separable, and the coupling
phase theta_i x2_j is split by angle addition over blocks of about
sqrt(N2) columns.  So a step takes about N1 (N2 / B + B) cos/sin pairs
instead of N1 N2 and never forms V on the plane.  The plane differs from
exp(-i dt V / 2 hbar) on the mesh by roundoff in the phase, a few ulps of
|dt V / 2 hbar|, and keeps |exp| = 1 to a few ulps.  A step checks its
midpoint time once and then reads the coefficients unchecked.

``evolve`` runs its steps in three work planes allocated once per call:
the half-kick plane, rebuilt in place every step, and two psi planes
used in turn, so a step writes the kicked psi into the plane its input
does not occupy and transforms it in place.  A state passed to
``evolve``'s observer is therefore valid only until the observer
returns; the returned state owns its psi.

Observables (``GridState.mean``, ``mean_sq``, ``energy_expectation``) use
the 1D marginals of |psi|^2, which a state computes once and shares.
``scipy.fft`` is imported by the functions that transform, once per
call, so importing this module loads numpy only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatch
from .gaussian import GaussianState2D
from .system import SystemSpec, _potential_coefficients

__all__ = ["Grid2D", "GridState", "from_gaussian", "step", "evolve",
           "fidelity", "energy_expectation", "suggest_extent"]

BOUNDARY_DENSITY_WARN = 1e-12

#: grid sizes per axis are powers of two, at least this large
MIN_GRID_POINTS = 32
GRID_POINTS_RULE = f"powers of two, >= {MIN_GRID_POINTS}"


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def _grid_points_ok(n):
    return _is_pow2(n) and n >= MIN_GRID_POINTS


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid centered on the origin.

    ``extent`` is the full box length per axis (x in [-L/2, L/2)),
    ``points`` the number of samples per axis (powers of two, >= 32).
    The axes ``x1``, ``x2``, wave numbers ``k1``, ``k2`` and their squares
    are read-only 1D arrays.
    """

    extent: tuple
    points: tuple
    x1: np.ndarray = field(init=False, repr=False, compare=False)
    x2: np.ndarray = field(init=False, repr=False, compare=False)
    k1: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    x1_sq: np.ndarray = field(init=False, repr=False, compare=False)
    x2_sq: np.ndarray = field(init=False, repr=False, compare=False)
    k1_sq: np.ndarray = field(init=False, repr=False, compare=False)
    k2_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L1, L2 = (float(v) for v in self.extent)
        N1, N2 = (int(v) for v in self.points)
        if L1 <= 0 or L2 <= 0:
            raise ValueError("grid extent must be positive")
        if not (_grid_points_ok(N1) and _grid_points_ok(N2)):
            raise ValueError(f"points per axis must be {GRID_POINTS_RULE}")
        object.__setattr__(self, "extent", (L1, L2))
        object.__setattr__(self, "points", (N1, N2))
        axes = {"x1": np.linspace(-L1 / 2, L1 / 2, N1, endpoint=False),
                "x2": np.linspace(-L2 / 2, L2 / 2, N2, endpoint=False),
                "k1": 2 * np.pi * np.fft.fftfreq(N1, d=L1 / N1),
                "k2": 2 * np.pi * np.fft.fftfreq(N2, d=L2 / N2)}
        for name in ("x1", "x2", "k1", "k2"):
            axes[name + "_sq"] = axes[name] ** 2
        for name, arr in axes.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dx(self):
        return self.extent[0] / self.points[0], self.extent[1] / self.points[1]

    @property
    def cell(self):
        d1, d2 = self.dx
        return d1 * d2

    def mesh(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def k_mesh(self):
        return np.meshgrid(self.k1, self.k2, indexing="ij")


def suggest_extent(states, n_sigma=12.0):
    """Box size covering every state out to ``n_sigma`` standard deviations."""
    L = np.zeros(2)
    for st in states:
        mu = st.mean_position()
        sig = np.sqrt(np.diag(st.covariance_position()))
        L = np.maximum(L, 2.0 * (np.abs(mu) + n_sigma * sig))
    return float(L[0]), float(L[1])


@dataclass(frozen=True)
class GridState:
    """Wave function sampled on ``grid`` at ``time``.

    ``psi`` must not be modified in place: the observables share one
    |psi|^2 and its two marginals, computed on first use.
    """

    psi: np.ndarray
    grid: Grid2D
    time: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != self.grid.points:
            raise ValueError(f"psi shape {psi.shape} != grid {self.grid.points}")
        object.__setattr__(self, "psi", psi)

    @cached_property
    def _density(self):
        return np.abs(self.psi) ** 2

    def norm_sq(self):
        return float(np.sum(self._density) * self.grid.cell)

    def norm(self):
        return float(np.sqrt(self.norm_sq()))

    def normalized(self):
        return GridState(self.psi / self.norm(), self.grid, self.time)

    def boundary_density(self):
        """max |psi|^2 on the boundary ring relative to the global max."""
        d = self._density
        peak = float(d.max()) or 1.0
        ring = max(d[0, :].max(), d[-1, :].max(), d[:, 0].max(), d[:, -1].max())
        return float(ring) / peak

    @cached_property
    def _marginals(self):
        """|psi|^2 summed over x2 (a function of x1) and over x1."""
        d = self._density
        return d.sum(axis=1), d.sum(axis=0)

    def mean(self, axis):
        p = self._marginals[axis]
        x = self.grid.x1 if axis == 0 else self.grid.x2
        return float(x @ p / np.sum(p))

    def mean_sq(self, axis):
        p = self._marginals[axis]
        x_sq = self.grid.x1_sq if axis == 0 else self.grid.x2_sq
        return float(x_sq @ p / np.sum(p))


def from_gaussian(grid: Grid2D, state: GaussianState2D, time=0.0) -> GridState:
    X1, X2 = grid.mesh()
    return GridState(state(X1, X2), grid, float(time))


def _unit_phase(phi):
    """exp(i phi) for real phi; cos and sin cost less than a complex exp."""
    out = np.empty(np.shape(phi), dtype=complex)
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    return out


def _half_kick(spec: SystemSpec, grid: Grid2D, t, dt, out=None):
    """exp(-i dt V(t) / 2 hbar) on the grid, built from 1D phases.

    With c = -dt / 2 hbar and theta_i = c lam x1_i, the phase c V is
    c (a1 x1^2 - b1 x1) + c (a2 x2^2 - b2 x2) + theta_i x2_j.  Column
    j = b B + r is split into blocks of B = 2^floor(log2(N2) / 2) columns,
    which divides N2 because N2 is a power of two, and
    x2_j = x2[bB] + (x2[r] - x2[0]), so the coupling factor is a product of
    an (N1, N2 / B) and an (N1, B) phase table.  About N1 (N2 / B + B)
    cos/sin pairs replace N1 N2.  The plane is written into ``out``, a
    C-contiguous complex (N1, N2) array, when given.
    """
    n1, n2 = grid.points
    if out is None:
        out = np.empty((n1, n2), dtype=complex)
    block = 1 << (n2.bit_length() - 1) // 2
    c = -0.5 * dt / spec.hbar
    a1, b1, a2, b2, lam = _potential_coefficients(spec, t)
    x1, x2 = grid.x1, grid.x2
    theta = (c * lam) * x1[:, None]
    left = _unit_phase(c * (a1 * grid.x1_sq - b1 * x1)[:, None]
                       + theta * x2[::block])
    right = _unit_phase(theta * (x2[:block] - x2[0]))
    plane = out.reshape(n1, n2 // block, block)
    np.multiply(left[:, :, None], right[:, None, :], out=plane)
    plane *= _unit_phase(c * (a2 * grid.x2_sq - b2 * x2)).reshape(-1, block)
    return out


def step(spec: SystemSpec, state: GridState, dt, *, work=None) -> GridState:
    """One Strang step from state.time to state.time + dt.

    Both half kicks use one plane from ``_half_kick`` at the midpoint time;
    it agrees with exp(-i dt V / 2 hbar) on the mesh to roundoff in the
    phase, a few ulps of |dt V / 2 hbar|, not bit for bit.

    ``work`` is for ``evolve``: a pair (kick, out) of C-contiguous complex
    planes of the grid's shape, ``out`` not ``state.psi``, which the step
    writes instead of allocating its own; the returned psi lives in ``out``.
    """
    from scipy.fft import fft2, ifft2

    dt = float(dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = state.grid
    kick, out = work or (None, None)
    t_mid = spec.check_time(state.time + dt / 2)
    hbar = spec.hbar
    half_pot = _half_kick(spec, g, t_mid, dt, kick)
    kin1 = _unit_phase(-dt * hbar / (2 * spec.m1._value(t_mid)) * g.k1_sq)
    kin2 = _unit_phase(-dt * hbar / (2 * spec.m2._value(t_mid)) * g.k2_sq)
    psi = fft2(np.multiply(half_pot, state.psi, out=out), overwrite_x=True)
    psi *= kin1[:, None]
    psi *= kin2
    psi = ifft2(psi, overwrite_x=True)
    psi *= half_pot
    return GridState(psi, g, state.time + dt)


def evolve(spec: SystemSpec, state: GridState, t0, t1, n_steps,
           observer=None) -> GridState:
    """Uniform-step evolution from t0 to t1; norm is conserved to roundoff.

    ``observer(state)`` is called after every step when given (used for
    time-series output).  The steps run in three work planes allocated
    once per call, a kick plane and two psi planes used in turn, so the
    state passed to ``observer`` is valid only until the observer
    returns: read what it needs, keep no reference to the state or its
    ``psi``.  The command line's ``oracle`` is the only observer.  The
    returned state owns its ``psi``; ``state`` itself is never written.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if abs(state.time - t0) > 1e-12:
        state = GridState(state.psi, state.grid, float(t0))
    if t1 == t0:
        return state
    bd = state.boundary_density()
    if bd > BOUNDARY_DENSITY_WARN:
        warnings.warn(f"initial boundary density {bd:.2e} above "
                      f"{BOUNDARY_DENSITY_WARN:g}; enlarge the grid extent")
    dt = (float(t1) - float(t0)) / int(n_steps)
    kick, *planes = (np.empty(state.grid.points, dtype=complex) for _ in range(3))
    for k in range(int(n_steps)):
        state = step(spec, state, dt, work=(kick, planes[k % 2]))
        if observer is not None:
            observer(state)
    bd = state.boundary_density()
    if bd > BOUNDARY_DENSITY_WARN:
        warnings.warn(f"final boundary density {bd:.2e} above "
                      f"{BOUNDARY_DENSITY_WARN:g}; enlarge the grid extent")
    return state


def fidelity(a: GridState, b: GridState) -> float:
    """|<a|b>|^2 / (||a||^2 ||b||^2) via grid quadrature."""
    if a.grid.points != b.grid.points or a.grid.extent != b.grid.extent:
        raise GridMismatch("states live on different grids")
    num = abs(np.sum(np.conj(a.psi) * b.psi) * a.grid.cell) ** 2
    return float(num / (a.norm_sq() * b.norm_sq()))


def energy_expectation(spec: SystemSpec, state: GridState) -> float:
    """<H(t)> at the state's own time stamp."""
    from scipy.fft import fft2

    t = spec.check_time(state.time)
    g = state.grid
    hbar = spec.hbar
    dk = np.abs(fft2(state.psi)) ** 2
    # Parseval: grid inner product equals (1/N) spectral inner product
    kin = hbar**2 * (g.k1_sq @ dk.sum(axis=1) / (2 * spec.m1._value(t))
                     + g.k2_sq @ dk.sum(axis=0) / (2 * spec.m2._value(t)))
    kin = kin / state.psi.size * g.cell
    # <V> is linear in the moments <x_j>, <x_j^2> and <x1 x2> of |psi|^2
    a1, b1, a2, b2, lam = _potential_coefficients(spec, t)
    d = state._density
    p1, p2 = state._marginals
    pot = (a1 * (g.x1_sq @ p1) - b1 * (g.x1 @ p1)
           + a2 * (g.x2_sq @ p2) - b2 * (g.x2 @ p2)
           + lam * (g.x1 @ d @ g.x2)) * g.cell
    return float((kin + pot) / state.norm_sq())

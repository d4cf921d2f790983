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
exp(-i dt hbar k2^2 / 2 m2): it is built from two 1D phases as one plane,
their outer product, and applied with one multiply.  The potential half
kick exp(-i dt V / 2 hbar) is built from 1D phases too (``_half_kick``):
the x1 and x2 terms of V are separable, and the coupling phase
theta_i x2_j is split by angle addition over blocks of about sqrt(N2)
columns.  So a kick takes about N1 (N2 / B + B) cos/sin pairs instead of
N1 N2 and never forms V on the plane.  The plane differs from
exp(-i dt V / 2 hbar) on the mesh by roundoff in the phase, a few ulps of
|dt V / 2 hbar|, and keeps |exp| = 1 to a few ulps.  A step checks its
midpoint time once and then reads the coefficients unchecked.

Plane keys.  A step gets its kick and kinetic planes from a ``_StepWork``,
which keeps each plane with the key it was built from: the bytes of
(a1, b1, a2, b2, lam, dt), the ``_potential_coefficients`` at the midpoint
time, for the kick, and of (m1, m2, dt) for the kinetic plane.  A plane is
rebuilt only when its key changes.  ``evolve`` keeps one ``_StepWork`` for
all its steps, so constant coefficients, which repeat bit for bit, build
each plane once per call; a standalone ``step`` builds both planes by the
same code, so ``evolve`` equals ``step`` applied n times bit for bit.
``evolve``'s work also holds two psi planes used in turn: a step writes
the kicked psi into the plane its input does not occupy and transforms it
in place.  A state passed to ``evolve``'s observer is therefore valid only
until the observer returns; the returned state owns its psi.

Transforms are numpy's, always in place (``_fft2``, ``_ifft2``): a 2D
transform is two 1D passes with ``out=``, axis 0 first, the order
``scipy.fft.fft2`` uses, so the spectra equal scipy's.  Two traps of
numpy 2.4.6 decide this form.  An out-of-place ``np.fft.fft2`` allocates
and fills a new plane on every call; at 256^2 it took about twice as
long as the in-place transform (1.44 against 0.64 ms, 2-vCPU VM).  And
``np.fft.ifft2(a, out=w)`` returns wrong values: on a random 256^2 plane
its error is as large as the result itself, and larger still with
``w is a``.  So the inverse is never one 2D call with ``out=``.  This
module loads no scipy.

Observables (``GridState.norm``, ``mean``, ``mean_sq`` and
``energy_expectation``) use the row moments of |psi|^2, the sums over x2
weighted by 1, x2 and x2^2 for every x1 row, which a state computes once,
in one gemm on the squared float view of psi, and shares.
``energy_expectation`` transforms psi into a plane that the caller may
allocate once per run and pass as ``work``; its kinetic term takes the
same kind of row moments of |psi_hat|^2, weighted by 1 and k2^2.
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


def _moment_weights(*columns):
    """(2 N2, k) weights for ``_row_moments``: each value of each column
    twice, once for the real and once for the imaginary part."""
    return np.repeat(np.stack(columns, axis=1), 2, axis=0)


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
    #: ``_row_moments`` weights 1, x2, x2^2 (for |psi|^2) and 1, k2^2
    #: (for |psi_hat|^2)
    _x2_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _k2_weights: np.ndarray = field(init=False, repr=False, compare=False)

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
        ones = np.ones(N2)
        axes["_x2_weights"] = _moment_weights(ones, axes["x2"], axes["x2_sq"])
        axes["_k2_weights"] = _moment_weights(ones, axes["k2_sq"])
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


def _row_moments(plane, weights, out=None):
    """sum_j |plane_ij|^2 w_j for every row i and every weight column w.

    One gemm on the squared float view of the complex plane; ``weights``
    comes from ``_moment_weights``.  The squares go into ``out``, a float
    array of twice the plane's columns, when given (it may be the plane's
    own float view, which is then overwritten).
    """
    flat = np.ascontiguousarray(plane).view(float)
    return np.square(flat, out=out) @ weights


@dataclass(frozen=True)
class GridState:
    """Wave function sampled on ``grid`` at ``time``.

    ``psi`` must not be modified in place: the observables share one
    set of row moments of |psi|^2 (and ``boundary_density`` one |psi|^2),
    computed on first use.
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
        re, im = self.psi.real, self.psi.imag
        return re * re + im * im

    @cached_property
    def _moments(self):
        """(rows, total): for every x1 row the x2 sums of |psi|^2,
        x2 |psi|^2 and x2^2 |psi|^2, an (N1, 3) array, and the sum of
        |psi|^2 over the plane."""
        rows = _row_moments(self.psi, self.grid._x2_weights)
        return rows, np.sum(rows[:, 0])

    def norm_sq(self):
        return float(self._moments[1] * self.grid.cell)

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

    def mean(self, axis):
        rows, total = self._moments
        num = self.grid.x1 @ rows[:, 0] if axis == 0 else np.sum(rows[:, 1])
        return float(num / total)

    def mean_sq(self, axis):
        rows, total = self._moments
        num = self.grid.x1_sq @ rows[:, 0] if axis == 0 else np.sum(rows[:, 2])
        return float(num / total)


def from_gaussian(grid: Grid2D, state: GaussianState2D, time=0.0) -> GridState:
    X1, X2 = grid.mesh()
    return GridState(state(X1, X2), grid, float(time))


def _fft2(a, out):
    """Forward 2D transform of ``a`` into ``out`` (which may be ``a``):
    two 1D passes with ``out=``, axis 0 first, as ``scipy.fft.fft2`` does."""
    np.fft.fft(a, axis=0, out=out)
    return np.fft.fft(out, axis=1, out=out)


def _ifft2(x):
    """Inverse 2D transform of ``x`` in place, axis 0 first.  Not
    ``np.fft.ifft2(x, out=...)``: in numpy 2.4.6 that returns wrong values."""
    np.fft.ifft(x, axis=0, out=x)
    return np.fft.ifft(x, axis=1, out=x)


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


def _key(*values):
    """The bytes of ``values`` as float64: equal keys mean equal bits."""
    return np.array(values, dtype=float).tobytes()


class _StepWork:
    """Planes shared by the steps of one run on one grid and system.

    The kick and kinetic planes are kept with the key they were built
    from and rebuilt when a step's key differs.  ``psi_planes`` receive
    the steps' psi: a step writes into the first one that is not its
    input's psi.
    """

    def __init__(self, shape, n_psi):
        self._kick = np.empty(shape, dtype=complex)
        self._kinetic = np.empty(shape, dtype=complex)
        self._kick_key = self._kinetic_key = None
        self.psi_planes = tuple(np.empty(shape, dtype=complex) for _ in range(n_psi))

    def kick(self, spec, grid, t, dt):
        """The half kick of ``_half_kick`` at checked time t."""
        key = _key(*_potential_coefficients(spec, t), dt)
        if key != self._kick_key:
            _half_kick(spec, grid, t, dt, out=self._kick)
            self._kick_key = key
        return self._kick

    def kinetic(self, spec, grid, t, dt):
        """exp(-i dt hbar (k1^2 / 2 m1 + k2^2 / 2 m2)) at checked time t."""
        m1, m2 = spec.m1._value(t), spec.m2._value(t)
        key = _key(m1, m2, dt)
        if key != self._kinetic_key:
            kin1 = _unit_phase(-dt * spec.hbar / (2 * m1) * grid.k1_sq)
            kin2 = _unit_phase(-dt * spec.hbar / (2 * m2) * grid.k2_sq)
            np.multiply(kin1[:, None], kin2, out=self._kinetic)
            self._kinetic_key = key
        return self._kinetic

    def psi_plane(self, psi):
        return next(p for p in self.psi_planes if p is not psi)


def step(spec: SystemSpec, state: GridState, dt, *, work=None) -> GridState:
    """One Strang step from state.time to state.time + dt.

    Both half kicks use one plane from ``_half_kick`` at the midpoint time;
    it agrees with exp(-i dt V / 2 hbar) on the mesh to roundoff in the
    phase, a few ulps of |dt V / 2 hbar|, not bit for bit.

    ``work`` is for ``evolve``: a ``_StepWork`` of the grid's shape whose
    planes the step reuses or rebuilds by their keys, and whose psi plane
    receives the returned psi.  Without it the step builds its planes
    afresh, by the same code.
    """
    dt = float(dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = state.grid
    if work is None:
        work = _StepWork(g.points, n_psi=1)
    t_mid = spec.check_time(state.time + dt / 2)
    half_pot = work.kick(spec, g, t_mid, dt)
    kinetic = work.kinetic(spec, g, t_mid, dt)
    psi = np.multiply(half_pot, state.psi, out=work.psi_plane(state.psi))
    _fft2(psi, out=psi)
    psi *= kinetic
    _ifft2(psi)
    psi *= half_pot
    return GridState(psi, g, state.time + dt)


def evolve(spec: SystemSpec, state: GridState, t0, t1, n_steps,
           observer=None) -> GridState:
    """Uniform-step evolution from t0 to t1; norm is conserved to roundoff.

    ``observer(state)`` is called after every step when given (used for
    time-series output).  The steps share one ``_StepWork``: a kick and a
    kinetic plane, each rebuilt only when its key changes, and two psi
    planes used in turn, so the state passed to ``observer`` is valid only
    until the observer returns: read what it needs, keep no reference to
    the state or its ``psi``.  The command line's ``oracle`` is the only
    observer.  The returned state owns its ``psi``; ``state`` itself is
    never written.
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
    work = _StepWork(state.grid.points, n_psi=2)
    for _ in range(int(n_steps)):
        state = step(spec, state, dt, work=work)
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


def energy_expectation(spec: SystemSpec, state: GridState, *, work=None) -> float:
    """<H(t)> at the state's own time stamp.

    The spectrum of psi is written into ``work``, a C-contiguous complex
    plane of the grid's shape whose contents are overwritten; a caller
    that evaluates many states allocates it once.  Without it a plane is
    allocated here.
    """
    t = spec.check_time(state.time)
    g = state.grid
    hbar = spec.hbar
    if work is None:
        work = np.empty(g.points, dtype=complex)
    _fft2(state.psi, out=work)
    k_rows = _row_moments(work, g._k2_weights, out=work.view(float))
    # Parseval: grid inner product equals (1/N) spectral inner product
    kin = hbar**2 * (g.k1_sq @ k_rows[:, 0] / (2 * spec.m1._value(t))
                     + np.sum(k_rows[:, 1]) / (2 * spec.m2._value(t)))
    kin = kin / state.psi.size * g.cell
    # <V> is linear in the moments <x_j>, <x_j^2> and <x1 x2> of |psi|^2
    a1, b1, a2, b2, lam = _potential_coefficients(spec, t)
    rows, _ = state._moments
    pot = (a1 * (g.x1_sq @ rows[:, 0]) - b1 * (g.x1 @ rows[:, 0])
           + a2 * np.sum(rows[:, 2]) - b2 * np.sum(rows[:, 1])
           + lam * (g.x1 @ rows[:, 1])) * g.cell
    return float((kin + pot) / state.norm_sq())

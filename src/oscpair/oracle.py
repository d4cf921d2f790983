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
in place.

The helper thread.  ``evolve`` runs one helper thread per call, joined
before it returns or raises.  numpy's FFTs, ufuncs and gemms release the
GIL, so the helper's work overlaps the step in flight.  While step i runs,
the helper builds step i+1's kick and kinetic planes into spare planes
(allocated the first time a key changes, so constant coefficients need
none), and, when step i's input state is observed, computes its row
moments of |psi|^2 and |psi_hat|^2 into the state's private caches
(``GridState._prefetch``).  The helper runs private code only; every
public function and method (``step``, the observables, the observer) runs
on the calling thread, which keeps a tracer that wraps them, such as the
span recorder of the benchmark, on one stack.  Nothing changes order or
operands, so every result is the serial loop's, bit for bit.  The observer
is called on the calling thread one step late, after step i+1 and once
the state's moments are cached.  The state stays valid until the
observer returns, because step i+1 only reads its plane, and no longer:
step i+2 writes there.  The returned state owns its psi.

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
``energy_expectation``'s kinetic term takes the same kind of row moments
of |psi_hat|^2, weighted by 1 and k2^2, also cached on the state.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from queue import SimpleQueue

import numpy as np

from .errors import GridMismatch
from .gaussian import GaussianState2D
from .system import SystemSpec, _potential_coefficients

__all__ = ["Grid2D", "GridState", "from_gaussian", "step", "evolve",
           "fidelity", "energy_expectation", "suggest_extent"]

BOUNDARY_DENSITY_WARN = 1e-12

#: grid sizes per axis are powers of two from MIN_GRID_POINTS to
#: MAX_GRID_POINTS.  At the top, 4096^2, one complex plane takes 256 MiB
#: and an observed time-dependent run holds eight of them (2 GiB); one
#: power of two more would need 8 GiB, so larger sizes are refused before
#: anything is allocated instead of failing in numpy.
MIN_GRID_POINTS = 32
MAX_GRID_POINTS = 4096
GRID_POINTS_RULE = f"powers of two from {MIN_GRID_POINTS} to {MAX_GRID_POINTS}"


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def _grid_points_ok(n):
    return _is_pow2(n) and MIN_GRID_POINTS <= n <= MAX_GRID_POINTS


def _moment_weights(*columns):
    """(2 N2, k) weights for ``_row_moments``: each value of each column
    twice, once for the real and once for the imaginary part."""
    return np.repeat(np.stack(columns, axis=1), 2, axis=0)


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid centered on the origin.

    ``extent`` is the full box length per axis (x in [-L/2, L/2)),
    ``points`` the number of samples per axis (powers of two from 32 to
    4096).
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
    set of row moments of |psi|^2 and one of |psi_hat|^2, computed on
    first use.
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
    def _moments(self):
        """(rows, total): for every x1 row the x2 sums of |psi|^2,
        x2 |psi|^2 and x2^2 |psi|^2, an (N1, 3) array, and the sum of
        |psi|^2 over the plane."""
        return self._x_moments()

    def _x_moments(self, out=None):
        rows = _row_moments(self.psi, self.grid._x2_weights, out=out)
        return rows, np.sum(rows[:, 0])

    def _k_moments(self, work=None):
        """For every k1 row the k2 sums of |psi_hat|^2 and k2^2 |psi_hat|^2,
        an (N1, 2) array, cached.  The spectrum goes into ``work``, a
        C-contiguous complex plane of the grid's shape that is overwritten,
        or into a plane allocated here."""
        rows = self.__dict__.get("_k_rows")
        if rows is None:
            if work is None:
                work = np.empty(self.grid.points, dtype=complex)
            _fft2(self.psi, out=work)
            rows = _row_moments(work, self.grid._k2_weights, out=work.view(float))
            self.__dict__["_k_rows"] = rows
        return rows

    def _prefetch(self, work):
        """Fill the caches of both row moments, with ``work`` (as for
        ``_k_moments``) as the only scratch.  It reads psi and writes only
        the state's private caches, so it may run on another thread while
        psi is read there."""
        if "_moments" not in self.__dict__:
            self.__dict__["_moments"] = self._x_moments(out=work.view(float))
        self._k_moments(work)

    def norm_sq(self):
        return float(self._moments[1] * self.grid.cell)

    def norm(self):
        return float(np.sqrt(self.norm_sq()))

    def normalized(self):
        return GridState(self.psi / self.norm(), self.grid, self.time)

    def boundary_density(self):
        """max |psi|^2 on the boundary ring relative to the global max.

        The |psi|^2 plane is not kept: ``evolve`` checks its input state,
        which the caller keeps through the run, and a cached plane would
        stay in memory beside the run's planes."""
        re, im = self.psi.real, self.psi.imag
        d = re * re + im * im
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


class _Planes:
    """Planes of one kind, kick or kinetic, each kept with its key.

    ``get`` returns the plane of a key and builds it into the first slot
    when no slot holds it; it is for a step without a helper.  In
    ``evolve`` the helper thread ``prepare``s each step's plane while the
    step before it runs, so that step's ``get`` only looks it up.  A
    prepared plane goes into a slot other than the one the step in flight
    reads (the key prepared last); a second slot is allocated the first
    time a key changes.  So constant coefficients keep one plane and
    changing ones two, and the two threads never touch the same plane.
    """

    def __init__(self, shape):
        self._shape = shape
        self._slots = [[None, np.empty(shape, dtype=complex)]]
        self._in_flight = None

    def get(self, key, build):
        for slot_key, plane in self._slots:
            if slot_key == key:
                return plane
        return self._build(self._slots[0], key, build)

    def prepare(self, key, build):
        if all(slot_key != key for slot_key, _ in self._slots):
            slot = next((s for s in self._slots
                         if s[0] is None or s[0] != self._in_flight), None)
            if slot is None:
                slot = [None, np.empty(self._shape, dtype=complex)]
                self._slots.append(slot)
            self._build(slot, key, build)
        self._in_flight = key

    @staticmethod
    def _build(slot, key, build):
        slot[0] = None
        build(slot[1])
        slot[0] = key
        return slot[1]


class _StepWork:
    """Planes shared by the steps of one run on one grid and system.

    The kick and kinetic planes are ``_Planes`` keyed by the coefficients
    they are built from.  ``psi_planes`` receive the steps' psi: a step
    writes into the first one that is not its input's psi.
    """

    def __init__(self, shape, n_psi):
        self._kick = _Planes(shape)
        self._kinetic = _Planes(shape)
        self.psi_planes = tuple(np.empty(shape, dtype=complex) for _ in range(n_psi))

    @staticmethod
    def _kick_job(spec, grid, t, dt):
        """Key and builder of the half kick of ``_half_kick`` at checked time t."""
        key = _key(*_potential_coefficients(spec, t), dt)
        return key, lambda out: _half_kick(spec, grid, t, dt, out=out)

    @staticmethod
    def _kinetic_job(spec, grid, t, dt):
        """Key and builder of exp(-i dt hbar (k1^2 / 2 m1 + k2^2 / 2 m2)) at
        checked time t."""
        m1, m2 = spec.m1._value(t), spec.m2._value(t)

        def build(out):
            kin1 = _unit_phase(-dt * spec.hbar / (2 * m1) * grid.k1_sq)
            kin2 = _unit_phase(-dt * spec.hbar / (2 * m2) * grid.k2_sq)
            np.multiply(kin1[:, None], kin2, out=out)

        return _key(m1, m2, dt), build

    def kick(self, spec, grid, t, dt):
        return self._kick.get(*self._kick_job(spec, grid, t, dt))

    def kinetic(self, spec, grid, t, dt):
        return self._kinetic.get(*self._kinetic_job(spec, grid, t, dt))

    def prepare(self, spec, grid, t, dt):
        """Build the planes of a step at midpoint time t (a float) unless
        they are at hand.  Outside the system's domain nothing is built:
        that step's own time check raises."""
        t = np.asarray(t, dtype=float)
        if spec.t_min <= t <= spec.t_max:
            self._kick.prepare(*self._kick_job(spec, grid, t, dt))
            self._kinetic.prepare(*self._kinetic_job(spec, grid, t, dt))

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
           observer=None, *, every=1) -> GridState:
    """Uniform-step evolution from t0 to t1; norm is conserved to roundoff.

    ``observer(state)``, when given, is called with the state after every
    ``every``-th step and after the last (used for time-series output).
    The steps share one ``_StepWork``: a kick and a kinetic plane, each
    rebuilt only when its key changes, and two psi planes used in turn.

    One helper thread per call, joined before the call returns or raises,
    works beside the steps.  While step i runs it builds step i+1's kick
    and kinetic planes into spare planes, and it computes the row moments
    of |psi|^2 and |psi_hat|^2 of the state the step reads, if that state
    is observed, into the state's private caches.  The helper runs private
    code only (``_StepWork.prepare``, ``GridState._prefetch``); every
    public call, ``step`` and the observer included, runs on the calling
    thread.  Nothing changes order or operands, so the result equals
    ``step`` applied n times, bit for bit.

    The observer runs on the calling thread one step late: after step
    i+1, once the state's moments are cached.  The state stays valid
    until the observer returns, because step i+1 only reads its plane:
    read what it needs, keep no reference to the state or its ``psi``.
    If a step raises, the state before it is not observed.  The command
    line's ``oracle`` is the only observer.  The returned state owns its
    ``psi``; ``state`` itself is never written.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if every < 1:
        raise ValueError("every must be >= 1")
    if abs(state.time - t0) > 1e-12:
        state = GridState(state.psi, state.grid, float(t0))
    if t1 == t0:
        return state
    bd = state.boundary_density()
    if bd > BOUNDARY_DENSITY_WARN:
        warnings.warn(f"initial boundary density {bd:.2e} above "
                      f"{BOUNDARY_DENSITY_WARN:g}; enlarge the grid extent")
    dt = (float(t1) - float(t0)) / int(n_steps)
    with _Helper() as helper:
        state = _steps(spec, state, dt, int(n_steps), observer, every, helper)
    bd = state.boundary_density()
    if bd > BOUNDARY_DENSITY_WARN:
        warnings.warn(f"final boundary density {bd:.2e} above "
                      f"{BOUNDARY_DENSITY_WARN:g}; enlarge the grid extent")
    return state


def _steps(spec, state, dt, n, observer, every, helper):
    """``evolve``'s n steps, with ``helper`` beside them.  The work planes
    are freed once this returns and the helper is joined, before the final
    density check."""
    g = state.grid
    work = _StepWork(g.points, n_psi=2)
    scratch = None if observer is None else np.empty(g.points, dtype=complex)

    def observed(k):
        return observer is not None and k > 0 and (k % every == 0 or k == n)

    work.prepare(spec, g, state.time + dt / 2, dt)
    for k in range(1, n + 1):
        # the next step's midpoint, (state.time + dt) + dt / 2 as it will add it
        t_next = state.time + dt + dt / 2 if k < n else None
        seen = state if observed(k - 1) else None
        helper.submit(_side_work, work, spec, g, t_next, dt, seen, scratch)
        new = step(spec, state, dt, work=work)
        helper.wait()
        if seen is not None:
            observer(seen)
        state = new
    if observed(n):
        state._prefetch(scratch)
        observer(state)
    return state


def _side_work(work, spec, grid, t_next, dt, seen, scratch):
    """The helper's share of a step: the next step's planes (midpoint time
    ``t_next``, None after the last step) and the moments of ``seen``, the
    state the step reads if it is observed."""
    if t_next is not None:
        work.prepare(spec, grid, t_next, dt)
    if seen is not None:
        seen._prefetch(scratch)


class _Helper:
    """One worker thread that runs submitted calls in order.

    ``wait`` returns once the oldest call not yet waited for has finished,
    and raises what it raised.  Leaving the ``with`` block stops the thread
    and joins it, after the calls already submitted.
    """

    def __init__(self):
        self._jobs = SimpleQueue()
        self._done = SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="oracle-helper")

    def _run(self):
        while (job := self._jobs.get()) is not None:
            try:
                job[0](*job[1])
            except BaseException as exc:  # handed to the calling thread
                self._done.put(exc)
            else:
                self._done.put(None)

    def submit(self, fn, *args):
        self._jobs.put((fn, args))

    def wait(self):
        exc = self._done.get()
        if exc is not None:
            raise exc

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._jobs.put(None)
        self._thread.join()


def fidelity(a: GridState, b: GridState) -> float:
    """|<a|b>|^2 / (||a||^2 ||b||^2) via grid quadrature."""
    if a.grid.points != b.grid.points or a.grid.extent != b.grid.extent:
        raise GridMismatch("states live on different grids")
    num = abs(np.sum(np.conj(a.psi) * b.psi) * a.grid.cell) ** 2
    return float(num / (a.norm_sq() * b.norm_sq()))


def energy_expectation(spec: SystemSpec, state: GridState) -> float:
    """<H(t)> at the state's own time stamp.

    The kinetic term reads the state's cached row moments of
    |psi_hat|^2, which are computed here when they are not cached yet.
    """
    t = spec.check_time(state.time)
    g = state.grid
    hbar = spec.hbar
    k_rows = state._k_moments()
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

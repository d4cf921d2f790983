import sys
import threading
import time

import numpy as np
import pytest
from scipy import fft as sfft

import oscpair.oracle
from oscpair import (
    DomainError,
    GaussianState2D,
    Grid2D,
    GridMismatch,
    GridState,
    SystemSpec,
    energy_expectation,
    evolve,
    fidelity,
    from_gaussian,
    potential,
    step,
    suggest_extent,
)
from oscpair.coefficients import Constant, Exponential, Polynomial, Power, Sinusoidal
from oscpair.system import _potential, _potential_coefficients

from conftest import SHIPPED, ck_spec, const_spec, random_admissible_spec


def driven_spec():
    """Coupled and driven, with unequal time-dependent masses and hbar != 1."""
    return SystemSpec(
        m1=Exponential(1.0, 0.3), m2=Power(1.2, 0.1, 2),
        omega1=Constant(1.1), omega2=Sinusoidal(1.8, 0.2, 1.3),
        f1=Sinusoidal(0.0, 0.3, 1.5), f2=Constant(-0.2),
        coupling=Polynomial((0.4, 0.1)), t_min=0.0, t_max=3.0, hbar=0.8)


def constant_mass_spec():
    """Constant masses, time-dependent and driven potential, hbar != 1."""
    return SystemSpec(
        m1=Constant(1.3), m2=Constant(0.8),
        omega1=Sinusoidal(1.1, 0.2, 0.9), omega2=Constant(1.7),
        f1=Sinusoidal(0.0, 0.3, 1.5), f2=Constant(-0.2),
        coupling=Polynomial((0.4, 0.1)), t_min=0.0, t_max=3.0, hbar=0.8)


def textbook_step(spec, state, dt):
    """Strang step built from the meshes, ``potential`` and a 2D kinetic phase."""
    t_mid = state.time + dt / 2
    X1, X2 = state.grid.mesh()
    K1, K2 = state.grid.k_mesh()
    half_pot = np.exp(-0.5j * dt / spec.hbar * potential(spec, X1, X2, t_mid))
    kin = np.exp(-1j * dt * spec.hbar * (K1**2 / (2 * spec.m1(t_mid))
                                         + K2**2 / (2 * spec.m2(t_mid))))
    psi = half_pot * sfft.ifft2(kin * sfft.fft2(half_pot * state.psi))
    return GridState(psi, state.grid, state.time + dt)


STEP_CASES = {
    "caldirola-kanai": (ck_spec, (14.0, 14.0), (64, 64)),
    "driven": (driven_spec, (14.0, 14.0), (64, 64)),
    "non-square": (driven_spec, (12.0, 20.0), (64, 128)),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_matches_textbook_step(case):
    make_spec, extent, points = STEP_CASES[case]
    spec = make_spec()
    grid = Grid2D(extent=extent, points=points)
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.5, -0.3), momentum=(0.4, -0.2), sigma=(0.8, 1.1),
        hbar=spec.hbar)).normalized()
    # the potential from the cached axes is the mesh potential, bit for bit
    t = spec.check_time(0.7)
    X1, X2 = grid.mesh()
    V = _potential(_potential_coefficients(spec, t),
                   grid.x1[:, None], grid.x2, grid.x1_sq[:, None], grid.x2_sq)
    assert np.array_equal(V, potential(spec, X1, X2, 0.7))
    fast = ref = st
    for _ in range(64):
        fast = step(spec, fast, 1.0 / 64)
        ref = textbook_step(spec, ref, 1.0 / 64)
    assert fast.time == ref.time
    assert np.max(np.abs(fast.psi - ref.psi)) <= 1e-13


KICK_GRIDS = {
    "32x32": ((10.0, 10.0), (32, 32)),
    "32x256": ((8.0, 14.0), (32, 256)),
    "256x32": ((14.0, 8.0), (256, 32)),
    "64x128": ((12.0, 16.0), (64, 128)),
}


@pytest.mark.parametrize("case", sorted(KICK_GRIDS))
def test_half_kick_matches_mesh_exponential(case):
    extent, points = KICK_GRIDS[case]
    spec = driven_spec()
    grid = Grid2D(extent=extent, points=points)
    X1, X2 = grid.mesh()
    dt = 0.1
    for t in (0.2, 1.3, 2.5):
        phase = -0.5 * dt / spec.hbar * potential(spec, X1, X2, t)
        assert np.max(np.abs(phase)) > 5.0  # several radians of coupled phase
        plane = oscpair.oracle._half_kick(spec, grid, t, dt)
        assert plane.shape == points
        assert np.max(np.abs(plane - np.exp(1j * phase))) <= 1e-13
        assert np.max(np.abs(np.abs(plane) - 1.0)) <= 8 * np.finfo(float).eps


def test_step_takes_no_phase_over_the_whole_plane(monkeypatch):
    sizes = []
    unit_phase = oscpair.oracle._unit_phase

    def recording(phi):
        sizes.append(np.size(phi))
        return unit_phase(phi)

    monkeypatch.setattr(oscpair.oracle, "_unit_phase", recording)
    spec = driven_spec()
    grid = Grid2D(extent=(14.0, 14.0), points=(256, 256))
    st = from_gaussian(grid, GaussianState2D.coherent(hbar=spec.hbar), time=0.5)
    step(spec, st, 0.01)
    n1, n2 = grid.points
    assert sizes and max(sizes) < n1 * n2
    # blocks of 16 columns: two (256, 16) tables, then three 1D phases
    assert sum(sizes) == n1 * (n2 // 16 + 16) + n2 + n1 + n2


@pytest.mark.parametrize("seed", range(12))
def test_step_matches_textbook_step_on_random_systems(seed):
    rng = np.random.default_rng([7001, seed])
    spec = random_admissible_spec(rng, kind=seed % 3, drive=seed % 2 == 1)
    grid = Grid2D(extent=(16.0, 16.0), points=(64, 64))
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.6, -0.4), momentum=(0.3, 0.5), sigma=(0.9, 1.1),
        hbar=spec.hbar), time=0.3).normalized()
    fast = ref = st
    for _ in range(32):
        fast = step(spec, fast, 1.0 / 32)
        ref = textbook_step(spec, ref, 1.0 / 32)
    assert np.max(np.abs(fast.psi - ref.psi)) <= 1e-13
    assert abs(fast.norm_sq() - st.norm_sq()) <= 1e-13


def test_observables_match_direct_sums():
    spec = driven_spec()
    grid = Grid2D(extent=(12.0, 20.0), points=(64, 128))
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.7, -1.2), momentum=(0.5, 0.3), sigma=(0.9, 1.4),
        hbar=spec.hbar), time=0.4)
    X1, X2 = grid.mesh()
    st = GridState(st.psi * np.exp(0.3j * X1 * X2), grid, 0.4)
    d = np.abs(st.psi) ** 2
    K1, K2 = grid.k_mesh()
    kin = spec.hbar**2 * (K1**2 / (2 * spec.m1(0.4)) + K2**2 / (2 * spec.m2(0.4)))
    energy = (np.sum(kin * np.abs(sfft.fft2(st.psi)) ** 2) / d.size
              + np.sum(potential(spec, X1, X2, 0.4) * d)) / np.sum(d)
    pairs = [(st.mean(0), np.sum(X1 * d) / np.sum(d)),
             (st.mean(1), np.sum(X2 * d) / np.sum(d)),
             (st.mean_sq(0), np.sum(X1**2 * d) / np.sum(d)),
             (st.mean_sq(1), np.sum(X2**2 * d) / np.sum(d)),
             (energy_expectation(spec, st), energy)]
    for got, want in pairs:
        assert abs(got - want) / max(1.0, abs(want)) <= 1e-13


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(extent=(10.0, 10.0), points=(48, 64))  # not a power of two
    with pytest.raises(ValueError):
        Grid2D(extent=(10.0, 10.0), points=(16, 64))  # too small
    with pytest.raises(ValueError):
        Grid2D(extent=(-1.0, 10.0), points=(64, 64))
    g = Grid2D(extent=(10.0, 20.0), points=(64, 128))
    assert g.dx == (10.0 / 64, 20.0 / 128)


def test_plane_wave_kinetic_phase_is_exact():
    spec = const_spec(w1=0.0, w2=0.0)
    grid = Grid2D(extent=(16.0, 16.0), points=(64, 64))
    X1, X2 = grid.mesh()
    k = grid.k1[3]  # on the momentum lattice, so periodic on the box
    psi = np.exp(1j * k * X1)
    st = GridState(psi, grid, 0.0)
    dt = 0.37
    out = step(spec, st, dt)
    expected = psi * np.exp(-1j * spec.hbar * k**2 * dt / 2.0)
    assert np.max(np.abs(out.psi - expected)) < 1e-13


def test_identity_when_t1_equals_t0():
    spec = const_spec()
    grid = Grid2D(extent=(14.0, 14.0), points=(64, 64))
    st = from_gaussian(grid, GaussianState2D.coherent())
    out = evolve(spec, st, 0.0, 0.0, 5)
    assert out is st


def test_norm_conservation():
    spec = ck_spec()
    grid = Grid2D(extent=(14.0, 14.0), points=(64, 64))
    st = from_gaussian(grid, GaussianState2D.coherent(center=(0.4, -0.2))).normalized()
    out = evolve(spec, st, 0.0, 2.0, 1000)
    assert abs(out.norm_sq() - 1.0) <= 1e-12


def test_free_gaussian_spreading_on_grid():
    spec = const_spec(w1=0.0, w2=0.0)
    grid = Grid2D(extent=(22.0, 22.0), points=(128, 128))
    s0 = 0.8
    st = from_gaussian(grid, GaussianState2D.coherent(sigma=(s0, s0))).normalized()
    T = 1.5
    out = evolve(spec, st, 0.0, T, 100)
    var = out.mean_sq(0) - out.mean(0) ** 2
    expected = s0**2 * (1 + (T / (2 * s0**2)) ** 2)
    assert var == pytest.approx(expected, abs=1e-6)


def test_static_coherent_center_oscillates():
    spec = const_spec()
    grid = Grid2D(extent=(16.0, 16.0), points=(128, 128))
    x0 = 0.25
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(x0, 0.0), sigma=(np.sqrt(0.5),) * 2)).normalized()
    T = 2 * np.pi
    n = 2048
    steps, centers = [], []

    def observer(state):
        steps.append(state.time)
        if len(steps) % 256 == 0:
            centers.append((state.time, state.mean(0)))

    evolve(spec, st, 0.0, T, n, observer=observer)
    assert len(centers) == 8
    for t, c in centers:
        assert c == pytest.approx(x0 * np.cos(t), abs=1e-6)


def test_second_order_convergence():
    # Richardson order on a time-dependent-coefficient scenario
    spec = ck_spec()
    grid = Grid2D(extent=(14.0, 14.0), points=(64, 64))
    st = from_gaussian(grid, GaussianState2D.coherent(center=(0.5, -0.3))).normalized()
    ref = evolve(spec, st, 0.0, 1.0, 2048)
    e = []
    for n in (128, 256):
        out = evolve(spec, st, 0.0, 1.0, n)
        e.append(np.sqrt(np.sum(np.abs(out.psi - ref.psi) ** 2) * grid.cell))
    order = np.log2(e[0] / e[1])
    assert 1.8 <= order <= 2.2


def test_fidelity_properties():
    grid = Grid2D(extent=(16.0, 16.0), points=(64, 64))
    st = from_gaussian(grid, GaussianState2D.coherent(center=(0.3, 0.1)))
    assert fidelity(st, st) == pytest.approx(1.0, abs=1e-14)
    phased = GridState(st.psi * np.exp(1.7j), grid, st.time)
    assert fidelity(st, phased) == pytest.approx(1.0, abs=1e-14)
    # first two oscillator eigenstates are orthogonal on an adequate grid
    X1, _ = grid.mesh()
    ground = np.exp(-X1**2 / 2)
    excited = X1 * np.exp(-X1**2 / 2)
    g = GridState(ground * np.exp(-grid.mesh()[1] ** 2 / 2), grid, 0.0)
    e = GridState(excited * np.exp(-grid.mesh()[1] ** 2 / 2), grid, 0.0)
    assert fidelity(g, e) <= 1e-12


def test_grid_mismatch():
    a = from_gaussian(Grid2D(extent=(16.0, 16.0), points=(64, 64)),
                      GaussianState2D.coherent())
    b = from_gaussian(Grid2D(extent=(16.0, 16.0), points=(128, 128)),
                      GaussianState2D.coherent())
    with pytest.raises(GridMismatch):
        fidelity(a, b)


def test_energy_conserved_for_constant_coefficients():
    # over one exact period the Strang energy wobble cancels; mid-period
    # it oscillates at O(dt^2), so the tight check is at t = 2 pi
    spec = const_spec(w1=1.0, w2=1.0, lam=0.0)
    grid = Grid2D(extent=(16.0, 16.0), points=(128, 128))
    st = from_gaussian(grid, GaussianState2D.coherent(center=(0.5, -0.3))).normalized()
    e0 = energy_expectation(spec, st)
    out = evolve(spec, st, 0.0, 2 * np.pi, 2048)
    e1 = energy_expectation(spec, out)
    assert e1 == pytest.approx(e0, rel=1e-8)
    # coupled constant-coefficient case: bounded O(dt^2) wobble, no drift
    spec2 = const_spec(w1=1.0, w2=2.0, lam=1.5)
    st2 = from_gaussian(grid, GaussianState2D.coherent(center=(0.5, -0.3))).normalized()
    e0 = energy_expectation(spec2, st2)
    out = evolve(spec2, st2, 0.0, 2 * np.pi, 2048)
    assert energy_expectation(spec2, out) == pytest.approx(e0, rel=1e-4)


def test_boundary_warning():
    spec = const_spec(w1=0.0, w2=0.0)
    tiny = Grid2D(extent=(4.0, 4.0), points=(32, 32))
    st = from_gaussian(tiny, GaussianState2D.coherent(sigma=(0.9, 0.9)))
    with pytest.warns(UserWarning, match="boundary density"):
        evolve(spec, st, 0.0, 0.1, 2)


def test_suggest_extent():
    g = GaussianState2D.coherent(center=(1.0, 0.0), sigma=(0.5, 1.0))
    L1, L2 = suggest_extent([g], n_sigma=12.0)
    assert L1 == pytest.approx(2 * (1.0 + 12 * 0.5))
    assert L2 == pytest.approx(2 * 12.0)


@pytest.mark.filterwarnings("ignore:initial boundary density",
                            "ignore:final boundary density")
def test_evolve_reuses_work_planes_with_step_by_step_results():
    """``evolve`` equals ``step`` applied n times, bit for bit, in its three
    work planes; its input state is never written and the returned state's
    psi shares memory with nothing the caller holds."""
    spec = driven_spec()
    grid = Grid2D(extent=(12.0, 20.0), points=(64, 128))
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.5, -0.3), momentum=(0.4, -0.2), sigma=(0.8, 1.1),
        hbar=spec.hbar), time=0.2).normalized()
    psi0 = st.psi.copy()
    n = 9
    seen, planes = [], set()

    def observer(state):
        seen.append((state.time, state.norm(), state.psi.copy()))
        planes.add(state.psi.__array_interface__["data"][0])

    out = evolve(spec, st, 0.2, 1.4, n, observer=observer)
    assert np.array_equal(st.psi, psi0)
    assert not np.shares_memory(out.psi, st.psi)
    assert len(planes) == 2  # two psi planes, used in turn
    ref = st
    for time, norm, psi in seen:
        ref = step(spec, ref, (1.4 - 0.2) / n)
        assert time == ref.time
        assert norm == ref.norm()
        assert np.array_equal(psi, ref.psi)
    assert np.array_equal(out.psi, ref.psi) and out.time == ref.time
    # the returned state is the caller's: a second run does not touch it
    again = evolve(spec, st, 0.2, 1.4, n)
    assert np.array_equal(out.psi, ref.psi)
    assert np.array_equal(again.psi, ref.psi)


def test_evolve_steps_through_module_step(monkeypatch):
    # the traced benchmark run (perfbench/spans.py) counts oracle steps by
    # wrapping the module's ``step``; evolve must call it by that name
    calls = []
    original = oscpair.oracle.step

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(oscpair.oracle, "step", counted)
    grid = Grid2D(extent=(14.0, 14.0), points=(64, 64))
    st = from_gaussian(grid, GaussianState2D.coherent()).normalized()
    evolve(const_spec(), st, 0.0, 0.5, 5)
    assert calls == [0.1] * 5


@pytest.mark.parametrize("shape", [(64, 32), (32, 256), (256, 256)])
def test_in_place_transforms_match_scipy(shape):
    """The transform path of ``step`` and ``energy_expectation``: numpy's
    1D passes with ``out=``, against scipy's out-of-place 2D transforms.
    Not ``np.fft.ifft2(a, out=w)``: in numpy 2.4.6 it returns wrong
    values, with an error as large as the result on a random 256^2 plane."""
    rng = np.random.default_rng([7002, *shape])
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a.setflags(write=False)
    ref = sfft.fft2(a)
    spectrum = np.empty(shape, dtype=complex)
    assert oscpair.oracle._fft2(a, out=spectrum) is spectrum
    assert np.max(np.abs(spectrum - ref)) <= 1e-15 * np.max(np.abs(ref))
    x = a.copy()
    oscpair.oracle._fft2(x, out=x)
    assert np.max(np.abs(x - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert oscpair.oracle._ifft2(x) is x
    assert np.max(np.abs(x - sfft.ifft2(ref))) <= 1e-15 * np.max(np.abs(a))


#: spec, then whether its potential and its masses are constant
PLANE_REUSE = {
    "constant": (lambda: const_spec(w1=1.1, w2=1.9, lam=0.7, f1=0.2, m1=1.3,
                                    m2=0.8, hbar=0.9, t_max=3.0), True, True),
    "constant-mass": (constant_mass_spec, False, True),
    "driven": (driven_spec, False, False),
}


@pytest.mark.filterwarnings("ignore:initial boundary density",
                            "ignore:final boundary density")
@pytest.mark.parametrize("case", sorted(PLANE_REUSE))
def test_evolve_rebuilds_a_plane_only_when_its_key_changes(case, monkeypatch):
    """Constant coefficients build each plane once per ``evolve``; the
    run still equals ``step`` applied n times, bit for bit, and each
    standalone step builds both planes."""
    make_spec, constant_v, constant_m = PLANE_REUSE[case]
    spec = make_spec()
    grid = Grid2D(extent=(14.0, 16.0), points=(64, 128))
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.5, -0.3), momentum=(0.4, -0.2), sigma=(0.8, 1.1),
        hbar=spec.hbar), time=0.2).normalized()
    n = 9
    built = []
    half_kick, unit_phase = oscpair.oracle._half_kick, oscpair.oracle._unit_phase

    def counted_kick(*args, **kwargs):
        built.append("kick")
        return half_kick(*args, **kwargs)

    def counted_phase(phi):
        if np.shape(phi) == (grid.points[0],):  # the k1 factor of a kinetic plane
            built.append("kinetic")
        return unit_phase(phi)

    monkeypatch.setattr(oscpair.oracle, "_half_kick", counted_kick)
    monkeypatch.setattr(oscpair.oracle, "_unit_phase", counted_phase)
    seen = []
    out = evolve(spec, st, 0.2, 1.4, n, observer=lambda s: seen.append(s.psi.copy()))
    assert built.count("kick") == (1 if constant_v else n)
    assert built.count("kinetic") == (1 if constant_m else n)
    built.clear()
    ref = st
    for psi in seen:
        ref = step(spec, ref, (1.4 - 0.2) / n)
        assert np.array_equal(psi, ref.psi)
    assert np.array_equal(out.psi, ref.psi) and out.time == ref.time
    assert built.count("kick") == built.count("kinetic") == n


def test_energy_expectation_work_plane():
    spec = driven_spec()
    grid = Grid2D(extent=(12.0, 20.0), points=(64, 128))
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.7, -1.2), momentum=(0.5, 0.3), sigma=(0.9, 1.4),
        hbar=spec.hbar), time=0.4)
    psi0 = st.psi.copy()
    work = np.full(grid.points, np.nan, dtype=complex)
    e = energy_expectation(spec, st, work=work)
    assert e == energy_expectation(spec, st)
    assert energy_expectation(spec, st, work=work) == e  # a used plane works too
    assert np.array_equal(st.psi, psi0)


def _row(state, spec):
    """What the command line's ``oracle`` records of an observed state."""
    return (state.time, state.norm(), state.mean(0), state.mean(1),
            state.mean_sq(0), state.mean_sq(1), energy_expectation(spec, state))


def serial_evolve(spec, state, dt, n, observer, every):
    """The loop ``evolve`` ran before its helper thread: ``step`` n times
    and the observer inline, right after each observed step."""
    for k in range(1, n + 1):
        state = step(spec, state, dt)
        if k % every == 0 or k == n:
            observer(state)
    return state


@pytest.mark.filterwarnings("ignore:initial boundary density",
                            "ignore:final boundary density")
@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("name", SHIPPED)
def test_pipelined_evolve_equals_the_serial_loop(name, every, shipped):
    """The helper changes no order and no operand: the final psi and every
    observed (time, norm, means, energy) equal the serial loop's bits."""
    sc = shipped[name]
    spec, (t0, t1) = sc.system, sc.window
    st = from_gaussian(sc.grid(points=64), sc.initial_state().normalized(), time=t0)
    n = 32
    rows, ref_rows = [], []
    out = evolve(spec, st, t0, t1, n, observer=lambda s: rows.append(_row(s, spec)),
                 every=every)
    ref = serial_evolve(spec, st, (t1 - t0) / n, n,
                        lambda s: ref_rows.append(_row(s, spec)), every)
    assert len(rows) == (n // every) + (n % every != 0)
    assert rows == ref_rows
    assert out.time == ref.time
    assert np.array_equal(out.psi, ref.psi)


@pytest.mark.filterwarnings("ignore:initial boundary density",
                            "ignore:final boundary density")
def test_pipelined_evolve_equals_the_serial_loop_on_a_driven_system():
    spec = driven_spec()
    grid = Grid2D(extent=(12.0, 20.0), points=(64, 128))
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.5, -0.3), momentum=(0.4, -0.2), sigma=(0.8, 1.1),
        hbar=spec.hbar), time=0.2).normalized()
    rows, ref_rows = [], []
    out = evolve(spec, st, 0.2, 2.6, 40, observer=lambda s: rows.append(_row(s, spec)),
                 every=7)
    ref = serial_evolve(spec, st, 2.4 / 40, 40, lambda s: ref_rows.append(_row(s, spec)), 7)
    assert len(rows) == 6  # steps 7, 14, 21, 28, 35 and the last
    assert rows == ref_rows
    assert np.array_equal(out.psi, ref.psi)


def _small_run(spec=None):
    spec = spec or const_spec()
    grid = Grid2D(extent=(14.0, 14.0), points=(64, 64))
    return spec, from_gaussian(grid, GaussianState2D.coherent(hbar=spec.hbar)).normalized()


def test_evolve_joins_its_helper_on_return_and_on_errors(monkeypatch):
    """One helper thread per call, joined before ``evolve`` returns or
    raises: an observer's exception and a step's ``DomainError`` reach the
    caller as they are, and so does one raised on the helper."""
    before = threading.active_count()
    spec, st = _small_run(driven_spec())
    evolve(spec, st, 0.0, 0.5, 5, observer=lambda s: None)
    evolve(spec, st, 0.0, 0.5, 5)
    assert threading.active_count() == before

    boom = RuntimeError("observer failed")
    seen = []

    def failing(state):
        seen.append(state.time)
        if len(seen) == 2:
            raise boom

    with pytest.raises(RuntimeError) as info:
        evolve(spec, st, 0.0, 0.5, 5, observer=failing)
    assert info.value is boom
    assert threading.active_count() == before

    # the window leaves the domain [0, 3] in its third step, as at the
    # serial loop, with the same error
    with pytest.raises(DomainError) as serial:
        serial_evolve(spec, st, 1.4, 4, lambda s: None, 1)
    with pytest.raises(DomainError) as piped:
        evolve(spec, st, 0.0, 5.6, 4, observer=lambda s: None)
    assert str(piped.value) == str(serial.value)
    assert threading.active_count() == before

    half_kick = oscpair.oracle._half_kick
    built = []

    def failing_kick(*args, **kwargs):
        built.append(threading.get_ident())
        if len(built) == 3:
            raise MemoryError("no plane")
        return half_kick(*args, **kwargs)

    monkeypatch.setattr(oscpair.oracle, "_half_kick", failing_kick)
    with pytest.raises(MemoryError, match="no plane"):
        evolve(spec, st, 0.0, 0.5, 5, observer=lambda s: None)
    assert built[-1] != threading.get_ident()  # raised on the helper
    assert threading.active_count() == before
    with pytest.raises(ValueError, match="every must be >= 1"):
        evolve(spec, st, 0.0, 0.5, 5, every=0)


def test_public_calls_stay_on_the_calling_thread(monkeypatch):
    """The span recorder keeps one stack, so ``step`` and the observer run
    on the caller's thread; plane builds after the first step's and the
    observed states' spectra run on the helper."""
    caller = threading.get_ident()
    threads = {"step": set(), "observer": set(), "kick": set(), "fft": set()}
    original_step, half_kick = oscpair.oracle.step, oscpair.oracle._half_kick
    fft2 = oscpair.oracle._fft2

    def on(kind, fn):
        def wrapped(*args, **kwargs):
            threads[kind].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(oscpair.oracle, "step", on("step", original_step))
    monkeypatch.setattr(oscpair.oracle, "_half_kick", on("kick", half_kick))
    monkeypatch.setattr(oscpair.oracle, "_fft2", on("fft", fft2))
    spec, st = _small_run(driven_spec())
    evolve(spec, st, 0.0, 0.5, 5, observer=on("observer", lambda s: s.norm()))
    assert threads["step"] == threads["observer"] == {caller}
    assert len(threads["kick"] - {caller}) == 1
    assert len(threads["fft"] - {caller}) == 1


#: the spec's number of kick and of kinetic planes in an ``evolve``
PLANE_SLOTS = {"constant": (1, 1), "constant-mass": (2, 1), "driven": (2, 2)}


@pytest.mark.filterwarnings("ignore:initial boundary density",
                            "ignore:final boundary density")
@pytest.mark.parametrize("case", sorted(PLANE_SLOTS))
def test_spare_planes_only_when_a_key_changes(case, monkeypatch):
    works = []
    step_work = oscpair.oracle._StepWork

    def recorded(*args, **kwargs):
        works.append(step_work(*args, **kwargs))
        return works[-1]

    monkeypatch.setattr(oscpair.oracle, "_StepWork", recorded)
    spec, st = _small_run(PLANE_REUSE[case][0]())
    evolve(spec, st, 0.2, 1.4, 9, observer=lambda s: None)
    (work,) = works
    assert (len(work._kick._slots), len(work._kinetic._slots)) == PLANE_SLOTS[case]


#: plane shapes of the transforms the calling thread and the helper run at once
FFT_SHAPES = [(32, 32), (64, 32), (32, 64), (64, 64), (128, 32), (32, 256),
              (128, 128), (256, 64), (256, 256)]


def test_numpy_fft_gives_the_same_bits_on_two_threads():
    """The helper transforms a state while the calling thread transforms a
    step's psi; numpy releases the GIL inside its FFT.  Transforms run on
    two threads at once (for about 1.5 s) must equal the ones run on
    one thread, bit for bit, so a numpy whose FFT is not thread-safe fails
    here."""
    rng = np.random.default_rng(7003)
    planes = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in FFT_SHAPES]

    def transforms(a):
        spectrum = oscpair.oracle._fft2(a, out=np.empty_like(a))
        return spectrum, oscpair.oracle._ifft2(spectrum.copy())

    want = [transforms(a) for a in planes]
    deadline = time.perf_counter() + 1.5
    rounds, bad = [0, 0], []
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        order = list(range(len(planes)))[::1 if i == 0 else -1]
        while rounds[i] < 2 or (time.perf_counter() < deadline and rounds[i] < 200):
            for j in order:
                got = transforms(planes[j])
                if not all(np.array_equal(g, w) for g, w in zip(got, want[j])):
                    bad.append((i, FFT_SHAPES[j]))
            rounds[i] += 1

    threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert min(rounds) >= 2
    assert bad == []


@pytest.mark.filterwarnings("ignore:initial boundary density",
                            "ignore:final boundary density")
def test_pipelined_evolve_under_thread_switching():
    """Three callers, each with its own helper (six threads on fewer
    cores), switching threads every few microseconds: a plane the helper
    wrote while a step read it, or a state observed after its plane was
    reused, would change the bits of the rows or of the final psi."""
    spec = driven_spec()
    grid = Grid2D(extent=(14.0, 14.0), points=(32, 32))
    st = from_gaussian(grid, GaussianState2D.coherent(
        center=(0.5, -0.3), momentum=(0.4, -0.2), sigma=(0.8, 1.1),
        hbar=spec.hbar), time=0.2).normalized()
    ref_rows = []
    ref = serial_evolve(spec, st, 2.4 / 48, 48, lambda s: ref_rows.append(_row(s, spec)), 2)
    results = [[] for _ in range(3)]

    def caller(i):
        deadline = time.perf_counter() + 1.5
        while len(results[i]) < 2 or (time.perf_counter() < deadline
                                      and len(results[i]) < 100):
            rows = []
            out = evolve(spec, st, 0.2, 2.6, 48,
                         observer=lambda s: rows.append(_row(s, spec)), every=2)
            results[i].append(rows == ref_rows and np.array_equal(out.psi, ref.psi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(len(r) >= 2 and all(r) for r in results)

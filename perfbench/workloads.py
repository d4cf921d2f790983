"""Seeded inputs, the command-line op of each workload, and output checks.

Every workload runs one ``oscpair`` subcommand per op on seeded variants
of the seven shipped scenarios.  A variant keeps everything of its shipped
scenario except the window, which the seed draws inside ``[t_min, t_max]``
with a length of 90-100% of the shipped window, so the op cost hardly
depends on the seed.  The seed also draws the kernel evaluation points
and the residual sample seed.  The program only ever sees the generated
files.

Each op's output is checked against an independent computation made with
the library outside the timed region; an op whose check fails counts as
failed.  The warm-up op of the set-up runs on an unmodified copy of the
shipped caldirola-kanai scenario; its output is the run's fingerprint and
is compared with ``reference.json``, recorded with ``record_reference.py``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oscpair.decoupling import decoupled_at_angle, solve_angle
from oscpair.propagator import build_kernel, propagate_gaussian
from oscpair.scenario import load_scenario

WORKLOADS = ("kernel", "evolve", "residual", "oracle")

KERNEL_POINTS = 1024
EVOLVE_STEPS = 64
RESIDUAL_POINTS = 20
#: 128 Strang steps keep the oracle's final means within 2e-5 of the closed
#: form on every shipped scenario, inside the 1e-4 check
ORACLE_STEPS = 128
WINDOW_FRACTION = (0.9, 1.0)
WARMUP_SCENARIO = "caldirola-kanai"
#: scenarios with time-dependent masses, where the lw kernel must fail
LW_FAILS = ("caldirola-kanai", "equal-effective-frequency")
#: another auxiliary initial condition: the kernel must not depend on it
ALT_IC = (1.3, 0.2)

KERNEL_REF_RTOL = 1e-6
NORM_TOL = 1e-9
VARIANTS_EQUAL_RTOL = 1e-12
SEMIGROUP_TOL = 1e-8
RESIDUAL_CORRECTED_MAX = 1e-4
RESIDUAL_LW_MIN = 1e-2
ORACLE_NORM_DRIFT = 1e-12
ORACLE_MEAN_TOL = 1e-4
FINGERPRINT_TOL = {"kernel": 1e-6, "evolve": 1e-8, "residual": 1e-2, "oracle": 1e-8}
FINGERPRINT_ROWS = 8

HEADERS = {
    "kernel": ["x1q", "x2q", "x1p", "x2p", "ReK", "ImK"],
    "evolve": ["t", "x1_mean", "x2_mean", "p1_mean", "p2_mean",
               "var_x1", "var_x2", "cov_x1x2", "norm", "phase"],
    "residual": ["variant", "t", "x1q", "x2q", "x1p", "x2p", "residual"],
    "oracle": ["t", "norm", "x1_mean", "x2_mean",
               "x1_sq_mean", "x2_sq_mean", "energy"],
}


@dataclass(frozen=True)
class Variant:
    """One generated scenario file plus the op inputs drawn with it."""

    base: str
    path: str
    points_path: str
    points: np.ndarray
    residual_seed: int
    window: tuple


def scenario_dir(root):
    return Path(root) / "src" / "oscpair" / "scenarios"


def shipped_names(root):
    return sorted(p.stem for p in scenario_dir(root).glob("*.json"))


def _write_variant(workdir, tag, base, doc, window, points, residual_seed):
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    doc = dict(doc, window=list(window), name=f"{base}-{tag}")
    path = workdir / f"{tag}.json"
    path.write_text(json.dumps(doc, indent=1))
    points_path = workdir / f"{tag}-points.csv"
    np.savetxt(points_path, points, fmt="%.17g", delimiter=",")
    return Variant(base=base, path=str(path), points_path=str(points_path),
                   points=points, residual_seed=residual_seed,
                   window=tuple(window))


def write_variants(root, workdir, seed):
    """The seeded variant of every shipped scenario, in name order."""
    rng = np.random.default_rng(seed)
    out = []
    for i, base in enumerate(shipped_names(root)):
        doc = json.loads((scenario_dir(root) / f"{base}.json").read_text())
        w0, w1 = doc["window"]
        length = (w1 - w0) * rng.uniform(*WINDOW_FRACTION)
        start = rng.uniform(doc["t_min"], doc["t_max"] - length)
        window = (start, min(start + length, doc["t_max"]))
        points = rng.normal(scale=math.sqrt(doc.get("hbar", 1.0)),
                            size=(KERNEL_POINTS, 4))
        residual_seed = int(rng.integers(2**31))
        out.append(_write_variant(workdir, f"v{i}", base, doc, window,
                                  points, residual_seed))
    return out


def write_warmup(root, workdir):
    """Seed-independent copy of the shipped warm-up scenario."""
    doc = json.loads((scenario_dir(root) / f"{WARMUP_SCENARIO}.json").read_text())
    points = np.random.default_rng(0).normal(size=(KERNEL_POINTS, 4))
    return _write_variant(workdir, "warmup", WARMUP_SCENARIO, doc,
                          tuple(doc["window"]), points, 0)


def cycle(workload, variants):
    """One cycle of ops as (variant, kernel variant or None)."""
    if workload == "kernel":
        return [(v, kind) for kind in ("corrected", "lw") for v in variants]
    return [(v, None) for v in variants]


def argv(workload, variant, kind, out):
    common = ["--scenario", variant.path, "--out", str(out)]
    if workload == "kernel":
        return ["kernel", *common, "--points", variant.points_path,
                "--variant", kind]
    if workload == "evolve":
        return ["evolve", *common, "--steps", str(EVOLVE_STEPS)]
    if workload == "residual":
        return ["residual", *common, "--variant", "both",
                "--points", str(RESIDUAL_POINTS),
                "--seed", str(variant.residual_seed)]
    if workload == "oracle":
        return ["oracle", *common, "--steps", str(ORACLE_STEPS)]
    raise ValueError(f"unknown workload {workload!r}")


def read_table(path):
    """(header, rows) of a CSV file written by the command line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _numeric(rows):
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def _max_scaled_error(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def fit_log_kernel(points, K, log_ref):
    """Least-squares (c0, L, M) with log K = c0 + L.q + q.M.q/2 at the points.

    The phase of K is unwrapped against ``log_ref``, a reference log-kernel
    at the same points.  Returns (c0, L, M, largest fit residual).
    """
    phase_ref = log_ref.imag
    y = np.log(np.abs(K)) + 1j * (phase_ref + np.angle(K * np.exp(-1j * phase_ref)))
    iu = np.triu_indices(4, 1)
    q = points
    A = np.column_stack([np.ones(len(q)), q, 0.5 * q**2, q[:, iu[0]] * q[:, iu[1]]])
    coef = np.linalg.lstsq(A.astype(complex), y, rcond=None)[0]
    M = np.diag(coef[5:9])
    M[iu] = coef[9:]
    M[iu[1], iu[0]] = coef[9:]
    return complex(coef[0]), coef[1:5], M, float(np.max(np.abs(A @ coef - y)))


class Checker:
    """Checks one workload's outputs; library references are cached per input."""

    def __init__(self, workload):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self._cache = {}
        self._kernel_values = {}

    def _cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def scenario(self, variant):
        return self._cached(("scenario", variant.path),
                            lambda: load_scenario(variant.path))

    def _decoupled(self, variant):
        sc = self.scenario(variant)

        def make():
            if sc.alpha is not None:
                return decoupled_at_angle(sc.system, sc.alpha, gamma_tol=sc.gamma_tol)
            return solve_angle(sc.system, gamma_tol=sc.gamma_tol)
        return self._cached(("decoupled", variant.path), make)

    def kernel(self, variant, kind, ic=(1.0, 0.0)):
        sc = self.scenario(variant)
        return self._cached(
            ("kernel", variant.path, kind, ic),
            lambda: build_kernel(self._decoupled(variant), *sc.window,
                                 variant=kind, quad_order=sc.quad_order,
                                 quad_panels=sc.quad_panels, ode_tol=sc.ode_tol,
                                 caustic_tol=sc.caustic_tol, ermakov_ic=ic))

    def final_state(self, variant):
        """Initial Gaussian pushed through one corrected kernel for the window."""
        sc = self.scenario(variant)
        return self._cached(
            ("final", variant.path),
            lambda: propagate_gaussian(self.kernel(variant, "corrected"),
                                       sc.initial_state().normalized()))

    def check(self, variant, kind, header, rows):
        """Problems found in one op's output; an empty list means correct."""
        if header != HEADERS[self.workload]:
            return [f"unexpected CSV header {header}"]
        if not rows:
            return ["no output rows"]
        try:
            return getattr(self, "_check_" + self.workload)(variant, kind, rows)
        except (ValueError, RuntimeError) as exc:
            return [f"check failed: {type(exc).__name__}: {exc}"]

    def _check_kernel(self, v, kind, rows):
        arr = _numeric(rows)
        if arr.shape != (len(v.points), 6):
            return [f"kernel output has shape {arr.shape}"]
        problems = []
        if not np.array_equal(arr[:, :4], v.points):
            problems.append("echoed points differ from the input points")
        K = arr[:, 4] + 1j * arr[:, 5]
        ref = self.kernel(v, kind, ALT_IC)
        log_ref = ref.log_evaluate(*v.points.T)
        rel = float(np.max(np.abs(K - np.exp(log_ref)) / np.abs(np.exp(log_ref))))
        if not rel <= KERNEL_REF_RTOL:
            problems.append(f"kernel differs from the reference by {rel:.2e} (relative)")
        c0, L, M, fit_err = fit_log_kernel(v.points, K, log_ref)
        fitted = dataclasses.replace(ref, c0=c0, L=L, M=M)
        norm = propagate_gaussian(
            fitted, self.scenario(v).initial_state().normalized()).norm()
        if not abs(norm - 1.0) <= NORM_TOL:
            problems.append(f"propagated Gaussian has norm {norm!r} "
                            f"(fit residual {fit_err:.1e})")
        other = "lw" if kind == "corrected" else "corrected"
        other_K = self._kernel_values.get((v.path, other))
        if other_K is not None and self._constant_mass(v):
            gap = float(np.max(np.abs(K - other_K) / np.abs(other_K)))
            if not gap <= VARIANTS_EQUAL_RTOL:
                problems.append(f"corrected and lw differ by {gap:.2e} at constant mass")
        self._kernel_values[(v.path, kind)] = K
        return problems

    def _constant_mass(self, v):
        spec = self.scenario(v).system
        ts = np.linspace(spec.t_min, spec.t_max, 257)
        return self._cached(
            ("constant_mass", v.path),
            lambda: all(np.all(spec.mass_deriv(j, ts) == 0.0) for j in (1, 2)))

    def _check_evolve(self, v, kind, rows):
        arr = _numeric(rows)
        if arr.shape != (EVOLVE_STEPS + 1, 10):
            return [f"evolve output has shape {arr.shape}"]
        problems = []
        times = np.linspace(*v.window, EVOLVE_STEPS + 1)
        if not _max_scaled_error(arr[:, 0], times) <= 1e-12:
            problems.append("evolve output times do not span the window")
        st = self.final_state(v)
        cov = st.covariance_position()
        want = [*st.mean_position(), *st.mean_momentum(),
                cov[0, 0], cov[1, 1], cov[0, 1]]
        gap = _max_scaled_error(arr[-1, 1:8], want)
        if not gap <= SEMIGROUP_TOL:
            problems.append(f"final moments differ from a one-shot kernel by {gap:.2e}")
        drift = float(np.max(np.abs(arr[:, 8] - 1.0)))
        if not drift <= NORM_TOL:
            problems.append(f"norm departs from 1 by {drift:.2e}")
        return problems

    def _check_residual(self, v, kind, rows):
        problems = []
        worst = {}
        for name in ("corrected", "lw"):
            vals = np.array([float(r[6]) for r in rows if r[0] == name])
            times = np.array([float(r[1]) for r in rows if r[0] == name])
            if vals.size != RESIDUAL_POINTS or not np.all(np.isfinite(vals)):
                problems.append(f"{name}: {vals.size} finite residuals expected "
                                f"{RESIDUAL_POINTS}")
                continue
            if np.any(times <= v.window[0]) or np.any(times >= v.window[1]):
                problems.append(f"{name}: sample times outside the window")
            worst[name] = float(np.max(vals))
        if len(rows) != 2 * RESIDUAL_POINTS:
            problems.append(f"{len(rows)} residual rows")
        if not worst.get("corrected", 0.0) <= RESIDUAL_CORRECTED_MAX:
            problems.append(f"corrected residual {worst['corrected']:.2e} "
                            f"above {RESIDUAL_CORRECTED_MAX:g}")
        if v.base in LW_FAILS and not worst.get("lw", 1.0) >= RESIDUAL_LW_MIN:
            problems.append(f"lw residual {worst['lw']:.2e} below "
                            f"{RESIDUAL_LW_MIN:g} with time-dependent masses")
        return problems

    def _check_oracle(self, v, kind, rows):
        arr = _numeric(rows)
        if arr.ndim != 2 or arr.shape[1] != 7:
            return [f"oracle output has shape {arr.shape}"]
        problems = []
        if not np.all(np.isfinite(arr)):
            problems.append("non-finite oracle output")
        if not abs(arr[-1, 0] - v.window[1]) <= 1e-9:
            problems.append(f"oracle ends at t = {arr[-1, 0]!r}")
        drift = float(np.max(np.abs(arr[:, 1] - arr[0, 1])))
        if not drift <= ORACLE_NORM_DRIFT:
            problems.append(f"oracle norm drift {drift:.2e}")
        gap = float(np.max(np.abs(arr[-1, 2:4] - self.final_state(v).mean_position())))
        if not gap <= ORACLE_MEAN_TOL:
            problems.append(f"oracle final means differ from the closed form by {gap:.2e}")
        return problems


def fingerprint(workload, rows):
    """Summary of a warm-up op's output recorded in every result."""
    if workload == "kernel":
        return [[float(r[4]), float(r[5])] for r in rows[:FINGERPRINT_ROWS]]
    if workload == "residual":
        return {name: max(float(r[6]) for r in rows if r[0] == name)
                for name in ("corrected", "lw")}
    return [float(v) for v in rows[-1]]


def compare_fingerprint(workload, got, ref):
    """Problems when a fingerprint moved from the recorded reference."""
    tol = FINGERPRINT_TOL[workload]
    if workload == "kernel":
        g = np.array(got) @ [1.0, 1j]
        r = np.array(ref) @ [1.0, 1j]
        gap = float(np.max(np.abs(g - r) / np.abs(r)))
    elif workload == "residual":
        if not got["corrected"] <= RESIDUAL_CORRECTED_MAX:
            return [f"warm-up corrected residual {got['corrected']:.2e}"]
        gap = abs(got["lw"] - ref["lw"]) / ref["lw"]
    else:
        gap = _max_scaled_error(got, ref)
    if not gap <= tol:
        return [f"fingerprint moved by {gap:.2e} from the reference (tolerance {tol:g})"]
    return []

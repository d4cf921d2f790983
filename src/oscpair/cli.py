"""Command-line front end.

Subcommands
-----------
decouple   solve for the rotation angle; print alpha, gamma_max, admissible
           and a CSV of (t, Omega1_sq, Omega2_sq, F1, F2, Gamma)
kernel     evaluate K on position tuples from a CSV/JSON file; emit CSV
           (x1q, x2q, x1p, x2p, ReK, ImK); optionally dump auxiliary data
evolve     propagate the scenario's Gaussian state; emit a CSV time series
           of means, covariances, norm and global phase (one auxiliary
           solve for the window, shared by every interval's kernel)
oracle     split-operator evolution; emit CSV observables and optionally a
           binary |psi|^2 dump
compare    corrected vs lw variant vs oracle; exit 0 iff the corrected
           variant passes its thresholds
residual   finite-difference Schrodinger residual of the kernel at sampled
           interior points

Exit codes: 0 success; 1 validation failure (bad config, inadmissible
system, compare thresholds unmet); 2 numerical failure (caustic, solver);
3 I/O error.  All numbers are printed with 17 significant digits so CSV
output round-trips bit-exactly; rows are emitted in fixed order.  Every
table goes through one writer, ``_write_csv``, which takes whole columns,
formats each row with one ``%.17g`` template and writes the rows in one
piece; string cells are quoted as the csv module quotes them.

A points file is CSV (an optional header line, then rows of four
numbers) or a JSON list of such rows.  Every value must be a finite
number; anything else is a validation failure naming the points file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import struct
import sys

import numpy as np

from .comparison import discrepancy_significant, run_comparison
from .decoupling import channel_quantities, decoupled_at_angle, solve_angle
from .errors import (
    CausticError,
    DomainError,
    InadmissibleSystem,
    NonConvergentGaussian,
    NonPositiveRho,
    SchemaError,
    SolverFailure,
)
from .oracle import energy_expectation, evolve, from_gaussian
from .propagator import (
    build_kernel,
    propagate_gaussian,
    schrodinger_residual,
    solve_channels,
)
from .scenario import load_scenario

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

COMPARE_FIDELITY_MIN = 1.0 - 1e-4
COMPARE_RESIDUAL_MAX = 1e-4

#: integer options that count something and must be positive; the
#: ``--points`` of ``kernel`` is a file name and is not checked
COUNT_OPTIONS = ("steps", "rows", "grid", "points", "t_points", "aux_points")


ROWS_MESSAGE = "points file must contain rows of (x1q, x2q, x1p, x2p)"


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _quoted(cell):
    """A string cell as ``csv.writer`` writes it among other cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([cell, ""])
    return buf.getvalue()[:-2]


def _write_csv(path, header, columns):
    """Write ``header`` and one row per index of the equal-length ``columns``.

    A column is an array, or a list or tuple of numbers or of strings.
    Strings are quoted as ``csv.writer`` quotes them (minimal quoting);
    numbers are converted to float and printed with ``%.17g``, which
    round-trips every float64.  The rows are formatted with one template
    and written in one piece.
    """
    cells = []
    formats = []
    for col in columns:
        if not isinstance(col, np.ndarray) and col and isinstance(col[0], str):
            cells.append([_quoted(v) for v in col])
            formats.append("%s")
        else:
            cells.append(np.asarray(col, dtype=float).tolist())
            formats.append("%.17g")
    template = ",".join(formats) + "\n"
    fh, close = _open_out(path)
    try:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.write("".join(template % row for row in zip(*cells)))
    finally:
        if close:
            fh.close()


def _decoupled(sc):
    if sc.alpha is not None:
        return decoupled_at_angle(sc.system, sc.alpha, gamma_tol=sc.gamma_tol)
    return solve_angle(sc.system, gamma_tol=sc.gamma_tol)


# --- subcommand implementations --------------------------------------------

def _cmd_decouple(args):
    sc = load_scenario(args.scenario)
    dec = _decoupled(sc)
    print("alpha = %.17g" % dec.alpha)
    print("gamma_max = %.17g" % dec.gamma_max)
    print("worst_t = %.17g" % dec.worst_t)
    print(f"admissible = {'true' if dec.admissible else 'false'}")
    ts = np.linspace(sc.system.t_min, sc.system.t_max, args.t_points)
    quantities = channel_quantities(sc.system, dec.alpha, ts)
    _write_csv(args.out, ["t", "omega1_sq", "omega2_sq", "F1", "F2", "gamma"],
               [ts, *quantities])
    return EXIT_OK


def _read_points(path):
    """(n, 4) finite floats from a CSV (optional header line) or JSON file."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise SchemaError([ROWS_MESSAGE])
        for v in _leaves(data):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(
                    [f"points file holds a non-numeric value: {json.dumps(v)}"])
        try:
            pts = np.asarray(data, dtype=float)
        except OverflowError:
            raise SchemaError(["points file holds a non-finite value"]) from None
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows and not all(_is_number(v) for v in rows[0]):
            rows = rows[1:]  # header line
        pts = np.array(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise SchemaError([ROWS_MESSAGE])
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise SchemaError(
            [f"points file holds a non-finite value in point {bad[0] + 1}"])
    return pts


def _leaves(data):
    """The values inside nested lists, depth first."""
    for item in data:
        if isinstance(item, list):
            yield from _leaves(item)
        else:
            yield item


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _cmd_kernel(args):
    sc = load_scenario(args.scenario)
    pts = _read_points(args.points)
    dec = _decoupled(sc)
    kern = build_kernel(dec, sc.window[0], sc.window[1], variant=args.variant,
                        quad_order=sc.quad_order, quad_panels=sc.quad_panels,
                        ode_tol=sc.ode_tol, caustic_tol=sc.caustic_tol)
    K = kern.evaluate(*pts.T)
    _write_csv(args.out, ["x1q", "x2q", "x1p", "x2p", "ReK", "ImK"],
               [*pts.T, K.real, K.imag])
    if args.dump_aux:
        ts = np.linspace(sc.window[0], sc.window[1], args.aux_points)
        cols = [ts]
        for ch in kern.channels:
            cols += ch.solution.rho_drho_phi(ts)
        _write_csv(args.dump_aux,
                   ["t", "rho1", "drho1", "phi1", "rho2", "drho2", "phi2"], cols)
    return EXIT_OK


def _cmd_evolve(args):
    sc = load_scenario(args.scenario)
    dec = _decoupled(sc)
    state = sc.initial_state()
    t0, t1 = sc.window
    times = np.linspace(t0, t1, args.steps + 1)
    rows = []

    def record(t, st):
        mu = st.mean_position()
        mom = st.mean_momentum()
        cov = st.covariance_position()
        phase = float(np.angle(np.exp(1j * np.imag(st.c))))
        rows.append((t, mu[0], mu[1], mom[0], mom[1],
                     cov[0, 0], cov[1, 1], cov[0, 1], st.norm(), phase))

    record(times[0], state)
    sols = solve_channels(dec, t0, t1, ode_tol=sc.ode_tol)
    for ta, tb in zip(times[:-1], times[1:]):
        kern = build_kernel(dec, ta, tb,
                            quad_order=sc.quad_order, quad_panels=sc.quad_panels,
                            caustic_tol=sc.caustic_tol, solutions=sols)
        state = propagate_gaussian(kern, state)
        record(tb, state)
    _write_csv(args.out, ["t", "x1_mean", "x2_mean", "p1_mean", "p2_mean",
                          "var_x1", "var_x2", "cov_x1x2", "norm", "phase"],
               zip(*rows))
    return EXIT_OK


def _cmd_oracle(args):
    sc = load_scenario(args.scenario)
    spec = sc.system
    grid = sc.grid(points=args.grid)
    n_steps = sc.grid_steps if args.steps is None else args.steps
    t0, t1 = sc.window
    state = from_gaussian(grid, sc.initial_state().normalized(), time=t0)
    stride = max(1, n_steps // args.rows)
    rows = []
    taken = 0

    def record(st):
        rows.append((st.time, st.norm(), st.mean(0), st.mean(1),
                     st.mean_sq(0), st.mean_sq(1), energy_expectation(spec, st)))

    def every_stride(st):
        nonlocal taken
        taken += 1
        if taken % stride == 0 or taken == n_steps:
            record(st)

    record(state)
    state = evolve(spec, state, t0, t1, n_steps, observer=every_stride)
    _write_csv(args.out, ["t", "norm", "x1_mean", "x2_mean",
                          "x1_sq_mean", "x2_sq_mean", "energy"], zip(*rows))
    if args.dump_psi:
        density = np.abs(state.psi) ** 2
        n1, n2 = grid.points
        with open(args.dump_psi, "wb") as fh:
            fh.write(struct.pack("<iiii", n1, n2, 0, 0))
            fh.write(density.astype("<f8").tobytes(order="C"))
    return EXIT_OK


def _cmd_compare(args):
    sc = load_scenario(args.scenario)
    dec = _decoupled(sc)
    grid = sc.grid(points=args.grid)
    n_steps = sc.grid_steps if args.steps is None else args.steps
    rep_c, rep_lw = run_comparison(
        dec, sc.window, sc.initial_state(), grid, n_steps,
        scenario_id=sc.name or args.scenario, seed=args.seed,
        quad_order=sc.quad_order, quad_panels=sc.quad_panels, ode_tol=sc.ode_tol)
    header = ["scenario", "variant", "fidelity_vs_oracle", "max_residual",
              "gamma_max", "alpha", "maslov1", "maslov2",
              "t_start", "t_end", "grid_n1", "grid_n2", "n_steps"]
    rows = [(r.scenario, r.variant, r.fidelity_vs_oracle, r.max_residual,
             r.gamma_max, r.alpha, r.maslov[0], r.maslov[1],
             r.window[0], r.window[1], r.grid_points[0], r.grid_points[1],
             r.n_steps) for r in (rep_c, rep_lw)]
    _write_csv(args.out, header, zip(*rows))
    print(f"corrected: fidelity {rep_c.fidelity_vs_oracle:.12f}, "
          f"max residual {rep_c.max_residual:.3e} "
          f"({rep_c.runtime_s:.1f}s)", file=sys.stderr)
    print(f"lw:        fidelity {rep_lw.fidelity_vs_oracle:.12f}, "
          f"max residual {rep_lw.max_residual:.3e}", file=sys.stderr)
    print(f"discrepancy significant: {discrepancy_significant(rep_c, rep_lw)}",
          file=sys.stderr)
    ok = (rep_c.fidelity_vs_oracle >= COMPARE_FIDELITY_MIN
          and rep_c.max_residual <= COMPARE_RESIDUAL_MAX)
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_residual(args):
    sc = load_scenario(args.scenario)
    dec = _decoupled(sc)
    variants = ("corrected", "lw") if args.variant == "both" else (args.variant,)
    rows = []
    for variant in variants:
        ts, pts, res = schrodinger_residual(
            dec, sc.window[0], sc.window[1], variant=variant,
            n_points=args.points, seed=args.seed,
            quad_order=sc.quad_order, quad_panels=sc.quad_panels,
            ode_tol=sc.ode_tol)
        for t, pt, r in zip(ts, pts, res):
            rows.append((variant, t, pt[0], pt[1], pt[2], pt[3], r))
        print(f"{variant}: max residual {np.max(res):.6e}", file=sys.stderr)
    _write_csv(args.out, ["variant", "t", "x1q", "x2q", "x1p", "x2p", "residual"],
               zip(*rows))
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="oscpair",
        description="Exact propagators for two coupled, driven time-dependent "
                    "oscillators, with a split-operator cross-check.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--scenario", required=True,
                        help="path to a scenario JSON file")
        sp.add_argument("--out", default=None,
                        help="output CSV path (default: stdout)")

    sp = sub.add_parser("decouple", help="solve for the decoupling angle")
    add_common(sp)
    sp.add_argument("--t-points", type=int, default=512,
                    help="rows in the channel-quantity CSV (default 512)")
    sp.set_defaults(func=_cmd_decouple)

    sp = sub.add_parser("kernel", help="evaluate the propagator at points")
    add_common(sp)
    sp.add_argument("--points", required=True,
                    help="CSV/JSON file of (x1q, x2q, x1p, x2p) rows")
    sp.add_argument("--variant", choices=["corrected", "lw"], default="corrected")
    sp.add_argument("--dump-aux", default=None,
                    help="also write CSV of (t, rho_j, drho_j, phi_j)")
    sp.add_argument("--aux-points", type=int, default=512,
                    help="rows in the auxiliary dump (default 512)")
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("evolve", help="evolve the Gaussian state analytically")
    add_common(sp)
    sp.add_argument("--steps", type=int, default=64,
                    help="number of output intervals (default 64)")
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("oracle", help="split-operator reference evolution")
    add_common(sp)
    sp.add_argument("--grid", type=int, default=None,
                    help="grid points per axis (default from scenario)")
    sp.add_argument("--steps", type=int, default=None,
                    help="time steps (default from scenario)")
    sp.add_argument("--rows", type=int, default=64,
                    help="target number of CSV rows (default 64)")
    sp.add_argument("--dump-psi", default=None,
                    help="binary dump of final |psi|^2 (16-byte header: "
                         "int32 n1, n2, 0, 0; then row-major float64 LE)")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("compare", help="corrected vs lw variant vs oracle")
    add_common(sp)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for residual sample points")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("residual", help="finite-difference Schrodinger residual")
    add_common(sp)
    sp.add_argument("--variant", choices=["corrected", "lw", "both"],
                    default="both")
    sp.add_argument("--points", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_residual)
    return p


@functools.cache
def _parser():
    """The parser :func:`main` uses, built on its first call (argparse is
    slow to build and keeps no state between ``parse_args`` calls)."""
    return build_parser()


def _option_problem(args):
    """The first out-of-range count or seed, as a message; None if all fit."""
    for name in COUNT_OPTIONS:
        n = getattr(args, name, None)
        if isinstance(n, int) and n <= 0:
            return f"--{name.replace('_', '-')} must be positive, got {n}"
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        return f"--seed must be non-negative, got {seed}"
    return None


def main(argv=None):
    args = _parser().parse_args(argv)
    problem = _option_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except SchemaError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, InadmissibleSystem, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CausticError, SolverFailure, NonPositiveRho,
            NonConvergentGaussian) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

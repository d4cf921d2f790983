"""A/B of the ``kernel`` benchmark ops of two checkouts, in one process.

Usage (from anywhere)::

    python3 tools/kernel_ab.py A B [--seed N] [--rounds R] [--tol X]

A and B are the roots of two checkouts.  The ``oscpair`` of each
(``A/src/oscpair``, ``B/src/oscpair``) is imported under its own name
(``oscpair_a``, ``oscpair_b``), so both run in one interpreter on one
thread.  The tool writes one seeded variant set of the seven shipped
scenarios of A (``perfbench/workloads.py``), runs the 14 ``kernel`` ops
of the benchmark (``--variant corrected|lw``, 1,024 points) once with
each checkout and checks that every op's exit code, stderr and CSV bytes
are identical; a difference exits 1 before any timing.  With ``--tol X``
the exit codes and stderr must still be identical, while each op's CSV
need only agree to a scaled error |b - a| / max(1, |a|) of at most X per
cell (``cli_snapshot.py --compare``'s measure); the largest scaled error
of each op is printed.

Then it runs R rounds.  In each round every op runs with A and with B,
in alternating order, so that both see the same load; the round prints
the ops/s of each (14 ops over the summed op times) and their ratio B/A.
The end prints three tables.  The first gives, per op, the best time of
the whole op and of ``solve_channels`` (both channels' auxiliary solves)
under A and B, and the median over the rounds of the op's minor page
faults (``ru_minflt`` of the process) under A and B.  The second gives,
per op, the best time of ``cli.load_scenario`` (parse), ``cli._decoupled``
(the decoupling angle and its verdict) and ``propagator.build_kernels``
(the kernel's assembly from the solve) under A and B; the third, that of
``cli._read_points`` (the points file) and of ``cli._write_csv`` (the
kernel table).  Each table ends with the sums over the 14 ops.  Read the ratios: the absolute times
depend on the host, and the faults on what the process freed before
(glibc's thresholds for returning memory to the system move with the
sizes freed).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_package(root, name):
    """The ``oscpair`` package of the checkout at ``root``, imported as ``name``."""
    pkg_dir = Path(root).resolve() / "src" / "oscpair"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no src/oscpair in {root}")
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "propagator"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def load_tool(name):
    """``tools/<name>.py`` of this checkout, as a module."""
    spec = importlib.util.spec_from_file_location(f"_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """``perfbench/workloads.py`` of this checkout, which imports ``oscpair``."""
    try:
        import oscpair  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


#: the stages timed inside each op: (module, function) of a checkout
STAGES = (("propagator", "solve_channels"), ("cli", "load_scenario"), ("cli", "_decoupled"),
          ("propagator", "build_kernels"), ("cli", "_read_points"), ("cli", "_write_csv"))


class Side:
    """One checkout's ``oscpair``, with the ``STAGES`` timed per op."""

    def __init__(self, pkg, out):
        self.pkg = pkg
        self.out = out
        self.stage_s = [0.0] * len(STAGES)
        for j, (module, name) in enumerate(STAGES):
            module = getattr(pkg, module)
            setattr(module, name, self._timed(j, getattr(module, name)))

    def _timed(self, j, func):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.stage_s[j] += perf_counter() - t0

        return timed

    def run(self, wl, variant, kind):
        """(exit code, stderr, op seconds, seconds per stage, minor page
        faults) of one op."""
        self.stage_s = [0.0] * len(STAGES)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = perf_counter()
            rc = self.pkg.cli.main(wl.argv("kernel", variant, kind, self.out))
            dt = perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return rc, err.getvalue(), dt, self.stage_s, faults


def print_table(labels, stages, faults=None):
    """Per op and summed over the ops: the best milliseconds of each
    (name, best[side][op]) stage under A and B and their ratio A/B, then
    the median minor page faults[side][op] if given."""
    head = f"\n{'op':36s}"
    for name, _ in stages:
        head += f" {name + ' A ms':>11s} {name + ' B ms':>11s} {name + ' A/B':>10s}"
    if faults is not None:
        head += f" {'flt A':>7s} {'flt B':>7s}"
    print(head)
    rows = [(label, [[side[i] for side in best] for _, best in stages],
             None if faults is None else [side[i] for side in faults])
            for i, label in enumerate(labels)]
    rows.append(("sum of best", [[sum(side) for side in best] for _, best in stages],
                 None if faults is None else [sum(side) for side in faults]))
    for label, times, flt in rows:
        line = f"{label:36s}"
        for a, b in times:
            ratio = a / b if b else float("nan")  # a stage that did not run
            line += f" {1e3 * a:11.2f} {1e3 * b:11.2f} {ratio:10.3f}"
        if flt is not None:
            line += f" {flt[0]:7.0f} {flt[1]:7.0f}"
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="root of checkout A (the baseline)")
    parser.add_argument("b", help="root of checkout B (the change)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--tol", type=float, default=None,
                        help="largest scaled error of a CSV cell (default: byte identity)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.tol is not None and not args.tol >= 0:
        parser.error("--tol must be a non-negative number")
    compare_csv = load_tool("cli_snapshot").compare_csv if args.tol is not None else None

    wl = load_workloads()
    with tempfile.TemporaryDirectory(prefix="kernel_ab-") as tmp:
        tmp = Path(tmp)
        sides = [Side(load_package(args.a, "oscpair_a"), tmp / "a.csv"),
                 Side(load_package(args.b, "oscpair_b"), tmp / "b.csv")]
        ops = wl.cycle("kernel", wl.write_variants(args.a, tmp / "variants", args.seed))
        labels = [f"{v.base}/{kind}" for v, kind in ops]

        worst = 0.0
        for label, (variant, kind) in zip(labels, ops):
            for side in sides:
                side.out.unlink(missing_ok=True)
            got = [side.run(wl, variant, kind)[:2] + (side.out.read_bytes()
                                                      if side.out.exists() else b"",)
                   for side in sides]
            if compare_csv is None:
                if got[0] != got[1]:
                    print(f"DIFFERENT: {label}: exit code, stderr or CSV bytes differ")
                    return 1
                continue
            if got[0][:2] != got[1][:2]:
                print(f"DIFFERENT: {label}: exit code or stderr differ")
                return 1
            try:
                err = compare_csv(got[0][2].decode(), got[1][2].decode())
            except ValueError as exc:
                print(f"DIFFERENT: {label}: CSV {exc}")
                return 1
            print(f"{label:36s} largest scaled CSV difference {err:.3e}")
            if not err <= args.tol:
                print(f"DIFFERENT: {label}: scaled difference {err:.3e} above {args.tol:g}")
                return 1
            worst = max(worst, err)
        if compare_csv is None:
            print(f"outputs: all {len(ops)} kernel ops byte-identical (seed {args.seed})")
        else:
            print(f"outputs: all {len(ops)} kernel ops agree to {worst:.3e} scaled, "
                  f"within {args.tol:g} (seed {args.seed})")

        # best[j][s][i]: the op (j = 0) or stage j - 1, side s, op i
        best = [[[float("inf")] * len(ops) for _ in sides] for _ in range(1 + len(STAGES))]
        faults = [[[] for _ in ops] for _ in sides]
        ratios = []
        for r in range(args.rounds):
            total = [0.0, 0.0]
            for i, (variant, kind) in enumerate(ops):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                for s in order:
                    _, _, dt, stage_s, flt = sides[s].run(wl, variant, kind)
                    faults[s][i].append(flt)
                    total[s] += dt
                    for j, sec in enumerate([dt, *stage_s]):
                        best[j][s][i] = min(best[j][s][i], sec)
            rate = [len(ops) / t for t in total]
            ratios.append(rate[1] / rate[0])
            print(f"round {r + 1}: A {rate[0]:.1f} ops/s, B {rate[1]:.1f} ops/s, "
                  f"B/A {ratios[-1]:.3f}")
        print(f"median B/A ops/s ratio: {statistics.median(ratios):.3f}")

        flt = [[statistics.median(f) for f in side] for side in faults]
        print_table(labels, [("op", best[0]), ("solve", best[1])], flt)
        print_table(labels, [("load", best[2]), ("decouple", best[3]), ("assemble", best[4])])
        print_table(labels, [("read", best[5]), ("write", best[6])])
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
The end prints, per op, the best time of the whole op and of
``solve_channels`` (both channels' auxiliary solves) under A and B, and
their sums over the 14 ops.  Read the ratios: the absolute times depend
on the host.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
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


class Side:
    """One checkout's ``oscpair``, with ``solve_channels`` timed per op."""

    def __init__(self, pkg, out):
        self.pkg = pkg
        self.out = out
        self.solve_s = 0.0
        propagator = pkg.propagator
        solve = propagator.solve_channels

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                self.solve_s += perf_counter() - t0

        propagator.solve_channels = timed

    def run(self, wl, variant, kind):
        """(exit code, stderr, op seconds, solve_channels seconds) of one op."""
        self.solve_s = 0.0
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = self.pkg.cli.main(wl.argv("kernel", variant, kind, self.out))
            dt = perf_counter() - t0
        return rc, err.getvalue(), dt, self.solve_s


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

        best = [[[float("inf")] * len(ops) for _ in sides] for _ in range(2)]
        ratios = []
        for r in range(args.rounds):
            total = [0.0, 0.0]
            for i, (variant, kind) in enumerate(ops):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                for s in order:
                    _, _, dt, solve_s = sides[s].run(wl, variant, kind)
                    total[s] += dt
                    best[0][s][i] = min(best[0][s][i], dt)
                    best[1][s][i] = min(best[1][s][i], solve_s)
            rate = [len(ops) / t for t in total]
            ratios.append(rate[1] / rate[0])
            print(f"round {r + 1}: A {rate[0]:.1f} ops/s, B {rate[1]:.1f} ops/s, "
                  f"B/A {ratios[-1]:.3f}")
        print(f"median B/A ops/s ratio: {statistics.median(ratios):.3f}")

        print(f"\n{'op':36s} {'op A ms':>9s} {'op B ms':>9s} "
              f"{'solve A ms':>11s} {'solve B ms':>11s} {'solve A/B':>10s}")
        for i, label in enumerate(labels):
            op_a, op_b = best[0][0][i], best[0][1][i]
            sv_a, sv_b = best[1][0][i], best[1][1][i]
            print(f"{label:36s} {1e3 * op_a:9.2f} {1e3 * op_b:9.2f} "
                  f"{1e3 * sv_a:11.2f} {1e3 * sv_b:11.2f} {sv_a / sv_b:10.3f}")
        sums = [sum(x) for x in (best[0][0], best[0][1], best[1][0], best[1][1])]
        print(f"{'sum of best':36s} {1e3 * sums[0]:9.2f} {1e3 * sums[1]:9.2f} "
              f"{1e3 * sums[2]:11.2f} {1e3 * sums[3]:11.2f} {sums[2] / sums[3]:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

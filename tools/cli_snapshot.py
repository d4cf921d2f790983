"""Write every command-line output on the shipped scenarios to one directory.

Usage (from anywhere)::

    python3 tools/cli_snapshot.py OUTDIR

For each of the seven shipped scenarios this runs, in a fresh interpreter
that imports the ``oscpair`` of this checkout (``src/``):

    decouple
    kernel --variant corrected|lw --dump-aux   (seeded 1,024-point file)
    evolve --steps 64
    residual --variant both --points 8
    oracle --steps 256 --dump-psi
    compare --grid 64 --steps 256

and keeps each command's CSV outputs, the oracle's final density dump,
stdout, stderr and exit code.  In stderr the source directory of this
checkout (warning locations) reads ``<src>``, the line number of a
warning location ``<src>/oscpair/oracle.py:516`` reads ``:<line>``, OUTDIR
reads ``<out>`` and ``compare``'s wall-clock runtime ``(12.3s)`` reads
``(<runtime>)``, so that snapshots of two checkouts compare byte for byte,
also when a change moves the line that warns::

    python3 tools/cli_snapshot.py /tmp/a        # in one checkout
    python3 other/tools/cli_snapshot.py /tmp/b  # in another
    diff -r /tmp/a /tmp/b

Any difference is a change of an output byte or of an exit code.

A change that moves numbers at roundoff level is checked at a tolerance
instead::

    python3 tools/cli_snapshot.py --compare /tmp/a /tmp/b [--tol 1e-12]

prints, per file, the largest scaled error |b - a| / max(1, |a|) over the
numeric CSV cells, the float64 densities of the ``--dump-psi`` files and
the numbers in stdout and stderr, where a difference in a phase column
(``phase``, ``phi1``, ``phi2``) is taken modulo 2 pi.  It fails (exit 1) on
a missing file, a different exit code, header (of a CSV or of a dump), row
count, dump length or non-numeric byte, and on any scaled error above the
tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "oscpair" / "scenarios"

KERNEL_POINTS = 1024
POINTS_SEED = 20031

PHASE_COLUMNS = {"phase", "phi1", "phi2"}
#: the runtime ``compare`` prints in stderr, which no two runs share
RUNTIME = re.compile(r"\(\d+\.\ds\)")
#: the line number of a warning location in the source directory
SOURCE_LINE = re.compile(r"(<src>/[^\s:]*\.py):\d+")
#: a number standing on its own, not a digit inside a name such as x1q
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|inf|nan)(?![\w.])")


def commands(name, scenario, points, out):
    """(tag, argv) of every command run on one scenario."""
    def o(suffix):
        return str(out / f"{name}.{suffix}")

    common = ["--scenario", str(scenario)]
    cmds = [("decouple", ["decouple", *common, "--out", o("decouple.csv")])]
    for variant in ("corrected", "lw"):
        cmds.append((f"kernel-{variant}",
                     ["kernel", *common, "--points", str(points),
                      "--variant", variant, "--out", o(f"kernel-{variant}.csv"),
                      "--dump-aux", o(f"aux-{variant}.csv")]))
    cmds += [
        ("evolve", ["evolve", *common, "--steps", "64", "--out", o("evolve.csv")]),
        ("residual", ["residual", *common, "--variant", "both", "--points", "8",
                      "--out", o("residual.csv")]),
        ("oracle", ["oracle", *common, "--steps", "256", "--out", o("oracle.csv"),
                    "--dump-psi", o("oracle-psi.bin")]),
        ("compare", ["compare", *common, "--grid", "64", "--steps", "256",
                     "--out", o("compare.csv")]),
    ]
    return cmds


def write_points(path, hbar, index):
    rng = np.random.default_rng([POINTS_SEED, index])
    pts = rng.normal(scale=math.sqrt(hbar), size=(KERNEL_POINTS, 4))
    np.savetxt(path, pts, fmt="%.17g", delimiter=",")


def run(argv, out, tag):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "oscpair.cli", *argv],
                          capture_output=True, text=True, env=env)
    (out / f"{tag}.stdout").write_text(proc.stdout)
    err = proc.stderr.replace(str(SRC), "<src>").replace(str(out), "<out>")
    err = SOURCE_LINE.sub(r"\1:<line>", RUNTIME.sub("(<runtime>)", err))
    (out / f"{tag}.stderr").write_text(err)
    (out / f"{tag}.exit").write_text(f"{proc.returncode}\n")
    return proc.returncode


def scaled_error(a, b, phase=False):
    """|b - a| / max(1, |a|): 0 for equal values (two nans included), inf
    when only one side is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    d = abs(b - a)
    if phase:
        d %= 2 * math.pi
        d = min(d, 2 * math.pi - d)
    return d / max(1.0, abs(a))


def compare_csv(a, b):
    """Largest scaled error between two CSV texts; ValueError on a structural
    difference (header, row count, row length or a non-numeric cell)."""
    ra = list(csv.reader(a.splitlines()))
    rb = list(csv.reader(b.splitlines()))
    if len(ra) != len(rb):
        raise ValueError(f"{len(ra)} rows against {len(rb)}")
    if not ra:
        return 0.0
    if ra[0] != rb[0]:
        raise ValueError(f"header {ra[0]} against {rb[0]}")
    phase = [name in PHASE_COLUMNS for name in ra[0]]
    worst = 0.0
    for i, (row_a, row_b) in enumerate(zip(ra, rb)):
        if len(row_a) != len(row_b):
            raise ValueError(f"row {i}: {len(row_a)} cells against {len(row_b)}")
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x != y:
                    raise ValueError(f"row {i}: {x!r} against {y!r}") from None
                continue
            worst = max(worst, scaled_error(fx, fy, i > 0 and phase[j]))
    return worst


def compare_dump(a, b):
    """Largest scaled error between two ``oracle --dump-psi`` files (bytes);
    ValueError if their four header ints or their lengths differ."""
    if min(len(a), len(b)) < 16:
        raise ValueError("dump shorter than its 16-byte header")
    head_a, head_b = struct.unpack("<iiii", a[:16]), struct.unpack("<iiii", b[:16])
    if head_a != head_b:
        raise ValueError(f"dump header {head_a} against {head_b}")
    if len(a) != len(b):
        raise ValueError(f"dump of {len(a)} bytes against {len(b)}")
    da, db = (np.frombuffer(x, dtype="<f8", offset=16).tolist() for x in (a, b))
    return max(map(scaled_error, da, db), default=0.0)


def compare_text(a, b):
    """Largest scaled error between the numbers of two texts; ValueError if
    the text between the numbers differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        raise ValueError("text between the numbers differs")
    return max((scaled_error(float(x), float(y))
                for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))),
               default=0.0)


def compare(dir_a, dir_b, tol):
    """Print the scaled error of every file of two snapshots; 0 iff they agree."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    failures = [f"{f}: only in {dir_a}" for f in sorted(files_a - files_b)]
    failures += [f"{f}: only in {dir_b}" for f in sorted(files_b - files_a)]
    worst, worst_file = 0.0, None
    for f in sorted(files_a & files_b):
        if f.suffix == ".bin":
            a, b = (dir_a / f).read_bytes(), (dir_b / f).read_bytes()
        else:
            a, b = (dir_a / f).read_text(), (dir_b / f).read_text()
        if f.suffix == ".exit":
            if a != b:
                failures.append(f"{f}: exit {a.strip()} against {b.strip()}")
            continue
        try:
            compare_file = {".csv": compare_csv, ".bin": compare_dump}.get(
                f.suffix, compare_text)
            err = compare_file(a, b)
        except ValueError as exc:
            failures.append(f"{f}: {exc}")
            continue
        print(f"{err:.3e}  {f}")
        if err > tol:
            failures.append(f"{f}: scaled error {err:.3e} above {tol:g}")
        if worst_file is None or err > worst:
            worst, worst_file = err, f
    print(f"largest scaled error {worst:.3e} ({worst_file}), "
          f"{len(files_a & files_b)} files, tolerance {tol:g}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("outdir", nargs="?", help="directory for the snapshot (created)")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path,
                      help="compare two snapshots instead of writing one")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="largest scaled error --compare accepts (default 1e-12)")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.tol)
    out = Path(args.outdir).resolve()
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for index, scenario in enumerate(sorted(SCENARIOS.glob("*.json"))):
        name = scenario.stem
        hbar = json.loads(scenario.read_text()).get("hbar", 1.0)
        points = inputs / f"{name}-points.csv"
        write_points(points, hbar, index)
        for tag, cmd in commands(name, scenario, points, out):
            rc = run(cmd, out, f"{name}.{tag}")
            print(f"{name} {tag}: exit {rc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write every command-line output on the shipped scenarios to one directory.

Usage (from anywhere)::

    python3 tools/cli_snapshot.py OUTDIR

For each of the seven shipped scenarios this runs, in a fresh interpreter
that imports the ``oscpair`` of this checkout (``src/``):

    decouple
    kernel --variant corrected|lw --dump-aux   (seeded 1,024-point file)
    evolve --steps 64
    residual --variant both --points 8
    oracle --steps 256

and keeps each command's CSV outputs, stdout, stderr and exit code.  In
stderr the source directory of this checkout (warning locations) reads
``<src>`` and OUTDIR reads ``<out>``, so that snapshots of two checkouts
compare byte for byte::

    python3 tools/cli_snapshot.py /tmp/a        # in one checkout
    python3 other/tools/cli_snapshot.py /tmp/b  # in another
    diff -r /tmp/a /tmp/b

Any difference is a change of an output byte or of an exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "oscpair" / "scenarios"

KERNEL_POINTS = 1024
POINTS_SEED = 20031


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
        ("oracle", ["oracle", *common, "--steps", "256", "--out", o("oracle.csv")]),
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
    (out / f"{tag}.stderr").write_text(err)
    (out / f"{tag}.exit").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("outdir", help="directory for the snapshot (created)")
    args = p.parse_args(argv)
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

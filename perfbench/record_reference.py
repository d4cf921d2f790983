"""Record the warm-up fingerprints in ``reference.json``.

Run from the root of a checkout, only at a commit whose numbers are the
accepted reference::

    python3 perfbench/record_reference.py

Every later benchmark run compares its warm-up op against these values.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    import oscpair.cli as cli
    import workloads as wl

    workdir = run.RUN_DIR / "record"
    out = workdir / "out.csv"
    ref = {"git_commit": run.git_commit(), "src_sha256": run.src_sha256()}
    try:
        warmup = wl.write_warmup(run.ROOT, workdir)
        for workload in wl.WORKLOADS:
            checker = wl.Checker(workload)
            kind = "corrected" if workload == "kernel" else None
            rec, rows = run.run_op(cli, wl, checker, warmup, kind, out)
            if rec.problems:
                raise SystemExit(f"{workload}: {rec.problems}")
            ref[workload] = wl.fingerprint(workload, rows)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()

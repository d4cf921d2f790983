"""Self-tests of the benchmark; not collected by the repository's test suite.

Run from the root of a checkout::

    python3 -m pytest perfbench/check_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _names(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_shortest_run_is_correct_and_names_match(workload):
    res = _bench(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _names("end_to_end")


def test_traced_run_names_and_self_time():
    res = _bench("kernel", 1)
    assert res["correct"]
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _names("per_layer")
    assert 0.0 < metrics["trace.self_over_op"]["value"] <= 1.0
    assert metrics["propagator.kernels_per_solve"]["value"] == 0.5


def _corrupt(path, workload):
    """Scale one number of the column each check reads."""
    header, rows = wl.read_table(path)
    col = {"kernel": 4, "evolve": 1, "residual": 6, "oracle": 2}[workload]
    row = {"kernel": 0, "evolve": -1, "residual": 0, "oracle": -1}[workload]
    rows[row][col] = repr(float(rows[row][col]) * 1.001 + 1e-3)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_corrupted_output_fails_its_check(workload, tmp_path):
    import oscpair.cli as cli

    variant = wl.write_warmup(ROOT, tmp_path)
    kind = "corrected" if workload == "kernel" else None
    checker = wl.Checker(workload)
    out = tmp_path / "out.csv"
    assert cli.main(wl.argv(workload, variant, kind, out)) == 0
    assert checker.check(variant, kind, *wl.read_table(out)) == []
    _corrupt(out, workload)
    assert checker.check(variant, kind, *wl.read_table(out))


def test_corrupted_ops_count_as_failed(tmp_path, monkeypatch):
    import oscpair.cli as cli

    real = run.call_cli

    def corrupting(cli_mod, args, recorder=None):
        result = real(cli_mod, args, recorder)
        _corrupt(Path(args[args.index("--out") + 1]), "kernel")
        return result

    monkeypatch.setattr(run, "call_cli", corrupting)
    variants = wl.write_variants(ROOT, tmp_path, SEED)[:2]
    ops = wl.cycle("kernel", variants)
    records, cycles = run.run_cycles(cli, wl, wl.Checker("kernel"), ops,
                                     tmp_path / "out.csv", n_cycles=1)
    assert cycles == 1 and len(records) == len(ops)
    assert all(r.problems for r in records)


def test_bare_checkout_exits_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_text(p.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_variants_depend_only_on_the_seed(tmp_path):
    a = wl.write_variants(ROOT, tmp_path / "a", 3)
    b = wl.write_variants(ROOT, tmp_path / "b", 3)
    c = wl.write_variants(ROOT, tmp_path / "c", 4)
    assert [v.window for v in a] == [v.window for v in b]
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
    assert [v.window for v in a] != [v.window for v in c]

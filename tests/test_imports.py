"""Module top levels import numpy and the standard library only.

Each check runs in a fresh interpreter, so that modules imported by the
test session itself do not count.
"""

import json

import pytest

from conftest import SRC, run_python

SHIPPED_SCENARIO = SRC / "oscpair" / "scenarios" / "caldirola-kanai.json"
#: scipy packages that no kernel-path command may load
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
         "scipy.special", "scipy.fft")


def _scipy_modules_after(code):
    """Sorted ``scipy*`` modules loaded once ``code`` has run in a fresh interpreter."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    proc = run_python(["-c", script], timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_code(argv):
    return ("import contextlib, io\nfrom oscpair.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")


def _loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import oscpair.cli") == []


@pytest.mark.parametrize("command", ["kernel", "decouple", "evolve", "residual"])
def test_kernel_path_commands_load_no_heavy_scipy(command, tmp_path):
    common = ["--scenario", str(SHIPPED_SCENARIO), "--out", str(tmp_path / "out.csv")]
    if command == "kernel":
        points = tmp_path / "points.csv"
        points.write_text("0.1,0.2,-0.3,0.4\n-0.5,0.0,0.25,1.0\n")
        argv = ["kernel", *common, "--points", str(points)]
    elif command == "evolve":
        argv = ["evolve", *common, "--steps", "4"]
    elif command == "residual":
        argv = ["residual", *common, "--variant", "both", "--points", "2"]
    else:
        argv = ["decouple", *common]
    modules = _scipy_modules_after(_cli_code(argv))
    for package in HEAVY:
        assert _loaded(modules, package) == [], (command, package)


def test_oracle_loads_no_scipy(tmp_path):
    # the oracle transforms with numpy.fft
    argv = ["oracle", "--scenario", str(SHIPPED_SCENARIO), "--grid", "32",
            "--steps", "2", "--out", str(tmp_path / "out.csv")]
    assert _scipy_modules_after(_cli_code(argv)) == []


def test_spline_coefficient_loads_scipy_interpolate():
    code = ("from oscpair.coefficients import Spline\n"
            "Spline(knots=(0.0, 1.0, 2.0), values=(1.0, 2.0, 1.5))\n")
    assert _loaded(_scipy_modules_after(code), "scipy.interpolate")

import json
import struct
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

import oscpair.cli
import oscpair.comparison
import oscpair.oracle
import oscpair.propagator
from oscpair import (
    SchemaError,
    build_kernel,
    load_shipped,
    parse_scenario,
    propagate_gaussian,
    shipped_scenarios,
    solve_angle,
)
from oscpair.cli import build_parser, main

from conftest import SHIPPED

MINIMAL = {
    "m1": {"kind": "constant", "value": 1.0},
    "m2": {"kind": "constant", "value": 1.0},
    "omega1": {"kind": "constant", "value": 1.0},
    "omega2": {"kind": "constant", "value": 2.0},
    "f1": {"kind": "constant", "value": 0.0},
    "f2": {"kind": "constant", "value": 0.0},
    "lambda": {"kind": "constant", "value": 1.5},
    "t_min": 0.0,
    "t_max": 4.0,
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


def test_minimal_document_fills_defaults():
    sc = parse_scenario(_doc())
    assert sc.system.hbar == 1.0
    assert sc.window == (0.0, 4.0)
    assert sc.quad_order == 8 and sc.quad_panels == 64
    assert sc.ode_tol == 1e-10
    assert sc.grid_points == (256, 256)
    assert sc.initial_sigma == pytest.approx((np.sqrt(0.5), np.sqrt(0.5)))


def test_unknown_field_rejected():
    with pytest.raises(SchemaError, match="unknown field 'omega3'"):
        parse_scenario(_doc(omega3={"kind": "constant", "value": 1.0}))


def test_all_violations_reported_together():
    doc = json.loads(_doc(bogus=1))
    del doc["m2"]
    doc["omega1"] = {"kind": "constant"}
    with pytest.raises(SchemaError) as exc:
        parse_scenario(json.dumps(doc))
    text = str(exc.value)
    assert "bogus" in text
    assert "m2" in text
    assert "omega1" in text
    assert len(exc.value.violations) >= 3


def test_non_positive_mass_names_coefficient_and_time():
    bad = _doc(m1={"kind": "sinusoidal", "a": 0.5, "b": 1.0, "nu": 1.0})
    with pytest.raises(SchemaError, match=r"mass m1 is non-positive at t"):
        parse_scenario(bad)


def test_window_must_sit_inside_domain():
    with pytest.raises(SchemaError, match="window"):
        parse_scenario(_doc(window=[0.0, 9.0]))
    with pytest.raises(SchemaError, match="window"):
        parse_scenario(_doc(window=[2.0, 1.0]))


@pytest.mark.parametrize("overrides, field", [
    ({"quad_panels": 0}, "quad_panels"),
    ({"tolerances": {"ode_tol": -1e-10}}, "tolerances.ode_tol"),
    ({"quad_order": 8.7}, "quad_order"),
    ({"grid": {"points": 100.5}}, "grid.points"),
    ({"tolerances": {"caustic_tol": 2.0}}, "tolerances.caustic_tol"),
    ({"hbar": 0.0}, "hbar"),
])
def test_malformed_values_rejected(overrides, field):
    with pytest.raises(SchemaError, match=f"field '{field}'"):
        parse_scenario(_doc(**overrides))


@pytest.mark.parametrize("field, limit", [("quad_order", 64), ("quad_panels", 1024)])
def test_quadrature_sizes_bounded_at_parse(field, limit, tmp_path, capsys):
    """An order of 1e5 would ask for an 80 GB companion matrix; sizes above
    the limit are rejected with a message that names it, and the command
    line exits 1."""
    assert getattr(parse_scenario(_doc(**{field: limit})), field) == limit
    for size in (limit + 1, 1e5):
        with pytest.raises(SchemaError, match=f"field '{field}' must be at most {limit}"):
            parse_scenario(_doc(**{field: size}))
    bad = tmp_path / "big.json"
    bad.write_text(_doc(**{field: 1e5}))
    assert main(["decouple", "--scenario", str(bad), "--out", "/dev/null"]) == 1
    assert f"field '{field}' must be at most {limit}" in capsys.readouterr().err


@pytest.mark.parametrize("grid, field", [
    ({"points": 48}, "grid.points"),
    ({"points": 16}, "grid.points"),
    ({"points": [64, 100]}, "grid.points"),
    ({"extent": [0.0, 12.0]}, "grid.extent"),
    ({"extent": [12.0, -1.0]}, "grid.extent"),
], ids=["48", "16", "64x100", "zero-extent", "negative-extent"])
def test_grid_values_rejected_at_parse(grid, field):
    with pytest.raises(SchemaError, match=f"field '{field}'"):
        parse_scenario(_doc(grid=grid))


def test_grid_points_bounded_above(tmp_path, capsys):
    """Sizes per axis stop at 4096; above it ``grid.points``, ``--grid``
    and ``Grid2D`` all refuse before anything is allocated (before, a
    ``--grid`` of 2^20 died in ``np.meshgrid`` with a numpy MemoryError)."""
    rule = "powers of two from 32 to 4096"
    assert parse_scenario(_doc(grid={"points": [32, 4096]})).grid_points == (32, 4096)
    for points in (8192, 2**20, [64, 2**40]):
        with pytest.raises(SchemaError, match=f"field 'grid.points' must be {rule}"):
            parse_scenario(_doc(grid={"points": points}))
    with pytest.raises(ValueError, match=rule):
        oscpair.oracle.Grid2D(extent=(10.0, 10.0), points=(32, 8192))
    scen = tmp_path / "s.json"
    scen.write_text(_doc(grid={"points": 32, "steps": 4}))
    for command in ("oracle", "compare"):
        rc = main([command, "--scenario", str(scen), "--grid", str(2**20),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: points per axis must be {rule}\n"
        assert not (tmp_path / "out.csv").exists()


BAD_PARAMETERS = {
    "nan": ("omega1", {"kind": "constant", "value": float("nan")},
            "omega1: field 'value' must be a finite number"),
    "infinity": ("m1", {"kind": "exponential", "a": 1.0, "gamma": float("inf")},
                 "m1: field 'gamma' must be a finite number"),
    "string": ("m2", {"kind": "constant", "value": "1.0"},
               "m2: field 'value' must be a finite number"),
    "boolean": ("f1", {"kind": "sinusoidal", "a": 0.0, "b": True, "nu": 1.0},
                "f1: field 'b' must be a finite number"),
    "list-for-number": ("m1", {"kind": "constant", "value": [1.0]},
                        "m1: field 'value' must be a finite number"),
    "string-power": ("m2", {"kind": "power", "a": 1.0, "b": 0.1, "n": "n"},
                     "m2: field 'n' must be a finite number"),
    "coeffs-entry": ("lambda", {"kind": "polynomial", "coeffs": [1.5, float("nan")]},
                     "lambda: field 'coeffs' must be a list of finite numbers"),
    "knots-entry": ("f2", {"kind": "spline", "knots": [0.0, "2", 4.0],
                           "values": [0.0, 0.1, 0.0]},
                    "f2: field 'knots' must be a list of finite numbers"),
    "values-entry": ("f2", {"kind": "spline", "knots": [0.0, 2.0, 4.0],
                            "values": [0.0, False, 0.0]},
                     "f2: field 'values' must be a list of finite numbers"),
    "values-not-list": ("f2", {"kind": "spline", "knots": [0.0, 4.0], "values": 1.0},
                        "f2: field 'values' must be a list of finite numbers"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
def test_malformed_coefficient_parameters_rejected(case):
    key, coeff, message = BAD_PARAMETERS[case]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(_doc(**{key: coeff}))
    assert exc.value.violations == [message]


def test_every_malformed_parameter_reported():
    doc = {key: coeff for key, coeff, _ in BAD_PARAMETERS.values()}
    with pytest.raises(SchemaError) as exc:
        parse_scenario(_doc(**doc))
    assert len(exc.value.violations) == len(doc)


HUGE_INT = "1" + "0" * 400  # a JSON integer that no float can hold


@pytest.mark.parametrize("key, value, message", [
    ("hbar", HUGE_INT, "field 'hbar' must be a finite number"),
    ("window", f"[0, {HUGE_INT}]", "field 'window' must be a pair of finite numbers"),
    ("grid", f'{{"points": {HUGE_INT}}}',
     "field 'grid.points' must be a positive integer or a pair"),
    ("m1", f'{{"kind": "constant", "value": {HUGE_INT}}}',
     "m1: field 'value' must be a finite number"),
], ids=["hbar", "window", "grid.points", "m1"])
def test_integers_too_large_for_a_float_rejected(key, value, message):
    text = _doc()[:-1] + f', "{key}": {value}}}'
    with pytest.raises(SchemaError) as exc:
        parse_scenario(text)
    assert exc.value.violations == [message]


@pytest.mark.parametrize("command", ["decouple", "oracle"])
@pytest.mark.parametrize("case", ["nan", "list-for-number", "string-power"])
def test_cli_rejects_malformed_parameters(command, case, scenario_file, capsys):
    key, coeff, message = BAD_PARAMETERS[case]
    scen = scenario_file(**{key: coeff}, window=[0.0, 0.1],
                         grid={"points": 32, "extent": [12.0, 12.0], "steps": 2})
    rc = main([command, "--scenario", scen, "--out", "/dev/null"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_floats_still_accepted():
    sc = parse_scenario(_doc(quad_order=6.0, grid={"points": [64.0, 128], "steps": 512.0}))
    assert sc.quad_order == 6 and sc.grid_points == (64, 128) and sc.grid_steps == 512


def test_invalid_json_and_encoding():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_scenario(b"{nope")
    with pytest.raises(SchemaError, match="not UTF-8"):
        parse_scenario(b"\xff\xfe{}")


def test_shipped_scenarios_parse_and_decouple():
    assert sorted(SHIPPED) == shipped_scenarios()
    for name in SHIPPED:
        sc = load_shipped(name)
        dec = solve_angle(sc.system, gamma_tol=sc.gamma_tol)
        assert dec.admissible, name


# --- command line -----------------------------------------------------------

@pytest.fixture()
def scenario_file(tmp_path):
    def write(name="s.json", **overrides):
        p = tmp_path / name
        p.write_text(_doc(**overrides))
        return str(p)
    return write


def test_cli_decouple_prints_closed_form_angle(scenario_file, capsys):
    rc = main(["decouple", "--scenario", scenario_file(), "--out", "/dev/null"])
    out = capsys.readouterr().out
    assert rc == 0
    alpha = float(out.splitlines()[0].split("=")[1])
    assert alpha == pytest.approx(np.pi / 8, abs=1e-10)
    assert "admissible = true" in out


def test_cli_decouple_csv_columns(scenario_file, tmp_path):
    out = tmp_path / "dec.csv"
    rc = main(["decouple", "--scenario", scenario_file(), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,omega1_sq,omega2_sq,F1,F2,gamma"
    assert len(lines) == 513
    # 17 significant digits round-trip
    val = lines[1].split(",")[1]
    assert float(val) == float(f"{float(val):.17g}")


def test_cli_kernel_points_csv_and_json(scenario_file, tmp_path):
    pts_csv = tmp_path / "pts.csv"
    pts_csv.write_text("x1q,x2q,x1p,x2p\n0.5,0.3,-0.2,0.1\n0,0,0,0\n")
    out1 = tmp_path / "k1.csv"
    rc = main(["kernel", "--scenario", scenario_file(window=[0.0, 1.2]),
               "--points", str(pts_csv), "--out", str(out1)])
    assert rc == 0
    pts_json = tmp_path / "pts.json"
    pts_json.write_text("[[0.5,0.3,-0.2,0.1],[0,0,0,0]]")
    out2 = tmp_path / "k2.csv"
    rc = main(["kernel", "--scenario", scenario_file(window=[0.0, 1.2]),
               "--points", str(pts_json), "--out", str(out2)])
    assert rc == 0
    assert out1.read_text() == out2.read_text()
    header, row1, row2 = out1.read_text().splitlines()
    assert header == "x1q,x2q,x1p,x2p,ReK,ImK"
    # value agrees with the library
    from oscpair import build_kernel
    sc = parse_scenario(_doc(window=[0.0, 1.2]))
    kern = build_kernel(solve_angle(sc.system), 0.0, 1.2)
    vals = row1.split(",")
    K = complex(float(vals[4]), float(vals[5]))
    assert K == pytest.approx(complex(kern.evaluate(0.5, 0.3, -0.2, 0.1)), rel=1e-12)


def test_cli_kernel_dump_aux(scenario_file, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0,0,0\n")
    aux = tmp_path / "aux.csv"
    rc = main(["kernel", "--scenario", scenario_file(window=[0.0, 1.2]),
               "--points", str(pts), "--out", "/dev/null",
               "--dump-aux", str(aux), "--aux-points", "17"])
    assert rc == 0
    lines = aux.read_text().splitlines()
    assert lines[0] == "t,rho1,drho1,phi1,rho2,drho2,phi2"
    assert len(lines) == 18
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(1.0)  # rho(t') = 1
    assert first[3] == pytest.approx(0.0)  # phi(t') = 0


def test_cli_evolve_columns(scenario_file, tmp_path):
    out = tmp_path / "ev.csv"
    rc = main(["evolve", "--scenario", scenario_file(window=[0.0, 1.0]),
               "--steps", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("t,x1_mean,x2_mean,p1_mean,p2_mean,"
                        "var_x1,var_x2,cov_x1x2,norm,phase")
    assert len(lines) == 6
    norms = [float(l.split(",")[8]) for l in lines[1:]]
    assert np.allclose(norms, 1.0, atol=1e-9)


def _counted_solves(monkeypatch):
    """{variant: the window of each ``solve_ermakov`` call}, filled as the
    package solves; the variant is that of the enclosing ``solve_channels``."""
    solves, variants = {}, []
    solve, channels = oscpair.propagator.solve_ermakov, oscpair.propagator.solve_channels

    def counted_channels(decoupled, t_start, t_end, variant="corrected", *args, **kwargs):
        variants.append(variant)
        try:
            return channels(decoupled, t_start, t_end, variant, *args, **kwargs)
        finally:
            variants.pop()

    def counted(*args, **kwargs):
        solves.setdefault(variants[-1] if variants else None, []).append(args[1:3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(oscpair.propagator, "solve_ermakov", counted)
    for module in (oscpair.propagator, oscpair.comparison):
        monkeypatch.setattr(module, "solve_channels", counted_channels, raising=False)
    return solves


@pytest.mark.parametrize("steps", [8, 64])
def test_cli_evolve_solves_once_per_window(steps, scenario_file, monkeypatch):
    solves = _counted_solves(monkeypatch)
    rc = main(["evolve", "--scenario", scenario_file(window=[0.0, 1.0]),
               "--steps", str(steps), "--out", "/dev/null"])
    assert rc == 0
    assert solves == {"corrected": [(0.0, 1.0), (0.0, 1.0)]}


@pytest.mark.filterwarnings("ignore:final boundary density")  # the 64^2 oracle grid
@pytest.mark.parametrize("command", ["kernel", "residual", "compare"])
def test_cli_solves_once_per_window_and_variant(command, tmp_path, monkeypatch):
    """One solve of each channel per variant: ``compare`` builds its window
    kernel and its residual's stencil kernels from one pair."""
    options = {"kernel": ["--points", str(tmp_path / "pts.csv")],
               "residual": ["--variant", "both"],
               "compare": ["--grid", "64", "--steps", "64"]}[command]
    np.savetxt(tmp_path / "pts.csv", np.zeros((2, 4)), delimiter=",")
    path = str(resources.files("oscpair.scenarios") / "static.json")
    solves = _counted_solves(monkeypatch)
    rc = main([command, "--scenario", path, *options, "--out", "/dev/null"])
    assert rc == 0
    window = [(0.0, 1.2), (0.0, 1.2)]
    assert solves == ({"corrected": window} if command == "kernel"
                      else {"corrected": window, "lw": window})


@pytest.mark.parametrize("name", ["static", "caldirola-kanai"])
def test_cli_evolve_ends_on_the_one_shot_state(name, tmp_path):
    out = tmp_path / "ev.csv"
    path = str(resources.files("oscpair.scenarios") / f"{name}.json")
    assert main(["evolve", "--scenario", path, "--steps", "64", "--out", str(out)]) == 0
    last = np.loadtxt(out, delimiter=",", skiprows=1)[-1]
    sc = load_shipped(name)
    dec = solve_angle(sc.system, gamma_tol=sc.gamma_tol)
    st = propagate_gaussian(
        build_kernel(dec, *sc.window, quad_order=sc.quad_order,
                     quad_panels=sc.quad_panels, ode_tol=sc.ode_tol,
                     caustic_tol=sc.caustic_tol),
        sc.initial_state())
    mu, p, cov = st.mean_position(), st.mean_momentum(), st.covariance_position()
    ref = np.array([sc.window[1], mu[0], mu[1], p[0], p[1],
                    cov[0, 0], cov[1, 1], cov[0, 1], st.norm(), np.imag(st.c)])
    gap = last - ref
    gap[9] = np.angle(np.exp(1j * gap[9]))  # phase modulo 2 pi
    assert np.max(np.abs(gap) / np.maximum(1.0, np.abs(ref))) <= 1e-12


def test_cli_oracle_and_psi_dump(scenario_file, tmp_path):
    out = tmp_path / "orc.csv"
    dump = tmp_path / "psi.bin"
    rc = main(["oracle", "--scenario",
               scenario_file(window=[0.0, 0.5], grid={"points": 64, "extent": [16.0, 16.0]}),
               "--steps", "64", "--rows", "4",
               "--out", str(out), "--dump-psi", str(dump)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,norm,x1_mean,x2_mean,x1_sq_mean,x2_sq_mean,energy"
    raw = dump.read_bytes()
    n1, n2, r1, r2 = struct.unpack("<iiii", raw[:16])
    assert (n1, n2, r1, r2) == (64, 64, 0, 0)
    density = np.frombuffer(raw[16:], dtype="<f8").reshape(n1, n2)
    assert density.sum() * (16.0 / 64) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_cli_oracle_warns_about_boundary_density(scenario_file):
    scen = scenario_file(window=[0.0, 0.1],
                         grid={"points": 32, "extent": [3.0, 3.0], "steps": 4})
    proc = subprocess.run([sys.executable, "-m", "oscpair.cli", "oracle",
                           "--scenario", scen, "--out", "/dev/null"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "boundary density" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["oracle", "--rows", "0"],
    ["oracle", "--steps", "-3"],
    ["oracle", "--steps", "0"],
    ["oracle", "--grid", "0"],
    ["compare", "--steps", "0"],
    ["evolve", "--steps", "0"],
    ["evolve", "--steps", "-1"],
    ["decouple", "--t-points", "0"],
    ["kernel", "--points", "p.csv", "--aux-points", "0"],
    ["residual", "--points", "0"],
])
def test_cli_rejects_non_positive_counts(argv, scenario_file, capsys):
    rc = main([*argv, "--scenario", scenario_file(), "--out", "/dev/null"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and f"{argv[-2]} must be positive" in err


@pytest.mark.parametrize("command", ["compare", "residual"])
def test_cli_rejects_negative_seed_before_any_work(command, scenario_file, capsys,
                                                   monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(oscpair.comparison, "evolve", no_oracle)
    rc = main([command, "--seed", "-1", "--scenario", scenario_file(),
               "--out", "/dev/null"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"


@pytest.mark.parametrize("hbar", [-1.0, 0.0])
def test_cli_rejects_non_positive_hbar_without_warning(hbar, scenario_file, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["decouple", "--scenario", scenario_file(hbar=hbar)])
    assert rc == 1
    assert capsys.readouterr().err == "error: field 'hbar' must be positive\n"


def test_cli_builds_its_parser_once(scenario_file, monkeypatch, capsys):
    built = []
    real = oscpair.cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(oscpair.cli, "build_parser", counting)
    oscpair.cli._parser.cache_clear()
    scen = scenario_file()
    try:
        assert main(["decouple", "--scenario", scen, "--out", "/dev/null"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["decouple", "--no-such-option", "--scenario", scen])
        assert exc.value.code == 2
        assert main(["decouple", "--scenario", scen, "--out", "/dev/null"]) == 0
    finally:
        oscpair.cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_cli_residual(scenario_file, tmp_path):
    out = tmp_path / "res.csv"
    rc = main(["residual", "--scenario", scenario_file(window=[0.0, 1.2]),
               "--points", "3", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,t,x1q,x2q,x1p,x2p,residual"
    assert len(lines) == 7  # both variants, 3 points each
    assert all(float(l.split(",")[6]) < 1e-4 for l in lines[1:])


def test_cli_compare_deterministic_and_passing(scenario_file, tmp_path):
    scen = scenario_file(window=[0.0, 0.8],
                         grid={"points": 64, "extent": [16.0, 16.0], "steps": 256})
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["compare", "--scenario", scen, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # bit-identical CSV
    header = outs[0].decode().splitlines()[0]
    assert header.startswith("scenario,variant,fidelity_vs_oracle,max_residual")


def test_cli_exit_codes(scenario_file, tmp_path):
    # missing file -> 3
    assert main(["decouple", "--scenario", str(tmp_path / "absent.json")]) == 3
    # schema violation -> 1
    bad = tmp_path / "bad.json"
    bad.write_text(_doc(omega3={"kind": "constant", "value": 1.0}))
    assert main(["decouple", "--scenario", str(bad)]) == 1
    # kernel at a caustic -> 2
    caustic = tmp_path / "caustic.json"
    doc = json.loads(_doc(window=[0.0, np.pi]))
    doc["omega2"] = {"kind": "constant", "value": 1.0}
    doc["lambda"] = {"kind": "constant", "value": 0.0}
    caustic.write_text(json.dumps(doc))
    pts = tmp_path / "p.csv"
    pts.write_text("0,0,0,0\n")
    assert main(["kernel", "--scenario", str(caustic), "--points", str(pts),
                 "--out", "/dev/null"]) == 2
    # inadmissible system -> 1
    inadm = tmp_path / "inadm.json"
    inadm.write_text(_doc(window=[0.0, 1.0], alpha=0.03))
    assert main(["kernel", "--scenario", str(inadm), "--points", str(pts),
                 "--out", "/dev/null"]) == 1


@pytest.mark.parametrize("command", ["decouple", "kernel", "evolve", "residual",
                                     "oracle", "compare"])
def test_cli_rejects_coefficients_that_overflow_on_the_domain(command, tmp_path, capsys):
    """Caldirola-Kanai with all three rates at 400: exp(400 t) overflows for
    t > 1.77, inside [t_min, t_max] = [0, 4].  Every subcommand rejects the
    file as it is parsed, naming the coefficient, and prints no warning."""
    doc = json.loads(resources.files("oscpair").joinpath(
        "scenarios", "caldirola-kanai.json").read_text())
    for key in ("m1", "m2", "lambda"):
        doc[key]["gamma"] = 400.0
    doc["window"] = [3.0, 4.0]
    scen = tmp_path / "overflow.json"
    scen.write_text(json.dumps(doc))
    pts = tmp_path / "p.csv"
    pts.write_text("0.1,0.2,0.3,0.4\n")
    argv = [command, "--scenario", str(scen), "--out", str(tmp_path / "out.csv")]
    if command == "kernel":
        argv += ["--points", str(pts)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: coefficient m1 (value, first or second derivative) is not finite "
        "on [0, 4] (overflow encountered in exp)\n")


def test_cli_help_lists_subcommands():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "oscpair.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("decouple", "kernel", "evolve", "oracle", "compare", "residual"):
        assert sub in proc.stdout

"""CSV writing and points-file reading of the command line."""

import csv
import io
import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from oscpair import cli
from oscpair.cli import _read_points, _write_csv, main
from oscpair.errors import SchemaError

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-320,
           2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, 1e16,
           123456789012345678.0]


def _reference_csv(header, rows):
    """The per-cell writer the command line used before: csv.writer, %.17g."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([v if isinstance(v, str) else f"{float(v):.17g}" for v in row])
    return buf.getvalue()


def _written(tmp_path, header, columns):
    path = tmp_path / "out.csv"
    _write_csv(str(path), header, columns)
    return path.read_bytes().decode()


def test_writer_matches_csv_writer_on_float_bit_patterns(tmp_path):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=(3, 4000), dtype=np.uint64)
    cols = [np.concatenate([SPECIAL, b.view(np.float64)]) for b in bits]
    # also every magnitude from subnormal to near overflow
    cols.append(np.concatenate(
        [SPECIAL, rng.normal(size=4000) * 10.0 ** rng.integers(-320, 308, 4000)]))
    header = ["a", "b", "c", "d"]
    assert _written(tmp_path, header, cols) == _reference_csv(header, zip(*cols))


def test_writer_matches_csv_writer_on_scalars_ints_and_strings(tmp_path):
    names = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rin", "", " pad ",
             'all ,"\n of them']
    n = len(names)
    columns = [
        names,
        [np.float64(v) for v in SPECIAL[:n]],
        [np.float32(0.1), np.float32(-2.5e-40), np.int64(-7), np.int32(3),
         np.uint8(255), np.float16(65504), np.float64(-0.0), np.int64(2**62)],
        [0, 1, -3, 2**53 + 1, 10**20, 7, 256, 4096],
        tuple(names[::-1]),
        (1.5, 2, np.nan, -0.0, 3, np.float64(1e-320), 2**63, -1),
    ]
    header = ["scenario", "x", "scalars", "ints", "variant", "mixed"]
    assert _written(tmp_path, header, columns) == _reference_csv(header,
                                                                 zip(*columns))


def test_writer_to_stdout_and_without_rows(tmp_path, capsys):
    cols = [np.array([1.0, np.nan]), ["a,b", "c"]]
    _write_csv(None, ["x", "s"], cols)
    assert capsys.readouterr().out == _reference_csv(["x", "s"], zip(*cols))
    assert _written(tmp_path, ["x", "y"], [np.empty(0), []]) == "x,y\n"


def _percent_g(values):
    """The rows of a (rows, cols) float table as ``'%.17g' %`` prints them."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in values.tolist())


def _numpy_rows(values):
    return cli._csv_rows(list(np.asarray(values, dtype=float).T))


def _assert_same_rows(got, want):
    """got == want, reporting the first row that differs (pytest's diff of
    two long strings would take minutes)."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        row, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"row {row}: {g!r} != {w!r}")


def _exact_decade(x):
    """floor(log10 |x|) of a finite nonzero float, in exact arithmetic."""
    f = abs(Fraction(x))
    k = int(np.floor(np.log10(abs(x))))
    while f < Fraction(10) ** k:
        k -= 1
    while f >= Fraction(10) ** (k + 1):
        k += 1
    return k


def _midpoint_distance(x):
    """|frac(s) - 1/2| for s = |x| 10^(16 - k), in units of the 17th digit."""
    s = abs(Fraction(x)) * Fraction(10) ** (16 - _exact_decade(x))
    return abs(s - int(s) - Fraction(1, 2))


def _near_midpoints(rng, draws, within=Fraction(1, 1000)):
    """Finite nonzero floats of every binade whose 17-digit scaled value is
    within ``within`` of a midpoint, checked in exact arithmetic.

    A longdouble scaling preselects candidates; any of them that is not
    that close is dropped by the exact check.
    """
    x = rng.integers(1, 0x7FF0 << 48, size=draws, dtype=np.uint64).view(np.float64)
    k = np.floor(np.log10(x))
    s = x.astype(np.longdouble) * np.power(np.longdouble(10), 16 - k)
    near = np.abs(s - np.floor(s) - 0.5) < 0.004
    found = [v for v in x[near].tolist() if _midpoint_distance(v) <= within]
    return np.array(found) * rng.choice([-1.0, 1.0], size=len(found))


def _hard_cells(rng):
    """About 10^6 floats at the edges of the formatter's arithmetic."""
    bits = rng.integers(0, 2**64, size=400_000, dtype=np.uint64).view(np.float64)
    decades = np.concatenate([  # 200 values in every decade of float64
        rng.uniform(1.0, 10.0, size=200) * float(f"1e{k}") for k in range(-307, 308)])
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ulps = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                           np.nextafter(np.nextafter(tens, 0), 0),
                           np.nextafter(np.nextafter(tens, np.inf), np.inf)])
    ints = np.concatenate([
        2.0**53 + np.arange(-3000, 3000),
        rng.integers(10**16, 10**17, size=20_000).astype(float),
        np.arange(1, 10) * 1e16, np.nextafter(1e17, 0) - np.arange(0, 3200, 16)])
    subnormal = rng.integers(1, 2**52, size=20_000, dtype=np.uint64).view(np.float64)
    nans = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
    nans = np.concatenate([nans, np.array([0x7FF8_0000_0000_0001, 0xFFF0_0000_0000_0001],
                                          dtype=np.uint64).view(np.float64)])
    cells = np.concatenate([bits, decades, ulps, ints, subnormal, nans,
                            _near_midpoints(rng, 1_000_000)])
    cells = np.concatenate([cells, -cells])
    return np.resize(cells, (len(cells) + 5) // 6 * 6).reshape(-1, 6)


def test_writer_matches_percent_g_on_a_million_hard_values():
    rng = np.random.default_rng(2024)
    cells = _hard_cells(rng)
    assert cells.size >= 10**6
    assert np.signbit(cells[np.isnan(cells)]).any()
    _assert_same_rows(_numpy_rows(cells), _percent_g(cells))


def test_near_midpoint_values_are_close_and_many():
    rng = np.random.default_rng(7)
    near = _near_midpoints(rng, 200_000)
    assert len(near) >= 200
    assert all(_midpoint_distance(v) <= Fraction(1, 1000) for v in near[:50].tolist())
    decades = {_exact_decade(v) for v in near.tolist()}
    assert min(decades) < -250 and max(decades) > 250
    _assert_same_rows(_numpy_rows(near.reshape(-1, 1)), _percent_g(near.reshape(-1, 1)))


def _nearest(table, exact):
    """Whether each longdouble in ``table`` is the one nearest ``exact``."""
    for v, e in zip(table, exact):
        here = Fraction(*v.as_integer_ratio())
        below = Fraction(*np.nextafter(v, np.longdouble(-np.inf)).as_integer_ratio())
        above = Fraction(*np.nextafter(v, np.longdouble(np.inf)).as_integer_ratio())
        if not (here + below) / 2 < e < (here + above) / 2:
            return False
    return True


def test_power_and_threshold_tables_are_exact():
    t = cli._g17_tables()
    if t.pow10 is None:
        pytest.skip("longdouble is not the x87 80-bit format")
    q = range(cli._Q_MIN, cli._Q_MAX + 1)
    assert len(t.pow10) == len(q)
    assert _nearest(t.pow10, [Fraction(10) ** i for i in q])
    for k, start in zip(range(cli._K_MIN, cli._K_MAX + 1), t.decade_start.tolist()):
        ten = Fraction(10) ** k
        if start == np.inf:
            assert ten > Fraction(np.finfo(float).max)
        else:
            assert Fraction(start) >= ten > Fraction(np.nextafter(start, 0))


def test_writer_without_the_numpy_path_writes_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(3)
    cells = _hard_cells(rng)[::40]
    fast = _numpy_rows(cells)
    tables, fallback = cli._g17_tables(), cli._fallback_cells
    calls = []

    def counted(values):
        calls.append(values.size)
        return fallback(values)

    monkeypatch.setattr(cli, "_g17_tables", lambda: tables._replace(pow10=None))
    monkeypatch.setattr(cli, "_fallback_cells", counted)
    want = _percent_g(cells)
    _assert_same_rows(_numpy_rows(cells), want)
    _assert_same_rows(fast, want)
    assert sum(calls) == cells.size


def test_exponent_estimate_may_be_off_by_one_either_way(monkeypatch):
    """The exact decade is recovered from an estimate one too low or one
    too high.  numpy's float64 log10 errs only high, near powers of ten,
    so the low case needs a forced estimate."""
    rng = np.random.default_rng(4)
    cells = _hard_cells(rng)[::20]

    def exact(a):  # 40 digits never carry into the next decade for a float64
        return np.array([int(("%.40e" % v).split("e")[1]) for v in a.tolist()])

    for shift in (-1, 1):
        monkeypatch.setattr(cli, "_decade", lambda a, s=shift: exact(a) + s)
        _assert_same_rows(_numpy_rows(cells), _percent_g(cells))
    monkeypatch.setattr(cli, "_decade", lambda a: exact(a) + rng.integers(-1, 2, a.shape))
    _assert_same_rows(_numpy_rows(cells), _percent_g(cells))


def _kernel_table(rng):
    """A 1,024 x 6 table like the kernel's: points, then Re K and Im K."""
    pts = rng.normal(size=(1024, 4))
    K = np.exp(-rng.uniform(0, 30, 1024) + 1j * rng.uniform(0, 2 * np.pi, 1024))
    return np.column_stack([pts, K.real, K.imag])


def test_kernel_table_sends_few_cells_to_python(monkeypatch):
    cells = _kernel_table(np.random.default_rng(6))
    calls = []
    fallback = cli._fallback_cells
    monkeypatch.setattr(cli, "_fallback_cells",
                        lambda values: calls.append(values.size) or fallback(values))
    _assert_same_rows(_numpy_rows(cells), _percent_g(cells))
    if cli._g17_tables().pow10 is not None:
        assert sum(calls) <= 0.03 * cells.size


def test_kernel_table_written_within_a_bounded_working_set(tmp_path):
    """Every full-size temporary of the writer is freed at its last use:
    the traced peak of writing the 124 KB kernel table stays at most
    1.3 MB (1.80 MB when they all lived to the end of the call)."""
    if cli._g17_tables().pow10 is None:
        pytest.skip("longdouble is not the x87 80-bit format")
    cells = _kernel_table(np.random.default_rng(6))
    header = ["x1q", "x2q", "x1p", "x2p", "ReK", "ImK"]
    path = str(tmp_path / "kernel.csv")
    _write_csv(path, header, list(cells.T))  # the lookup tables are built once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _write_csv(path, header, list(cells.T))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6
    with open(path) as fh:
        assert fh.read() == _reference_csv(header, cells.tolist())


def _kernel(tmp_path, name, text):
    pts = tmp_path / name
    pts.write_text(text)
    scenario = resources.files("oscpair.scenarios").joinpath("static.json")
    out = tmp_path / f"{name}.out.csv"
    return main(["kernel", "--scenario", str(scenario), "--points", str(pts),
                 "--out", str(out)]), out


MALFORMED = {
    "dict.json": '{"x": 1}',
    "object.json": "[[1, 2, 3, {}]]",
    "null.json": "[[1, 2, 3, null]]",
    "true.json": "[[1, 2, 3, true]]",
    "string.json": '[[1, 2, 3, "4"]]',
    "nested.json": "[[[1, 2, 3, [false]]]]",
    "nan.json": "[[1, 2, 3, NaN]]",
    "inf.json": "[[1, 2, 3, 1e400]]",
    "bigint.json": "[[1, 2, 3, 1" + "0" * 400 + "]]",
    "nan.csv": "x1q,x2q,x1p,x2p\n1,2,3,4\n1,2,nan,4\n",
    "inf.csv": "1,2,3,-inf\n",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_points_rejected(name, tmp_path, capsys):
    rc, out = _kernel(tmp_path, name, MALFORMED[name])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: points file ")
    assert not out.exists()


def test_points_csv_and_json_read_the_same(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 4))
    pts[0] = [-0.0, 5e-324, 1.5, -1e-300]
    body = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in pts)
    rc_csv, out_csv = _kernel(tmp_path, "p.csv", "x1q,x2q,x1p,x2p\n" + body)
    rows = np.array(list(csv.reader(io.StringIO(out_csv.read_text())))[1:],
                    dtype=float)
    assert rc_csv == 0
    assert np.array_equal(rows[:, :4], pts)
    assert np.signbit(rows[0, 0])
    json_rows = ",".join("[" + ",".join(repr(float(v)) for v in row) + "]"
                         for row in pts)
    rc_json, out_json = _kernel(tmp_path, "p.json", f"[{json_rows}]")
    assert rc_json == 0
    assert out_json.read_bytes() == out_csv.read_bytes()


def _csv_reference(path):
    """The csv.reader points reader the command line used before np.loadtxt."""
    def number(s):
        try:
            float(s)
            return True
        except ValueError:
            return False

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0] and not any(number(v) for v in rows[0]):
        rows = rows[1:]
    pts = np.array(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4 or not np.isfinite(pts).all():
        raise SchemaError(["points file"])
    return pts


POINTS_PARITY = {
    "quoted": '"1.5",2,"-3e-2",4\n"0.25",-1,2,"7"\n',
    "quoted-header": '"x1q","x2q","x1p","x2p"\n1,2,3,4\n',
    "whitespace": " 1.5 ,2,  -3 ,\t4\n5, 6 ,7,8 \n",
    "crlf": "x1q,x2q,x1p,x2p\r\n1,2,3,4\r\n5,6,7,8\r\n",
    "no-final-newline": "1,2,3,4\n5,6,7,8",
    "signed-zero-subnormal": "-0.0,5e-324,-5e-324,0.0\n-0,1e-320,2.2250738585072014e-308,-0.0\n",
    "trailing-blank-line": "1,2,3,4\n\n",
    "blank-line-between": "1,2,3,4\n\n5,6,7,8\n",
    "leading-blank-line": "\nx1q,x2q,x1p,x2p\n1,2,3,4\n",
    "ragged-short": "1,2,3,4\n1,2,3\n",
    "ragged-long": "1,2,3,4\n1,2,3,4,5\n",
    "five-columns": "1,2,3,4,5\n",
    "header-only": "x1q,x2q,x1p,x2p\n",
    "empty": "",
    "non-numeric-cell": "1,2,3,4\n1,a,3,4\n",
    "empty-cell": "1,2,3,4\n1,,3,4\n",
    "empty-cell-first-row": "1,,3,4\n5,6,7,8\n",
    "non-numeric-cell-first-row": "1,2,3,4x\n5,6,7,8\n",
    "comment-row": "1,2,3,4\n# note\n",
    "blank-cells-line": "1,2,3,4\n   \n",
}


@pytest.mark.parametrize("name", POINTS_PARITY)
def test_points_csv_reader_matches_csv_module_reader(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csv"
    path.write_text(POINTS_PARITY[name], newline="")
    try:
        want = _csv_reference(str(path))
    except (SchemaError, ValueError):
        want = None
    if want is None:
        with pytest.raises(SchemaError):
            _read_points(str(path))
        rc, out = _kernel(tmp_path, f"{name}.csv", POINTS_PARITY[name])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: points file ")
        assert not out.exists()
    else:
        got = _read_points(str(path))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_points_csv_reader_parses_every_bit_pattern_like_float(tmp_path):
    rng = np.random.default_rng(11)
    vals = rng.integers(0, 2**64, size=(4000, 4), dtype=np.uint64).view(np.float64)
    vals[~np.isfinite(vals)] = -0.0
    vals[0] = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    path = tmp_path / "bits.csv"
    path.write_text("x1q,x2q,x1p,x2p\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in vals))
    got = _read_points(str(path))
    assert np.array_equal(got.view(np.uint64), vals.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), _csv_reference(str(path)).view(np.uint64))

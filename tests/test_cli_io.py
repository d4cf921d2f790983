"""CSV writing and points-file reading of the command line."""

import csv
import io
from importlib import resources

import numpy as np
import pytest

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
    if rows and not all(number(v) for v in rows[0]):
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

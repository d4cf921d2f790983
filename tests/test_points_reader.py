"""The strict CSV points reader (strtold to longdouble, then float64).

Every value must have the bits ``float`` gives its text, and every file
must read as the ``np.loadtxt`` path reads it: the same float64 bits, or
the same ``SchemaError`` message.  The fuzz test runs with hypothesis,
derandomized, so every run draws the same files; it takes about 3.5 s on a
2-vCPU VM.
"""

import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscpair import cli
from oscpair.errors import SchemaError

from test_cli_io import MALFORMED, POINTS_PARITY

pytestmark = pytest.mark.skipif(not cli._X87, reason="longdouble is not the x87 80-bit format")

DBL_MAX = float(np.finfo(np.float64).max)
TINY = float(np.finfo(np.float64).tiny)


def _read(path):
    """(float64 rows, None) or (None, the SchemaError's violations)."""
    try:
        return cli._read_points(str(path)), None
    except SchemaError as exc:
        return None, exc.violations


def _read_general(path):
    """``_read`` with the strict path switched off."""
    with mock.patch.object(cli, "_strict_points", lambda text: None):
        return _read(path)


def _assert_same_read(got, want):
    """Two ``_read`` results: the same float64 bits, or the same messages."""
    if want[0] is None:
        assert got == want
    else:
        assert got[0] is not None
        assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))


def _write(tmp_path, text, name="points.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("ascii"))
    return path


def _rows(tokens):
    """The tokens as a CSV text of rows of four cells."""
    tokens = list(tokens)
    tokens += ["0"] * (-len(tokens) % 4)
    return "".join(",".join(tokens[i:i + 4]) + "\n" for i in range(0, len(tokens), 4))


def _assert_reads_like_float(tmp_path, tokens):
    """The strict path takes the file and gives float(token) for each."""
    text = _rows(tokens)
    want = np.array([float(t) for t in text.replace("\n", ",").split(",")[:-1]])
    with mock.patch.object(cli, "_loadtxt_points",
                           lambda text: pytest.fail("strict path not taken")):
        got = cli._read_points(str(_write(tmp_path, text)))
    assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))


def test_random_bit_patterns_read_like_float(tmp_path):
    rng = np.random.default_rng(20)
    x = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    assert x.size > 99_000 and (np.abs(x) < TINY).any()
    tokens = [repr(v) for v in x.tolist()]
    tokens += ["%.17g" % v for v in x.tolist()]
    tokens += ["%.25g" % v for v in x.tolist()]
    _assert_reads_like_float(tmp_path, tokens)


def _midpoint_tokens(rng, n):
    """Decimal texts at, and within 1e-30 relative of, the exact midpoints
    of adjacent float64s, from subnormals to DBL_MAX: the values whose
    80-bit rounding lands on a midpoint and would round again."""
    bits = np.concatenate([
        rng.integers(1, 0x7FEF_FFFF_FFFF_FFFF, size=n, dtype=np.uint64),
        rng.integers(1, 1 << 52, size=n // 4, dtype=np.uint64),  # subnormal
        np.array([1, 2, (1 << 52) - 1, 1 << 52, (1 << 52) + 1,  # around TINY
                  0x7FEF_FFFF_FFFF_FFFE], dtype=np.uint64)])  # below DBL_MAX
    tokens = []
    with localcontext() as ctx:
        ctx.prec = 1200  # every midpoint is exact
        for lo in bits.view(np.float64).tolist():
            hi = np.nextafter(lo, np.inf)
            mid = (Decimal(lo) + Decimal(float(hi))) / 2
            step = (Decimal(float(hi)) - Decimal(lo)) * Decimal("1e-30")
            tokens += [str(mid), str(mid + step), str(mid - step),
                       str(-mid), f"{mid:.40e}", f"{mid:.30e}"]
    return tokens


def test_midpoints_subnormals_zeros_and_extremes_read_like_float(tmp_path):
    rng = np.random.default_rng(21)
    tokens = _midpoint_tokens(rng, 2000)
    tokens += ["0", "-0", "0.0", "-0.0", "+0e-999", "-0E+999", "1e-400", "-1e-400",
               repr(DBL_MAX), repr(-DBL_MAX), "1.7976931348623158e308",
               "2.4703282292062327e-324", "2.4703282292062328e-324",
               "5e-324", "-4.9406564584124654e-324", repr(TINY),
               repr(float(np.nextafter(TINY, 0))), "9007199254740993", "-9007199254740995.0"]
    # these double-round to the wrong float64 through a plain longdouble cast
    wide = np.array([np.fromstring(t, dtype=np.longdouble, sep=",")[0] for t in tokens])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        naive = wide.astype(np.float64)
    exact = np.array([float(t) for t in tokens])
    assert (naive != exact).sum() > 100
    _assert_reads_like_float(tmp_path, tokens)


def test_overflowing_midpoint_is_not_finite_on_both_paths(tmp_path):
    with localcontext() as ctx:
        ctx.prec = 400
        top = (Decimal(DBL_MAX) + Decimal(2) ** 1024) / 2  # rounds to inf
    for token in (str(top), str(top - 1), "1e309"):
        path = _write(tmp_path, f"1,2,3,{token}\n")
        _assert_same_read(_read(path), _read_general(path))
        if float(token) == np.inf:
            assert _read(path)[1] == ["points file holds a non-finite value in point 1"]
        else:
            assert _read(path)[0][0, 3] == float(token) == DBL_MAX


def test_savetxt_file_takes_the_strict_path(tmp_path):
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(1024, 4))
    pts[0] = [0.0, -0.0, 5e-324, -DBL_MAX]
    path = tmp_path / "points.csv"
    for header in ("", "x1q,x2q,x1p,x2p"):
        np.savetxt(path, pts, fmt="%.17g", delimiter=",", header=header, comments="")
        with mock.patch.object(cli, "_loadtxt_points",
                               lambda text: pytest.fail("strict path not taken")):
            got = cli._read_points(str(path))
        assert np.array_equal(got.view(np.uint64), pts.view(np.uint64))


RAGGED = {
    "five-then-three": "1,2,3,4,5\n6,7,8\n",
    "three-then-five": "1,2,3\n4,5,6,7,8\n",
    "eight-in-one": "1,2,3,4,5,6,7,8\n",
    "blank-then-eight": "\n1,2,3,4,5,6,7,8\n",
    "header-then-ragged": "x1q,x2q,x1p,x2p\n1,2\n3,4,5,6,7,8\n",
    "empty-cell": "1,2,3,4\n5,,7,8\n",
    "trailing-comma": "1,2,3,4\n5,6,7,\n",
    "leading-comma": "1,2,3,4\n,5,6,7\n",
}


@pytest.mark.parametrize("name", RAGGED)
def test_rows_of_other_than_four_cells_rejected(name, tmp_path):
    """Rows must hold four cells each, not four cells per row on average."""
    path = _write(tmp_path, RAGGED[name])
    assert _read(path) == (None, [cli.ROWS_MESSAGE])
    assert _read_general(path) == (None, [cli.ROWS_MESSAGE])


LAYOUTS = {**POINTS_PARITY, **{k: v for k, v in MALFORMED.items() if k.endswith(".csv")}}


@pytest.mark.parametrize("name", LAYOUTS)
def test_layout_cases_read_as_on_the_loadtxt_path(name, tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(LAYOUTS[name], newline="")
    _assert_same_read(_read(path), _read_general(path))


# --- fuzz: the strict path never differs from the np.loadtxt path ----------

_DIGITS = st.text("0123456789", min_size=1, max_size=25)
_EXPONENT = st.builds(lambda e, sign, v: f"{e}{sign}{v}", st.sampled_from("eE"),
                      st.sampled_from(["", "+", "-"]),
                      st.one_of(st.integers(0, 20), st.integers(0, 400)))
_NUMBER = st.builds(
    lambda sign, mantissa, exponent: sign + mantissa + exponent,
    st.sampled_from(["", "", "+", "-"]),
    st.one_of(_DIGITS,
              st.builds(lambda a, b: f"{a}.{b}", _DIGITS, _DIGITS),
              st.builds(lambda b: f".{b}", _DIGITS),
              st.builds(lambda a: f"{a}.", _DIGITS)),
    st.one_of(st.just(""), _EXPONENT))
_ODD = st.sampled_from([
    "", " ", "\t", "nan", "-inf", "inf", "Infinity", "0x1p3", "0x10", "1_000",
    "1e", "e5", ".", "-", "+", "+-1", "1.2.3", "1e5e5", "--1", ".e1", "x1q", "#"])
_CELL = st.one_of(
    _NUMBER, _NUMBER, _NUMBER, _ODD,
    st.builds(lambda v: f'"{v}"', _NUMBER),
    st.builds(lambda pad, v, pad2: pad + v + pad2,
              st.sampled_from([" ", "\t", "  "]), _NUMBER, st.sampled_from(["", " ", "\t"])))
_ROW = st.lists(_NUMBER, min_size=4, max_size=4)
_BAD_ROW = st.one_of(st.lists(_CELL, min_size=4, max_size=4),
                     st.lists(_CELL, min_size=0, max_size=6))
_HEADER = st.sampled_from(["x1q,x2q,x1p,x2p", '"x1q","x2q","x1p","x2p"', "a,1,2,3",
                           "1,2,3,4", "", "x"])


@st.composite
def _points_texts(draw):
    """Rows of four numbers, with up to two rows replaced by odd or ragged
    cells or the cells regrouped in rows of three to five, an optional
    header, blank lines, any line end and usually a final one."""
    rows = draw(st.lists(_ROW, min_size=1, max_size=8))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(_BAD_ROW)
    if draw(st.integers(0, 5)) == 0:  # the same cells in rows of 3 to 5
        cells = [c for row in rows for c in row]
        rows = []
        while cells:
            take = draw(st.integers(3, 5))
            rows.append(cells[:take])
            cells = cells[take:]
    lines = [",".join(cells) for cells in rows]
    if draw(st.booleans()):
        lines.insert(0, draw(_HEADER))
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = end.join(lines)
    if lines and draw(st.integers(0, 3)):
        text += end
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(text=_points_texts())
def test_strict_reader_matches_the_loadtxt_path(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-points.csv"
    path.write_bytes(text.encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the strict path neither warns nor raises
        strict = cli._strict_points(text)
    want = _read_general(path)
    _assert_same_read(_read(path), want)
    if strict is not None:
        assert np.array_equal(strict.view(np.uint64), want[0].view(np.uint64))

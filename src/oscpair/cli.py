"""Command-line front end.

Subcommands
-----------
decouple   solve for the rotation angle; print alpha, gamma_max, admissible
           and a CSV of (t, Omega1_sq, Omega2_sq, F1, F2, Gamma)
kernel     evaluate K on position tuples from a CSV/JSON file; emit CSV
           (x1q, x2q, x1p, x2p, ReK, ImK); optionally dump auxiliary data
evolve     propagate the scenario's Gaussian state; emit a CSV time series
           of means, covariances, norm and global phase
           (``propagator.evolve_gaussian``: one auxiliary solve for the
           window, one stacked kernel of its intervals)
oracle     split-operator evolution; emit CSV observables and optionally a
           binary |psi|^2 dump
compare    corrected vs lw variant vs oracle; exit 0 iff the corrected
           variant passes its thresholds
residual   finite-difference Schrodinger residual of the kernel at sampled
           interior points

Exit codes: 0 success; 1 validation failure (bad config, inadmissible
system, compare thresholds unmet); 2 numerical failure (caustic, solver);
3 I/O error.  All numbers are printed with 17 significant digits so CSV
output round-trips bit-exactly; rows are emitted in fixed order.  Every
table goes through one writer, ``_write_csv``, which takes whole columns
and writes the rows in one piece; string cells are quoted as the csv
module quotes them.  Its numbers have exactly the bytes of
``'%.17g' % v``, but numpy formats a whole table at once: the decimal
exponent from ``log10`` with an exact correction, the 17 digits from
rint(|v| 10^(16-k)) in ``np.longdouble`` with a power table parsed from
decimal strings, a lookup table of 4-digit groups, and the ``%g`` layout
written per layout class and compacted with a byte mask.  A cell whose
scaled value lies within the longdouble rounding-error bound of a
midpoint (about 0.011 units of the 17th digit), and every non-finite
cell, is formatted by Python's ``%`` instead; where longdouble is not the
x87 80-bit format (it is on x86-64 Linux), or the table holds a string
column, every cell is.  ``_write_csv`` states the bound and its proof.

A points file is CSV (an optional header line with no number cell, then
rows of four numbers, with no blank line) or a JSON list of such rows.
Every value must be a finite number; anything else is a validation failure naming the points file.
A CSV file of the canonical layout is parsed by ``strtold`` to 80-bit
longdoubles and rounded to float64, with the same bits as ``float``
(``_strict_points`` states why); any other goes through ``np.loadtxt``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import struct
import sys
import warnings
from typing import NamedTuple

import numpy as np

from .comparison import discrepancy_significant, run_comparison
from .decoupling import channel_quantities, decoupled_at_angle, solve_angle
from .errors import (
    CausticError,
    DomainError,
    InadmissibleSystem,
    NonConvergentGaussian,
    NonPositiveRho,
    SchemaError,
    SolverFailure,
)
from .oracle import energy_expectation, evolve, from_gaussian
from .propagator import build_kernel, evolve_gaussian, schrodinger_residual
from .scenario import load_scenario

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

COMPARE_FIDELITY_MIN = 1.0 - 1e-4
COMPARE_RESIDUAL_MAX = 1e-4

#: integer options that count something and must be positive; the
#: ``--points`` of ``kernel`` is a file name and is not checked
COUNT_OPTIONS = ("steps", "rows", "grid", "points", "t_points", "aux_points")


ROWS_MESSAGE = "points file must contain rows of (x1q, x2q, x1p, x2p)"


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _quoted(cell):
    """A string cell as ``csv.writer`` writes it among other cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([cell, ""])
    return buf.getvalue()[:-2]


def _write_csv(path, header, columns):
    """Write ``header`` and one row per index of the equal-length ``columns``.

    A column is an array, or a list or tuple of numbers or of strings.
    Strings are quoted as ``csv.writer`` quotes them (minimal quoting);
    numbers are converted to float and printed as ``'%.17g' % v`` prints
    them, which round-trips every float64.  The whole table is formatted
    at once and written in one piece.

    The numbers of an all-numeric table are formatted by numpy
    (:func:`_g17_fields`), not one Python call per cell; a table with a
    string column (a few dozen rows) is formatted by Python's ``%``.
    For finite nonzero v, ``%.17g`` prints the 17-digit integer
    D = rint(|v| 10^(16-k)) (ties to even), k = floor(
    log10 |v|), with k + 1 and D = 10^16 when D rounds up to 10^17; in
    the fixed layout for -4 <= k < 17 and as d.ddd...e+XX otherwise,
    with trailing zeros stripped.

    * k is exact: the float64 ``log10`` estimate is corrected by one in
      either direction by comparing |v| with the least float64 >= 10^k.
    * s = |v| * P[16 - k] in ``np.longdouble``, where P[q] is 10^q
      rounded to nearest (parsed from decimal strings; exact when
      0 <= q and 5^q fits the significand).  With u the longdouble unit
      roundoff, P[q] = 10^q (1 + d1) and s = |v| P[q] (1 + d2),
      |d1|, |d2| <= u (d1 = 0 when P[q] is exact), and |v| is exact in
      longdouble.  The exact scaled value s* = |v| 10^(16-k) lies in
      [10^16, 10^17), so |s - s*| < B = 10^17 (2u + u^2), or 10^17 u
      when P[q] is exact.
    * D is the integer part of s plus one when its fraction f exceeds
      1/2.  If |f - 1/2| > B, then s* lies on the same side of that
      midpoint as s, and the other midpoints are over 1/2 > B away, so
      D = rint(s*).  Cells with |f - 1/2| <= B, and every non-finite
      cell, are formatted by Python's ``%`` instead (about 1-2% of the
      cells of a kernel table).  The bounds 1/2 +- B are float64s
      rounded outward, and f is a multiple of ulp(s) >= 2^-10, so f is
      exact in float64.

    The numpy path runs where longdouble is the x87 80-bit extended
    format (x86-64 Linux): u = 2^-64 and B = 0.0108 units of the 17th
    digit, or 0.0054 where 10^q is exact (0 <= q <= 27).  Anywhere else
    (a longdouble no wider than double, binary128 or a double-double)
    Python formats every cell.
    """
    cols = [col if _is_text(col) else np.asarray(col, dtype=float)
            for col in columns]
    body = _csv_rows(cols)
    fh, close = _open_out(path)
    try:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.write(body)
    finally:
        if close:
            fh.close()


def _is_text(col):
    return not isinstance(col, np.ndarray) and col and isinstance(col[0], str)


def _csv_rows(columns):
    """The CSV rows of the equal-length ``columns`` (float arrays, or lists
    of strings), as one string.  A table with a string column is formatted
    cell by cell in Python."""
    nrows = len(columns[0]) if columns else 0
    if nrows == 0:
        return ""
    if all(isinstance(col, np.ndarray) for col in columns):
        chars, keep = _g17_fields(np.column_stack(columns))
        chars[:, :, -1] = ord(",")
        chars[:, -1, -1] = ord("\n")
        text = chars[keep]
        del chars, keep
        return str(text, "ascii")
    cells = [_fallback_cells(col) if isinstance(col, np.ndarray) else map(_quoted, col)
             for col in columns]
    return "".join(",".join(row) + "\n" for row in zip(*cells))


# --- %.17g in numpy ------------------------------------------------------------
#
# A cell is a field of _FIELD bytes: byte 0 holds a minus sign, bytes 1-23
# the digits and the decimal point (a cell that Python formats starts at
# byte 0), bytes 24-28 the exponent and byte 31 the separator, which the
# caller writes.  A boolean ``keep`` of the same shape marks the bytes of
# the cell; ``chars[keep]`` is the cell's text.

_FIELD = 32
_K_MIN, _K_MAX = -325, 310           # decades k of the threshold table
_Q_MIN, _Q_MAX = 16 - _K_MAX, 16 - _K_MIN  # scale exponents q of the powers
#: layout classes: 0-16, a decimal point after digit c (fixed, k = c; or
#: scientific, c = 0); 17-20, "0." and c - 17 zeros before the digits
#: (fixed, k = 16 - c); _ZERO, the cell is 0; _FALLBACK, Python formats it
_ZERO, _FALLBACK = 21, 22
_LEADING = np.frombuffer(b"0.000", np.uint8)
#: longdouble is the x87 80-bit format (x86-64 Linux): the platform rule of
#: the numpy writer and of the strict points reader
_X87 = np.finfo(np.longdouble).nmant == 63


class _G17Tables(NamedTuple):
    decade_start: np.ndarray  # least float64 >= 10^k, k = _K_MIN.._K_MAX
    pow10: np.ndarray | None  # longdouble 10^q, q = _Q_MIN.._Q_MAX; None: no numpy path
    half_lo: np.ndarray       # 1/2 - B per q, rounded down
    half_hi: np.ndarray       # 1/2 + B per q, rounded up
    quads: np.ndarray         # uint32 bytes of the 4 digits of 0..9999
    quad_digits: np.ndarray   # digits of 0..9999 left of its trailing zeros
    klass: np.ndarray         # layout class per decade k
    exponents: np.ndarray     # uint64 bytes of "e-05" ... per decade k
    exponent_len: np.ndarray  # 0 for the fixed layout
    keep: np.ndarray          # keep rows ("V32") per (start, end, exponent length)


@functools.cache
def _g17_tables():
    """The lookup tables of :func:`_g17_fields`, built once (about 2 ms)."""
    info = np.finfo(np.longdouble)
    lo, hi = min(_K_MIN, _Q_MIN), max(_K_MAX, _Q_MAX)
    # strtold rounds each decimal string correctly; 10.0**q would not
    powers = np.fromstring(" ".join(f"1e{q}" for q in range(lo, hi + 1)),
                           dtype=np.longdouble, sep=" ")
    tens = powers[_K_MIN - lo:_K_MAX - lo + 1]
    with np.errstate(over="ignore"):
        start = tens.astype(np.float64)
    start = np.where(start < tens, np.nextafter(start, np.inf), start)
    q = np.arange(_Q_MIN, _Q_MAX + 1)
    u = info.eps / 2
    exact = (q >= 0) & (q * np.log2(5) < info.nmant + 1)
    bound = np.where(exact, u, 2 * u + u * u) * np.longdouble(1e17)
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    quads = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    nonzero = digits != 0
    quad_digits = np.where(nonzero.any(axis=1),
                           4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    k = np.arange(_K_MIN, _K_MAX + 1)
    fixed = (k >= -4) & (k < 17)
    klass = np.where(fixed, np.where(k < 0, 16 - k, k), 0)
    mag = np.abs(k)
    three = mag >= 100
    exp = np.zeros((k.size, 8), np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    exp[:, 2:5] = np.where(three[:, None],
                           np.stack([mag // 100, mag // 10 % 10, mag % 10], axis=1),
                           np.stack([mag // 10 % 10, mag % 10, 0 * mag], axis=1))
    exp[:, 2:5] += ord("0")
    exponent_len = np.where(fixed, 0, np.where(three, 5, 4))
    col = np.arange(_FIELD)
    s, e, x = (v.reshape(-1, 1) for v in np.meshgrid(
        np.arange(2), np.arange(25), np.arange(6), indexing="ij"))
    keep = (((col >= s) & (col < e)) | ((col >= 24) & (col < 24 + x))
            | (col == _FIELD - 1))
    return _G17Tables(
        decade_start=start,
        pow10=powers[_Q_MIN - lo:_Q_MAX - lo + 1] if _X87 else None,
        half_lo=np.nextafter((0.5 - bound).astype(np.float64), 0),
        half_hi=np.nextafter((0.5 + bound).astype(np.float64), 1),
        quads=quads, quad_digits=quad_digits, klass=klass.astype(np.int8),
        exponents=exp.view(np.uint64).ravel(), exponent_len=exponent_len,
        keep=keep.view(f"V{_FIELD}").ravel())


def _decade(a):
    """floor(log10(a)) for positive finite a, possibly off by one near a
    power of ten."""
    return np.floor(np.log10(a)).astype(np.intp)


def _fallback_cells(values):
    """``'%.17g' % v`` of each float64 in ``values``."""
    return ["%.17g" % v for v in values.tolist()]


def _g17_fields(values):
    """(chars, keep) of shape ``values.shape + (_FIELD,)``: the cells of a
    float64 array formatted as ``'%.17g' % v`` formats them, laid out as
    described above.  See :func:`_write_csv` for the method."""
    x = values.ravel()
    n = x.size
    t = _g17_tables()
    start = 1 - np.signbit(x)
    if t.pow10 is None:
        chars = np.empty((n, _FIELD), np.uint8)
        end = np.empty(n, np.intp)
        exp_len = np.empty(n, np.intp)
        fallback = np.arange(n)
    else:
        # each full-size temporary is freed at its last use: the working
        # set stays near a few planes of 8n bytes and the 32n-byte fields
        a = np.abs(x)
        normal = (a > 0) & (a < np.inf)
        a[~normal] = 1.0
        k = _decade(a)
        i = k - _K_MIN
        k += a >= np.take(t.decade_start, i + 1)
        k -= a < np.take(t.decade_start, i)
        qi = 16 - _Q_MIN - k  # index of 10^(16 - k) in the power table
        s = a.astype(np.longdouble)
        del a
        s *= np.take(t.pow10.view("V16"), qi).view(np.longdouble)
        D = s.astype(np.int64)  # the integer part of s (near [10^16, 10^17))
        s -= D                  # and its fraction, exactly
        frac = s.astype(np.float64)
        del s
        D += frac > 0.5
        near_half = (frac >= np.take(t.half_lo, qi)) & (frac <= np.take(t.half_hi, qi))
        del frac, qi
        carry = D == 10**17
        D[carry] = 10**16
        k += carry
        np.subtract(k, _K_MIN, out=i)
        del k, carry
        klass = np.take(t.klass, i)
        klass[~normal] = np.where(x[~normal] == 0, _ZERO, _FALLBACK)
        klass[near_half] = _FALLBACK
        del normal, near_half
        order = np.argsort(klass, kind="stable")
        ends = np.cumsum(np.bincount(klass, minlength=_FALLBACK + 1)).tolist()
        del klass

        # the 17 digits, in class order: a leading digit and four quads
        D = np.take(D, order)
        upper = D // 10**8
        D -= upper * 10**8
        lower = D.astype(np.int32)
        upper = upper.astype(np.int32)
        del D
        lead = upper // 10**8
        upper -= lead * 10**8
        q0, q2 = upper // 10**4, lower // 10**4
        upper -= q0 * 10**4
        lower -= q2 * 10**4
        quads = (q0, upper, q2, lower)
        words = np.empty((n, 5), np.uint32)
        for j, v in enumerate(quads):
            words[:, j + 1] = np.take(t.quads, v)
        digits = words.view(np.uint8)[:, 3:]
        digits[:, 0] = lead + ord("0")
        nd = 13 + np.take(t.quad_digits, lower)
        short = np.flatnonzero(lower == 0)
        if short.size:
            q0, q1, q2 = (v[short] for v in quads[:3])
            nd[short] = np.where(
                q2 != 0, 9 + t.quad_digits[q2],
                np.where(q1 != 0, 5 + t.quad_digits[q1], 1 + t.quad_digits[q0]))
        del quads, q0, q2, upper, lower, lead

        sorted_chars = np.empty((n, _FIELD), np.uint8)
        length = _mantissa_bytes(sorted_chars, digits, nd, ends)
        del words, digits, nd
        chars = np.empty((n, _FIELD), np.uint8)
        np.put(chars.view(f"V{_FIELD}"), order, sorted_chars.view(f"V{_FIELD}"))
        del sorted_chars
        chars.view(np.uint64)[:, 3] = np.take(t.exponents, i)
        exp_len = np.take(t.exponent_len, i)
        del i
        end = np.empty(n, np.intp)
        length += 1
        np.put(end, order, length)
        del length
        fallback = order[ends[_ZERO]:]
    if fallback.size:
        cells = [c.encode() for c in _fallback_cells(x[fallback])]
        chars[fallback, :24] = np.array(cells, dtype="S24").view(np.uint8).reshape(-1, 24)
        start[fallback] = 0
        end[fallback] = [len(c) for c in cells]
        exp_len[fallback] = 0
    keep = np.take(t.keep, (start * 25 + end) * 6 + exp_len)
    shape = values.shape + (_FIELD,)
    return chars.reshape(shape), keep.view(bool).reshape(shape)


def _mantissa_bytes(chars, digits, nd, ends):
    """Write the sign and mantissa bytes of the cells in class order, one
    slice assignment per layout class, into ``chars``; return the byte
    lengths of the mantissas (digits, point and leading zeros).  ``digits``
    holds the 17 digits of each cell, ``nd`` how many are left of its
    trailing zeros, and ``ends`` the end of each class."""
    chars[:, 0] = ord("-")
    length = np.empty(len(chars), np.intp)
    first = 0
    for c, last in enumerate(ends[:_FALLBACK]):
        if last == first:
            continue
        rows = slice(first, last)
        out, d = chars[rows], digits[rows]
        if c <= 16:   # c + 1 digits, a point, 16 - c digits
            out[:, 1:c + 2] = d[:, :c + 1]
            out[:, c + 2] = ord(".")
            out[:, c + 3:19] = d[:, c + 1:]
            length[rows] = np.where(nd[rows] > c + 1, nd[rows] + 1, c + 1)
        elif c < _ZERO:   # "0." and c - 17 zeros, 17 digits
            lead_len = c - 15
            out[:, 1:1 + lead_len] = _LEADING[:lead_len]
            out[:, 1 + lead_len:18 + lead_len] = d
            length[rows] = nd[rows] + lead_len
        else:
            out[:, 1] = ord("0")
            length[rows] = 1
        first = last
    return length


def _decoupled(sc):
    if sc.alpha is not None:
        return decoupled_at_angle(sc.system, sc.alpha, gamma_tol=sc.gamma_tol)
    return solve_angle(sc.system, gamma_tol=sc.gamma_tol)


# --- subcommand implementations --------------------------------------------

def _cmd_decouple(args):
    sc = load_scenario(args.scenario)
    dec = _decoupled(sc)
    print("alpha = %.17g" % dec.alpha)
    print("gamma_max = %.17g" % dec.gamma_max)
    print("worst_t = %.17g" % dec.worst_t)
    print(f"admissible = {'true' if dec.admissible else 'false'}")
    ts = np.linspace(sc.system.t_min, sc.system.t_max, args.t_points)
    quantities = channel_quantities(sc.system, dec.alpha, ts)
    _write_csv(args.out, ["t", "omega1_sq", "omega2_sq", "F1", "F2", "gamma"],
               [ts, *quantities])
    return EXIT_OK


def _read_points(path):
    """(n, 4) finite floats from a CSV (optional header line) or JSON file.

    A CSV file of the canonical layout (what ``np.savetxt(..., fmt="%.17g",
    delimiter=",")`` writes, with or without a header) is parsed by
    :func:`_strict_points`; any other goes through ``np.loadtxt``
    (:func:`_loadtxt_points`), the only source of errors.
    """
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise SchemaError([ROWS_MESSAGE])
        for v in _leaves(data):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(
                    [f"points file holds a non-numeric value: {json.dumps(v)}"])
        try:
            pts = np.asarray(data, dtype=float)
        except OverflowError:
            raise SchemaError(["points file holds a non-finite value"]) from None
    else:
        with open(path, newline="") as fh:
            text = fh.read()
        pts = _strict_points(text)
        if pts is not None:
            return pts
        pts = _loadtxt_points(text)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise SchemaError([ROWS_MESSAGE])
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise SchemaError(
            [f"points file holds a non-finite value in point {bad[0] + 1}"])
    return pts


def _loadtxt_points(text):
    """The rows of a CSV points file by ``np.loadtxt``: any line ending, an
    optional header line, quoted cells and cells padded with whitespace."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the terminator of the last row
    if lines and _is_header(lines[0]):
        lines = lines[1:]
    if not lines or "" in lines:  # no rows, or a blank line: a row of no values
        raise SchemaError([ROWS_MESSAGE])
    try:
        return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:  # a ragged row or a cell that is not a number
        raise SchemaError([ROWS_MESSAGE]) from None


_STRICT_SEPARATORS = b",,,\n"  # what is left of a row once its number bytes go
_TINY = np.finfo(np.float64).tiny


def _strict_points(text):
    """The (n, 4) finite float64 rows of a strict CSV points file, or None.

    Strict: ``\\n`` line ends, the header line of :func:`_loadtxt_points`
    if any, then rows of exactly four cells of the bytes ``0-9 + - . e E``
    (the last row may lack its ``\\n``).  glibc's ``strtold`` parses every
    cell (``np.fromstring``) to the nearest 80-bit longdouble L, which is
    then rounded to float64.  Every midpoint of adjacent float64s is an
    80-bit value, so rounding the decimal value d to nearest is monotone
    across it: L lies on the same side of each midpoint as d, or on it.
    The two roundings therefore give float(d) unless L is itself a
    midpoint (its 11 low significand bits 0x400) or below the least
    normal float64, where fewer bits are kept; those cells, and zeros,
    are parsed again by ``float``.  A file that is not strict, or holds a
    cell that is not a number or a value that is not finite, gives None;
    on every file this takes, :func:`_loadtxt_points` gives the same
    floats.  Runs where longdouble is the x87 80-bit format (``_X87``).
    """
    if not _X87 or "\r" in text or not text.isascii():
        return None
    head, _, rows = text.partition("\n")
    if _is_header(head):
        text = rows
    raw = text.encode("ascii")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    separators = raw.translate(None, b"0123456789+-.eE")  # and any other byte
    n = len(separators) // 4
    if not n or separators != _STRICT_SEPARATORS * n:
        return None
    cells = raw.replace(b"\n", b",")
    try:
        # where a cell is not a number, numpy 2.4 raises; older versions
        # warn and return the values before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            wide = np.fromstring(cells, dtype=np.longdouble, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    with np.errstate(over="ignore"):
        pts = wide.astype(np.float64)
    low = wide.view(np.uint16)[::wide.itemsize // 2]  # low 16 significand bits
    redo = np.flatnonzero(((low & 0x7FF) == 0x400) | (np.abs(pts) <= _TINY))
    if redo.size:
        tokens = cells.split(b",")
        pts[redo] = [float(tokens[i]) for i in redo.tolist()]
    if not np.isfinite(pts).all():
        return None
    return pts.reshape(n, 4)


def _is_header(line):
    """Whether the first line of a CSV points file is a header: cells none
    of which is a number.  A line with any number cell is a row."""
    return bool(cells := next(csv.reader([line]))) and not any(map(_is_number, cells))


def _leaves(data):
    """The values inside nested lists, depth first."""
    for item in data:
        if isinstance(item, list):
            yield from _leaves(item)
        else:
            yield item


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _cmd_kernel(args):
    sc = load_scenario(args.scenario)
    pts = _read_points(args.points)
    dec = _decoupled(sc)
    kern = build_kernel(dec, sc.window[0], sc.window[1], variant=args.variant,
                        quad_order=sc.quad_order, quad_panels=sc.quad_panels,
                        ode_tol=sc.ode_tol, caustic_tol=sc.caustic_tol)
    K = kern.evaluate(*pts.T)
    _write_csv(args.out, ["x1q", "x2q", "x1p", "x2p", "ReK", "ImK"],
               [*pts.T, K.real, K.imag])
    if args.dump_aux:
        ts = np.linspace(sc.window[0], sc.window[1], args.aux_points)
        cols = [ts]
        for sol in kern.solutions:
            cols += sol.rho_drho_phi(ts)
        _write_csv(args.dump_aux,
                   ["t", "rho1", "drho1", "phi1", "rho2", "drho2", "phi2"], cols)
    return EXIT_OK


def _cmd_evolve(args):
    sc = load_scenario(args.scenario)
    times = np.linspace(*sc.window, args.steps + 1)
    states = evolve_gaussian(_decoupled(sc), sc.initial_state(), times,
                             quad_order=sc.quad_order, quad_panels=sc.quad_panels,
                             ode_tol=sc.ode_tol, caustic_tol=sc.caustic_tol)
    rows = []
    for t, st in zip(times, states):
        mu = st.mean_position()
        mom = st.mean_momentum()
        cov = st.covariance_position()
        phase = float(np.angle(np.exp(1j * np.imag(st.c))))
        rows.append((t, mu[0], mu[1], mom[0], mom[1],
                     cov[0, 0], cov[1, 1], cov[0, 1], st.norm(), phase))
    _write_csv(args.out, ["t", "x1_mean", "x2_mean", "p1_mean", "p2_mean",
                          "var_x1", "var_x2", "cov_x1x2", "norm", "phase"],
               zip(*rows))
    return EXIT_OK


def _cmd_oracle(args):
    sc = load_scenario(args.scenario)
    spec = sc.system
    grid = sc.grid(points=args.grid)
    n_steps = sc.grid_steps if args.steps is None else args.steps
    t0, t1 = sc.window
    state = from_gaussian(grid, sc.initial_state().normalized(), time=t0)
    stride = max(1, n_steps // args.rows)
    rows = []

    def record(st):
        rows.append((st.time, st.norm(), st.mean(0), st.mean(1),
                     st.mean_sq(0), st.mean_sq(1), energy_expectation(spec, st)))

    record(state)
    state = evolve(spec, state, t0, t1, n_steps, observer=record, every=stride)
    _write_csv(args.out, ["t", "norm", "x1_mean", "x2_mean",
                          "x1_sq_mean", "x2_sq_mean", "energy"], zip(*rows))
    if args.dump_psi:
        density = np.abs(state.psi) ** 2
        n1, n2 = grid.points
        with open(args.dump_psi, "wb") as fh:
            fh.write(struct.pack("<iiii", n1, n2, 0, 0))
            fh.write(density.astype("<f8").tobytes(order="C"))
    return EXIT_OK


def _cmd_compare(args):
    sc = load_scenario(args.scenario)
    dec = _decoupled(sc)
    grid = sc.grid(points=args.grid)
    n_steps = sc.grid_steps if args.steps is None else args.steps
    rep_c, rep_lw = run_comparison(
        dec, sc.window, sc.initial_state(), grid, n_steps,
        scenario_id=sc.name or args.scenario, seed=args.seed,
        quad_order=sc.quad_order, quad_panels=sc.quad_panels, ode_tol=sc.ode_tol)
    header = ["scenario", "variant", "fidelity_vs_oracle", "max_residual",
              "gamma_max", "alpha", "maslov1", "maslov2",
              "t_start", "t_end", "grid_n1", "grid_n2", "n_steps"]
    rows = [(r.scenario, r.variant, r.fidelity_vs_oracle, r.max_residual,
             r.gamma_max, r.alpha, r.maslov[0], r.maslov[1],
             r.window[0], r.window[1], r.grid_points[0], r.grid_points[1],
             r.n_steps) for r in (rep_c, rep_lw)]
    _write_csv(args.out, header, zip(*rows))
    print(f"corrected: fidelity {rep_c.fidelity_vs_oracle:.12f}, "
          f"max residual {rep_c.max_residual:.3e} "
          f"({rep_c.runtime_s:.1f}s)", file=sys.stderr)
    print(f"lw:        fidelity {rep_lw.fidelity_vs_oracle:.12f}, "
          f"max residual {rep_lw.max_residual:.3e}", file=sys.stderr)
    print(f"discrepancy significant: {discrepancy_significant(rep_c, rep_lw)}",
          file=sys.stderr)
    ok = (rep_c.fidelity_vs_oracle >= COMPARE_FIDELITY_MIN
          and rep_c.max_residual <= COMPARE_RESIDUAL_MAX)
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_residual(args):
    sc = load_scenario(args.scenario)
    dec = _decoupled(sc)
    variants = ("corrected", "lw") if args.variant == "both" else (args.variant,)
    rows = []
    for variant in variants:
        ts, pts, res = schrodinger_residual(
            dec, sc.window[0], sc.window[1], variant=variant,
            n_points=args.points, seed=args.seed,
            quad_order=sc.quad_order, quad_panels=sc.quad_panels,
            ode_tol=sc.ode_tol)
        for t, pt, r in zip(ts, pts, res):
            rows.append((variant, t, pt[0], pt[1], pt[2], pt[3], r))
        print(f"{variant}: max residual {np.max(res):.6e}", file=sys.stderr)
    _write_csv(args.out, ["variant", "t", "x1q", "x2q", "x1p", "x2p", "residual"],
               zip(*rows))
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="oscpair",
        description="Exact propagators for two coupled, driven time-dependent "
                    "oscillators, with a split-operator cross-check.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--scenario", required=True,
                        help="path to a scenario JSON file")
        sp.add_argument("--out", default=None,
                        help="output CSV path (default: stdout)")

    sp = sub.add_parser("decouple", help="solve for the decoupling angle")
    add_common(sp)
    sp.add_argument("--t-points", type=int, default=512,
                    help="rows in the channel-quantity CSV (default 512)")
    sp.set_defaults(func=_cmd_decouple)

    sp = sub.add_parser("kernel", help="evaluate the propagator at points")
    add_common(sp)
    sp.add_argument("--points", required=True,
                    help="CSV/JSON file of (x1q, x2q, x1p, x2p) rows")
    sp.add_argument("--variant", choices=["corrected", "lw"], default="corrected")
    sp.add_argument("--dump-aux", default=None,
                    help="also write CSV of (t, rho_j, drho_j, phi_j)")
    sp.add_argument("--aux-points", type=int, default=512,
                    help="rows in the auxiliary dump (default 512)")
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("evolve", help="evolve the Gaussian state analytically")
    add_common(sp)
    sp.add_argument("--steps", type=int, default=64,
                    help="number of output intervals (default 64)")
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("oracle", help="split-operator reference evolution")
    add_common(sp)
    sp.add_argument("--grid", type=int, default=None,
                    help="grid points per axis (default from scenario)")
    sp.add_argument("--steps", type=int, default=None,
                    help="time steps (default from scenario)")
    sp.add_argument("--rows", type=int, default=64,
                    help="target number of CSV rows (default 64)")
    sp.add_argument("--dump-psi", default=None,
                    help="binary dump of final |psi|^2 (16-byte header: "
                         "int32 n1, n2, 0, 0; then row-major float64 LE)")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("compare", help="corrected vs lw variant vs oracle")
    add_common(sp)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for residual sample points")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("residual", help="finite-difference Schrodinger residual")
    add_common(sp)
    sp.add_argument("--variant", choices=["corrected", "lw", "both"],
                    default="both")
    sp.add_argument("--points", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_residual)
    return p


@functools.cache
def _parser():
    """The parser :func:`main` uses, built on its first call (argparse is
    slow to build and keeps no state between ``parse_args`` calls)."""
    return build_parser()


def _option_problem(args):
    """The first out-of-range count or seed, as a message; None if all fit."""
    for name in COUNT_OPTIONS:
        n = getattr(args, name, None)
        if isinstance(n, int) and n <= 0:
            return f"--{name.replace('_', '-')} must be positive, got {n}"
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        return f"--seed must be non-negative, got {seed}"
    return None


def main(argv=None):
    args = _parser().parse_args(argv)
    problem = _option_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except SchemaError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, InadmissibleSystem, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CausticError, SolverFailure, NonPositiveRho,
            NonConvergentGaussian) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""CSV text of float64 arrays, byte for byte as ``'%.17g'`` prints each value.

``write_csv`` produces the file that ``numpy.savetxt(path, data,
fmt="%.17g", delimiter=",", header=header, comments="")`` writes, in a
fraction of its time.  numpy formats one value at a time with CPython's
correctly rounded conversion; here the 17 significant digits of a whole
block are computed at once:

1. Scale.  For finite |v| in [1e-280, 1e280], let e = floor(log10|v|) and
   y = |v| * 10**(16 - e), a product taken as a double-double: a Dekker
   split and TwoProduct (Dekker, Numer. Math. 18, 1971) of |v| with a
   table entry hi + lo that is 10**(16 - e) correctly rounded to about
   106 bits.  The error of y is below 1e-13.  If y falls outside
   [1e16, 1e17), e was off by one and y is taken again.
2. Round.  D = round(y) is the 17-digit integer; a D of 10**17 carries to
   10**16 with e raised by one.
3. Certify.  Where the fraction of y lies within 1e-9 of 1/2 the rounding
   direction is not certain (exact decimal ties among them), and Python
   formats that value instead.  It also formats every nonzero |v| outside
   [1e-280, 1e280] (subnormals among them), the infinities and NaN.
4. Lay out.  The digits of D, stripped of trailing zeros, go into fixed
   notation for -4 <= e < 17 and into d.ddde+XX otherwise, as ``%g``
   does.  Zeros print as ``0`` and ``-0``.

Rows go through in blocks of BLOCK_ROWS, each laid out as a padded byte
matrix whose pad bytes are then dropped.  Lines end in ``\\n`` on every
platform.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

BLOCK_ROWS = 128
FAST_MIN, FAST_MAX = 1e-280, 1e280  # |v| whose digits the block path computes
TIE_MARGIN = 1e-9  # |frac(y) - 1/2| below this goes to Python's formatting

_E_MIN, _E_MAX = -281, 281  # decimal exponents of FAST_MIN..FAST_MAX, +-1 correction
# A field is the bytes of one value, padded with zero bytes that the writer
# drops: the sign, 22 columns for '0000' + the 17 digits with the decimal
# point inserted after the units digit, 5 for the exponent, the separator.
_SIGN, _BODY, _EXP, _SEP, _FIELD = 0, 1, 23, 28, 29
_LEAD = 4  # zeros ahead of the digits: 1e-4 prints as 0.0001
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _split(x):
    """Dekker split: x == hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _tables():
    """Lookup tables, built on the first write (a few ms), not at import."""
    powers = np.empty((4, _E_MAX - _E_MIN + 1))  # 10**(16 - e): hi, lo, hi's split
    for i, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # int / int is correctly rounded
        p, q = hi.as_integer_ratio()
        powers[0, i], powers[1, i] = hi, (num * q - p * den) / (den * q)  # the exact rest
    powers[2], powers[3] = _split(powers[0])
    group_text = np.frombuffer(b"".join(b"%04d" % g for g in range(10_000)), dtype=np.uint32)
    trailing = np.array([4] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 10_000))],
                        dtype=np.int8)
    # exponent text per e in _E_MIN.._E_MAX; the extra last row is fixed notation's
    exps = [b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)] + [b""]
    exp_text = np.array([list(s.ljust(_SEP - _EXP, b"\0")) for s in exps], dtype=np.uint8).T.copy()
    for table in (powers, group_text, trailing, exp_text):
        table.flags.writeable = False
    return powers, group_text, trailing, exp_text


def _scaled(a, e, powers):
    """y = a * 10**(16 - e) as hi + lo; hi is an integer whenever y >= 2**53."""
    k = e - _E_MIN
    p_hi, p_lo, p_hh, p_hl = powers[0, k], powers[1, k], powers[2, k], powers[3, k]
    a_h, a_l = _split(a)
    hi = a * p_hi
    lo = ((a_h * p_hh - hi) + a_h * p_hl + a_l * p_hh) + a_l * p_hl  # TwoProduct error
    return hi, lo + a * p_lo


def _digits(a, powers):
    """(D, e, certified) for |v| = a in [FAST_MIN, FAST_MAX]: a ~ D * 10**(e - 16)."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e, powers)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    shift = above.astype(np.int64) - below
    redo = np.flatnonzero(shift)
    # log10 was off by one.  Within rounding error of 1e16 or 1e17 both
    # exponents give the same digits, one of them through the carry below.
    if redo.size:
        e[redo] += shift[redo]
        hi[redo], lo[redo] = _scaled(a[redo], e[redo], powers)
    whole = np.floor(lo)
    frac = lo - whole  # exact: lo is small
    d = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    certified = (np.abs(frac - 0.5) >= TIE_MARGIN) & (d >= 10**16) & (d <= 10**17)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    return d, e, certified


def _format_block(v, tables, field_t, field) -> np.ndarray:
    """The bytes of the flat values `v`, each followed by its separator.

    `field_t` (_FIELD, v.size) and `field` (v.size, _FIELD) are workspaces
    whose _SEP column holds the separators.  The layout runs along the
    first axis of `field_t`, so each numpy call loops over the values.
    """
    powers, group_text, trailing, exp_text = tables
    n = v.size
    a = np.abs(v)
    fast = (a >= FAST_MIN) & (a <= FAST_MAX)  # False for NaN
    fast_idx = np.flatnonzero(fast)
    d, e, certified = _digits(a[fast_idx], powers)
    digits = np.zeros(n, dtype=np.int64)  # zeros keep D = 0, e = 0
    expo = np.zeros(n, dtype=np.int64)
    digits[fast_idx], expo[fast_idx] = d, e

    # ext holds one value per column: rows '0000', the leading digit, four 4-digit groups
    groups = np.empty((4, n), dtype=np.int64)
    top, low = np.divmod(digits, 10**8)
    lead, top = np.divmod(top, 10**8)
    groups[0], groups[1] = np.divmod(top, 10**4)
    groups[2], groups[3] = np.divmod(low, 10**4)
    ext = np.empty((_LEAD + 17, n), dtype=np.uint8)
    ext[:_LEAD] = ord("0")
    ext[_LEAD] = lead + ord("0")
    ext[_LEAD + 1:].reshape(4, 4, n)[...] = (
        np.take(group_text, groups).view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1))
    tz = np.take(trailing, groups)
    zeros = tz[3] + (groups[3] == 0) * (tz[2] + (groups[2] == 0) * (
        tz[1] + (groups[1] == 0) * tz[0]))
    nsig = 17 - zeros  # D = 0 keeps its one digit

    # %g: fixed notation puts the units digit at u = e, scientific at u = 0
    sci = (expo < -4) | (expo >= 17)
    u = np.where(sci, 0, expo).astype(np.int8)
    units = _LEAD + u  # row of the units digit in ext
    start = _LEAD + np.minimum(u, 0)  # first printed row: the '0' of '0.000d'
    stop = _LEAD + np.maximum(nsig, u + 1)  # past the last printed digit
    rows = np.arange(_LEAD + 17, dtype=np.int8)[:, None]
    ext *= (rows >= start) & (rows < stop)  # unprinted digits become pad

    field_t[_SIGN] = np.signbit(v) * ord("-")
    # body row r holds ext row r up to the units digit, ext row r - 1 after the point
    body = field_t[_BODY:_EXP]
    body[0] = 0
    body[1:] = ext
    left = rows <= units
    body[:-1] *= ~left
    body[:-1] += ext * left
    body[units + 1, np.arange(n)] = (nsig > u + 1) * ord(".")
    np.take(exp_text, np.where(sci, expo - _E_MIN, -1), axis=1, out=field_t[_EXP:_SEP])
    field[...] = field_t.T

    fall = ~fast & (a != 0.0)  # NaN != 0, so it falls back
    fall[fast_idx[~certified]] = True
    fall_idx = np.flatnonzero(fall)
    if fall_idx.size:  # Python's own formatting, spliced in
        texts = b"".join(("%.17g" % x).encode().ljust(_SEP, b"\0")
                         for x in v[fall_idx].tolist())
        field[fall_idx, :_SEP] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, _SEP)
    flat = field.ravel()
    return flat[flat != 0]


def write_csv(path, data, header: str) -> int:
    """Write `header` and the rows of the 2-D float64 array `data` as '%.17g' CSV.

    Returns the CRC-32 of the bytes written.
    """
    tables = _tables()
    n_rows, n_cols = data.shape
    field_t = np.empty((_FIELD, BLOCK_ROWS * n_cols), dtype=np.uint8)
    field_t[_SEP] = ord(",")
    field_t[_SEP, n_cols - 1::n_cols] = ord("\n")
    field = np.empty((BLOCK_ROWS * n_cols, _FIELD), dtype=np.uint8)
    with open(path, "wb") as fh:
        head = header.encode() + b"\n"
        fh.write(head)
        crc = zlib.crc32(head)
        for r in range(0, n_rows, BLOCK_ROWS):
            v = data[r:r + BLOCK_ROWS].ravel()
            chunk = _format_block(v, tables, field_t[:, :v.size], field[:v.size])
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
    return crc

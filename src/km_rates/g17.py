"""Byte-exact ``%.17g`` for float arrays: the bytes of the rows of
``trajectory.csv``, ``"%d,%.17g,%.17g,%.17g,%.17g,%.17g\\n"``, from numpy.

For each value x, :func:`significand` takes E = floor(log10|x|) and forms
S = |x|*10^(16-E) as an exact double-double product (T. J. Dekker, "A
floating-point technique for extending the available precision", Numer.
Math. 18, 1971); the 17 digits are rint(S).  :func:`fields` writes them
through a table of 4-digit ASCII groups and lays each field out by one
gather from a table keyed by (notation case, significant digits, sign),
which holds the '%g' rules.  A value whose digits the error bound cannot
prove is formatted by ``"%.17g" % x``.  The tables are built at the first
call, not at import.
"""

from __future__ import annotations

import functools
from typing import List

import numpy as np

#: the most rows of 5 values one call of :func:`csv_rows` formats: its index
#: and byte buffers take a few hundred kB at this size
CSV_BATCH = 512

#: the decimal exponents E = floor(log10|x|) of the kernel's tables: every
#: |x| in [LOW, HIGH], with log10 one off either way
_EMIN, _EMAX = -281, 281
LOW, HIGH = 1e-280, 1e280
#: digits are certified only when the scaled value is this far from a
#: rounding tie and from 10^16: far above the error bound of
#: :func:`significand`, so no rounding error can cross it
_BAND = 1e-6
#: a value's source row (see :func:`tables`) and the field laid out
#: from it, in bytes
_SOURCE, FIELD = 28, 25
_DIGIT = [0] + list(range(4, 20))  # source column of significant digit j
_MINUS, _DOT, _ZERO, _EXPONENT, _PAD, _SEP = 1, 2, 3, 20, 25, 26
#: the source is built of little-endian words whatever the host's byte order
_WORD = np.dtype("<u4")
#: layout cases: fixed notation at exponent X in [-4, 16] is X + 4, then
#: exponential notation with a two- and a three-digit exponent, then zero
_EXP2, _EXP3, _ZEROS = 21, 22, 23


def _layout(case: int, digits: int, negative: bool) -> List[int]:
    """The source columns of one field in ``case`` with ``digits``
    significant digits, then the separator, padded to ``FIELD`` with the
    zero byte: the '%g' rules for the notation, the trailing zeros and the
    exponent live here."""
    out = [_MINUS] if negative else []
    significant = [_DIGIT[j] for j in range(digits)]
    if case == _ZEROS:
        out.append(_ZERO)
    elif case >= _EXP2:
        out += significant[:1] + ([_DOT] + significant[1:] if digits > 1 else [])
        e, sign, hundreds, tens, units = range(_EXPONENT, _EXPONENT + 5)
        out += [e, sign] + ([hundreds] if case == _EXP3 else []) + [tens, units]
    elif case >= 4:  # X >= 0: X + 1 integer digits, zeros included
        whole = case - 3
        out += [_DIGIT[j] for j in range(whole)]
        out += ([_DOT] + significant[whole:]) if digits > whole else []
    else:  # X in [-4, -1]: "0.", -X - 1 zeros, the digits
        out += [_ZERO, _DOT] + [_ZERO] * (3 - case) + significant
    out.append(_SEP)
    return out + [_PAD] * (FIELD - len(out))


@functools.cache
def tables():
    """The kernel's tables, built at the first CSV write, not at import:

    * ``hi``, ``lo``: per E in [_EMIN, _EMAX], 10^(16-E) rounded to a
      double and the remainder rounded to a double, from exact integers;
    * ``quads``: the four ASCII digits of 0 .. 9999, one uint32 each;
    * ``exponent``: per E, the source words 5 and 6 ("e", the sign, the three
      digits of |E|, then zero bytes), and ``case``, its layout case;
    * ``layout``: per key (case*18 + digits)*2 + sign, the source columns of
      the field (:func:`_layout`);
    * ``sep``: the separator byte of value i of a row, ',' or a newline,
      shifted to its place in source word 6, for ``CSV_BATCH`` rows.

    A value's source row is 7 little-endian uint32 words, 28 bytes: its first
    digit, '-', '.', '0'; its other 16 digits; 'e', the exponent's sign and
    its hundreds, tens and units; a zero byte, the separator, a zero byte.
    """
    def split(k: int):
        """10^k as (hi, lo): int true division rounds correctly."""
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        a, b = hi.as_integer_ratio()
        return hi, (num * b - a * den) / (den * b)

    exps = range(_EMIN, _EMAX + 1)
    hi, lo = np.array([split(16 - e) for e in exps]).T.copy()

    def words(text: str) -> np.ndarray:
        return np.frombuffer(text.encode(), _WORD)

    quads = words("".join(f"{q:04d}" for q in range(10_000)))
    exponent = words("".join(f"e{'-' if e < 0 else '+'}{abs(e):03d}\0\0\0"
                             for e in exps)).reshape(-1, 2)
    case = np.array([e + 4 if -4 <= e <= 16 else _EXP3 if abs(e) >= 100 else _EXP2
                     for e in exps], dtype=np.intp)
    layout = np.array([_layout(c, max(d, 1), s) for c in range(_ZEROS + 1)
                       for d in range(18) for s in (False, True)], dtype=np.intp)
    sep = np.tile(np.array([0x2C] * 4 + [0x0A], dtype=_WORD) << 16, CSV_BATCH)
    return hi, lo, quads, exponent, case, layout, sep


def _quad_groups(v: np.ndarray) -> np.ndarray:
    """The naturals ``v`` below 10^20 as five groups of 4 decimal digits,
    most significant first: shape (n, 5)."""
    groups = np.empty((v.size, 5), dtype=np.int64)
    for j in range(4, 0, -1):
        q = v // 10_000
        groups[:, j] = v - q * 10_000
        v = q
    groups[:, 0] = v
    return groups


def decimal_exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) for the doubles ``a`` > 0, off by at most one either
    way near a power of ten; :func:`significand` refuses each value where it
    is off."""
    return np.floor(np.log10(a))


#: why :func:`significand` refuses a value (0: it does not), the first
#: that holds: non-finite or outside [LOW, HIGH]; within the band
#: of a rounding tie; S below 10^16 + the band; S rounding to 10^17 or more
REFUSED_RANGE, REFUSED_TIE, REFUSED_BELOW, REFUSED_CARRY = 1, 2, 3, 4


def significand(x: np.ndarray):
    """``(e, digits, refused)`` for the doubles ``x``: the exponent
    E = floor(log10|x|) as an index of the tables, the 17 significant digits
    of ``"%.17g" % x`` as an integer D in [10^16, 10^17), and the reason it
    refuses each value (see ``REFUSED_RANGE``), 0 for a certified one and for
    +0.0 and -0.0.  A refused value has D = 10^16.

    For |x| in [LOW, HIGH], S = |x|*10^(16-E) is h + t: h + l is
    |x|*hi exactly (Dekker's split product), t = fl(l + fl(|x|*lo)), and
    D = h + rint(t), h being an integer as h >= 2^53.  With u = 2^-53
    (Higham's unit roundoff), |10^(16-E) - hi - lo| <= u^2*10^(16-E) bounds
    the table's part of the error by u^2*S, fl(|x|*lo) adds at most
    u*|x*lo| <= u^2*S, and the sum u*|l + fl(|x|*lo)| <= u*(ulp(h)/2 + 2u*S).
    For S < 10^17, where ulp(h) <= 16, the error of h + t is at most
    4u^2*S + 8u < 5e-15, far below ``_BAND``.  So D is the correctly
    rounded S when t is farther than the band from a half-integer, and E is
    the exponent of the rounded value when S is at least 10^16 + the band
    and D is below 10^17.  An E that is off gives an S outside
    [10^16, 10^17) and one of these refusals.
    """
    hi, lo = tables()[:2]
    a = np.abs(x)
    outside = ~((a >= LOW) & (a <= HIGH))
    a[outside] = 1.0  # a stand-in with an exact S = 10^16
    e = decimal_exponent(a).astype(np.intp) - _EMIN
    ph, pl = hi.take(e), lo.take(e)
    h = a * ph
    c = a * 134217729.0  # 2^27 + 1: Dekker's split into 26-bit halves
    a1 = c - (c - a)
    a2 = a - a1
    c = ph * 134217729.0
    p1 = c - (c - ph)
    p2 = ph - p1
    t = (((a1 * p1 - h) + a1 * p2 + a2 * p1) + a2 * p2) + a * pl
    r = np.rint(t)
    digits = h.astype(np.int64) + r.astype(np.int64)
    refused = np.zeros(x.size, dtype=np.int8)
    refused[digits >= 10 ** 17] = REFUSED_CARRY
    refused[(h - 1e16) + t < _BAND] = REFUSED_BELOW
    refused[np.abs(t - r) >= 0.5 - _BAND] = REFUSED_TIE
    refused[outside] = REFUSED_RANGE
    refused[x == 0.0] = 0
    digits[refused != 0] = 10 ** 16
    return e, digits, refused


def fields(x: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for every v of ``x``, the values of
    ``len(x) // 5`` rows, each field followed by the row's separator and
    padded with zero bytes to ``FIELD``: shape (len(x), FIELD).

    The digits of :func:`significand` are laid out by one gather from the
    source rows of :func:`tables`; a value it refuses is formatted by
    ``%``, and +0.0 and -0.0 are "0" and "-0".
    """
    _, _, quads, exponent, cases, layout, sep = tables()
    n = x.size
    e, digits, refused = significand(x)
    groups = _quad_groups(digits)
    src = np.empty((n, _SOURCE // 4), dtype=_WORD)
    src[:, 0] = groups[:, 0] + 0x302E2D30  # the digit, '-', '.', '0'
    src[:, 1:5] = quads.take(groups[:, 1:])
    src[:, 5:] = exponent.take(e, axis=0)
    src[:, 6] |= sep[:n]
    src = src.view(np.uint8)
    nonzero = np.empty((n, 17), dtype=bool)  # digits 16 .. 1, then a stop
    np.not_equal(src[:, 19:3:-1], 0x30, out=nonzero[:, :16])
    nonzero[:, 16] = True
    key = cases.take(e)
    key[x == 0.0] = _ZEROS
    key = (key * 18 + 17 - nonzero.argmax(axis=1)) * 2 + np.signbit(x)
    columns = layout.take(key, axis=0)
    columns += np.arange(0, n * _SOURCE, _SOURCE)[:, None]
    out = src.ravel().take(columns)
    for i in np.flatnonzero(refused).tolist():
        text = b"%.17g%c" % (x[i], sep[i] >> 16)
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def csv_rows(n0: int, values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%d,%.17g,%.17g,%.17g,%.17g,%.17g\\n"`` for the rows
    n0, n0 + 1, .. of ``values`` (at most ``CSV_BATCH`` rows of 5): the
    index's digits right-aligned in 20 bytes, the leading ones zeroed, a
    comma and the fields of :func:`fields`, joined by one compress of
    the nonzero bytes."""
    m = values.shape[0]
    head = np.empty((m, 6), dtype=_WORD)
    head[:, :5] = tables()[2].take(_quad_groups(np.arange(n0, n0 + m)))
    head[:, 5] = 0x2C  # ','
    head = head.view(np.uint8)
    for width in range(len(str(n0)), len(str(n0 + m - 1)) + 1):  # the rows of each width
        first = max(n0, 10 ** (width - 1) if width > 1 else 0)
        head[first - n0:10 ** width - n0, :20 - width] = 0
    rows = np.concatenate([head, fields(values.ravel()).reshape(m, -1)], axis=1)
    return rows[rows != 0]

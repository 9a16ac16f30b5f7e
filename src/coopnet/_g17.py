"""Exact ``%.17g`` text of float64 rows, built with numpy array operations.

:func:`format_rows` returns, for a 2-D float array, the same bytes as
formatting every row with the C-style template ``"%.17g,...,%.17g\\n"``.

The 17 significant digits come from double-double scaling (Dekker, "A
floating-point technique for extending the available precision", Numer.
Math. 1971): |x| is multiplied by 10^(16 - X), X = floor(log10 |x|), with
10^s held as an unevaluated sum hi + lo and the product hi·|x| split
exactly into p + err.  p is an integer (p >= 1e16 > 2^53), so the digits
are p + rint(err + lo·|x|), and the absolute error of that sum is about
2e-15.  A value is *certified* when its fractional part lies more than
1e-9 from one half: then the rounding the exact decimal expansion asks for
is the one computed.  Zeros are formatted directly.  Every row holding a
value the scaling cannot certify (a near-tie, a non-finite value, |x|
outside [1e-280, 1e280], or an exponent still unresolved after one
correction) is formatted by the ``%`` template itself.

The text is laid out by C's ``%g`` rules for precision 17: fixed notation
for -4 <= X < 17, exponent notation with at least two exponent digits
otherwise, trailing zeros of the fraction stripped.  The bytes are built
slot-major, one uint8 row per character position of every value, with 0
marking an absent character; one pass over the transposed bytes drops the
absent ones.
"""

import functools

import numpy as np

# the certified range of |x|: its scale factors 10^s, their Dekker splits
# and the scaled products all stay normal and finite
_MIN_ABS = 1e-280
_MAX_ABS = 1e280
# exponents s of the table of 10^s: 16 - X for X in [-281, 280], and one
# more for the downward correction of X
_S_MIN, _S_MAX = -264, 298
# Dekker's splitting constant 2^27 + 1
_SPLIT = 134217729.0
_E16, _E17 = 10 ** 16, 10 ** 17
# distance from one half under which a fractional part is a possible tie;
# far above the ~2e-15 error of the scaled value
_TIE_GAP = 1e-9
# character slots per value: sign, "0.000" of fixed notation below 1, 17
# digits and a point, "e", the exponent's sign and 3 digits, the separator
_SIGN, _LEAD, _MANT, _EXP, _SEP = 0, 1, 6, 24, 29
_N_SLOTS = 30
_COMMA, _NEWLINE, _MINUS, _PLUS, _POINT, _ZERO, _E = b",\n-+.0e"


@functools.cache
def _tables():
    """The lookup tables, built on the first call (a few ms of integer
    arithmetic kept out of import).

    ``pow10``: rows hi, lo, head(hi), tail(hi) of 10^s for s in
    [_S_MIN, _S_MAX], with hi + lo equal to 10^s to about 2^-106 relative
    and head + tail the exact Dekker split of hi.  ``digits4``: the 4 ASCII
    digits of each chunk 0..9999.  ``sig4[k, c]``: with c as chunk k of
    the 16 digits after the first, the digit count up to c's last nonzero
    digit, the first digit included (0 for c = 0).  ``exp3``: the exponent
    digits of 0..399, at least two, 0 for an absent hundreds digit.
    """
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        h = num / den  # int true division rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    c = _SPLIT * hi
    head = c - (c - hi)
    pow10 = np.array([hi, np.array(lo), head, hi - head])

    chunk = np.arange(10000)
    digits4 = np.array([chunk // 1000, chunk // 100 % 10, chunk // 10 % 10,
                        chunk % 10], dtype=np.uint8) + _ZERO
    width = np.zeros(10000, dtype=np.uint8)
    for w, unit in ((4, 1), (3, 10), (2, 100), (1, 1000)):
        width[(chunk % unit == 0) & (chunk % (unit * 10) != 0)] = w
    sig4 = np.array([np.where(width > 0, 4 * k + 1 + width, 0)
                     for k in range(4)], dtype=np.uint8)
    e = np.arange(400)
    exp3 = np.array([np.where(e >= 100, e // 100 + _ZERO, 0),
                     e // 10 % 10 + _ZERO, e % 10 + _ZERO], dtype=np.uint8)
    for table in (pow10, digits4, sig4, exp3):
        table.flags.writeable = False
    return pow10, digits4, sig4, exp3


def _scaled(a, s, pow10):
    """|x|·10^s as p + low: p = fl(|x|·hi), low = err(|x|·hi) + |x|·lo."""
    hi, lo, head, tail = np.take(pow10, s - _S_MIN, axis=1)
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    err = ((a_head * head - p) + a_head * tail + a_tail * head) \
        + a_tail * tail
    return p, err + a * lo


def _digits(x, pow10):
    """The 17-digit integer n and decimal exponent X of every value, and
    whether both are certified.  Zeros give n = 0, X = 0; uncertified
    values give n = 0, X = 0 and False."""
    a = np.abs(x)
    ok = (a >= _MIN_ABS) & (a <= _MAX_ABS)
    a = np.where(ok, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    p, low = _scaled(a, 16 - X, pow10)
    # floor(log10) came out one too large: hi == 1e16 with lo < 0 is a
    # scaled value below 1e16 too
    below = np.flatnonzero((p < 1e16) | ((p == 1e16) & (low < 0)))
    if below.size:
        X[below] -= 1
        p[below], low[below] = _scaled(a[below], 16 - X[below], pow10)
    r = np.rint(low)
    ok &= np.abs(np.abs(low - r) - 0.5) > _TIE_GAP
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == _E17
    n = np.where(carry, _E16, n)
    X += carry
    ok &= (n >= _E16) & (n < _E17)
    return np.where(ok, n, 0), np.where(ok, X, 0), ok | (x == 0)


def _slots(x, n, X, sep, tables):
    """The (slot, value) uint8 characters of every value; 0 is absent."""
    _, digits4, sig4, exp3 = tables
    v = x.size
    out = np.zeros((_N_SLOTS, v), dtype=np.uint8)
    np.multiply(np.signbit(x), np.uint8(_MINUS), out=out[_SIGN])

    fixed = (X >= -4) & (X < 17)
    lead = fixed & (X < 0)
    np.multiply(lead, np.uint8(_ZERO), out=out[_LEAD])
    np.multiply(lead, np.uint8(_POINT), out=out[_LEAD + 1])
    zeros = (np.arange(3)[:, None] < -1 - X) & lead
    np.multiply(zeros, np.uint8(_ZERO), out=out[_LEAD + 2:_MANT])

    # n = d0·10^16 + c1·10^12 + c2·10^8 + c3·10^4 + c4; its two halves
    # of at most 9 digits give the chunks in int32 arithmetic
    high = n // 10 ** 8
    low = (n - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    d0 = high // 10 ** 8
    c3, c4 = np.divmod(low, 10000)
    chunks = (high // 10000 % 10000, high % 10000, c3, c4)
    # the digits, with a zero row on either side for the shift below
    digits = np.zeros((19, v), dtype=np.uint8)
    np.add(d0, _ZERO, out=digits[1], casting="unsafe")
    n_sig = np.ones(v, dtype=np.uint8)
    for k, chunk in enumerate(chunks):
        np.take(digits4, chunk, axis=1, out=digits[2 + 4 * k:6 + 4 * k],
                mode="clip")
        np.maximum(n_sig, np.take(sig4[k], chunk, mode="clip"), out=n_sig)
    # fixed notation keeps every digit of the integer part
    n_kept = np.where(fixed, np.maximum(n_sig, X + 1), n_sig).astype(np.uint8)
    slot = np.arange(18, dtype=np.uint8)[:, None]
    digits[1:18] *= (slot[:17] < n_kept).view(np.uint8)  # drop the rest
    # the point goes after digit X in fixed notation, after the first in
    # exponent notation, and nowhere when no digit follows it; the digits
    # after it move one slot right
    point = np.where(fixed, X, 0) + 1
    point = np.where((point > 0) & (point < n_kept), point, 18)
    point = point.astype(np.uint8)
    mant = out[_MANT:_EXP]
    np.multiply(digits[1:], (slot < point).view(np.uint8), out=mant)
    mant += digits[:18] * (slot > point).view(np.uint8)
    mant += (slot == point).view(np.uint8) * np.uint8(_POINT)

    expo = (~fixed).view(np.uint8)
    np.multiply(expo, np.uint8(_E), out=out[_EXP])
    esign = (X < 0).view(np.uint8) * np.uint8(_MINUS - _PLUS) + np.uint8(_PLUS)
    np.multiply(expo, esign, out=out[_EXP + 1])
    np.multiply(np.take(exp3, np.abs(X), axis=1), expo,
                out=out[_EXP + 2:_SEP])
    out[_SEP] = sep
    return out


def format_rows(rows):
    """The bytes of ``"%.17g,...,%.17g\\n" % row`` for every row of the 2-D
    float array ``rows``, in order."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n_rows, n_cols = rows.shape
    x = rows.ravel()
    tables = _tables()
    n, X, ok = _digits(x, tables[0])
    sep = np.full((n_rows, n_cols), _COMMA, dtype=np.uint8)
    sep[:, -1] = _NEWLINE
    out = _slots(x, n, X, sep.ravel(), tables)
    bad = np.flatnonzero(~ok.reshape(n_rows, n_cols).all(axis=1))
    # the rows between uncertified ones come from the slots, those rows
    # from the template
    template = ",".join(["%.17g"] * n_cols) + "\n"
    pieces, start = [], 0
    for i in bad:
        pieces.append(_text(out[:, start * n_cols:i * n_cols]))
        pieces.append((template % tuple(rows[i].tolist())).encode("ascii"))
        start = i + 1
    pieces.append(_text(out[:, start * n_cols:]))
    return b"".join(pieces)


def _text(slots):
    """The characters of (slot, value) ``slots``, value by value, with the
    absent ones dropped."""
    return slots.T.tobytes().translate(None, b"\0")

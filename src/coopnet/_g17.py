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
otherwise, trailing zeros of the fraction stripped.  The bytes of a block
are built slot-major: a uint8 array with one row per character position
("slot") and one column per value, 0 marking an absent character.  Its
rows, top to bottom:

- the sign, "-" when the sign bit is set (so also for -0);
- the lead "0." and up to three zeros of fixed notation below 1, only in a
  block holding such a value, and only as many rows as its smallest
  exponent needs;
- 18 mantissa slots: the 17 digits, with the point after the first X + 1
  of them in fixed notation from 1 up and after the first in exponent
  notation, and the digits behind it one slot on (below 1 the point is in
  the lead); trailing zeros of the fraction, and a point no digit follows,
  are absent;
- "e", the exponent's sign and its two or three digits, only in a block
  holding a value in exponent notation;
- the separator, "," or a newline by column.

The digits are integer arithmetic on the 17-digit n, with no lookup table:
its two 8-digit halves below the first digit split into 4-digit chunks,
2-digit pairs and digits, all in one pass per step over every value of the
block.  The count of significant digits is the position of the last
nonzero digit, one maximum over the digit rows.  One copy turns the slot
array value-major, and one ``bytes.translate`` drops the absent characters.
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
# mantissa slots: 17 digits and a point
_MANT = 18
_COMMA, _NEWLINE, _MINUS, _PLUS, _POINT, _ZERO, _E = b",\n-+.0e"


@functools.cache
def _tables():
    """The lookup tables, built on the first call (a few ms of integer
    arithmetic kept out of import).

    ``pow10``: rows hi, lo, head(hi), tail(hi) of 10^s for s in
    [_S_MIN, _S_MAX], with hi + lo equal to 10^s to about 2^-106 relative
    and head + tail the exact Dekker split of hi.  ``slot``: the column of
    mantissa slot indices 0..17, compared with each value's positions.
    ``lead``: the column of lead characters "0.000".
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
    slot = np.arange(_MANT, dtype=np.uint8)[:, None]
    lead = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
    for table in (pow10, slot):
        table.flags.writeable = False
    return pow10, slot, lead


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


def _digit_rows(n):
    """The 17 digits of every 0 <= n < 10^17 as uint8 values 0..9 in rows
    1..17, most significant first, between two zero rows."""
    v = n.size
    n = n.view(np.uint64)
    high = n // np.uint64(10 ** 8)
    first = high // np.uint64(10 ** 8)
    # the 8 digits after the first, then the last 8; each half is two
    # 4-digit chunks, each chunk two 2-digit pairs, each pair two digits
    halves = np.empty((2, v), dtype=np.uint32)
    np.subtract(high, first * np.uint64(10 ** 8), out=halves[0],
                casting="unsafe")
    np.subtract(n, high * np.uint64(10 ** 8), out=halves[1], casting="unsafe")
    chunks = np.empty((2, 2, v), dtype=np.uint16)
    q = halves // np.uint32(10 ** 4)
    np.copyto(chunks[:, 0], q, casting="unsafe")
    np.subtract(halves, q * np.uint32(10 ** 4), out=chunks[:, 1],
                casting="unsafe")
    pairs = np.empty((2, 2, 2, v), dtype=np.uint8)
    q = chunks // np.uint16(100)
    np.copyto(pairs[..., 0, :], q, casting="unsafe")
    np.subtract(chunks, q * np.uint16(100), out=pairs[..., 1, :],
                casting="unsafe")
    digits = np.empty((19, v), dtype=np.uint8)
    digits[0] = digits[18] = 0
    np.copyto(digits[1], first, casting="unsafe")
    tail = digits[2:18].reshape(2, 2, 2, 2, v)
    np.floor_divide(pairs, np.uint8(10), out=tail[..., 0, :])
    np.subtract(pairs, tail[..., 0, :] * np.uint8(10), out=tail[..., 1, :])
    return digits


def _slots(x, n, X, n_cols, tables):
    """The (slot, value) uint8 characters of every value, 0 where absent,
    in the rows the block needs (see the module docstring)."""
    _, slot, lead_chars = tables
    v = x.size
    X = X.astype(np.int16)
    # X + 4 as unsigned: below 21 in fixed notation, below 4 with the lead
    rel = (X + 4).view(np.uint16)
    fixed = rel < 21
    lead = rel < 4
    # the smallest exponent in fixed notation, if below 0 (rel wraps
    # below -4)
    least = int(rel.min(initial=4)) - 4
    n_lead = 1 - least if least < 0 else 0
    n_exp = 0 if fixed.all() else 4 + (int(np.abs(X).max()) >= 100)
    out = np.empty((2 + n_lead + _MANT + n_exp, v), dtype=np.uint8)
    np.multiply(np.signbit(x), np.uint8(_MINUS), out=out[0])
    if n_lead:
        # "0." and -1 - X zeros: lead slot j is present while j < 1 - X
        width = (lead * (1 - X)).astype(np.uint8)
        np.multiply(slot[:n_lead] < width, lead_chars[:n_lead],
                    out=out[1:1 + n_lead])

    digits = _digit_rows(n)
    # 0 for n = 0, whose one digit is kept below
    n_sig = np.maximum.reduce((digits[1:18] != 0).view(np.uint8) * slot[1:],
                              axis=0)
    # digits before the point: X + 1 in fixed notation (none after the
    # lead), 1 in exponent notation; fixed notation keeps all of them
    before = (X + 1).astype(np.uint8) * (fixed & ~lead) + ~fixed
    n_kept = np.maximum(n_sig, before)
    digits[1:18] += np.uint8(_ZERO)
    digits[1:18] *= (slot[:17] < n_kept).view(np.uint8)  # drop the rest
    # no point (slot 18, past the mantissa) after the lead or when no
    # digit follows it
    point = np.maximum(before, ((before == 0) | (before == n_kept))
                       .view(np.uint8) * np.uint8(_MANT))
    mant = out[1 + n_lead:1 + n_lead + _MANT]
    np.multiply(digits[1:], (slot < point).view(np.uint8), out=mant)
    mant += digits[:-1] * (slot > point).view(np.uint8)
    mant += (slot == point).view(np.uint8) * np.uint8(_POINT)

    if n_exp:
        expo = (~fixed).view(np.uint8)
        e = out[-1 - n_exp:-1]
        np.multiply(expo, np.uint8(_E), out=e[0])
        np.multiply(expo, (X < 0).view(np.uint8) * np.uint8(_MINUS - _PLUS)
                    + np.uint8(_PLUS), out=e[1])
        mag = np.abs(X).view(np.uint16)
        tens = mag // np.uint16(10)
        chars = [tens % np.uint16(10) + np.uint16(_ZERO),
                 mag - tens * np.uint16(10) + np.uint16(_ZERO)]
        if n_exp == 5:  # a hundreds digit only where there is one
            chars.insert(0, (mag >= 100) * (mag // np.uint16(100)
                                            + np.uint16(_ZERO)))
        for row, c in zip(e[2:], chars):
            np.multiply(expo, c, out=row, casting="unsafe")

    sep = out[-1].reshape(-1, n_cols)
    sep[:] = _COMMA
    sep[:, -1] = _NEWLINE
    return out


def format_rows(rows):
    """The bytes of ``"%.17g,...,%.17g\\n" % row`` for every row of the 2-D
    float array ``rows``, in order."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n_rows, n_cols = rows.shape
    x = rows.ravel()
    tables = _tables()
    n, X, ok = _digits(x, tables[0])
    out = _slots(x, n, X, n_cols, tables)
    bad = [] if ok.all() else \
        np.flatnonzero(~ok.reshape(n_rows, n_cols).all(axis=1))
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

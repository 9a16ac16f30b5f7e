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
nonzero digit, one maximum over the digit rows.  Piece by piece, one copy
turns the slot array value-major and one ``bytes.translate`` drops the
absent characters.  :class:`RowFormatter` keeps every array whose size
grows with the block from one block to the next.
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
# most slot rows of a block: sign, a lead of up to "0.000", the mantissa,
# "e", a sign and three digits, and the separator
_DEPTH = 1 + 5 + _MANT + 5 + 1
# slots turned value-major and freed of absent characters at a time: each
# piece's two bytes objects stay below glibc's 128 KiB mmap threshold
_PIECE = 112 << 10


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


def _scaled(a, s, pow10, work):
    """|x|·10^s as p + low: p = fl(|x|·hi), low = err(|x|·hi) + |x|·lo.

    ``work`` is a (7, a.size) float array that receives every intermediate;
    p and low are its last two rows.  ``s`` is overwritten.
    """
    hi, lo, head, tail, c, p, low = work
    s -= _S_MIN
    # "clip" never moves an index of the table's range, and unlike "raise"
    # it writes to ``work`` without a buffer
    np.take(pow10, s, axis=1, out=work[:4], mode="clip")
    np.multiply(a, hi, out=p)
    np.multiply(a, _SPLIT, out=c)
    np.subtract(c, a, out=hi)
    a_head = np.subtract(c, hi, out=c)
    a_tail = np.subtract(a, a_head, out=hi)
    # err = ((a_head·head - p) + a_head·tail + a_tail·head) + a_tail·tail
    np.multiply(a_head, head, out=low)
    low -= p
    low += np.multiply(a_head, tail, out=a_head)
    low += np.multiply(a_tail, head, out=head)
    low += np.multiply(a_tail, tail, out=tail)
    low += np.multiply(a, lo, out=lo)
    return p, low


class RowFormatter:
    """The ``%.17g`` text of blocks of up to ``n_rows`` rows of ``n_cols``
    values.

    Every array a block needs that grows with the block is allocated here,
    once, and reused by every call.  Allocated per block, arrays of this
    size (up to a few hundred KB) are mapped and unmapped by glibc, or
    trimmed from the top of its heap, and each block faults their pages in
    again, unless an earlier large free happened to raise glibc's dynamic
    thresholds; kept, they are faulted in once.
    """

    def __init__(self, n_rows, n_cols):
        size = n_rows * n_cols
        self._tables = _tables()
        # rows of 8 bytes per value: the floats of the scaling, then the
        # integer rows of the digit split viewed in them
        self._work = np.empty(8 * size)
        # X, 16 - X and n of :meth:`_digits`
        self._ints = np.empty(3 * size, dtype=np.int64)
        self._digits_buf = np.empty(19 * size, dtype=np.uint8)
        self._mask = np.empty(_MANT * size, dtype=bool)
        self._slots_buf = np.empty(_DEPTH * size, dtype=np.uint8)

    def __call__(self, rows):
        """The text of the C-ordered float64 ``rows`` (at most ``n_rows`` of
        ``n_cols`` values), as an iterator of bytes pieces.  The pieces are
        formed as they are taken: ``rows`` must not change, and the
        formatter may not be called again, until the last has been taken."""
        n_rows, n_cols = rows.shape
        x = rows.reshape(-1)
        n, X, ok = self._digits(x)
        slots = self._slots(x, n, X, n_cols)
        bad = [] if ok.all() else \
            np.flatnonzero(~ok.reshape(n_rows, n_cols).all(axis=1))
        # the rows between uncertified ones come from the slots, those rows
        # from the template
        template = ",".join(["%.17g"] * n_cols) + "\n"
        start = 0
        for i in bad:
            yield from _text(slots[:, start * n_cols:i * n_cols])
            yield (template % tuple(rows[i].tolist())).encode("ascii")
            start = i + 1
        yield from _text(slots[:, start * n_cols:])

    def _digits(self, x):
        """The 17-digit integer n and decimal exponent X of every value,
        and whether both are certified.  Zeros give n = 0, X = 0;
        uncertified values give n = 0, X = 0 and False."""
        pow10 = self._tables[0]
        work = _rows(self._work, 8, x.size)
        X, s, n = _rows(self._ints, 3, x.size)
        a = np.abs(x, out=work[0])
        ok = (a >= _MIN_ABS) & (a <= _MAX_ABS)
        np.copyto(a, 1.0, where=~ok)
        np.floor(np.log10(a, out=work[1]), out=work[1])
        np.copyto(X, work[1], casting="unsafe")
        p, low = _scaled(a, np.subtract(16, X, out=s), pow10, work[1:])
        # floor(log10) came out one too large: hi == 1e16 with lo < 0 is a
        # scaled value below 1e16 too
        below = np.flatnonzero((p < 1e16) | ((p == 1e16) & (low < 0)))
        if below.size:
            X[below] -= 1
            p[below], low[below] = _scaled(a[below], 16 - X[below], pow10,
                                           np.empty((7, below.size)))
        r = np.rint(low, out=work[1])
        gap = np.abs(np.subtract(low, r, out=work[2]), out=work[2])
        gap -= 0.5
        ok &= np.abs(gap, out=gap) > _TIE_GAP
        np.copyto(n, p, casting="unsafe")
        np.copyto(s, r, casting="unsafe")
        n += s
        carry = n == _E17
        np.copyto(n, _E16, where=carry)
        X += carry
        ok &= (n >= _E16) & (n < _E17)
        np.copyto(n, 0, where=~ok)
        np.copyto(X, 0, where=~ok)
        return n, X, ok | (x == 0)

    def _digit_rows(self, n):
        """The 17 digits of every 0 <= n < 10^17 as uint8 values 0..9 in
        rows 1..17, most significant first, between two zero rows."""
        v = n.size
        work = _rows(self._work, 8, v)
        n = n.view(np.uint64)
        high, first, product = (row.view(np.uint64) for row in work[:3])
        np.floor_divide(n, np.uint64(10 ** 8), out=high)
        np.floor_divide(high, np.uint64(10 ** 8), out=first)
        # the 8 digits after the first, then the last 8; each half is two
        # 4-digit chunks, each chunk two 2-digit pairs, each pair two digits
        halves = work[3].view(np.uint32).reshape(2, v)
        np.subtract(high, np.multiply(first, np.uint64(10 ** 8), out=product),
                    out=halves[0], casting="unsafe")
        np.subtract(n, np.multiply(high, np.uint64(10 ** 8), out=product),
                    out=halves[1], casting="unsafe")
        q = np.floor_divide(halves, np.uint32(10 ** 4),
                            out=work[4].view(np.uint32).reshape(2, v))
        chunks = work[5].view(np.uint16).reshape(2, 2, v)
        np.copyto(chunks[:, 0], q, casting="unsafe")
        np.subtract(halves, np.multiply(q, np.uint32(10 ** 4), out=q),
                    out=chunks[:, 1], casting="unsafe")
        q = np.floor_divide(chunks, np.uint16(100),
                            out=work[6].view(np.uint16).reshape(2, 2, v))
        pairs = work[7].view(np.uint8).reshape(2, 2, 2, v)
        np.copyto(pairs[..., 0, :], q, casting="unsafe")
        np.subtract(chunks, np.multiply(q, np.uint16(100), out=q),
                    out=pairs[..., 1, :], casting="unsafe")
        digits = _rows(self._digits_buf, 19, v)
        digits[0] = digits[18] = 0
        np.copyto(digits[1], first, casting="unsafe")
        tail = digits[2:18].reshape(2, 2, 2, 2, v)
        np.floor_divide(pairs, np.uint8(10), out=tail[..., 0, :])
        tens = np.multiply(tail[..., 0, :], np.uint8(10),
                           out=work[0].view(np.uint8).reshape(2, 2, 2, v))
        np.subtract(pairs, tens, out=tail[..., 1, :])
        return digits

    def _slots(self, x, n, X, n_cols):
        """The (slot, value) uint8 characters of every value, 0 where
        absent, in the rows the block needs (see the module docstring)."""
        _, slot, lead_chars = self._tables
        v = x.size
        X = X.astype(np.int16)
        # X + 4 as unsigned: below 21 in fixed notation, below 4 with the
        # lead
        rel = (X + 4).view(np.uint16)
        fixed = rel < 21
        lead = rel < 4
        # the smallest exponent in fixed notation, if below 0 (rel wraps
        # below -4)
        least = int(rel.min(initial=4)) - 4
        n_lead = 1 - least if least < 0 else 0
        n_exp = 0 if fixed.all() else 4 + (int(np.abs(X).max()) >= 100)
        out = _rows(self._slots_buf, 2 + n_lead + _MANT + n_exp, v)
        mask = _rows(self._mask, _MANT, v)
        np.multiply(np.signbit(x), np.uint8(_MINUS), out=out[0])
        if n_lead:
            # "0." and -1 - X zeros: lead slot j is present while j < 1 - X
            width = (lead * (1 - X)).astype(np.uint8)
            np.multiply(np.less(slot[:n_lead], width, out=mask[:n_lead]),
                        lead_chars[:n_lead], out=out[1:1 + n_lead])

        digits = self._digit_rows(n)
        # 0 for n = 0, whose one digit is kept below
        places = np.not_equal(digits[1:18], 0, out=mask[:17]).view(np.uint8)
        n_sig = np.maximum.reduce(
            np.multiply(places, slot[1:], out=places), axis=0)
        # digits before the point: X + 1 in fixed notation (none after the
        # lead), 1 in exponent notation; fixed notation keeps all of them
        before = (X + 1).astype(np.uint8) * (fixed & ~lead) + ~fixed
        n_kept = np.maximum(n_sig, before)
        digits[1:18] += np.uint8(_ZERO)
        # drop the rest
        digits[1:18] *= np.less(slot[:17], n_kept, out=mask[:17]).view(
            np.uint8)
        # no point (slot 18, past the mantissa) after the lead or when no
        # digit follows it
        point = np.maximum(before, ((before == 0) | (before == n_kept))
                           .view(np.uint8) * np.uint8(_MANT))
        mant = out[1 + n_lead:1 + n_lead + _MANT]
        # each mask is turned into its characters in place (a ufunc's
        # ``where=`` is a hundred times slower on these uint8 rows)
        flags = mask.view(np.uint8)
        np.less(slot, point, out=mask)
        np.multiply(digits[1:], flags, out=mant)
        np.greater(slot, point, out=mask)
        mant += np.multiply(digits[:-1], flags, out=flags)
        np.equal(slot, point, out=mask)
        mant += np.multiply(flags, np.uint8(_POINT), out=flags)

        if n_exp:
            expo = (~fixed).view(np.uint8)
            e = out[-1 - n_exp:-1]
            np.multiply(expo, np.uint8(_E), out=e[0])
            np.multiply(expo, (X < 0).view(np.uint8)
                        * np.uint8(_MINUS - _PLUS) + np.uint8(_PLUS),
                        out=e[1])
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


def _rows(buf, rows, size):
    """The first ``rows`` x ``size`` values of the flat ``buf`` as rows."""
    return buf[:rows * size].reshape(rows, size)


def _text(slots):
    """The characters of (slot, value) ``slots``, value by value, with the
    absent ones dropped: one bytes object per piece of at most ``_PIECE``
    slots."""
    step = max(1, _PIECE // slots.shape[0])
    for lo in range(0, slots.shape[1], step):
        yield slots[:, lo:lo + step].T.tobytes().translate(None, b"\0")


def format_rows(rows):
    """The bytes of ``"%.17g,...,%.17g\\n" % row`` for every row of the 2-D
    float array ``rows``, in order."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    return b"".join(RowFormatter(*rows.shape)(rows))

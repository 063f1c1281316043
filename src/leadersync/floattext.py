"""CSV text of float64 blocks, byte for byte what ``repr`` writes.

``format_rows(block)`` returns the bytes of
``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``
without making a Python float or string per value.

Each value's digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020; the JDK's ``DoubleToDecimal``): the
shortest decimal in the value's rounding interval, the closest one when
two are that short, ties to an even digit, which is the decimal
``repr`` picks. Unlike the JDK's version, which always prints at least
two digits, this one may print one, so it drops the JDK's extra branch
for the smallest subnormals (``C_TINY``) and its ``s >= 100`` guard; it
also drops the integer fast path, which only saves time in scalar code.
All of it runs on ``uint64`` arrays with ``np.uint64`` constants only,
since numpy turns a mix of signed and unsigned 64-bit integers into
float64.

The text is then laid out by one gather: each value gets a template
(sign x significant digits x decimal-point layout, plus ``nan``,
``inf``, ``-inf``, ``0.0`` and ``-0.0``) naming which byte of its row
of digits and constants goes at each position, as ``repr`` does it:
fixed notation with at least one digit after the point while the
decimal exponent lies in [-4, 16), ``e`` notation with a signed
exponent of at least two digits otherwise. The tables are built on
first use, not at import.

A block's working memory is the most arrays live at one time, so the
kernel writes into arrays that are used up, drops each temporary at its
last use, holds flags as bool, and avoids the ufunc buffers numpy
allocates for a broadcast operand. The text is gathered 512 values at
a time on an ``int16`` index, 2 bytes per output byte, each run freed of
its pad bytes before the next. ``take`` copies any index to ``intp``
(512 x 25 x 8 = 100 KiB), which sets the run length: no array of a
4096-value block reaches 128 KiB, glibc's default mmap threshold, so
each one reuses heap the process already holds instead of touching
fresh pages. The kernel keeps to the dtypes of the ufunc loops the
rest of the package runs, since each new loop pages in more of
numpy's library code.
"""

import functools
from typing import NamedTuple

import numpy as np

_U = np.uint64
_MASK_32 = _U(0xFFFFFFFF)
_MASK_63 = _U(0x7FFFFFFFFFFFFFFF)
_MASK_52 = _U(0xFFFFFFFFFFFFF)
_C_MIN = _U(1 << 52)
_INF_BITS = _U(0x7FF0000000000000)
_ONE_BITS = _U(0x3FF0000000000000)
_U0, _U1, _U2, _U3, _U4, _U10 = _U(0), _U(1), _U(2), _U(3), _U(4), _U(10)
_U32, _U52, _U63, _U64 = _U(32), _U(52), _U(63), _U(64)
_E4, _E8, _E16 = _U(10 ** 4), _U(10 ** 8), _U(10 ** 16)

_K_MIN, _K_MAX = -324, 292  # decimal exponents of the g table
_Q_MIN = -1074              # binary exponent of the subnormals
_E_MIN = -324               # least decimal exponent of a first digit
_DIGITS = 17                # most significant digits a double needs
_FORMS = 24                 # decimal-point layouts per digit count
_WIDTH = 25                 # longest text ("-1.2345678901234567e-308"), + sep

# a value's source row, seven uint32 words: a point, a minus and a
# zero before its 17 digits, its exponent's 3 digits and a NUL pad
# byte, then its separator, "e" and "+" (byte 27 is never read); the
# letters of inf and nan are written over their digits
_DOT, _MINUS, _ZERO, _DIG0, _EXP, _PAD, _SEP, _E, _PLUS = (
    0, 1, 2, 3, 20, 23, 24, 25, 26)
_ROW = 28
# values gathered per run, on an index of _INDEX: the run's largest
# offset, _GATHER_VALUES * _ROW - 1, must fit it, so 1170 at most
_GATHER_VALUES = 512
_INDEX = np.int16

# the most bytes format_rows holds per value of a block of 4096 values
# or more (99.5 measured, the gather's fixed 190 KB spread over them:
# its index, offsets and text, and the 100 KiB intp copy take makes of
# the index), and the most the tables take while they are built, for a
# caller's memory budget
WORK_BYTES_PER_VALUE = 128
TABLE_BYTES = 1 << 20


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| <= 6432162."""
    return (e * 661971961083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e))."""
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e))."""
    return (e * 913124641741) >> 38


class _Tables(NamedTuple):
    """The tables of the digit search and the text layout.

    For each biased exponent bq and irregular flag (a power of two whose
    lower neighbour is closer than its upper one), row (bq << 1) |
    irregular of h and k holds the shift h of the scaled significands
    and the decimal exponent of the search, as k - _K_MIN. Entry
    k - _K_MIN of g1 and g0 holds the 126-bit
    g = floor(10^-k 2^(125 - r)) + 1 (r = floor(log2(10^-k))) as
    g >> 63 and g mod 2^63.
    """

    g1: np.ndarray
    g0: np.ndarray
    h: np.ndarray
    k: np.ndarray
    pow10: np.ndarray      # 10^0 .. 10^17
    ndigits: np.ndarray    # digits of 2^(be - 1023) by biased exponent be
    lead: np.ndarray       # ".-0" and the digit 0..9, as uint32
    quads: np.ndarray      # ASCII of 0000..9999, trailing zeros << 32
    form: np.ndarray       # layout by decimal exponent - _E_MIN
    exp_quad: np.ndarray   # ASCII of |exponent| and a NUL, by exp - _E_MIN
    templates: np.ndarray  # source columns of each text (see _layout)
    tail: np.uint32        # ",e+" and a NUL, the last word of a row


@functools.cache
def _tables() -> _Tables:
    """Build the tables, once, on first use."""
    g1 = np.empty(_K_MAX - _K_MIN + 1, dtype=np.uint64)
    g0 = np.empty_like(g1)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            p = 10 ** -k
            beta = p << shift if shift >= 0 else p >> -shift
        else:
            beta = (1 << shift) // 10 ** k
        g = beta + 1
        g1[i], g0[i] = g >> 63, g & ((1 << 63) - 1)

    bq = np.arange(2048, dtype=np.int64)
    q = np.where(bq == 0, _Q_MIN, bq - 1075)
    k = np.stack([_flog10pow2(q), _flog10_three_quarters_pow2(q)],
                 axis=1).reshape(-1)
    h = (np.repeat(q, 2) + _flog2pow10(-k) + 2).astype(np.uint64)
    # exponents past the normals' (inf and NaN) never reach the search
    k = np.clip(k, _K_MIN, _K_MAX) - _K_MIN

    pow10 = np.array([10 ** i for i in range(_DIGITS + 1)], dtype=np.uint64)
    ndigits = np.zeros(1023 + 64, dtype=np.int64)
    ndigits[1023:] = [len(str(1 << e)) for e in range(64)]
    # four ASCII digits as a uint32 in memory order, with the count of
    # their trailing zeros (4 for 0000) above it
    chars = np.empty((10000, 4), dtype=np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        chars[:, j] = np.arange(10000, dtype=np.int16) // p % 10 + ord("0")
    lead = np.frombuffer(b"".join(b".-0" + bytes([ord("0") + d])
                                  for d in range(10)), dtype=np.uint32)
    quads = chars.view(np.uint32)[:, 0].astype(np.uint64)
    for p in (10, 100, 1000, 10000):
        quads[::p] += _U1 << _U32

    # per decimal exponent E of the first digit, -324..308: its layout
    # (fixed with the point after digit E for E in [-4, 16), else e
    # notation by exponent sign and digit count) and its exponent digits
    E = np.arange(_E_MIN, 309)
    form = np.where((E >= -4) & (E < 16), E + 4,
                    20 + 2 * (E > 0) + (np.abs(E) >= 100))
    exp_digits = np.zeros((E.size, 4), dtype=np.uint8)
    exp_digits[:, :3] = chars[np.abs(E), 1:]
    exp_quad = exp_digits.view(np.uint32)[:, 0]

    templates = np.full((2 * _DIGITS * _FORMS + 4, _WIDTH), _PAD,
                        dtype=_INDEX)
    for sign in (0, 1):
        for n in range(1, _DIGITS + 1):
            for f in range(_FORMS):
                cols = _layout(n, f)
                if sign:
                    cols = [_MINUS] + cols
                templates[(sign * _DIGITS + n - 1) * _FORMS + f,
                          :len(cols)] = cols
    letters = [_DIG0, _DIG0 + 1, _DIG0 + 2]
    specials = ([_ZERO, _DOT, _ZERO], [_MINUS, _ZERO, _DOT, _ZERO],
                letters, [_MINUS] + letters)
    for j, cols in enumerate(specials):
        templates[2 * _DIGITS * _FORMS + j, :len(cols)] = cols
    templates[:, -1] = _SEP
    tail = np.frombuffer(b",e+\0", dtype=np.uint32)[0]
    return _Tables(g1, g0, h, k, pow10, ndigits, lead, quads, form,
                   exp_quad, templates, tail)


def _layout(n, form):
    """Source columns of the unsigned text of n significant digits in a
    decimal-point layout (see _tables)."""
    digit = [_DIG0 + i for i in range(_DIGITS)]
    if form >= 20:
        text = digit[:1]
        if n > 1:
            text += [_DOT] + digit[1:n]
        text += [_E, _MINUS if form < 22 else _PLUS]
        return text + ([_EXP, _EXP + 1, _EXP + 2] if form % 2
                       else [_EXP + 1, _EXP + 2])
    E = form - 4
    if E < 0:
        return [_ZERO, _DOT] + [_ZERO] * (-E - 1) + digit[:n]
    # the digits past n are zeros, so ".0" closes an integer value
    return digit[:E + 1] + [_DOT] + digit[E + 1:max(n, E + 2)]


def _high(a, b1, b0, out=None):
    """The high half of the 128-bit product of a < 2^63 and
    b = b1 2^32 + b0 < 2^61, from b's 32-bit halves; b0 may be out."""
    a1 = a >> _U32
    a0 = a & _MASK_32
    mid = a0 * b0
    mid >>= _U32
    a0 *= b1
    mid += a0
    np.multiply(a1, b0, out=a0)
    mid += a0
    del a0
    mid >>= _U32
    hi = np.multiply(a1, b1, out=out)
    hi += mid
    return hi


def _rop(y0, y1, x1):
    """cp g 2^-127 rounded to odd, g = g1 2^63 + g0, from g1 cp =
    y1 2^64 + y0 and the high half x1 of g0 cp, as the JDK's rop: the
    floor, with its lowest bit set when the fraction (without the low
    half of g0 cp) is nonzero. The arguments are overwritten; the result
    is y1."""
    y0 >>= _U1
    y0 += x1
    np.right_shift(y0, _U63, out=x1)
    y1 += x1
    y0 &= _MASK_63
    y0 += _MASK_63
    y0 >>= _U63
    y1 |= y0
    return y1


def _end(y0, y1, x1, xcarry, g1, g0, s, add):
    """The rop of g cp for cp = 4c 2^h plus (add) or minus 2^s, an end
    of the rounding interval, from the products with 4c 2^h: g1 4c 2^h
    = y1 2^64 + y0 and the high half x1 of g0 4c 2^h, whose low half
    carries xcarry into x1 when g0 2^s is added or subtracted. s is
    turned into 64 - s for the high halves and back."""
    op = np.add if add else np.subtract
    # the low half of g1 cp, and its carry out (or borrow in)
    d = g1 << s
    if add:
        lo = y0 + d
        carry = lo < d
    else:
        carry = y0 < d
        lo = y0 - d
    # the high halves, x1 and y1 moved by g 2^s
    np.subtract(_U64, s, out=s)
    np.right_shift(g1, s, out=d)
    op(y1, d, out=d)
    op(d, carry, out=d)
    del carry
    xh = g0 >> s
    np.subtract(_U64, s, out=s)
    op(x1, xh, out=xh)
    op(xh, xcarry, out=xh)
    return _rop(lo, d, xh)


def _shortest(mag, tab):
    """Shortest decimal of each positive finite double given by its bits:
    a 17-digit significand f (trailing zeros pad the shorter ones) and
    the decimal exponent of its first digit. mag is overwritten."""
    bq = mag >> _U52
    c = mag
    c &= _MASK_52
    # the table row, (bq << 1) | irregular
    irregular = c == _U0
    irregular &= bq > _U1
    c |= (bq != _U0) * _C_MIN
    row = bq
    row <<= _U1
    row += irregular
    row = row.view(np.int64)
    k = tab.k.take(row)
    h = tab.h.take(row)
    del row, bq
    g1, g0 = tab.g1.take(k), tab.g0.take(k)
    odd = (c & _U1) == _U1
    c <<= _U2
    c <<= h
    # g1 c and g0 c, the halves of c split once for both
    y0 = g1 * c
    x0 = g0 * c
    c1 = c >> _U32
    c &= _MASK_32
    y1 = _high(g1, c1, c)
    # into c's words, used up here: the caller holds them as mag
    x1 = _high(g0, c1, c, out=c)
    del c, c1
    # the ends of the rounding interval scale (4c + 2) 2^h and
    # (4c - 2) 2^h, or (4c - 1) 2^h on the irregular rows, so their
    # products are those of 4c 2^h plus or minus g1 and g0 shifted by
    # h + 1, or by h at the lower end of an irregular row
    shift = h
    shift += _U1
    # the carry out of the low half of g0 cp at either end, taken first
    # so that x0 is dropped before the ends are computed
    t = g0 << shift
    up_carry = (x0 + t) < t
    shift -= irregular
    np.left_shift(g0, shift, out=t)
    down_borrow = x0 < t
    del t, x0
    vbl = _end(y0, y1, x1, down_borrow, g1, g0, shift, False)
    shift += irregular
    del down_borrow, irregular
    vbr = _end(y0, y1, x1, up_carry, g1, g0, shift, True)
    del shift, h, up_carry, g1, g0
    vb = _rop(y0, y1, x1)
    del y0, y1, x1
    vbl += odd
    vbr -= odd
    del odd

    # one digit fewer: u' = s', w' = s' + 1 in units of 10^(k + 1)
    s = vb >> _U2
    sp10 = s // _U10
    sp10 *= _U10
    t = sp10 << _U2
    upin = vbl <= t
    np.add(sp10, _U10, out=t)
    t <<= _U2
    wpin = t <= vbr
    # else u = s, w = s + 1 in units of 10^k: the one in the interval,
    # or the closer one when both are, ties to even (the interval is at
    # least 10^k wide, so one of them always is)
    np.left_shift(s, _U2, out=t)
    outside = vbl > t
    t += _U4
    win = t <= vbr
    del vbl, vbr
    np.bitwise_and(s, _U1, out=t)
    t += vb & _U3
    del vb
    closer = t > _U2
    del t
    closer |= outside
    closer &= win
    del outside, win
    f = s
    f += closer
    del closer
    sp10 += wpin * _U10
    upin = upin != wpin
    del wpin
    f = np.where(upin, sp10, f)
    del sp10, upin

    # digit count from the float exponent of f, which can round up to
    # the next power of two but never past a power of ten
    n = tab.ndigits.take((f.astype(np.float64).view(np.uint64) >> _U52)
                         .view(np.int64))
    n += f >= tab.pow10.take(n)
    f *= tab.pow10.take(_DIGITS - n)
    n += k
    n += _K_MIN - 1
    return f, n


def _text_sources(f, E, tab):
    """Each value's source row (see _ROW) from its 17 digits f and the
    decimal exponent E - _E_MIN, and the trailing zeros of f. f is
    overwritten."""
    src = np.empty((f.shape[0], _ROW), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, 6] = tab.tail
    words[:, 5] = tab.exp_quad.take(E)
    # the first digit and four quads of digits: f's quotients by 10^16,
    # 10^12, 10^8 and 10^4 in turn, each taken off f, and then f
    q = np.empty_like(f)
    zeros = None
    for j, p in enumerate((_E16, _E4 * _E8, _E8, _E4, None)):
        if p is None:
            q = f
        else:
            np.floor_divide(f, p, out=q)
        if not j:
            words[:, 0] = tab.lead.take(q.view(np.int64))
        else:
            entry = tab.quads.take(q.view(np.int64))
            # a uint32 word keeps the entry's low half, the ASCII digits
            words[:, j] = entry
            entry >>= _U32
        if p is not None:
            q *= p
            f -= q
        if j == 1:
            zeros = entry
        elif j:
            # a quad of zeros (4, the one count with bit 2 set) adds its
            # 4 to the zeros before it
            np.right_shift(entry, _U2, out=q)
            zeros *= q
            zeros += entry
    return src, zeros


def format_rows(block: np.ndarray) -> bytes:
    """The CSV text of a 2-D float64 block, one line per row: exactly
    the bytes of "".join(",".join(map(repr, row)) + "\\n" for row in
    block.tolist())."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    nv = rows * cols
    if nv == 0:
        return b"\n" * rows
    tab = _tables()
    bits = block.reshape(-1).view(np.uint64)
    mag = bits & _MASK_63
    special = (mag == _U0) | (mag >= _INF_BITS)
    any_special = bool(special.any())
    if any_special:
        np.copyto(mag, _ONE_BITS, where=special)
    f, E = _shortest(mag, tab)
    del mag
    E -= _E_MIN
    src, zeros = _text_sources(f, E, tab)
    del f  # its remainders, left by _text_sources
    src.reshape(rows, cols, _ROW)[:, -1, _SEP] = ord("\n")

    # the template row: sign, digit count, then layout
    layout = (bits >> _U63).view(np.int64)
    layout *= _DIGITS
    layout += _DIGITS - 1
    layout -= zeros.view(np.int64)
    del zeros
    layout *= _FORMS
    layout += tab.form.take(E)
    del E
    if any_special:
        # 0.0 and -0.0, then the letters of inf and nan and those of
        # -inf (NaN is written without its sign)
        mag = bits & _MASK_63
        nan = mag > _INF_BITS
        src[nan, _DIG0:_DIG0 + 3] = np.frombuffer(b"nan", dtype=np.uint8)
        src[mag == _INF_BITS, _DIG0:_DIG0 + 3] = np.frombuffer(
            b"inf", dtype=np.uint8)
        code = np.where(mag == _U0, 0, 2)
        del mag
        code += np.where(nan, 0, (bits >> _U63).view(np.int64))
        code += 2 * _DIGITS * _FORMS
        np.copyto(layout, code, where=special)
        del nan, code

    # the gather, a few hundred values at a time on an index of 2 bytes
    # per output byte (the templates, the offsets and their sum share
    # one dtype, so the add needs no cast buffer), each run of text
    # freed of its pad bytes (a boolean mask would build an index of 8
    # bytes per kept byte)
    step = min(nv, _GATHER_VALUES)
    # each value's row offset, once per byte: a broadcast add would
    # allocate ufunc buffers larger than the index
    offsets = np.repeat(np.arange(0, step * _ROW, _ROW, dtype=_INDEX),
                        _WIDTH).reshape(step, _WIDTH)
    idx = np.empty((step, _WIDTH), dtype=_INDEX)
    text = np.empty((step, _WIDTH), dtype=np.uint8)
    pieces = []
    for lo in range(0, nv, step):
        m = min(step, nv - lo)
        np.add(tab.templates.take(layout[lo:lo + m], axis=0), offsets[:m],
               out=idx[:m])
        src[lo:lo + m].reshape(-1).take(idx[:m], out=text[:m], mode="clip")
        pieces.append(text[:m].tobytes().translate(None, b"\0"))
    del src, layout
    return b"".join(pieces)

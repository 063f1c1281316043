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

# a value's source row: 17 digits after 3 zeros, its exponent's 3
# digits and a zero pad byte, its separator, then (from byte 32, one
# uint64 word) the constants; bytes 25-31 are never read
_ZERO, _DIG0, _EXP, _PAD, _SEP = 0, 3, 20, 23, 24
(_DOT, _MINUS, _E, _PLUS, _N, _A, _I, _F) = range(32, 40)
_ROW = 40
_GATHER_VALUES = 512

# the most bytes format_rows holds per value of its block, and the most
# the tables take while they are built, for a caller's memory budget
WORK_BYTES_PER_VALUE = 256
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
    quads: np.ndarray      # ASCII of 0000..9999, trailing zeros << 32
    form: np.ndarray       # layout by decimal exponent - _E_MIN
    exp_quad: np.ndarray   # ASCII of |exponent| and a NUL, by exp - _E_MIN
    templates: np.ndarray  # source columns of each text (see _layout)
    consts: np.uint64      # the constant columns as one word


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

    templates = np.full((2 * _DIGITS * _FORMS + 5, _WIDTH), _PAD,
                        dtype=np.uint8)
    for sign in (0, 1):
        for n in range(1, _DIGITS + 1):
            for f in range(_FORMS):
                cols = _layout(n, f)
                if sign:
                    cols = [_MINUS] + cols
                templates[(sign * _DIGITS + n - 1) * _FORMS + f,
                          :len(cols)] = cols
    specials = ([_ZERO, _DOT, _ZERO], [_MINUS, _ZERO, _DOT, _ZERO],
                [_I, _N, _F], [_MINUS, _I, _N, _F], [_N, _A, _N])
    for j, cols in enumerate(specials):
        templates[2 * _DIGITS * _FORMS + j, :len(cols)] = cols
    templates[:, -1] = _SEP
    consts = np.frombuffer(b".-e+naif", dtype=np.uint64)[0]
    return _Tables(g1, g0, h, k, pow10, ndigits, quads, form, exp_quad,
                   templates, consts)


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


def _product(a, b):
    """The 128-bit product of a < 2^63 and b < 2^61, as (low, high)
    halves."""
    a1, a0 = a >> _U32, a & _MASK_32
    b1, b0 = b >> _U32, b & _MASK_32
    mid = a1 * b0
    mid += (a0 * b0) >> _U32
    mid += a0 * b1
    hi = a1 * b1
    hi += mid >> _U32
    return a * b, hi


def _plus_shifted(lo, hi, g, s):
    """The 128-bit hi 2^64 + lo plus g 2^s, as (lo, hi)."""
    d = g << s
    lo = lo + d
    return lo, hi + (g >> (_U64 - s)) + (lo < d)


def _minus_shifted(lo, hi, g, s):
    """The 128-bit hi 2^64 + lo minus g 2^s, as (lo, hi)."""
    d = g << s
    return lo - d, hi - (g >> (_U64 - s)) - (lo < d)


def _rop(y0, y1, x1):
    """cp g 2^-127 rounded to odd, g = g1 2^63 + g0, from g1 cp =
    y1 2^64 + y0 and the high half x1 of g0 cp, as the JDK's rop: the
    floor, with its lowest bit set when the fraction (without the low
    half of g0 cp) is nonzero."""
    z = y0 >> _U1
    z += x1
    v = y1 + (z >> _U63)
    z &= _MASK_63
    z += _MASK_63
    z >>= _U63
    v |= z
    return v


def _shortest(mag, tab):
    """Shortest decimal of each positive finite double given by its bits:
    a 17-digit significand f (trailing zeros pad the shorter ones) and
    the decimal exponent of its first digit."""
    # temporaries are dropped as soon as they are used up, since the
    # working memory of a block grows with their count
    t = mag & _MASK_52
    bq = mag >> _U52
    # the table row, (bq << 1) | irregular
    irregular = (t == _U0) & (bq > _U1)
    row = bq << _U1
    row += irregular
    row = row.view(np.int64)
    c = t
    c |= (bq != _U0) * _C_MIN
    del bq
    k = tab.k.take(row)
    g1, g0, h = tab.g1.take(k), tab.g0.take(k), tab.h.take(row)
    odd = c & _U1
    c <<= _U2
    c <<= h
    y0, y1 = _product(g1, c)
    x0, x1 = _product(g0, c)
    del c
    vb = _rop(y0, y1, x1)
    # the ends of the rounding interval scale (4c + 2) 2^h and
    # (4c - 2) 2^h, or (4c - 1) 2^h on the irregular rows, so their
    # products are those of 4c 2^h plus or minus g1 and g0 shifted
    up = h
    up += _U1
    vbr = _rop(*_plus_shifted(y0, y1, g1, up),
               _plus_shifted(x0, x1, g0, up)[1])
    down = up - irregular
    vbl = _rop(*_minus_shifted(y0, y1, g1, down),
               _minus_shifted(x0, x1, g0, down)[1])
    vbl += odd
    vbr -= odd

    # one digit fewer: u' = s', w' = s' + 1 in units of 10^(k + 1)
    s = vb >> _U2
    sp10 = s // _U10
    sp10 *= _U10
    upin = vbl <= sp10 << _U2
    wpin = (sp10 + _U10) << _U2 <= vbr
    # else u = s, w = s + 1 in units of 10^k: the one in the interval,
    # or the closer one when both are, ties to even (the interval is at
    # least 10^k wide, so one of them always is)
    uin = vbl <= s << _U2
    win = (s + _U1) << _U2 <= vbr
    closer_t = (vb & _U3) + (s & _U1) > _U2
    f = s + (win & (closer_t | ~uin))
    f = np.where(upin != wpin, sp10 + wpin * _U10, f)

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
    src.view(np.uint64)[:, 4] = tab.consts
    words = src.view(np.uint32)
    words[:, 5] = tab.exp_quad.take(E)
    lead = f // _E16
    f -= lead * _E16
    hi = f // _E8
    f -= hi * _E8
    quads = [lead]
    for x in (hi, f):
        q = x // _E4
        x -= q * _E4
        quads += [q, x]
    zeros = None
    for j, q in enumerate(quads):
        entry = tab.quads.take(q.view(np.int64))
        # a uint32 word keeps the entry's low half, the ASCII digits
        words[:, j] = entry
        if j:
            entry >>= _U32
            # a quad of zeros adds its 4 to the zeros before it
            zeros = entry if j == 1 else entry + (entry == _U4) * zeros
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
    f, E = _shortest(np.where(special, _ONE_BITS, mag) if any_special
                     else mag, tab)
    E -= _E_MIN
    src, zeros = _text_sources(f, E, tab)
    del f  # its remainders, left by _text_sources
    src[:, _SEP] = ord(",")
    src.reshape(rows, cols, _ROW)[:, -1, _SEP] = ord("\n")

    # the template row: sign, digit count, then layout
    neg = (bits >> _U63).view(np.int64)
    layout = neg * _DIGITS
    layout += _DIGITS - 1
    layout -= zeros.view(np.int64)
    layout *= _FORMS
    layout += tab.form.take(E)
    if any_special:
        # 0.0, -0.0, inf, -inf, nan
        code = np.where(mag == _U0, 0, np.where(mag == _INF_BITS, 2, 4))
        code += np.where(code < 4, neg, 0)
        layout = np.where(special, 2 * _DIGITS * _FORMS + code, layout)

    # the gather, a few hundred values at a time: its flat index takes
    # 8 bytes per output byte
    text = np.empty((nv, _WIDTH), dtype=np.uint8)
    flat = src.reshape(-1)
    for lo in range(0, nv, _GATHER_VALUES):
        hi = min(lo + _GATHER_VALUES, nv)
        # cast before the offsets are added: a mixed-type add would
        # allocate casting buffers larger than the index
        idx = tab.templates.take(layout[lo:hi], axis=0).astype(np.intp)
        idx += np.arange(lo * _ROW, hi * _ROW, _ROW)[:, None]
        flat.take(idx, out=text[lo:hi], mode="clip")
    # the pad bytes dropped (a boolean mask would build an index of
    # 8 bytes per kept byte)
    return text.tobytes().translate(None, b"\0")

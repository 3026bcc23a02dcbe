"""CSV text of float64 arrays, every number the exact bytes of ``'%.17g' % x``.

``CsvWriter`` writes the CSV lines of equal-length columns, or of arrays
over a time grid given block by block, to a file.  It keeps the numbers of
pending lines across the pieces it is given and formats them in calls of at
most ``CALL_NUMBERS`` numbers, so the call size, never the size of a piece
or the length of a grid's last axis, decides every formatter call; the text
and temporaries of one call peak near 300 bytes a number (1.2 MB) whatever
the input size.

``format_floats(x)`` turns an array into an (x.size, ``WIDTH``) uint8 matrix
whose row i holds the bytes of ``'%.17g' % x[i]`` with NUL bytes in between
and after: the C ``%g`` rules at precision 17 (exponent form when the
decimal exponent E is below -4 or at least 17, with a signed exponent of at
least two digits; trailing zeros after the point stripped and a bare point
dropped; ``-`` for a negative value, ``-0`` included).  Dropping every NUL
byte gives the text.

Fast path, vectorized: E = floor(log10|x|), then |x| 10^(16-E) in
double-double arithmetic: Dekker's exact two-product of |x| with hi, plus
|x| lo, where hi + lo is 10^(16-E) to 2^-106 relative, built exactly from
Python integers on first use.  For a scaled value q < 2^57 the error of that
sum is below about 2^-47, so rounding it to an integer gives the 17
correctly rounded digits unless its fraction lies within 2^-38 of one half.
One fallback, Python's own ``'%.17g' % x``, formats every value the fast
path leaves: zeros, non-finite values, possible ties, values whose scaled
integer falls outside [10^16, 10^17) (log10 misjudged E, or the rounding
carried into an 18th digit), and |x| outside [1e-270, 1e270].  The digits
come out eight at a time from 64-bit integer arithmetic, and the text is
laid out in 64-bit words, so no step loops over the characters of a row.
"""

import functools
import math

import numpy as np

# a row: byte 0 the sign, 1-22 "0000" and 17 digits with the point among
# them, 24-28 'e', the exponent's sign and three exponent digits, 31 NUL for
# ``_join``'s separator; each 8-byte word of it is a uint64
WIDTH = 32
_WORDS = WIDTH // 8
_FAST_RANGE = (1e-270, 1e270)
_TIE_MARGIN = 2.0 ** -38
_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter for 53-bit doubles
# decimal exponents E over the fast range, with a step to spare each way for
# a misjudged E
_EXPONENTS = range(-271, 272)
_U = np.uint64
_ZEROS = 0x3030303030303030  # eight ASCII '0'
CALL_NUMBERS = 4096  # numbers turned into text by one formatter call


def _padded(texts, width):
    """Byte strings of at most ``width`` bytes, NUL-padded to it, as a uint8
    matrix."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


@functools.cache
def _powers():
    """10^(16 - E) for E in ``_EXPONENTS`` as a (4, len(_EXPONENTS)) float64
    table of rows hi, lo, hi_head, hi_tail: hi + lo is 10^(16 - E) to about
    2^-106 relative, and hi_head + hi_tail is hi split into two halves of at
    most 26 bits each."""
    hi, lo = [], []
    for s in (16 - e for e in _EXPONENTS):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi.append(num / den)  # int / int rounds correctly
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi, lo = np.array(hi), np.array(lo)
    return np.stack((hi, lo, *_split(hi)))


def _split(a):
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


def _scaled(a, e):
    """``round(a 10^(16-e))`` as int64, and a mask of the values it cannot
    be trusted for: a possible tie, or a result outside [10^16, 10^17)."""
    hi, lo, hi_head, hi_tail = _powers().take(e - _EXPONENTS.start, axis=1)
    p = a * hi
    a_head, a_tail = _split(a)
    # Dekker: p + err == a * hi exactly
    err = a_tail * hi_tail - (((p - a_head * hi_head) - a_tail * hi_head)
                              - a_head * hi_tail)
    rest = err + a * lo
    whole = np.floor(rest)
    frac = rest - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    q = floor + (frac + 0.5).astype(np.int64)  # a tie may go either way
    doubtful = ((np.abs(frac - 0.5) < _TIE_MARGIN)
                | (floor < 10 ** 16) | (q >= 10 ** 17))
    return q, doubtful


def _eight_digits(x):
    """The eight decimal digits of each uint64 below 10^8, one per byte of
    a uint64, most significant first in memory (little-endian)."""
    hi = x // 10 ** 4
    merged = hi | ((x - hi * 10 ** 4) << 32)  # two 4-digit lanes
    top = ((merged * 10486) >> 20) & 0x7F_0000_007F  # lane // 100
    pairs = ((merged - 100 * top) << 16) + top  # four 2-digit lanes
    tens = ((pairs * 103) >> 10) & 0x000F_000F_000F_000F  # lane // 10
    return tens + ((pairs - 10 * tens) << 8)


def _significant(mid, low):
    """How many of the 17 digits stay once their trailing zeros go: the
    lead digit, never 0, then the 16 bytes of ``mid`` and ``low``, each at
    most 9, up to the last nonzero one.  That byte's place is read off the
    float64 exponent of low 2^64 + mid + 1/2, where the 1/2 makes no
    nonzero byte read as none; rounding can carry into the byte, never out
    of it."""
    top = low.astype(np.float64) * 2.0 ** 64 + mid.astype(np.float64) + 0.5
    return 1 + (((top.view(np.int64) >> 52) - 1015) >> 3)


@functools.cache
def _body_masks():
    """Per (point, significant digits) layout: ``(keep, keep_shifted,
    dot)``, each a (21 * 17, _WORDS) uint64 table whose row
    ``(point - 1) * 17 + significant - 1`` selects the row bytes taken from
    X, from X moved up one byte, and the point.

    X is the unformatted row: sign, "0000", 17 digits, NUL, exponent.  The
    text shows X[1 + start:] up to the last kept digit, and the point goes
    after the first ``point`` characters of "0000" + digits."""
    tables = np.zeros((3, 21, 17, WIDTH), dtype=np.uint8)
    keep, keep_shifted, dot = tables
    for point in range(1, 22):
        start = min(point - 1, 4)
        for significant in range(1, 18):
            last = max(3 + significant, point - 1)  # in "0000" + digits
            row = (point - 1, significant - 1)
            keep[row][0] = 0xFF
            keep[row][1 + start:1 + min(point, last + 1)] = 0xFF
            keep_shifted[row][2 + point:3 + last] = 0xFF
            keep[row][24:] = 0xFF
            if last >= point:
                dot[row][1 + point] = ord(".")
    return tuple(t.reshape(21 * 17, WIDTH).view(_U) for t in tables)


@functools.cache
def _exponent_words():
    """Row word 3 for each decimal exponent in ``_EXPONENTS``: NUL where
    ``%g`` writes the value without an exponent, else 'e', the exponent's
    sign and at least two of its digits."""
    text = [b"" if -4 <= e < 17 else b"e%+03d" % e for e in _EXPONENTS]
    return _padded(text, 8).view(_U).ravel()


def _layout(negative, q, e):
    """(n, WIDTH) uint8 rows of ``%.17g`` text for the 17-digit integers
    ``q`` in [10^16, 10^17) with decimal exponents ``e``."""
    n = len(q)
    q = q.astype(_U)
    top = q // 10 ** 8
    lead = top // 10 ** 8
    mid, low = _eight_digits(np.stack((top - lead * 10 ** 8, q - top * 10 ** 8)))
    point = 5 + np.where((e >= -4) & (e < 17), e, 0)
    code = (point - 1) * 17 + _significant(mid, low) - 1
    mid += _ZEROS
    low += _ZEROS
    # X, row after row in one flat buffer of words; one word earlier the
    # same buffer reads the word before, whose top byte moves up into the
    # next when X moves up one byte
    flat = np.zeros(n * _WORDS + 1, dtype=_U)
    x = flat[1:].reshape(n, _WORDS)
    x[:, 0] = (np.where(negative, _U(ord("-")), _U(0)) | 0x30303030 << 8
               | (lead + ord("0")) << 40 | mid << 48)
    x[:, 1] = mid >> 16 | low << 48
    x[:, 2] = low >> 16
    x[:, 3] = _exponent_words().take(e - _EXPONENTS.start)
    keep, keep_shifted, dot = _body_masks()
    text = keep.take(code, axis=0)
    text &= x
    shifted = x << 8
    shifted |= flat[:-1].reshape(n, _WORDS) >> 56
    shifted &= keep_shifted.take(code, axis=0)
    text |= shifted
    del shifted
    text |= dot.take(code, axis=0)
    return text.view(np.uint8)


def format_floats(x):
    """``'%.17g' % v`` for each value v of ``x``, as an (x.size, WIDTH)
    uint8 matrix of text and NUL bytes."""
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    q, doubtful = _scaled(a, e)
    slow = ~fast | doubtful
    q[slow] = 10 ** 16
    out = _layout(np.signbit(x), q, e)
    if slow.any():
        out[slow] = _padded([b"%.17g" % v for v in x[slow].tolist()], WIDTH)
    return out


def _join(*fields):
    """CSV text, a bytearray, of fields that are (n, width) uint8 matrices of
    text and NUL bytes: each field's last column, always NUL, becomes a ','
    or, after the last field, a newline, and then every NUL byte is dropped."""
    ends = np.cumsum([f.shape[1] for f in fields]) - 1
    text = bytearray(len(fields[0]) * (ends[-1] + 1))
    rows = np.frombuffer(text, dtype=np.uint8).reshape(len(fields[0]), -1)
    np.concatenate(fields, axis=1, out=rows)
    rows[:, ends] = ord(",")
    rows[:, ends[-1]] = ord("\n")
    return text.translate(None, b"\0")


@functools.cache
def _index_field(shape):
    """The "i,j,..." text of each index of a ``shape`` array, C order, as a
    read-only field, made of each axis's text ("i," and, on the last axis,
    "j") formed once per index of that axis."""
    parts = []
    for axis, n in enumerate(shape):
        comma = b"," if axis < len(shape) - 1 else b""
        text = _padded([b"%d%s" % (i, comma) for i in range(n)], len(str(n)) + 1)
        # each index repeats over the later axes, and the whole axis over
        # the earlier ones
        text = text.repeat(math.prod(shape[axis + 1:]), axis=0)
        parts.append(np.tile(text, (math.prod(shape[:axis]), 1)))
    field = np.concatenate(parts, axis=1)
    field.flags.writeable = False
    return field


class CsvWriter:
    """CSV lines written to the binary file ``fh`` after ``header``, in
    formatter calls of ``CALL_NUMBERS`` numbers however the lines arrive.

    ``rows(*columns)`` adds the lines of equal-length 1-D columns (a boolean
    column is written as the numbers 0 and 1), and ``grid(times, values)``
    the (t, index..., value) lines of an array whose leading axis runs over
    ``times``, where a complex value gives re, im; one file takes one kind.
    The numbers of pending lines wait in one call's buffer and are
    formatted and written when it fills, and by ``flush``.  A call takes
    ``CALL_NUMBERS // numbers per line`` lines (at least one), however long
    a grid's last axis is, so the lines of one time may span two calls.  A
    grid's times are formatted once per call, with Python's ``'%.17g'``,
    into a time field only as wide as the call's longest time text.
    """

    def __init__(self, fh, header):
        fh.write(header.encode() + b"\n")
        self._fh = fh
        self._buffer = None  # (lines of a call, numbers per line) float64
        self._pending = 0  # lines in the buffer
        self._written = 0  # lines formatted before them
        self._index = None  # a grid's index field, one row per line of a time
        self._times = []  # a grid's times, from that of the first unwritten line

    def rows(self, *columns):
        self._add([np.reshape(c, (-1, 1)) for c in columns])

    def grid(self, times, values):
        if self._index is None:
            self._index = _index_field(values.shape[1:])
        self._times.extend(times.tolist())
        # one number per line, or two for a complex value: re and im
        self._add([values.reshape(len(times) * len(self._index), -1).view(np.float64)])

    def flush(self):
        """Format and write the pending lines; the file's last ones wait
        for this call."""
        if self._pending:
            self._write(self._buffer[:self._pending])
            self._pending = 0

    def _add(self, parts):
        """Take the lines whose numbers are the columns of ``parts``, 2-D
        arrays of equal length."""
        if self._buffer is None:
            per_line = sum(part.shape[1] for part in parts)
            self._buffer = np.empty((max(1, CALL_NUMBERS // per_line), per_line))
        count, start = len(parts[0]), 0
        while start < count:
            take = min(count - start, len(self._buffer) - self._pending)
            np.concatenate([part[start:start + take] for part in parts], axis=1,
                           out=self._buffer[self._pending:self._pending + take])
            self._pending += take
            start += take
            if self._pending == len(self._buffer):
                self.flush()

    def _write(self, numbers):
        n, per_line = numbers.shape
        fields = []
        if self._index is not None:
            per_time = len(self._index)
            first = self._written // per_time
            t_index, i_index = np.divmod(np.arange(self._written, self._written + n),
                                         per_time)
            t_index -= first
            # a time repeats on many lines, so its text is formed once per call
            t_text = [b"%.17g" % t for t in self._times[:t_index[-1] + 1]]
            t_text = _padded(t_text, 1 + max(map(len, t_text)))
            fields = [t_text.take(t_index, axis=0), self._index.take(i_index, axis=0)]
            del self._times[:(self._written + n) // per_time - first]
        self._written += n
        text = format_floats(numbers).reshape(n, per_line, WIDTH)
        self._fh.write(_join(*fields, *text.swapaxes(0, 1)))

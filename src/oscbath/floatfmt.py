"""CSV text of float64 arrays, every number the exact bytes of ``'%.17g' % x``.

``CsvWriter`` writes the CSV lines of equal-length columns, or of arrays
over a time grid given block by block, to a file.  It keeps the numbers of
pending lines across the pieces it is given and formats them in calls of at
most ``CALL_NUMBERS`` numbers, so the call size, never the size of a piece
or the length of a grid's last axis, decides every formatter call.  One
call's working set, the writer's buffers with the call's text, its CSV
lines and every temporary, peaked at 90 to 130 bytes a number (at most
0.52 MB) under ``tracemalloc``, on columns, complex grids and long rows of
any size; ``format_floats`` alone peaked at 85, 32 of them its result.
Past its inputs, every step writes into one of a few arrays that it
reuses in place, and the call's text matrix is freed before the CSV text
drops its NUL bytes.

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
    head, tail = np.empty((2, len(hi)))
    _split(hi, head, tail)
    return np.stack((hi, lo, head, tail))


def _split(a, head, tail):
    """Dekker's split of ``a`` into ``head`` + ``tail``, written into those
    two arrays."""
    np.multiply(a, _SPLIT, out=head)
    np.subtract(head, a, out=tail)
    head -= tail
    np.subtract(a, head, out=tail)


def _scaled(a, e):
    """``round(a 10^(16-e))`` as int64, and a mask of the values it cannot
    be trusted for: a possible tie, or a result outside [10^16, 10^17).
    Apart from the table lookups, every step writes into one of four (n,)
    arrays."""
    hi, lo, hi_head, hi_tail = _powers()
    k = e - _EXPONENTS.start
    p = hi.take(k)
    p *= a
    head, tail, rest = np.empty((3, len(a)))
    _split(a, head, tail)
    # Dekker: p + err == a * hi exactly, where err is
    # a_tail hi_tail - (((p - a_head hi_head) - a_tail hi_head) - a_head hi_tail)
    factor = hi_head.take(k)
    np.multiply(head, factor, out=rest)
    np.subtract(p, rest, out=rest)
    factor *= tail
    rest -= factor
    factor = hi_tail.take(k)
    head *= factor
    rest -= head
    factor *= tail
    np.subtract(factor, rest, out=rest)
    factor = lo.take(k)
    factor *= a
    rest += factor  # err + a lo
    whole = head
    np.floor(rest, out=whole)
    rest -= whole  # the fraction
    # int64 views of arrays whose float values are used up; copyto with
    # unsafe casting truncates as astype does
    floor = tail.view(np.int64)
    np.copyto(floor, p, casting="unsafe")
    q = p.view(np.int64)
    np.copyto(q, whole, casting="unsafe")
    floor += q
    np.add(rest, 0.5, out=whole)
    np.copyto(q, whole, casting="unsafe")
    q += floor  # a tie may go either way
    rest -= 0.5
    doubtful = np.abs(rest, out=rest) < _TIE_MARGIN
    doubtful |= floor < 10 ** 16
    doubtful |= q >= 10 ** 17
    return q, doubtful


def _eight_digits(x):
    """Overwrite each uint64 of ``x``, all below 10^8, with its eight
    decimal digits, one per byte of the uint64, most significant first in
    memory (little-endian)."""
    lanes = x // 10 ** 4
    # each step splits every lane of x in two at 10^k: with lanes holding
    # lane // 10^k, the split lanes are ((x - 10^k lanes) << s) + lanes,
    # which is (x << s) - lanes (10^k 2^s - 1) in wrapping uint64 arithmetic
    x <<= 32
    lanes *= (10 ** 4 << 32) - 1
    x -= lanes  # two 4-digit lanes
    np.multiply(x, 10486, out=lanes)
    lanes >>= 20
    lanes &= 0x7F_0000_007F  # lane // 100
    x <<= 16
    lanes *= (100 << 16) - 1
    x -= lanes  # four 2-digit lanes
    np.multiply(x, 103, out=lanes)
    lanes >>= 10
    lanes &= 0x000F_000F_000F_000F  # lane // 10
    x <<= 8
    lanes *= (10 << 8) - 1
    x -= lanes


def _significant(mid, low):
    """How many of the 17 digits stay once their trailing zeros go: the
    lead digit, never 0, then the 16 bytes of ``mid`` and ``low``, each at
    most 9, up to the last nonzero one.  That byte's place is read off the
    float64 exponent of low 2^64 + mid + 1/2, where the 1/2 makes no
    nonzero byte read as none; rounding can carry into the byte, never out
    of it."""
    top = np.multiply(low, 2.0 ** 64)
    top += mid
    top += 0.5
    count = top.view(np.int64)
    count >>= 52
    count -= 1015
    count >>= 3
    count += 1
    return count


@functools.cache
def _body_masks():
    """Per (point, significant digits) layout: ``(keep, keep_shifted,
    dot)``, each a (3, 21 * 17) uint64 table whose column
    ``(point - 1) * 17 + significant - 1`` selects the bytes of row words
    0-2 taken from X, from X moved up one byte, and the point.

    X is the unformatted row: sign, "0000", 17 digits, NUL, exponent.  The
    text shows X[1 + start:] up to the last kept digit, and the point goes
    after the first ``point`` characters of "0000" + digits.  Word 3, the
    exponent, is kept whole: no moved byte or point reaches it."""
    tables = np.zeros((3, 21, 17, 24), dtype=np.uint8)
    keep, keep_shifted, dot = tables
    for point in range(1, 22):
        start = min(point - 1, 4)
        for significant in range(1, 18):
            last = max(3 + significant, point - 1)  # in "0000" + digits
            row = (point - 1, significant - 1)
            keep[row][0] = 0xFF
            keep[row][1 + start:1 + min(point, last + 1)] = 0xFF
            keep_shifted[row][2 + point:3 + last] = 0xFF
            if last >= point:
                dot[row][1 + point] = ord(".")
    return tuple(np.ascontiguousarray(t.reshape(21 * 17, 24).view(_U).T) for t in tables)


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
    q = q.view(_U)
    digits = np.empty((2, n), dtype=_U)
    mid, low = digits
    np.floor_divide(q, 10 ** 8, out=mid)
    np.multiply(mid, 10 ** 8, out=low)
    np.subtract(q, low, out=low)
    lead = mid // 10 ** 8
    mid -= lead * 10 ** 8
    _eight_digits(digits)
    code = _significant(mid, low)
    point = 5 + np.where((e >= -4) & (e < 17), e, 0)
    code += (point - 1) * 17 - 1
    del point
    digits += _ZEROS
    # X, one row of four words per number
    x = np.empty((n, _WORDS), dtype=_U)
    x0, x1, x2, x3 = x.T
    lead += ord("0")
    lead <<= 40
    np.left_shift(mid, 48, out=x0)
    x0 |= lead
    x0 |= 0x30303030 << 8
    np.bitwise_or(x0, ord("-"), out=x0, where=negative)
    np.right_shift(mid, 16, out=x1)
    np.left_shift(low, 48, out=x2)
    x1 |= x2
    np.right_shift(low, 16, out=x2)
    del digits, mid, low, lead
    x3[:] = _exponent_words().take(e - _EXPONENTS.start)
    # X turns into the text word by word, from word 2 down, so that the
    # word before each one still holds X: moving X up one byte carries that
    # word's top byte into the next word, and word 0 gets the previous
    # row's byte 31, always NUL
    keep, keep_shifted, dot = _body_masks()
    for j in (2, 1, 0):
        word = x[:, j]
        shifted = word << 8
        if j:
            shifted |= x[:, j - 1] >> 56
        shifted &= keep_shifted[j].take(code)
        word &= keep[j].take(code)
        word |= shifted
        word |= dot[j].take(code)
    return x.view(np.uint8)


def format_floats(x):
    """``'%.17g' % v`` for each value v of ``x``, as an (x.size, WIDTH)
    uint8 matrix of text and NUL bytes."""
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    slow = ~((a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1]))
    np.copyto(a, 1.0, where=slow)
    e = np.floor(np.log10(a)).astype(np.int64)
    q, doubtful = _scaled(a, e)
    del a
    slow |= doubtful
    q[slow] = 10 ** 16
    out = _layout(np.signbit(x), q, e)
    if slow.any():
        out[slow] = _padded([b"%.17g" % v for v in x[slow].tolist()], WIDTH)
    return out


def _join(fields):
    """CSV text, a bytearray, of ``fields``, a list of (n, width) uint8
    matrices of text and NUL bytes: each field's last column, always NUL,
    becomes a ',' or, after the last field, a newline, and then every NUL
    byte is dropped.  The list is emptied once its bytes are copied, so
    the caller's matrices are freed before the text is compacted."""
    ends = np.cumsum([f.shape[1] for f in fields]) - 1
    text = bytearray(len(fields[0]) * (ends[-1] + 1))
    rows = np.frombuffer(text, dtype=np.uint8).reshape(len(fields[0]), -1)
    np.concatenate(fields, axis=1, out=rows)
    fields.clear()
    rows[:, ends] = ord(",")
    rows[:, ends[-1]] = ord("\n")
    return text.translate(None, b"\0")


def _index_field(shape):
    """The "i,j,..." text of each index of a ``shape`` array, C order, as a
    field, made of each axis's text ("i," and, on the last axis, "j") formed
    once per index of that axis."""
    parts = []
    for axis, n in enumerate(shape):
        comma = b"," if axis < len(shape) - 1 else b""
        text = _padded([b"%d%s" % (i, comma) for i in range(n)], len(str(n)) + 1)
        # each index repeats over the later axes, and the whole axis over
        # the earlier ones
        text = text.repeat(math.prod(shape[axis + 1:]), axis=0)
        parts.append(np.tile(text, (math.prod(shape[:axis]), 1)))
    return np.concatenate(parts, axis=1)


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
    into a time field only as wide as the call's longest time text.  A
    call's lines are laid out from its text and fields in one buffer, and
    the text is freed before that buffer is compacted: the call's working
    set peaks near 90 to 130 bytes a number (see the module docstring).
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
        text = format_floats(numbers).reshape(n, per_line, WIDTH)
        fields = []
        if self._index is not None:
            per_time = len(self._index)
            skip = self._written % per_time  # lines of the first time already written
            spanned = -(-(skip + n) // per_time)  # times the call's lines belong to
            lines = np.full(spanned, per_time)  # lines of each of them
            lines[0] -= skip
            lines[-1] -= spanned * per_time - skip - n
            # a time repeats on many lines, so its text is formed once per call
            t_text = [b"%.17g" % t for t in self._times[:spanned]]
            t_text = _padded(t_text, 1 + max(map(len, t_text)))
            fields = [t_text.repeat(lines, axis=0),
                      self._index.take(np.arange(skip, skip + n), axis=0, mode="wrap")]
            del self._times[:(skip + n) // per_time]
        self._written += n
        fields.extend(text.swapaxes(0, 1))
        del text
        self._fh.write(_join(fields))

"""Shared numerics and reproducibility helpers."""
from __future__ import annotations

import io
import math
from functools import lru_cache
from typing import BinaryIO, Sequence

import numpy as np


def derived_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator for substream (master_seed, i0, i1, ...).

    Substreams are derived from the index tuple, not from draw order, so
    results do not depend on the order in which items are run.
    """
    return np.random.default_rng(np.random.SeedSequence((master_seed, *indices)))


def derived_seeds(master_seed: int, *indices: int, count: int = 1) -> list[int]:
    """``count`` integer seeds for substream (master_seed, i0, i1, ...).

    Like :func:`derived_rng`, the seeds depend only on the index tuple; a
    stage that hands seeds on to other functions takes them from here.
    """
    ss = np.random.SeedSequence((master_seed, *indices))
    return [int(x) for x in ss.generate_state(count, dtype=np.uint64)]


@lru_cache(maxsize=8)
def normal_half_width(level: float) -> float:
    """Half-width, in standard errors, of a two-sided normal confidence
    interval at ``level``: the standard normal quantile of 0.5 + level/2."""
    from scipy.special import ndtri  # deferred: keeps scipy.special out of start-up

    return float(ndtri(0.5 + level / 2.0))


def format_sig(x: float, digits: int = 17) -> str:
    """Format a number with a fixed count of significant digits.

    Formats the ``table1`` header; CSV cells go through :func:`write_csv_columns`.
    """
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.{digits}g}"


#: CSV rows formatted per block; bounds the word matrix or byte buffer held
#: while writing.
_CSV_BLOCK = 1 << 13
#: Calls of at most this many cells (rows times columns, a tail counting
#: as one column) are formatted cell by cell.  Measured: 512 float cells
#: take about 0.42 ms either way; text cells are cheaper cell by cell.
_SCALAR_CELLS = 512


def write_csv_columns(
    f: BinaryIO, columns: Sequence[Sequence],
    tail: tuple[Sequence[Sequence], np.ndarray] | None = None,
) -> None:
    """Write equal-length columns to the binary file ``f`` as CSV rows in
    UTF-8, a block at a time.

    Every float cell is written as ``'%.17g' % v`` and every integer cell
    as ``'%d' % v``, byte for byte; strings are written as they are and
    bools as ``true``/``false``.  A column that is not a numeric or bool
    numpy array may mix these types.  A string holding a NUL character is
    refused with a ``ValueError`` that names its column.

    Calls of at most ``_SCALAR_CELLS`` cells format each cell on its own
    (:func:`_scalar_text`).  Larger ones go through one vectorised
    formatter: for 1e-4 <= |v| < 1e16 and for 0 the digits are computed
    exactly in numpy (:func:`_float_words`), and every other float (nan,
    inf, tiny, huge) is formatted on its own by ``%.17g``.  Each cell is
    laid out as 4-byte words padded with NUL bytes, and the padding is
    deleted from a block's bytes as they are written.

    With ``tail = (tail_columns, rows)``, output row i is row i of
    ``columns`` followed by row ``rows[i]`` of ``tail_columns``, which are
    of equal length too.  Each tail row is formatted once however often
    ``rows`` repeats it, so a tail text cell may not hold a newline, and a
    row outside the tail is refused with a ``ValueError`` that names it.
    """
    lengths = {len(c) for c in columns}
    lines = None
    if tail is not None:
        tail_columns, rows = tail
        lengths.add(len(rows))
        lines = _table_text(tail_columns).decode().split("\n")[:-1]
        _check_rows(rows, len(lines))
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    n = max(lengths, default=0)
    if n * (len(columns) + (tail is not None)) <= _SCALAR_CELLS:
        f.write(_scalar_text(columns, None if tail is None else (lines, rows)).encode())
        return
    if tail is not None:
        table = _tail_table(lines)
        width = table.itemsize // 4
    for start in range(0, n, _CSV_BLOCK):
        block = [c[start:start + _CSV_BLOCK] for c in columns]
        if tail is None:
            f.write(_packed(_row_words(block)))
            continue
        index = rows[start:start + _CSV_BLOCK]
        words = _row_words(block, len(index), width)
        # each row's tail is one item of the table
        np.take(table, index, out=words[:, -width:].view(table.dtype)[:, 0])
        f.write(_packed(words))


def _table_text(columns: Sequence[Sequence]) -> bytes:
    """The CSV text of ``columns``, whose rows are to be repeated: one line
    per row, so a text cell may not hold a newline."""
    data = io.BytesIO()
    write_csv_columns(data, columns)
    text = data.getvalue()
    if text.count(b"\n") != (len(columns[0]) if columns else 0):
        raise ValueError("CSV text cells of a tail may not hold a newline")
    return text


def _check_rows(rows: Sequence[int], k: int) -> None:
    """Refuse, naming the first, a row of ``rows`` that is not one of a
    k-row table's; negative rows would otherwise wrap around."""
    rows = np.asarray(rows)
    if len(rows) and (rows.min() < 0 or rows.max() >= k):
        at = int(np.flatnonzero((rows < 0) | (rows >= k))[0])
        raise ValueError(f"table row {rows[at]} (output row {at}) is outside the "
                         f"table's {k} rows")


def write_numbered_rows(f: BinaryIO, columns: Sequence[Sequence], rows: np.ndarray) -> None:
    """Write row i as ``'%d' % i``, a comma and row ``rows[i]`` of the
    equal-length ``columns``, for every i of ``rows``, to the binary file
    ``f``: the bytes of ``write_csv_columns(f, [np.arange(len(rows))],
    (columns, rows))``, with the same refusals.

    The table is formatted once (:func:`_table_text`) into one stream of
    UTF-8 lines, each with its comma and newline.  Each block of
    ``_CSV_BLOCK`` rows is then assembled in a buffer that every byte is
    written to exactly once, so nothing is padded and nothing deleted: one
    cumsum of the row-number digits and line bytes gives every offset, the
    row numbers go in one run of equal digit count at a time, and the
    lines one group of equal byte length at a time, each as items of a
    ``V{width}`` view whose item j starts at byte j (:func:`_windows`).
    A stable argsort of the block's line lengths finds the groups.

    The leading column holds consecutive integers, so its digits are
    slices of a table; leading float columns (``field.csv``,
    ``transects.csv``) go through :func:`write_csv_columns`, where this
    assembly measured 2-2.6 times slower.
    """
    stream = np.frombuffer((b"," + _table_text(columns).replace(b"\n", b"\n,"))[:-1], np.uint8)
    end = np.flatnonzero(stream == ord("\n")) + 1  # of each line in the stream
    rows = np.asarray(rows)
    _check_rows(rows, len(end))
    length = np.diff(end, prepend=0)
    first = end - length
    length = length.astype(np.min_scalar_type(length.max(initial=0)))
    n = len(rows)
    for start in range(0, n, _CSV_BLOCK):
        stop = min(n, start + _CSV_BLOCK)
        index = rows[start:stop]
        lines = length.take(index)
        runs = _number_runs(start, stop)
        size = lines.astype(np.intp)
        for a, b, digits in runs:
            size[a - start:b - start] += digits
        line_at = np.cumsum(size)
        line_at -= lines
        block = np.empty(int(line_at[-1] + lines[-1]), np.uint8)
        for a, b, digits in runs:
            _windows(block, digits)[line_at[a - start:b - start] - digits] = \
                _number_digits(a, b, digits).view(f"V{digits}")[:, 0]
        order = np.argsort(lines, kind="stable")
        cuts = np.flatnonzero(np.diff(lines.take(order))) + 1
        stream_at = first.take(index)
        for group in np.split(order, cuts):
            width = int(lines[group[0]])
            # indexing, not take, which would first copy the whole view
            _windows(block, width)[line_at.take(group)] = \
                _windows(stream, width)[stream_at.take(group)]
        f.write(block)


def _number_runs(start: int, stop: int) -> list[tuple[int, int, int]]:
    """The numbers start..stop-1 as runs (a, b, digits) of numbers that
    have the same count of digits and the same digits before their last
    four: cut at powers of ten and at multiples of 10**4."""
    runs = []
    while start < stop:
        digits = len(str(start))
        end = min(stop, 10**digits, (start // 10_000 + 1) * 10_000)
        runs.append((start, end, digits))
        start = end
    return runs


def _number_digits(start: int, stop: int, digits: int) -> np.ndarray:
    """(stop - start, digits) ASCII digits of the numbers start..stop-1,
    one run of :func:`_number_runs`: the last four (or fewer) are rows of
    the full digit table, the others one text for the whole run."""
    high, low = divmod(start, 10_000)
    out = np.empty((stop - start, digits), np.uint8)
    last = min(digits, 4)
    out[:, digits - last:] = _FULL_DIGITS[low:low + stop - start, 4 - last:]
    if digits > 4:
        out[:, :digits - 4] = np.frombuffer(b"%d" % high, np.uint8)
    return out


def _windows(data: np.ndarray, width: int) -> np.ndarray:
    """Every run of ``width`` bytes of the uint8 array ``data``, as the
    items of a ``V{width}`` view: item j is bytes j..j+width-1, so a
    fancy-indexed read or write copies whole runs at arbitrary offsets."""
    return np.ndarray((len(data) - width + 1,), f"V{width}", data, strides=(1,))


def _tail_table(lines: list[str]) -> np.ndarray:
    """The k CSV ``lines`` as k items of w words: each line's text and its
    newline left-aligned in NUL-padded words."""
    words = _text_words(np.array([(line + "\n").encode() for line in lines], dtype=np.bytes_))
    return np.ascontiguousarray(words.T).view(f"V{4 * len(words)}").ravel()


def _scalar_text(columns: Sequence[Sequence],
                 tail: tuple[list[str], np.ndarray] | None = None) -> str:
    """The CSV text of ``columns``, with the tail lines ``tail[0]`` picked
    by ``tail[1]`` after each row, formatted one cell at a time."""
    cells = [_cell_texts(column, index) for index, column in enumerate(columns)]
    if tail is not None:
        lines, rows = tail
        cells.append([lines[i] for i in rows])
    return "".join(",".join(row) + "\n" for row in zip(*cells))


def _cell_texts(column: Sequence, index: int) -> list[str]:
    """The CSV text of each cell of column ``index``, typed by
    :func:`_typed_cells` as the vectorised formatter types it."""
    texts = [""] * len(column)
    for positions, values in _typed_cells(column, index):
        kind, values = values.dtype.kind, values.tolist()
        if kind == "f":
            strings = ["%.17g" % v for v in values]
        elif kind == "S":
            strings = [v.decode() for v in values]
        else:
            strings = ["%d" % v for v in values]
        if isinstance(positions, slice):
            texts = strings
        else:
            for i, text in zip(positions, strings):
                texts[i] = text
    return texts


def _packed(words: np.ndarray) -> bytes:
    """The bytes of ``words`` without their NUL padding."""
    return words.tobytes().translate(None, b"\0")


def _row_words(columns: Sequence[Sequence], n: int | None = None,
               tail_width: int = 0) -> np.ndarray:
    """(n, w) words of the CSV rows of ``columns``, each cell followed by
    a comma and the last by a newline.  With ``tail_width``, the last cell
    is followed by a comma too, and then by ``tail_width`` words that the
    caller fills.  ``n`` defaults to the length of the first column.

    The cells of all columns are formatted one type at a time, in one call
    per type, so a block of many short columns costs few numpy calls.
    """
    if n is None:
        n = len(columns[0]) if columns else 0
    by_kind: dict[str, list] = {}
    for index, column in enumerate(columns):
        for positions, values in _typed_cells(column, index):
            by_kind.setdefault(values.dtype.kind, []).append((index, positions, values))
    parts: list[list] = [[] for _ in columns]
    for kind, cells in by_kind.items():
        words = _FORMATTERS[kind](np.concatenate([values for _, _, values in cells]))
        at = 0
        for index, positions, values in cells:
            parts[index].append((positions, words[:, at:at + len(values)]))
            at += len(values)
    columns_words = []
    for cells in parts:
        if len(cells) == 1:
            words = cells[0][1]
        else:
            words = np.zeros((max(len(w) for _, w in cells), n), np.uint32)
            for positions, w in cells:
                words[:len(w), positions] = w
        # word rows that are NUL in every cell (unused integer or fraction
        # chunks) are dropped before the copy
        used = words.any(axis=1)
        columns_words.append(words if used.all() else words[used])
    out = np.empty((n, sum(len(w) + 1 for w in columns_words) + tail_width), np.uint32)
    at = 0
    for words in columns_words:
        out[:, at:at + len(words)] = words.T
        out[:, at + len(words)] = _COMMA
        at += len(words) + 1
    if not tail_width:
        out[:, -1:] = _NEWLINE
    return out


def _typed_cells(column: Sequence, index: int) -> list[tuple[slice | list[int], np.ndarray]]:
    """Column ``index`` as (positions, values) groups of one type each:
    float64, int64 or uint64 numbers, or the bytes of text.  A numpy
    column is one group; a column of mixed cells is split by type, so that
    every float goes through :func:`_float_words`."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        if column.dtype.kind == "f":
            return [(slice(None), column.astype(np.float64, copy=False))]
        if column.dtype.kind == "b":
            return [(slice(None), np.where(column, b"true", b"false"))]
        if column.dtype != np.uint64:
            column = column.astype(np.int64, copy=False)
        return [(slice(None), column)]
    groups: dict[type, tuple[list[int], list]] = {}
    for i, v in enumerate(column):
        if isinstance(v, str):
            if "\0" in v:
                raise ValueError(f"CSV column {index} holds a NUL character: {v!r}")
            key, v = bytes, v.encode()
        elif isinstance(v, (bool, np.bool_)):
            key, v = bytes, b"true" if v else b"false"
        elif isinstance(v, (int, np.integer)):
            v = int(v)
            key, v = (int, v) if -(2**63) <= v < 2**63 else (bytes, b"%d" % v)
        else:
            key, v = float, float(v)
        positions, values = groups.setdefault(key, ([], []))
        positions.append(i)
        values.append(v)
    dtypes = {float: np.float64, int: np.int64, bytes: np.bytes_}
    return [(positions, np.array(values, dtype=dtypes[key]))
            for key, (positions, values) in groups.items()]


def _text_words(data: np.ndarray) -> np.ndarray:
    """(w, n) words of a bytes (``S``) array, NUL-padded."""
    w = max(1, -(-data.dtype.itemsize // 4))
    return np.ascontiguousarray(data, dtype=f"S{4 * w}").view(np.uint32).reshape(len(data), w).T


def _digit_words() -> np.ndarray:
    """The word table: three 10**4-entry tables of 4-byte ASCII words, one
    after another, then the words ``-``, ``.`` and ``0.``.  The tables hold
    the four digits of 0..9999 with trailing zeros as NUL (0 is all NUL),
    with leading zeros as NUL (0 keeps its last digit), and in full."""
    v = np.arange(10_000, dtype=np.int32)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int32)
    digits = (v // place % 10 + ord("0")).astype(np.uint8)
    leading = digits * ((v >= place) | (place == 1))
    trailing = digits * (v % (10 * place) != 0)
    signs = np.array([[ord("-"), 0, 0, 0], [ord("."), 0, 0, 0], [ord("0"), ord("."), 0, 0]],
                     np.uint8)
    return np.concatenate([trailing, leading, digits, signs]).view(np.uint32).ravel()


_WORDS = _digit_words()
#: Offsets of the three digit tables in ``_WORDS``, and the indices of
#: its NUL (the trailing table's 0), ``-``, ``.`` and ``0.`` words.
_TRAILING, _LEADING, _FULL = 0, 10_000, 20_000
_NUL, _MINUS, _POINT, _ZERO_POINT = _TRAILING, 30_000, 30_001, 30_002
_COMMA, _NEWLINE = np.frombuffer(b",\0\0\0\n\0\0\0", np.uint32)
#: The full table as (10**4, 4) ASCII digits: row v is v with leading zeros.
_FULL_DIGITS = _WORDS[_FULL:_FULL + 10_000].view(np.uint8).reshape(10_000, 4)
#: The words of the text ``0``: a ``0`` and five NULs.
_ZERO_WORDS = _WORDS[[_LEADING] + [_NUL] * 5][:, None]
#: 10**k as doubles; exact for k <= 22.
_POW10F = np.array([float(10**k) for k in range(23)])
#: 10**(e mod 4), the shift of a significand into its 20-digit frame.
_FRAME_SHIFT = np.array([1, 10, 100, 1000], dtype=np.int64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into 26-bit halves, ``a = hi + lo``."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10F_HI, _POW10F_LO = _split(_POW10F)


def _significand(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``a * 10**(16 - e)`` rounded half to even, as int64, for doubles
    1e-4 <= ``a`` < 1e16 and ``e`` = floor(log10 a) give or take one.

    The product is the exact sum ``hi + lo`` (Dekker's two-product, which
    needs no fused multiply-add).  Where it is 10**16 or more, ``hi`` is a
    double of 10**16 > 2**53 or more and so an even integer, and ``hi +
    rint(lo)`` is the product rounded half to even.

    The result lies in [10**16, 10**17) exactly when the product does,
    that is when ``e`` is right.  Rounding to doubles is monotone and both
    ends are doubles, so only a product just below an end could round onto
    it.  But the largest double below each 10**m, m = -4..16, lies at
    least 8.3e-17 of it under it, so such a product lies at least 0.83
    under 10**16 (``lo`` <= -0.83, and ``rint`` takes the result below
    10**16), or 8.3 under 10**17, where doubles are 16 apart (``hi`` is
    10**17 - 16 at most).
    """
    k = 16 - e
    hi = a * _POW10F.take(k)
    ah, al = _split(a)
    bh, bl = _POW10F_HI.take(k), _POW10F_LO.take(k)
    # lo = ((ah*bh - hi) + al*bh + ah*bl) + al*bl, in place
    lo = ah * bh
    lo -= hi
    bh *= al
    lo += bh
    ah *= bl
    lo += ah
    al *= bl
    lo += al
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return d


def _float_words(x: np.ndarray) -> np.ndarray:
    """(w, n) words of doubles as ``'%.17g' % v`` text.

    For 1e-4 <= |v| < 1e16, ``%.17g`` prints the 17-digit significand D
    of v, |v| * 10**(16 - e) rounded half to even, e = floor(log10|v|), in
    fixed notation with trailing zeros stripped (:func:`_significand`;
    ``log10`` in single precision may be one off, and such values are
    scaled again).  Their words come from :func:`_frame_words`; a sign
    word is added when one of them is negative.  Values of one count of
    integer chunks are laid out together, the most frequent count over
    the whole column and each other count over its own cells.  Zeros, and
    every value printed otherwise (nan, inf, tiny, huge, formatted on its
    own by ``%.17g``), are laid out as some other value and then written
    over.
    """
    n = len(x)
    a = np.abs(x)
    outside = ~((a >= 1e-4) & (a < 1e16))  # zeros, nan, inf, tiny, huge
    odd = np.flatnonzero(outside)
    # their words are written over: they take the first other value's
    # place, so as not to add a count
    a[odd] = a[np.argmin(outside)] if len(odd) < n else 1.0
    e = np.log10(a.astype(np.float32))
    e = np.floor(e, out=e).astype(np.int64)
    d = _significand(a, e)
    # a frame outside [1e16, 1e17) means e was one off next to a power of ten
    wrong = np.flatnonzero((d - 10**16).view(np.uint64) >= 9 * 10**16)
    if len(wrong):
        e[wrong] += np.sign(d[wrong] - 10**16)
        d[wrong] = _significand(a[wrong], e[wrong])

    zero = odd[x[odd] == 0]
    other = odd[x[odd] != 0]
    signed = np.signbit(x)
    signed[other] = False
    sign = int(signed.any())
    index = np.empty((6 + sign, n), np.intp)
    if sign:
        np.multiply(signed, _MINUS, out=index[0])  # NUL is word 0
    layout = index[sign:]
    first, last = (e.min() >> 2, e.max() >> 2) if n else (0, 0)
    if first == last:
        _frame_words(d, e, int(first) + 1, layout)
    else:
        count = (e >> 2) + 1
        sizes = np.bincount(count)
        main = int(sizes.argmax())
        _frame_words(d, e, main, layout)
        for c in np.flatnonzero(sizes).tolist():
            if c != main:
                at = np.flatnonzero(count == c)
                part = np.empty((6, len(at)), np.intp)
                _frame_words(d[at], e[at], c, part)
                layout[:, at] = part
    words = _WORDS.take(index)
    if len(zero):
        words[sign:, zero] = _ZERO_WORDS
    if len(other):
        # six words hold any %.17g text (24 bytes at most)
        words[:, other] = _printf_words(x[other], len(words))
    return words


def _frame_words(d: np.ndarray, e: np.ndarray, count: int, out: np.ndarray) -> None:
    """Fill the six rows of ``out`` with the word indices of significands
    ``d`` of exponents ``e`` whose integer parts have ``count`` = floor(e/4)
    + 1 base-10**4 chunks.

    The 20-digit frame D * 10**(e mod 4) < 10**20 is cut into five chunks
    by scalar divisors, as two int64 limbs split at 10**8.  Chunk i is
    worth 10**(4 * (count - 1 - i)), so the first ``count`` chunks are the
    integer part and the rest the fraction.  Row ``count`` holds the
    point, or ``0.`` for a count of 0, and the chunks fill the other rows
    in order: the first without its leading zeros, the later integer ones
    in full, and each fraction chunk in full while a chunk after it is
    nonzero, else without its trailing zeros.  The point is NUL when the
    fraction is zero.
    """
    shift = _FRAME_SHIFT.take(e & 3)
    high = d // 10**8
    low = d - high * 10**8
    low *= shift
    carry = low // 10**8
    low -= carry * 10**8
    high *= shift
    high += carry
    rows = [i + (i >= count) for i in range(5)]
    np.floor_divide(high, 10**8, out=out[rows[0]])
    mid = high - out[rows[0]] * 10**8
    np.floor_divide(mid, 10**4, out=out[rows[1]])
    np.subtract(mid, out[rows[1]] * 10**4, out=out[rows[2]])
    np.floor_divide(low, 10**4, out=out[rows[3]])
    np.subtract(low, out[rows[3]] * 10**4, out=out[rows[4]])
    # a chunk after chunk i is nonzero where after[i] is (all are >= 0;
    # chunk 4's row is not changed below)
    after = [mid | low, out[rows[2]] | low, low, out[rows[4]]]
    if count:
        out[0] += _LEADING
        out[1:count] += _FULL
        np.multiply(np.sign(after[count - 1]), _POINT, out=out[count])
    else:
        out[0] = _ZERO_POINT
    for i in range(count, 4):
        full = np.sign(after[i])
        full *= _FULL
        out[rows[i]] += full


def _printf_words(x: np.ndarray, w: int) -> np.ndarray:
    """(w, n) words of doubles as ``'%.17g' % v`` text, formatted one
    value at a time."""
    return _text_words(np.array([b"%.17g" % v for v in x.tolist()], dtype=f"S{4 * w}"))


def _int_words(v: np.ndarray) -> np.ndarray:
    """(w, n) words of int64 or uint64 integers as ``'%d' % v`` text, with
    a sign row only when a value is negative."""
    negative = v.dtype == np.int64 and v.min(initial=0) < 0
    if negative:
        minus = v < 0
        bits = v.view(np.uint64)
        v = np.where(minus, ~bits + np.uint64(1), bits)  # |v|, int64's minimum too
    index = np.empty((_chunk_count(v) + negative, len(v)), np.intp)
    if negative:
        np.multiply(minus, _MINUS, out=index[0])  # NUL is word 0
    _magnitude_index(v, index[int(negative):])
    return _WORDS.take(index)


def _chunk_count(m: np.ndarray) -> int:
    """Base-10**4 digits of the largest of the non-negative integers ``m``."""
    return (len(str(m.max(initial=0))) + 3) // 4


def _chunks(m: np.ndarray, out: np.ndarray) -> None:
    """Fill the c rows of ``out`` with the base-10**4 digits of the
    non-negative integers ``m`` < 10**(4c), most significant first."""
    for j in range(len(out) - 1, 0, -1):
        q = m // 10_000
        out[j] = m - q * 10_000
        m = q
    out[0] = m


def _magnitude_index(m: np.ndarray, out: np.ndarray) -> None:
    """Fill the c rows of ``out`` with the word indices of non-negative
    integers ``m`` < 10**(4c), without leading zeros; 0 is ``0``.

    A chunk takes its word from the trailing table before the value's
    first digit (the chunk is 0, so the word is NUL), from the leading
    table at the chunk that holds it, and from the full table after; the
    last chunk holds a digit even of 0.  The three tables start at 0,
    ``_LEADING`` and 2 ``_LEADING``, so a chunk's offset is ``_LEADING``
    times the number of its "digits started" flags that are set, one
    before the chunk and one at it, and the flags run along the chunks.
    """
    _chunks(m, out)
    before = np.zeros(len(m), np.intp)
    for row in out[:-1]:
        now = before | (row != 0)
        row += (before + now) * _LEADING
        before = now
    out[-1] += (before + 1) * _LEADING


#: The formatter of each kind of cell values.
_FORMATTERS = {"f": _float_words, "i": _int_words, "u": _int_words, "S": _text_words}


def wrap_periodic(values: np.ndarray, period: float) -> np.ndarray:
    """``np.mod(values, period)`` of float64 values, bit for bit, for a
    finite ``period`` > 0; a single shift by +period, 0 or -period when
    every value lies in [-period, 2 period), else ``np.mod`` itself.

    In that range numpy's remainder is fmod, which is exact, and then one
    addition of the period to a negative remainder: v + period for v < 0,
    v - period (exact) for v >= period, and v otherwise, with -0.0 and
    -period giving +0.0.  So v + shift is the same float, including a tiny
    negative v for which both round v + period up to the period itself.
    """
    values = np.asarray(values, dtype=np.float64)
    if not (values.size and 0.0 < period < np.inf):
        return np.mod(values, period)
    lo, hi = values.min(), values.max()
    if not (lo >= -period and hi < 2.0 * period):  # NaN falls back too
        return np.mod(values, period)
    shift = (values < 0.0).astype(np.float64)
    shift *= period
    if hi >= period:
        shift -= (values >= period) * period
    # 0.0 added to -0.0 gives +0.0
    shift += values
    return shift


def round_sig(x: float, digits: int) -> float:
    """Round to ``digits`` significant figures (half away from zero)."""
    if x == 0 or not math.isfinite(x):
        return x
    exponent = math.floor(math.log10(abs(x)))
    scale = 10.0 ** (exponent - digits + 1)
    return math.copysign(math.floor(abs(x) / scale + 0.5) * scale, x)


def sig_figure_ulp(x: float, digits: int) -> float:
    """One unit in the last of ``digits`` significant figures of ``x``."""
    if x == 0:
        return 10.0 ** (1 - digits)
    return 10.0 ** (math.floor(math.log10(abs(x))) - digits + 1)


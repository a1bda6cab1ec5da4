"""File formats: deterministic JSON emission and the shared CSV table codec.

Outputs that participate in byte-identity checks format every float with 17
significant digits, enough to round-trip an IEEE double, independent of the
interpreter's repr heuristics.

Every CSV table is a table of floats under a header row of plain names, in
the ``csv`` module's default dialect (CRLF rows).  Readers check the leading
header names, ignore extra trailing columns and blank rows, and reject a row
with fewer fields than the header and a field that is not a finite number.
The codec handles a table in blocks of rows, not row by row, and holds no
Python object per row.  The writer produces the bytes of ``csv.writer``:
it converts every column to floats before the file is opened, then formats
``_BLOCK_ROWS`` rows at a time into one slot array and writes each block
before formatting the next.  The reader hands numpy's tokenizer
(``np.loadtxt``) a stream of the file's bytes, producing the values of
``csv.reader`` and ``float``; the tables numpy refuses or may read
differently go through ``csv.reader``, the one reader that decodes the
whole text.

The writer formats floats with array arithmetic, byte for byte as
``'%.17g' %`` does: 17 significant digits, rounded half to even from the
exact binary value, in fixed notation for decimal exponents -4 to 16 and
as ``d.ddde+XX`` otherwise, trailing zeros stripped.  In the exact band
1e-6 <= |x| < 1e17, |x| 10**k with 10**k exact (k <= 22) lands in
[1e16, 1e17); Dekker's two-product gives that product exactly, so the
digits and the exponent are decided without error.  Zeros are written as
``0`` and ``-0``; every other value (outside the band, nan, inf) goes
through ``%`` one at a time.  A whole number below 1e17 is written as its
integer digits.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import locale
import math
import re

import numpy as np

from .errors import InvalidArgumentError

# The bytes of the characters numpy's tokenizer may read otherwise than
# csv.reader and float: a quote, a NUL, and the separators \x1c-\x1f, which
# numpy strips as whitespace and float does not.
_CSV_READER_ONLY = b'"\0\x1c\x1d\x1e\x1f'

# A formatted float is written into a slot of six uint64 words, NUL where it
# writes no byte: byte 0 the sign, 1-5 the "0.000" before the digits of fixed
# notation below 1, 6 + 2i digit i and 7 + 2i the point after it (i = 0-16),
# 40-43 the exponent "e+XX" and 44-45 the field's separator.
_SLOT_WORDS = 6
_E_MIN, _E_MAX = -6, 17  # the decimal exponents of the exact band
# rows formatted at a time: numpy's per-call cost is spread over many
# values, and the block's arrays stay a few hundred kB
_BLOCK_ROWS = 8192
# bytes of a table the reader's line-length check scans at a time
_SCAN_BYTES = 1 << 16
# a byte of a data row: anything but a line end
_ROW_BYTE = re.compile(rb"[^\r\n]")
# Veltkamp's splitter for doubles, and 10**k (exact for k <= 22) split into
# two halves of 26 bits
_SPLITTER = 2.0**27 + 1
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidArgumentError(f"cannot serialize non-finite value {x}")
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"  # "-0" would read back as the integer 0
    return f"{x:.17g}"


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise InvalidArgumentError("JSON object keys must be strings")
            out.append(f"{pad}  {json.dumps(key, ensure_ascii=False)}: ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    else:
        raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    out: list = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def dump_json(obj, fh) -> None:
    fh.write(dumps_json(obj))


def write_json(path, obj) -> None:
    """Write ``obj`` to a new file at ``path`` in the deterministic layout.
    The text is built before the file is opened, so an object that cannot
    be written (a nan, say) raises and leaves no file behind.  It goes
    through ``dump_json``, the JSON layer that ``perfbench`` traces."""
    text = io.StringIO()
    dump_json(obj, text)
    with open(path, "w") as fh:
        fh.write(text.getvalue())


def load_json(path) -> dict:
    """Read a file holding one JSON object."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _check_object(obj, accepted, name: str) -> dict:
    """``obj`` if it is a JSON object with no key outside ``accepted``;
    otherwise ValueError naming the object ``name``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name}: expected an object, got {obj!r}")
    unknown = set(obj) - set(accepted)
    if unknown:
        raise ValueError(f"{name}: unknown keys {sorted(unknown)}")
    return obj


def _finite_float(value, name: str) -> float:
    """A JSON value as a finite float (``float`` also parses numeric text,
    but a JSON true or false is not a number); otherwise ValueError naming
    the field ``name``."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    return number


def _usage_error(name: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose InvalidArgumentError (an input
    value that breaks the checks of what it builds) becomes a ValueError
    naming ``name``: a usage error, not a numerical failure."""
    try:
        return build(*args, **kwargs)
    except InvalidArgumentError as exc:
        raise ValueError(f"{name}: {exc}") from None


def write_csv_table(path, header, columns) -> None:
    """Write equal-length ``columns``, as floats with 17 significant digits,
    under ``header``, a row of plain names.

    The bytes are those of ``csv.writer`` in its default dialect.  Every
    column is converted to floats, and columns of unequal lengths raise
    InvalidArgumentError, before the file is opened.  Then ``_float_slots``
    formats ``_BLOCK_ROWS`` rows at a time into one slot array, and each
    block is written before the next is formatted.
    """
    arrays = [np.asarray(values, dtype=float) for values in columns]
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        raise InvalidArgumentError(f"columns must have equal lengths, got {lengths}")
    rows = lengths[0] if lengths else 0
    separators = [b","] * (len(arrays) - 1) + [b"\r\n"]
    block = np.empty((min(rows, _BLOCK_ROWS), _SLOT_WORDS * len(arrays)), dtype=np.uint64)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode(_encoding()))
        for start in range(0, rows, _BLOCK_ROWS):
            slots = block[: min(rows - start, _BLOCK_ROWS)]
            for j, (a, sep) in enumerate(zip(arrays, separators)):
                column = slots[:, _SLOT_WORDS * j : _SLOT_WORDS * (j + 1)]
                _float_slots(a[start : start + len(slots)], sep, column)
            fh.write(slots.tobytes().translate(None, b"\0"))


def _float_slots(values, separator: bytes, slots: np.ndarray) -> None:
    """Write into ``slots``, a ``(n, _SLOT_WORDS)`` uint64 array, the slots
    of ``'%.17g' % x`` for each value, each followed by ``separator``.

    A value with 1e-6 <= |x| < 1e17 is scaled to v = |x| 10**k in
    [1e16, 1e17) with 0 <= k <= 22, where 10**k is exact and so is Dekker's
    two-product v = p + err.  p is then an even integer and ``rint(err)``
    rounds half to even, so N = p + rint(err) holds the 17 digits that
    ``%`` writes and 16 - k is their decimal exponent.  Zeros take N = 0;
    every other value (outside that band, nan or inf) goes through ``%``.
    """
    x = np.asarray(values, dtype=np.float64)
    ax = np.abs(x)
    band = (ax >= 1e-6) & (ax < 1e17)
    a = np.where(band, ax, 1.0)
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    # log10 may miss the decade by one next to a power of ten: each pass
    # moves k by one decade towards v in [1e16, 1e17)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    for _ in range(3):
        kc = np.minimum(np.maximum(k, 0), 22)
        b_hi, b_lo = _POW10_HI[kc], _POW10_LO[kc]
        p = a * _POW10[kc]
        err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        # the sign of v - 1e16 and v - 1e17: p - 1e16 is exact near 1e16
        step = ((p - 1e16) + err < 0).astype(np.intp) - ((p - 1e17) + err >= 0)
        if not step.any():
            break
        k = kc + step
    ok = band & (step == 0)
    n = np.where(ok, p.astype(np.int64) + np.rint(err).astype(np.int64), 0)
    exponent = 16 - kc
    carry = n == 10**17
    if carry.any():
        n[carry] = 10**16
        exponent += carry

    high = n // 10**8
    low = n - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    g1, g3 = high // 10**4, low // 10**4
    g2, g4 = high - g1 * 10**4, low - g3 * 10**4
    digit_words, lead_words, zeros = _digit_tables()
    trailing = np.where(
        low != 0,
        np.where(g4 != 0, zeros[g4], zeros[g3] + 4),
        np.where(g2 != 0, zeros[g2], zeros[g1] + 4) + 8,
    )
    templates = _slot_templates().copy()
    templates[:, -1] |= np.frombuffer((b"\0" * 4 + separator).ljust(8, b"\0"), dtype=np.uint64)[0]
    np.take(templates, exponent * 17 - trailing + (16 - 17 * _E_MIN), axis=0, out=slots)
    slots[:, 0] &= lead_words[lead + 10 * np.signbit(x)]
    for j, g in enumerate((g1, g2, g3, g4), start=1):
        slots[:, j] &= digit_words[g]
    other = np.flatnonzero(~ok & (ax != 0))
    if other.size:
        # at most 24 bytes, and the separator at byte 44
        text = [(b"%.17g" % v).ljust(44, b"\0") + separator for v in x[other].tolist()]
        text = np.array(text, dtype=f"S{8 * _SLOT_WORDS}")
        slots[other] = text.view(np.uint64).reshape(-1, _SLOT_WORDS)


# The tables are built on first use: a process that writes no CSV does not
# load the numpy code that builds them.
@functools.cache
def _slot_templates() -> np.ndarray:
    """The slot of each decimal exponent E in [_E_MIN, _E_MAX] and count nd
    of significant digits in 1-17, at row 17 (E - _E_MIN) + nd - 1: its
    fixed characters, 0xFF where a digit is written and NUL elsewhere.

    Fixed notation, for -4 <= E < 17, writes the integer digits and the
    significant ones; exponent notation writes the significant ones, with a
    point after the first when there are more.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    nd = np.arange(1, 18)[None, :, None]
    fixed = (-4 <= e) & (e < 17)
    slots = np.zeros((e.size, nd.size, 8 * _SLOT_WORDS), dtype=np.uint8)
    slots[..., 0] = 0xFF
    # "0." and -E - 1 zeros before the digits of a number below 1
    below = fixed & (e < np.array([0, 0, -1, -2, -3]))
    slots[..., 1:6] = np.where(below, np.frombuffer(b"0.000", dtype=np.uint8), 0)
    i = np.arange(17)
    slots[..., 6:39:2] = np.where((i < nd) | (fixed & (i <= e)), 0xFF, 0)
    point = np.where(fixed, e, 0)
    slots[..., 7:39:2] = np.where((i[:16] == point) & (nd > point + 1), ord("."), 0)
    exponents = b"".join(b"e%+03d" % v for v in range(_E_MIN, _E_MAX + 1))
    exponents = np.frombuffer(exponents, dtype=np.uint8).reshape(-1, 1, 4)
    slots[..., 40:44] = np.where(fixed, 0, exponents)
    return _frozen(_words(slots).reshape(-1, _SLOT_WORDS))


def _words(data) -> np.ndarray:
    """uint8 ``data`` of whole words as uint64 words, in memory order."""
    return np.ascontiguousarray(data, dtype=np.uint8).view(np.uint64).ravel()


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words that fill a slot's digits, and the trailing zeros of each
    group of four digits (4 for 0).

    Digits 1-16 are four groups of four, one word each: the ASCII digits of
    the group's value 0-9999 at the even bytes, 0xFF at the odd ones.  The
    first word holds the sign and digit 0 (0xFF elsewhere), for 0 to 9 and
    then -0 to -9.
    """
    d = np.arange(100)
    groups = np.full((100, 100, 8), 0xFF, dtype=np.uint8)  # [first two, last two]
    for i, digit in enumerate((d[:, None] // 10, d[:, None] % 10, d // 10, d % 10)):
        groups[..., 2 * i] = ord("0") + digit
    lead = np.full((20, 8), 0xFF, dtype=np.uint8)
    lead[:, 0] = np.repeat([0, ord("-")], 10)
    lead[:, 6] = ord("0") + np.arange(20) % 10
    pair_zeros = (d % 10 == 0).astype(np.uint8) + (d == 0)  # 2 for 00
    zeros = np.where(d != 0, pair_zeros, pair_zeros[:, None] + 2).ravel()
    return _frozen(_words(groups)), _frozen(_words(lead)), _frozen(zeros)


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, read-only: every caller shares it."""
    table.flags.writeable = False
    return table


def read_csv_table(path, header) -> list[np.ndarray]:
    """Read the columns named by ``header`` as float arrays.

    A bad header raises ValueError naming the file; a short or unparseable
    row, one ``csv.reader`` rejects, or a byte the locale encoding cannot
    decode raises ValueError naming the file and line; a nan or inf field
    raises ValueError naming the file, the line and the column of the
    first one.
    """
    width = len(header)
    data = _read_bytes(path)
    names, columns = _float_table(data, width) or _csv_table(path, _text(data), width)
    if names is None or [h.strip() for h in names[:width]] != list(header):
        raise ValueError(f"{path}: expected header '{','.join(header)}'")
    if columns is None:
        raise _bad_row_error(path, _text(data), width)
    finite = np.logical_and.reduce([np.isfinite(a) for a in columns])
    if not finite.all():
        row = int(np.argmin(finite))
        name, value = next((h, a[row]) for h, a in zip(header, columns) if not np.isfinite(a[row]))
        where = _data_row_location(path, _text(data), row)
        raise ValueError(f"{where}: {name} must be finite, got {value}")
    return columns


def _data_row_location(path, text: str, row: int) -> str:
    """``path, line N`` of data row ``row`` (0-based, blank rows skipped)
    of ``path``'s ``text``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for k, _ in enumerate(filter(None, reader)):
        if k == row:
            break
    return f"{path}, line {reader.line_num}"


def _encoding() -> str:
    """The locale encoding: the one ``open`` reads and writes text with."""
    return locale.getpreferredencoding(False)


def _text(data: bytes) -> str:
    """A file's bytes as text, line ends as they are."""
    return data.decode(_encoding())


def _read_bytes(path) -> bytes:
    """The bytes of ``path``: the one place the CSV readers open a file.  A
    byte the locale encoding cannot decode raises ValueError naming the
    file and the line of the first; the text itself is made only where a
    reader needs it, for ``csv.reader`` or an error's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        _text(data)  # decoded here only to find an undecodable byte
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n?|\n", data[: exc.start])) + 1
        raise ValueError(f"{path}, line {line}: {exc}") from None
    return data


def _float_table(data: bytes, width: int):
    """The header fields and the first ``width`` columns of a file's bytes
    ``data`` as float arrays, parsed by ``np.loadtxt``; None where
    ``csv.reader`` and ``float`` may read the text differently or numpy
    refuses it: a character of ``_CSV_READER_ONLY``, a lone CR line end, a
    line longer than the field size limit, or a field numpy cannot parse (a
    short row, underscores or non-ASCII digits among them).  Blank rows are
    skipped.

    numpy reads a stream of the bytes line by line, split at LF, decoding
    each line, with no list of the lines: it skips a blank line, ``""`` or
    the ``"\r\n"`` of a CRLF file, and ends a row's last field at its CR,
    as ``csv.reader`` and ``float`` read them.  The checks scan the bytes,
    in which the locale encoding writes the ASCII characters they look for
    as single bytes; a line has no fewer bytes than characters, so the
    length check can only send a table to ``csv.reader``, which reads the
    same values."""
    if any(c in data for c in _CSV_READER_ONLY) or data.count(b"\r") != data.count(b"\r\n"):
        return None
    limit = csv.field_size_limit()
    if len(data) > limit and _longest_line(data) > limit:  # no line is longer than the file
        return None
    header_end = data.find(b"\n")
    try:
        # no data row: no call, which would warn that the input holds no data
        table = (
            np.loadtxt(
                io.BytesIO(data), delimiter=",", comments=None, skiprows=1,
                usecols=range(width), ndmin=2, encoding=_encoding(),
            )
            if header_end >= 0 and _ROW_BYTE.search(data, header_end + 1)
            else np.empty((0, width))
        )
    except ValueError:
        return None
    names = _text(data[: header_end if header_end >= 0 else len(data)])
    return names.split(","), list(table.T.copy())


def _longest_line(data: bytes) -> int:
    """The length in bytes of the longest LF-separated line of ``data``,
    scanned ``_SCAN_BYTES`` at a time."""
    view = np.frombuffer(data, dtype=np.uint8)
    longest, last = 0, -1  # last: the position of the previous LF
    for start in range(0, view.size, _SCAN_BYTES):
        ends = np.flatnonzero(view[start : start + _SCAN_BYTES] == ord("\n")) + start
        if ends.size:
            longest = max(longest, int(np.diff(ends, prepend=last).max()) - 1)
            last = int(ends[-1])
    return max(longest, view.size - last - 1)


def _csv_table(path, text: str, width: int):
    """The header fields and the first ``width`` columns of ``path``'s
    ``text`` as float arrays, through ``csv.reader`` and ``float``, for any
    file; the columns are None when a row has fewer than ``width`` fields or
    a field ``float`` cannot parse.  Blank rows are skipped; a row the reader
    rejects raises ValueError naming the file and line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        names = next(reader, None)
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    try:
        return names, [np.array([float(row[i]) for row in rows], dtype=float) for i in range(width)]
    except (IndexError, ValueError):
        return names, None


def _bad_row_error(path, text: str, width: int) -> ValueError:
    """The error for the first short or unparseable data row of ``path``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for row in filter(None, reader):
        where = f"{path}, line {reader.line_num}"
        if len(row) < width:
            return ValueError(f"{where}: expected {width} fields, got {len(row)}")
        try:
            for field in row[:width]:
                float(field)
        except ValueError as exc:
            return ValueError(f"{where}: {exc}")
    return ValueError(f"{path}: malformed data row")

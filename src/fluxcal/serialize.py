"""File formats: deterministic JSON emission and the shared CSV table codec.

Outputs that participate in byte-identity checks format every float with 17
significant digits, enough to round-trip an IEEE double, independent of the
interpreter's repr heuristics.

CSV tables use the ``csv`` module's default dialect (CRLF rows).  Readers
check the leading header names, ignore extra trailing columns and blank rows,
and reject a row with fewer fields than the header.  The codec handles a
table whole, not row by row: the writer formats it with one ``%`` operation,
producing the bytes of ``csv.writer``, and the reader parses a table of
floats with numpy's tokenizer (``np.loadtxt``), producing the values of
``csv.reader`` and ``float``.  Tables with a text column, and the tables
numpy refuses or may read differently, go through ``csv.reader``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import chain

import numpy as np

from .errors import InvalidArgumentError

_NEEDS_QUOTES = re.compile('[,"\r\n]')
# Characters numpy's tokenizer may read otherwise than csv.reader and float: a
# quote, a NUL, and the separators \x1c-\x1f, which numpy strips as
# whitespace and float does not.
_CSV_READER_ONLY = '"\0\x1c\x1d\x1e\x1f'


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidArgumentError(f"cannot serialize non-finite value {x}")
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
    """Write equal-length ``columns`` under ``header``: floats with 17
    significant digits, integers and text with ``str``.

    The bytes are those of ``csv.writer`` in its default dialect; the table
    is formatted by one ``%`` operation over a per-column row template.
    """
    arrays = [np.asarray(values) for values in columns]
    alone = len(arrays) == 1
    formats, cells = [], []
    for a in arrays:
        formats.append("%.17g" if a.dtype.kind == "f" else "%s")
        # str() of a bool or an integer never needs quoting
        cells.append(a.tolist() if a.dtype.kind in "fbiu" else _text_cells(a.tolist(), alone))
    row = ",".join(formats) + "\r\n"
    rows = min(map(len, cells), default=0)
    body = (row * rows) % tuple(chain.from_iterable(zip(*cells)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_text_cells(header, len(header) == 1)) + "\r\n" + body)


def _text_cells(values, alone: bool) -> list[str]:
    """``str`` of each value, quoted as ``csv.writer`` quotes it: in double
    quotes, with quotes doubled, when it holds a comma, a quote or a line
    break, and as ``""`` when it is empty and the only field of its row."""
    empty = '""' if alone else ""
    return [
        ('"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text) or empty
        for text in map(str, values)
    ]


def read_csv_table(path, header, converters=None) -> list:
    """Read the columns named by ``header``, each field parsed by its
    column's converter (``float`` by default): one float array per column
    when numpy's tokenizer parsed the table (every converter ``float``),
    otherwise one list per column.

    A bad header raises ValueError naming the file; a short or unparseable
    row, one ``csv.reader`` rejects, or a byte the locale encoding cannot
    decode raises ValueError naming the file and line.
    """
    converters = converters or (float,) * len(header)
    text = _read_text(path)
    table = _float_table(text, len(converters)) if set(converters) == {float} else None
    names, columns = table or _csv_table(path, text, len(converters))
    if names is None or [h.strip() for h in names[: len(header)]] != list(header):
        raise ValueError(f"{path}: expected header '{','.join(header)}'")
    if table is not None:
        return columns
    if columns is not None:
        try:
            return [list(map(convert, column)) for convert, column in zip(converters, columns)]
        except ValueError:
            pass
    raise _bad_row_error(path, text, converters)


def _finite_columns(path, header, columns) -> list[np.ndarray]:
    """``columns`` as read by ``read_csv_table``, as float arrays.  A nan or
    inf field raises ValueError naming the file, the line and the column of
    the first one; the check runs on the whole arrays."""
    arrays = [np.asarray(column, dtype=float) for column in columns]
    finite = np.logical_and.reduce([np.isfinite(a) for a in arrays])
    if not finite.all():
        row = int(np.argmin(finite))
        name, value = next((h, a[row]) for h, a in zip(header, arrays) if not np.isfinite(a[row]))
        raise ValueError(f"{_data_row_location(path, row)}: {name} must be finite, got {value}")
    return arrays


def _data_row_location(path, row: int) -> str:
    """``path, line N`` of data row ``row`` (0-based, blank rows skipped)."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    next(reader)
    for k, _ in enumerate(filter(None, reader)):
        if k == row:
            break
    return f"{path}, line {reader.line_num}"


def _read_text(path) -> str:
    """The text of ``path``, line ends as they are: the one place the CSV
    readers open a file.  A byte the locale encoding cannot decode raises
    ValueError naming the file and the line of the first."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call: exc.object is all of it
        line = len(re.findall(rb"\r\n?|\n", exc.object[: exc.start])) + 1
        raise ValueError(f"{path}, line {line}: {exc}") from None


def _float_table(text: str, width: int):
    """The header fields and the first ``width`` columns of a file's
    ``text`` as float arrays, parsed by ``np.loadtxt``; None where
    ``csv.reader`` and ``float`` may read the text differently or numpy
    refuses it: a character of ``_CSV_READER_ONLY``, a lone CR line end, a
    line longer than the field size limit, or a field numpy cannot parse (a
    short row, underscores or non-ASCII digits among them).  Blank rows are
    skipped."""
    if any(c in text for c in _CSV_READER_ONLY) or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = list(filter(None, lines[1:]))
    try:
        # no rows: no call, which would warn that the input holds no data
        table = (
            np.loadtxt(rows, delimiter=",", comments=None, usecols=range(width), ndmin=2)
            if rows
            else np.empty((0, width))
        )
    except ValueError:
        return None
    return lines[0].split(","), list(table.T.copy())


def _csv_table(path, text: str, width: int):
    """The header fields and the first ``width`` columns of ``path``'s
    ``text`` as strings, through ``csv.reader``, for any file; the columns
    are None when a row has fewer than ``width`` fields.  Blank rows are
    skipped; a row the reader rejects raises ValueError naming the file and
    line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        names = next(reader, None)
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if min(map(len, rows), default=width) < width:
        return names, None
    return names, [[row[i] for row in rows] for i in range(width)]


def _bad_row_error(path, text: str, converters) -> ValueError:
    """The error for the first short or unparseable data row of ``path``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for row in filter(None, reader):
        where = f"{path}, line {reader.line_num}"
        if len(row) < len(converters):
            return ValueError(f"{where}: expected {len(converters)} fields, got {len(row)}")
        try:
            for convert, field in zip(converters, row):
                convert(field)
        except ValueError as exc:
            return ValueError(f"{where}: {exc}")
    return ValueError(f"{path}: malformed data row")

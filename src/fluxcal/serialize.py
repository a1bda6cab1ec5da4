"""File formats: deterministic JSON emission and the shared CSV table codec.

Outputs that participate in byte-identity checks format every float with 17
significant digits, enough to round-trip an IEEE double, independent of the
interpreter's repr heuristics.

CSV tables use the ``csv`` module's default dialect (CRLF rows).  Readers
check the leading header names, ignore extra trailing columns and blank rows,
and reject a row with fewer fields than the header.  The codec handles a
table whole, not row by row: the writer formats it with one ``%`` operation
and the reader splits it with ``str`` methods, producing the bytes and values
of ``csv.writer`` and ``csv.reader``; the reader leaves to ``csv.reader`` the
bodies only it parses correctly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import chain, repeat

import numpy as np

from .errors import InvalidArgumentError

_NEEDS_QUOTES = re.compile('[,"\r\n]')


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
    """A JSON value as a finite float (``float`` also parses numeric text);
    otherwise ValueError naming the field ``name``."""
    try:
        number = float(value)
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


def read_csv_table(path, header, converters=None) -> list[list]:
    """Read the columns named by ``header``, one list per column, each field
    parsed by its column's converter (``float`` by default).

    A bad header raises ValueError naming the file; a short or unparseable
    row, or one ``csv.reader`` rejects, raises ValueError naming the file
    and line.
    """
    converters = converters or (float,) * len(header)
    names, columns = _split_table(path, len(converters)) or _csv_table(path, len(converters))
    if names is None or [h.strip() for h in names[: len(header)]] != list(header):
        raise ValueError(f"{path}: expected header '{','.join(header)}'")
    if columns is not None:
        try:
            return [list(map(convert, column)) for convert, column in zip(converters, columns)]
        except ValueError:
            pass
    raise _bad_row_error(path, converters)


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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for k, _ in enumerate(filter(None, reader)):
            if k == row:
                break
        return f"{path}, line {reader.line_num}"


def _split_table(path, width: int):
    """The header fields and the first ``width`` columns of ``path``, split
    with ``str`` methods; None where only ``csv.reader`` parses the file
    correctly: a quote, a NUL, a lone CR line end, a line longer than the
    field size limit, or text the locale encoding cannot decode.  Blank rows
    are skipped; the columns are None when a row has fewer than ``width``
    fields."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    names, rows = lines[0].split(","), list(filter(None, lines[1:]))
    commas = list(map(str.count, rows, repeat(",")))
    if min(commas, default=width) < width - 1:
        return names, None
    if max(commas, default=0) >= width:
        rows = [",".join(row.split(",")[:width]) for row in rows]
    fields = ",".join(rows).split(",") if rows else []
    return names, [fields[i::width] for i in range(width)]


def _csv_table(path, width: int):
    """``_split_table`` through ``csv.reader``, for any file; a row the
    reader rejects raises ValueError naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader, None)
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if min(map(len, rows), default=width) < width:
        return names, None
    return names, [[row[i] for row in rows] for i in range(width)]


def _bad_row_error(path, converters) -> ValueError:
    """The error for the first short or unparseable data row of ``path``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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

"""File formats: deterministic JSON emission and the shared CSV table codec.

Outputs that participate in byte-identity checks format every float with 17
significant digits, enough to round-trip an IEEE double, independent of the
interpreter's repr heuristics.

CSV tables use the ``csv`` module's default dialect (CRLF rows).  Readers
check the leading header names, ignore extra trailing columns and blank rows,
and reject a row with fewer fields than the header.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import InvalidArgumentError


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
            out.append(f'{pad}  "{key}": ')
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
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
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
    """Write ``obj`` to a new file at ``path`` in the deterministic layout."""
    with open(path, "w") as fh:
        dump_json(obj, fh)


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


def write_csv_table(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``: floats with 17
    significant digits, integers and text with ``str``."""
    arrays = [np.asarray(values) for values in columns]
    cells = [map("{:.17g}".format if a.dtype.kind == "f" else str, a.tolist()) for a in arrays]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def read_csv_table(path, header, converters=None) -> list[list]:
    """Read the columns named by ``header``, one list per column, each field
    parsed by its column's converter (``float`` by default).

    A bad header raises InvalidArgumentError; a short or unparseable row
    raises ValueError naming the file and line.
    """
    converters = converters or (float,) * len(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None or [h.strip() for h in names[: len(header)]] != list(header):
            raise InvalidArgumentError(f"{path}: expected header '{','.join(header)}'")
        rows = [row for row in reader if row]
    try:
        return [[convert(row[i]) for row in rows] for i, convert in enumerate(converters)]
    except (IndexError, ValueError):
        raise _bad_row_error(path, converters) from None


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

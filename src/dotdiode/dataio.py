"""CSV and report I/O shared by the library and the CLI.

Data files are comma-separated with optional metadata header lines that
begin with '#' and contain 'key = value'. A column's dtype sets its text:
integer and boolean columns are written as integers (booleans as 1/0), and
every other column as floats in one fixed format, so identical inputs
produce byte-identical files. Float metadata and report values use the
same fixed format.
"""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "{:.12e}"
CHUNK_ROWS = 256                # rows formatted per block by write_table


class DataFormatError(ValueError):
    """Raised for malformed CSV input; message carries the line number."""


def format_float(x):
    return FLOAT_FMT.format(float(x))


def _text(value):
    """A metadata or report value as written: floats in the fixed format."""
    return format_float(value) if isinstance(value, float) else value


def write_table(path, columns, names, meta=None):
    """Write equal-length named columns to CSV with '# key = value' metadata
    lines (float values as format_float writes them). Integer and boolean
    columns are written as integers, every other column as format_float
    writes each value, CHUNK_ROWS rows at a time.

    A row block shares one dtype, so an integer beyond 2**53 in magnitude
    next to a float column raises ValueError naming its column rather than
    being rounded.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    if np.result_type(*{c.dtype for c in columns}).kind == "f":
        for name, c in zip(names, columns):
            if c.dtype.kind in "iu" and np.any((c > 2**53) | (c < -2**53)):
                raise ValueError(f"column {name}: integers beyond 2**53 in magnitude "
                                 "cannot be written exactly next to a float column")
    row_fmt = ",".join("%d" if c.dtype.kind in "biu" else "%.12e" for c in columns) + "\n"
    with open(path, "w") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key} = {_text(value)}\n")
        fh.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            block = np.column_stack([c[start:start + CHUNK_ROWS] for c in columns])
            fh.writelines([row_fmt % tuple(row) for row in block.tolist()])


def read_table(path):
    """Read a CSV written by write_table: (columns dict, metadata dict)."""
    meta = {}
    names = None
    rows = []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if names is None:
                names = [c.strip() for c in line.split(",")]
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(names)} fields, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: non-numeric field") from exc
    if names is None:
        raise DataFormatError(f"{path}: no header row found")
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {name: data[:, k] for k, name in enumerate(names)}, meta


def read_columns(path, required):
    """read_table, then check that every name in `required` is a column.

    A missing column raises DataFormatError naming it, so callers can index
    the returned columns by those names without a KeyError.
    """
    cols, meta = read_table(path)
    missing = [name for name in required if name not in cols]
    if missing:
        raise DataFormatError(
            f"{path}: missing column(s) {', '.join(missing)}; "
            f"found {', '.join(cols) or 'none'}")
    return cols, meta


def write_report(path, title, sections):
    """Write a fit/run report: a title plus (section, {key: value}) pairs.

    Values are written as plain 'key = value' lines so reports are easy to
    parse mechanically; floats use the fixed format.
    """
    lines = [title]
    for section, entries in sections:
        lines.append("")
        lines.append(f"[{section}]")
        lines += [f"{key} = {_text(value)}" for key, value in entries.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

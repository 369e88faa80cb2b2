"""CSV and report I/O shared by the library and the CLI.

Data files are comma-separated with optional metadata header lines that
begin with '#' and contain 'key = value'. All floats are written with a
fixed format so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "{:.12e}"


class DataFormatError(ValueError):
    """Raised for malformed CSV input; message carries the line number."""


def format_float(x):
    return FLOAT_FMT.format(float(x))


def write_table(path, columns, names, meta=None):
    """Write equal-length named columns to CSV with '# key = value' metadata
    lines, one row at a time through a single row template (the same text
    as format_float per value)."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row_fmt = ",".join(["%.12e"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(names) + "\n")
        for row in data:
            fh.write(row_fmt % tuple(row.tolist()))


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
        for key, value in entries.items():
            if isinstance(value, float):
                value = format_float(value)
            lines.append(f"{key} = {value}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text

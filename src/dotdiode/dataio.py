"""CSV and report I/O shared by the library and the CLI.

Data files are comma-separated with optional metadata header lines that
begin with '#' and contain 'key = value'. A column's dtype sets its text:
integer and boolean columns are written as integers (booleans as 1/0), and
float columns in one fixed format, "%.12e", so identical inputs produce
byte-identical files. Float metadata and report values use the same format
through format_float, the scalar definition of that text.

write_table formats a table body in numpy, in blocks of
max(1, CHUNK_VALUES // columns) rows, with no Python formatting per value.
A block's size is set by its value count, not its row count: a 7-column
band diagram of up to 21,428 rows goes out in one block and a 602-column
emission map in blocks of 249 rows, so memory is bounded by the block at
any width. Each column is formatted by its own dtype into fixed-width byte
slots whose NUL padding is dropped once per block.
Integers are written from their exact magnitude, four digits per table
lookup. A float x gets its 13 significant digits as rint(|x| * 10**(12-e)),
with e = floor(log10|x|) and 10**(12-e) taken from a table of powers parsed
by Python, so each is correctly rounded. The product is then within 2.3e-3
of the exact scaled value, so wherever it lies farther than _TIE_WINDOW
from a half-integer, rint rounds it as "%.12e" does. The values near a tie
(under 1 % of random inputs) and every non-finite, subnormal, very large or
very small value are written by format_float itself, so the text is
byte-identical to "%.12e" % x for every float.

load_json reads each JSON configuration (a device, lines or ladder file,
bundled or the user's) and check_json checks it against a small schema,
naming the file and field of a mismatch.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

FLOAT_FMT = "{:.12e}"
CHUNK_VALUES = 150_000          # values formatted per block by write_table
_POW10_MIN = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 309)])
_TIE_WINDOW = 4e-3              # > the 2.3e-3 error bound of _float_text


def _words(texts, dtype=np.uint32):
    """Equal-length byte strings as one native word each."""
    return np.frombuffer(b"".join(texts), dtype)


# The text pieces a slot is assembled from; its NUL bytes are dropped on
# output. _LEAD[10 * negative + d] is the sign, the first digit and the point;
# _QUAD[v] is v as 4 digits and _TRIM[v] the same without leading zeros;
# _EXP[e - _EXP_MIN] is the exponent field of "%.12e" and the separator.
_LEAD = _words([(b"-" * neg + b"%d." % d).ljust(4, b"\0")
                for neg in (0, 1) for d in range(10)])
_QUAD = _words([b"%04d" % v for v in range(10000)])
_TRIM = _words([(b"%d" % v).rjust(4, b"\0") for v in range(10000)])
_EXP_MIN = -400
_EXP = _words([(b"e%+03d" % e).ljust(7, b"\0") + b"," for e in range(_EXP_MIN, 401)],
              np.uint64)
_MINUS, _SEP = _words([b"-\0\0\0", b"\0\0\0,"])


class DataFormatError(ValueError):
    """Raised for malformed CSV input; message carries the line number."""


def format_float(x):
    return FLOAT_FMT.format(float(x))


def _text(value):
    """A metadata or report value as written: floats in the fixed format."""
    return format_float(value) if isinstance(value, float) else value


def _float_text(x):
    """Slots of 24 bytes ("%.12e" text, NUL padding, ',') for a 2-D float64
    array, as a uint8 array (rows, cols, 24).

    The table entry and the product y = |x| * 10**(12-e) each round once,
    so y is within (2**-52 + 2**-106) * y < 2.3e-3 of its exact value for
    y < 1e13, and rint(y) is the correctly rounded 13-digit m unless y lies
    within _TIE_WINDOW of a half-integer. A y outside [1e12, 1e13) means
    log10 gave the wrong decade; inside, a wrong decade can hide only within
    2.3e-3 of an end, where both decades print 1.000000000000e+NN.
    format_float writes the values near a tie or outside [1e12, 1e13), and
    the non-finite ones and nonzero |x| outside [1e-290, 1e300), which are
    masked before log10 so that it raises no warning.
    """
    ax = np.abs(x)
    zero = ax == 0
    ok = (ax >= 1e-290) & (ax < 1e300)
    ax = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    y = ax * _POW10[12 - e - _POW10_MIN]
    ok &= (y >= 1e12) & (y < 1e13) & (np.abs(y - np.floor(y) - 0.5) > _TIE_WINDOW)
    m = np.rint(y)
    top = m == 1e13             # 9.9999999999995.. rounds up to 1.0e(e+1)
    m[top] = 1e12
    e[top] += 1
    m = np.where(zero, 0, m.astype(np.int64))
    ok |= zero                  # 0.000000000000e+00: m = 0, e = log10(1.0) = 0

    lead, m = np.divmod(m, 10**12)
    high, m = np.divmod(m, 10**8)
    mid, low = np.divmod(m, 10**4)
    out = np.empty(x.shape + (6,), np.uint32)
    out[..., 0] = _LEAD[lead + 10 * np.signbit(x)]
    out[..., 1] = _QUAD[high]
    out[..., 2] = _QUAD[mid]
    out[..., 3] = _QUAD[low]
    out[..., 4:].view(np.uint64)[..., 0] = _EXP[e - _EXP_MIN]
    out = out.view(np.uint8)
    rows, cols = np.nonzero(~ok)
    texts = np.array([format_float(v) for v in x[rows, cols].tolist()], dtype="S23")
    out[rows, cols, :-1] = texts.view(np.uint8).reshape(-1, 23)
    return out


def _int_text(k):
    """Slots of decimal text and a ',' with NUL padding, for a 2-D int64 or
    uint64 array: a uint8 array (rows, cols, width), width a multiple of 4
    just large enough for the block's widest value."""
    neg = k < 0
    sign = int(neg.any())
    mag = k.view(np.uint64)
    if sign:
        mag = np.where(neg, -mag, mag)     # exact |k|, int64 min included
    n_words = -(-len(str(mag.max())) // 4)  # 4 digits per word
    out = np.empty(k.shape + (sign + n_words + 1,), np.uint32)
    if sign:
        out[..., 0] = np.where(neg, _MINUS, 0)
    for g in range(n_words):                # g-th group of 4 digits from the right
        v = mag // 10**(4 * g) % 10000
        word = np.where(mag >= 10**(4 * g), _TRIM[v], 0) if g else _TRIM[v]
        if g < n_words - 1:
            word = np.where(mag >= 10**(4 * g + 4), _QUAD[v], word)
        out[..., sign + n_words - 1 - g] = word
    out[..., -1] = _SEP
    return out.view(np.uint8)


_KINDS = {"f": (np.float64, _float_text), "i": (np.int64, _int_text),
          "u": (np.uint64, _int_text), "b": (np.uint64, _int_text)}


def write_table(path, columns, names, meta=None):
    """Write equal-length named columns to CSV with '# key = value' metadata
    lines (float values as format_float writes them). Integer and boolean
    columns are written as integers, exactly at any width; float columns as
    format_float writes each value, about CHUNK_VALUES values at a time.

    A column of any other dtype raises ValueError naming it, before the file
    is opened.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    groups = {}                 # dtype kind -> indices of its columns
    runs = []                   # [kind, start, stop] in its group: adjacent columns
    for j, (name, c) in enumerate(zip(names, columns)):
        kind = c.dtype.kind
        if kind not in _KINDS:
            raise ValueError(f"column {name}: dtype {c.dtype} is not bool, integer or float")
        idx = groups.setdefault(kind, [])
        if runs and runs[-1][0] == kind:
            runs[-1][2] += 1
        else:
            runs.append([kind, len(idx), len(idx) + 1])
        idx.append(j)
    with open(path, "w") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key} = {_text(value)}\n")
        fh.write(",".join(names) + "\n")
        block_rows = max(1, CHUNK_VALUES // len(columns))
        for start in range(0, len(columns[0]), block_rows):
            rows = slice(start, start + block_rows)
            slots = {}
            for kind, idx in groups.items():
                dtype, kernel = _KINDS[kind]
                slots[kind] = kernel(np.stack([columns[j][rows] for j in idx],
                                              axis=1, dtype=dtype))
            block = np.concatenate([slots[kind][:, a:b].reshape(len(slots[kind]), -1)
                                    for kind, a, b in runs], axis=1)
            block[:, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def read_table(path):
    """Read a CSV written by write_table: (columns dict, metadata dict).

    Every data field is parsed as float64 (metadata values stay strings),
    so an integer column beyond 2**53 reads back rounded to a float."""
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


def load_json(path, bundled):
    """(document, name) of the JSON file at `path`, or of the bundled data
    file `bundled` if `path` is None; name is the file's name for messages.
    Invalid JSON raises ValueError naming the file."""
    name = bundled if path is None else str(path)
    source = resources.files("dotdiode.data").joinpath(bundled) if path is None else Path(path)
    try:
        return json.loads(source.read_text()), name
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name}: invalid JSON ({exc})") from None


def check_json(value, kind, where):
    """Raise ValueError naming `where` (the file, then the field) unless the
    JSON `value` is of `kind`: float (a finite number), str, [kind] (a list
    of kind) or {key: kind} (an object whose keys ending in "?" may be
    absent, or null where their kind is an object)."""
    if isinstance(kind, dict):
        check_json(value, dict, where)
        for key, sub in kind.items():
            name = key.rstrip("?")
            if name != key and value.get(name) is None and (
                    name not in value or isinstance(sub, dict)):
                continue
            if name not in value:
                raise ValueError(f"{where}: missing field {name!r}")
            check_json(value[name], sub, f"{where}: {name}")
    elif isinstance(kind, list):
        check_json(value, list, where)
        for i, item in enumerate(value):
            check_json(item, kind[0], f"{where}[{i}]")
    elif (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)
          or kind is float and not math.isfinite(value)):
        noun = {float: "a finite number", str: "a string", list: "a list", dict: "an object"}
        raise ValueError(f"{where} must be {noun[kind]}, got {value!r:.40}")

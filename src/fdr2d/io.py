"""Delimited-text matrices with headers, written atomically.

Values print with 17 significant digits so a save/load round trip
reproduces float64 data bit-exactly.
"""

import itertools
import os
import tempfile

import numpy as np

from . import core

_DELIMITERS = ("\t", ",", ";")


def _sniff_delimiter(header_line):
    for d in _DELIMITERS:
        if d in header_line:
            return d
    return None  # single column or whitespace-separated


def _split(line, delim):
    if delim is None:
        return line.split()
    return [cell.strip() for cell in line.split(delim)]


def load_matrix(path):
    """(values, column names) from a delimited text file with a header.

    A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" export
    writes, is dropped, so it never starts the first column's name.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    delim = _sniff_delimiter(lines[0])
    names = _split(lines[0], delim)
    if len(lines) == 1:
        raise ValueError(f"{path}: empty data (header only)")
    values = np.empty((len(lines) - 1, len(names)))
    for i, line in enumerate(lines[1:], start=1):
        # unstripped: float() ignores the whitespace _split strips
        cells = line.split(delim)
        if len(cells) != len(names):
            raise ValueError(
                f"{path}: row {i} has {len(cells)} cells, header has {len(names)}"
            )
        try:
            values[i - 1] = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            # cell by cell again, only to name the first bad one
            for j, cell in enumerate(_split(line, delim)):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {i}, column {names[j]!r}: non-numeric cell {cell!r}"
                    ) from None
    return values, names


def _atomic_write(path, lines):
    # the strings of lines are written to a temporary file as they come,
    # which replaces path only once all are written
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def save_matrix(path, values, col_names):
    """Tab-separated matrix with header, written via temp + rename."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != len(col_names):
        raise ValueError(
            f"matrix has {values.shape[1] if values.ndim == 2 else '?'} columns, "
            f"{len(col_names)} names given"
        )
    save_table(path, [str(c) for c in col_names], values)


def save_table(path, header, rows):
    """Tab-separated table from row tuples; numbers at 17 digits. Rows
    may be any iterable, a generator included: each line is written as
    its row comes."""
    lines = ("\t".join(map(format_value, row)) + "\n" for row in rows)
    _atomic_write(path, itertools.chain(["\t".join(header) + "\n"], lines))


def _column_kind(col):
    if core._looks_binary(col):
        return "binary"
    finite = col[np.isfinite(col)]
    if finite.size and np.all(finite >= 0) and np.all(finite == np.floor(finite)):
        return "count"
    return "continuous"


def load_dataset(x_path, y_path, z_path, x_kind=None, y_kind=None):
    """Aligned Dataset from three matrix files; names come from y's header.

    Kinds default to what the values look like: 0/1 columns are
    binary, nonnegative integers are counts, anything else is
    continuous. Pass explicit kinds to override.
    """
    x, _ = load_matrix(x_path)
    y, names = load_matrix(y_path)
    z, _ = load_matrix(z_path)
    for label, mat, path in (("x", x, x_path), ("z", z, z_path)):
        if mat.shape[0] != y.shape[0]:
            raise ValueError(
                f"{label} has {mat.shape[0]} rows but y ({os.fspath(y_path)}) has {y.shape[0]}"
            )
    if x_kind is None:
        x_kind = "binary" if _column_kind(x.ravel()) == "binary" else "continuous"
    if y_kind is None:
        y_kind = _column_kind(y.ravel())
    return core.Dataset(
        x=x, y=y, z=z, x_kind=x_kind, y_kind=y_kind, feature_names=tuple(names)
    )

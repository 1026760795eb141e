"""Shared constants, error types, and small helpers."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import itertools
import json
from typing import Callable, Sequence, TypeVar

import numpy as np

#: Absolute tolerance for comparisons between lengths/distances.
LENGTH_TOL = 1e-9

#: Report schema version written into every JSON report.
SCHEMA_VERSION = 1


class InputError(ValueError):
    """Raised for malformed graphs, fields, or arguments."""


class SizeError(InputError):
    """Raised when a requested construction exceeds the supported size."""


class CertifyError(RuntimeError):
    """Raised when a certification/invariant audit fails."""


T = TypeVar("T")
U = TypeVar("U")


def ordered_map(fn: Callable[[T], U], items: Sequence[T]) -> list[U]:
    """Map ``fn`` over ``items`` in order, sequentially.

    The report scans no longer call it: they iterate over the rows of
    batched distance searches (``graph._distance_blocks``).  It is kept as
    a named entry point, which the benchmark's tracer in
    ``perfbench/spans.py`` looks up by name.  ``MMGRAPH_THREADS`` is
    accepted for compatibility and ignored: a thread pool here measured
    slower than one thread.
    """
    return [fn(x) for x in items]


def dump_json(obj: object, path_or_file) -> None:
    """Write ``obj`` as deterministic, human-readable JSON."""
    if hasattr(path_or_file, "write"):
        json.dump(obj, path_or_file, indent=2, sort_keys=True, allow_nan=True)
        path_or_file.write("\n")
        return
    with open(path_or_file, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def json_ready(value: object) -> object:
    """Recursively convert numpy scalars/arrays and sets to JSON types."""
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [json_ready(v) for v in sorted(value)]
    if isinstance(value, np.ndarray):
        return [json_ready(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def fields_dict(obj: object, *drop: str) -> dict:
    """The fields of the dataclass instance ``obj`` but those named in
    ``drop``, by name, as JSON types (``json_ready``): the body of a report."""
    return {f.name: json_ready(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if f.name not in drop}


#: Rows per ``%`` template in ``table_text``.
_TABLE_BLOCK = 4096


def table_text(header: Sequence[str], columns: Sequence) -> str:
    """The CSV text of a header and parallel columns, as ``csv.writer``
    writes plain header names and rows of ints (from the columns numpy
    reads with an integer dtype) and ``repr(float(x))`` (from the others).
    One ``%`` template renders each block of at most ``_TABLE_BLOCK`` rows."""
    cols = [np.asarray(c) for c in columns]
    ints = [c.dtype.kind in "iu" for c in cols]
    # tolist: a numpy scalar would reach %r as np.float64(...)
    values = [c.tolist() if i else c.astype(np.float64).tolist() for c, i in zip(cols, ints)]
    row = ",".join("%d" if i else "%r" for i in ints) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, len(values[0]), _TABLE_BLOCK):
        block = [v[start:start + _TABLE_BLOCK] for v in values]
        cells = tuple(itertools.chain.from_iterable(zip(*block)))
        parts.append(row * len(block[0]) % cells)
    return "".join(parts)


@contextlib.contextmanager
def gc_paused():
    """Run the body with Python's cyclic garbage collector off, and turn it
    back on afterwards, on an exception too, only if it was on before.

    For the file readers: a parse builds trees of dicts, lists, strs and
    numbers with no reference cycles, which reference counting frees, so
    a collection there finds nothing.  But the collector runs on the count
    of allocations, so a parse of many records would scan what it has just
    built again and again, and now and then every live object of the
    process.  The pause only skips those scans.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@gc_paused()
def read_table(path, width: int | None = None) -> dict[int, list[float]]:
    """The rows of a ``vertex_id,x1,...`` table as id -> [x1, ...].

    The header is optional (a first row whose first field is not an
    integer is skipped) and blank rows are skipped.  Every row has
    ``width`` fields; with ``width=None`` the first row sets the width,
    which must be at least 2.  ``InputError`` for an empty table, a row
    of another width, an unreadable id or number, a repeated id, or a
    row the csv module rejects (a field past ``csv.field_size_limit()``).
    The read and the conversion run under ``gc_paused``: they build rows
    of strs and floats, which hold no reference cycles.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
        except csv.Error as exc:
            raise InputError(f"{path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty table")
    try:
        int(rows[0][0])
    except ValueError:
        del rows[0]
    out: dict[int, list[float]] = {}
    for row in rows:
        width = width or max(len(row), 2)
        if len(row) != width:
            raise InputError(f"{path}: expected {width} columns, got {len(row)}")
        try:
            vid, vals = int(row[0]), [float(c) for c in row[1:]]
        except ValueError as exc:
            raise InputError(f"{path}: bad row {row}: {exc}") from exc
        if vid in out:
            raise InputError(f"{path}: duplicate vertex id {vid}")
        out[vid] = vals
    return out


def parse_float_list(text: str) -> list[float]:
    items = [s for s in text.replace(";", ",").split(",") if s.strip()]
    if not items:
        raise InputError("expected a comma-separated list of numbers")
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise InputError(f"bad number in list: {text!r}") from exc


def parse_int_list(text: str) -> list[int]:
    items = [s for s in text.replace(";", ",").split(",") if s.strip()]
    if not items:
        raise InputError("expected a comma-separated list of integers")
    try:
        return [int(s) for s in items]
    except ValueError as exc:
        raise InputError(f"bad integer in list: {text!r}") from exc

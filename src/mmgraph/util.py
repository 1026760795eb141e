"""Shared constants, error types, and small helpers."""

from __future__ import annotations

import json
from typing import Callable, Sequence, TypeVar

#: Absolute tolerance for comparisons between lengths/distances.
LENGTH_TOL = 1e-9

#: Absolute tolerance for comparisons between measures.
MEASURE_TOL = 1e-12

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
    batched distance searches (``graph._distance_rows``).  It is kept as
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
    import numpy as np

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

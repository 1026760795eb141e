"""Metric measure graphs and exact shortest-path primitives.

A :class:`MetricMeasureGraph` is a finite undirected graph whose vertices
carry a nonnegative measure (and optionally a position) and whose edges
carry a positive length and a nonnegative edge measure.  The edge measure
plays a single role downstream: edges with ``mu_edge == 0`` are the
negligible ones, and deleting them produces the essential metric.

Graphs are immutable after construction; every operation returns new data.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .util import InputError

EdgeFilter = Callable[["Edge"], bool]

#: Every accepted way to name a metric: a metric name, an edge predicate,
#: or a bool mask over the edges.  See ``MetricMeasureGraph._metric``.
Metric = Union[str, None, EdgeFilter, np.ndarray]

_METRIC_NAMES = {
    None: "graph",
    "graph": "graph",
    "essential": "essential",
    "positive": "essential",
}


@dataclass(frozen=True)
class Edge:
    """One undirected edge, as seen by edge filters."""

    index: int
    a: int
    b: int
    length: float
    mu_edge: float


@dataclass(frozen=True)
class PathResult:
    """A shortest path: its length and the vertex ids along it.

    ``length`` is ``inf`` and ``vertex_sequence`` is empty when the target
    is unreachable.  ``length == 0`` exactly when source equals target.
    """

    length: float
    vertex_sequence: tuple[int, ...]


@dataclass(frozen=True)
class Ball:
    """A metric ball: open (``d < radius``) unless ``closed`` is set."""

    center: int
    radius: float
    members: tuple[int, ...]
    measure: float
    closed: bool = False


#: Not numbers, though numpy reads ``"2"`` and ``b"2"`` as 2.0 and ``True`` as 1.0.
_NOT_NUMBERS = frozenset({str, bytes, bool, np.str_, np.bytes_, np.bool_})
#: Types of a vector value, whose entries are its coordinates.
_VECTORS = frozenset({list, tuple, np.ndarray})


def _id_type(t: type) -> bool:
    """True for a vertex id type: a Python or numpy int, but not bool."""
    return issubclass(t, (int, np.integer)) and t is not bool


def _numbers(values: list) -> bool:
    """False when a value or a vector value's coordinate is not a number."""
    types = set(map(type, values))
    if not types.isdisjoint(_VECTORS):
        types = set(map(type, itertools.chain.from_iterable(
            x if type(x) in _VECTORS else (x,) for x in values)))
    return _NOT_NUMBERS.isdisjoint(types)


def _floats(values: list, what: str) -> np.ndarray:
    """Float array of numbers or of vectors of numbers."""
    if not _numbers(values):
        raise InputError(f"{what} must be numbers, not strings or booleans")
    return np.asarray(values, dtype=np.float64)


def _spec_array(value, what: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``value`` as a float64 or int64 array of ``shape``, where ``None``
    stands for any length; an empty list reads as no rows.

    ``InputError`` names ``what`` when ``value`` is ragged or of another
    shape, or has an entry that is not a number (strings and booleans are
    not, nor floats where ``dtype`` is int64), not finite, or past int64.
    """
    ints = dtype is np.int64
    try:
        leaves = [value]
        for _ in shape:
            leaves = [y for x in leaves for y in (x if type(x) in _VECTORS else (x,))]
        types = set(map(type, leaves))
        if all(map(_id_type, types)) if ints else _NOT_NUMBERS.isdisjoint(types):
            arr = np.asarray(value, dtype=dtype)
            if arr.shape == (0,) and shape:
                arr = arr.reshape(0, *(k or 0 for k in shape[1:]))
            if arr.ndim == len(shape) and all(k in (None, n) for k, n in zip(shape, arr.shape)):
                if ints or np.isfinite(arr).all():
                    return arr
    except (TypeError, ValueError, OverflowError):
        pass
    desc = "integers" if ints else "finite numbers"
    for k in reversed(shape):
        desc = f"lists of {f'{k} ' if k else ''}{desc}"
    raise InputError(f"{what} must be {'a list' + desc[5:] if shape else 'a single ' + desc[:-1]}")


class MetricMeasureGraph:
    """Finite undirected graph with vertex measures and edge lengths.

    Parameters
    ----------
    vertices : sequence of dict
        Each ``{"id": int, "mu": float, "pos": [float, ...]?}``.  ``pos``
        must be present on all vertices or on none.
    edges : sequence of dict
        Each ``{"a": int, "b": int, "len": float, "mu_edge": float}``.
        Lengths must be positive and finite, edge measures nonnegative;
        loops and duplicate undirected pairs are rejected.
    """

    def __init__(self, vertices: Sequence[Mapping], edges: Sequence[Mapping]):
        self._init_arrays(*_record_arrays(vertices, edges))

    @classmethod
    def from_arrays(
        cls,
        ids: np.ndarray,
        mu: np.ndarray,
        pos: np.ndarray | None,
        edge_a: np.ndarray,
        edge_b: np.ndarray,
        edge_len: np.ndarray,
        edge_mu: np.ndarray,
    ) -> "MetricMeasureGraph":
        """Fast constructor from parallel arrays (ids, not indices, in edges)."""
        g = cls.__new__(cls)
        g._init_arrays(
            np.asarray(ids, dtype=np.int64),
            np.asarray(mu, dtype=np.float64),
            None if pos is None else np.asarray(pos, dtype=np.float64),
            np.asarray(edge_a, dtype=np.int64),
            np.asarray(edge_b, dtype=np.int64),
            np.asarray(edge_len, dtype=np.float64),
            np.asarray(edge_mu, dtype=np.float64),
        )
        return g

    def _init_arrays(self, ids, mu, pos, ea, eb, elen, emu):
        if ids.size != mu.size:
            raise InputError("vertex ids and measures disagree in length")
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        mu = mu[order]
        if pos is not None:
            pos = pos[order]
        if ids.size and np.any(ids[1:] == ids[:-1]):
            raise InputError("duplicate vertex id")
        if np.any(~np.isfinite(mu)) or np.any(mu < 0):
            raise InputError("vertex measures must be finite and nonnegative")
        if pos is not None and np.any(~np.isfinite(pos)):
            raise InputError("vertex positions must be finite")

        if not (ea.size == eb.size == elen.size == emu.size):
            raise InputError("edge arrays disagree in length")
        if np.any(~np.isfinite(elen)) or np.any(elen <= 0):
            raise InputError("edge lengths must be finite and positive")
        if np.any(~np.isfinite(emu)) or np.any(emu < 0):
            raise InputError("edge measures must be finite and nonnegative")

        ia = np.searchsorted(ids, ea)
        ib = np.searchsorted(ids, eb)
        bad = (
            (ia >= ids.size)
            | (ib >= ids.size)
            | (ids.size and (ids[np.minimum(ia, ids.size - 1)] != ea))
            | (ids.size and (ids[np.minimum(ib, ids.size - 1)] != eb))
        )
        if ea.size and np.any(bad):
            raise InputError("edge endpoint references unknown vertex id")
        if np.any(ia == ib):
            raise InputError("loop edges are not allowed")
        lo = np.minimum(ia, ib)
        hi = np.maximum(ia, ib)
        if ea.size:
            key = lo.astype(np.int64) * ids.size + hi
            key.sort()
            if np.any(key[1:] == key[:-1]):
                raise InputError("duplicate undirected edge")
        # checked last, so an input that an earlier check rejects keeps
        # that check's message
        for col, what in (
            (ids, "vertex id"), (mu, "vertex mu"), (ea, "edge a"), (eb, "edge b"),
            (elen, "edge len"), (emu, "edge mu_edge"),
        ):
            if col.ndim != 1:
                raise InputError(f"{what} must be one number per record")
        with np.errstate(over="ignore"):
            if not np.isfinite(mu.sum()):
                raise InputError("vertex measures must have a finite sum")

        self._ids = ids
        self._mu = mu
        self._pos = pos
        self._edge_ia = ia
        self._edge_ib = ib
        self._edge_len = elen
        self._edge_mu = emu
        self._positive = emu > 0
        self._positive.flags.writeable = False
        self._id_to_idx = dict(zip(ids.tolist(), range(ids.size)))
        self._csr_cache: dict[str, csr_matrix] = {}

    # -- basic accessors -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return int(self._ids.size)

    @property
    def n_edges(self) -> int:
        return int(self._edge_len.size)

    @property
    def vertex_ids(self) -> np.ndarray:
        return self._ids

    @property
    def mu(self) -> np.ndarray:
        return self._mu

    @property
    def pos(self) -> np.ndarray | None:
        return self._pos

    @property
    def edge_lengths(self) -> np.ndarray:
        return self._edge_len

    @property
    def edge_measures(self) -> np.ndarray:
        return self._edge_mu

    def has_vertex(self, vid: int) -> bool:
        return _id_type(type(vid)) and vid in self._id_to_idx

    def index_of(self, vid: int) -> int:
        """Index of a vertex id; an id that is not an int (a float, a bool) is unknown."""
        i = self._id_to_idx.get(vid) if _id_type(type(vid)) else None
        if i is None:
            raise InputError(f"unknown vertex id {vid}")
        return i

    def id_at(self, index: int) -> int:
        return int(self._ids[index])

    def total_measure(self) -> float:
        return float(self._mu.sum())

    def edge(self, index: int) -> Edge:
        return Edge(
            index=index,
            a=int(self._ids[self._edge_ia[index]]),
            b=int(self._ids[self._edge_ib[index]]),
            length=float(self._edge_len[index]),
            mu_edge=float(self._edge_mu[index]),
        )

    def edges(self) -> Iterator[Edge]:
        ends = (self._ids[self._edge_ia].tolist(), self._ids[self._edge_ib].tolist())
        return map(Edge, range(self.n_edges), *ends, self._edge_len.tolist(),
                   self._edge_mu.tolist())

    def positive_edge_mask(self) -> np.ndarray:
        """Mask of edges with positive measure (the non-negligible ones)."""
        return self._positive.copy()

    def edge_mask(self, edge_filter: Metric) -> np.ndarray:
        """Boolean edge mask of any metric spelling (see ``_metric``)."""
        metric = self._metric(edge_filter)
        if isinstance(metric, str):
            metric = self._positive if metric == "essential" else np.ones(self.n_edges, bool)
        return np.array(metric)

    def _metric(self, metric: Metric) -> str | np.ndarray:
        """Resolve a metric spelling to ``"graph"``, ``"essential"`` or a mask.

        ``None`` and ``"graph"`` select every edge; ``"essential"`` and
        ``"positive"`` the positive-measure edges.  A bool mask with one
        entry per edge passes through and an :class:`Edge` predicate is
        evaluated on every edge.  Every ``Metric`` parameter takes the
        result as is, so a public call resolves its metric once and hands
        the result down.  Anything else is an input error.
        """
        if metric is None or isinstance(metric, str):
            name = _METRIC_NAMES.get(metric)
            if name is None:
                raise InputError(f"unknown metric {metric!r} (use graph or essential)")
            return name
        if callable(metric):
            return np.fromiter(
                (bool(metric(e)) for e in self.edges()), dtype=bool, count=self.n_edges
            )
        mask = np.asarray(metric)
        if mask.dtype != bool or mask.shape != (self.n_edges,):
            raise InputError("edge mask must be a bool array with one entry per edge")
        return mask

    def subgraph_edges(self, mask: np.ndarray) -> "MetricMeasureGraph":
        """New graph with the same vertices and only the masked edges."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_edges,):
            raise InputError("edge mask has wrong shape")
        return MetricMeasureGraph.from_arrays(
            self._ids,
            self._mu,
            self._pos,
            self._ids[self._edge_ia[mask]],
            self._ids[self._edge_ib[mask]],
            self._edge_len[mask],
            self._edge_mu[mask],
        )

    def subgraph_vertices(self, vertex_ids: Iterable[int]) -> "MetricMeasureGraph":
        """Induced subgraph: the given vertices and edges within them."""
        keep_idx = np.asarray(sorted({self.index_of(v) for v in vertex_ids}))
        if keep_idx.size == 0:
            raise InputError("induced subgraph needs at least one vertex")
        inside = np.zeros(self.n_vertices, dtype=bool)
        inside[keep_idx] = True
        emask = inside[self._edge_ia] & inside[self._edge_ib]
        return MetricMeasureGraph.from_arrays(
            self._ids[keep_idx],
            self._mu[keep_idx],
            None if self._pos is None else self._pos[keep_idx],
            self._ids[self._edge_ia[emask]],
            self._ids[self._edge_ib[emask]],
            self._edge_len[emask],
            self._edge_mu[emask],
        )

    # -- sparse-matrix plumbing -------------------------------------------

    def _csr(self, metric: Metric = None) -> csr_matrix:
        """Symmetric CSR of the metric's edges; the two named metrics are cached."""
        metric = self._metric(metric)
        name = metric if isinstance(metric, str) else None
        cached = self._csr_cache.get(name)
        if cached is not None:
            return cached
        n = self.n_vertices
        keep = self.edge_mask(metric)
        ia, ib, w = self._edge_ia[keep], self._edge_ib[keep], self._edge_len[keep]
        rows = np.concatenate([ia, ib])
        cols = np.concatenate([ib, ia])
        data = np.concatenate([w, w])
        mat = csr_matrix((data, (rows, cols)), shape=(n, n))
        if name is not None:
            self._csr_cache[name] = mat
        return mat

    def distances_from(
        self,
        source_ids: Sequence[int],
        mask: Metric = None,
        limit: float = np.inf,
        min_only: bool = False,
        return_nearest_source: bool = False,
    ):
        """Exact shortest-path distances from one or more sources.

        ``mask`` takes any metric spelling (see ``_metric``).  Returns an
        array indexed by internal vertex index: one row per source, or a
        single row when ``min_only`` is set.  With
        ``return_nearest_source`` also returns, per vertex, the id of the
        nearest source (-1 where unreachable); requires ``min_only``.
        """
        idx = np.asarray([self.index_of(s) for s in source_ids], dtype=np.int64)
        if idx.size == 0:
            raise InputError("need at least one source vertex")
        if return_nearest_source and not min_only:
            raise InputError("nearest-source tracking requires min_only")
        lim = np.inf if not np.isfinite(limit) else float(limit) * (1 + 1e-9) + 1e-300
        # the CSR holds both directions of every edge, so the directed
        # search is exact and skips scipy's per-call symmetrization
        out = _dijkstra(
            self._csr(mask),
            directed=True,
            indices=idx,
            limit=lim,
            min_only=min_only,
            return_predecessors=return_nearest_source,
        )
        if not return_nearest_source:
            return out
        dist, _, srcs = out
        nearest = np.full(self.n_vertices, -1, dtype=np.int64)
        reach = srcs >= 0
        nearest[reach] = self._ids[srcs[reach]]
        return dist, nearest

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        verts = []
        for i, vid in enumerate(self._ids):
            v: dict = {"id": int(vid), "mu": float(self._mu[i])}
            if self._pos is not None:
                v["pos"] = [float(x) for x in self._pos[i]]
            verts.append(v)
        edges = [
            {
                "a": int(self._ids[self._edge_ia[i]]),
                "b": int(self._ids[self._edge_ib[i]]),
                "len": float(self._edge_len[i]),
                "mu_edge": float(self._edge_mu[i]),
            }
            for i in range(self.n_edges)
        ]
        return {"vertices": verts, "edges": edges}


#: Distance entries per kernel call of ``_distance_blocks``: 2**17 float64
#: entries, 1 MB of output per call whatever the graph's size.
_CHUNK_ENTRIES = 1 << 17


def _chunk_sources(n: int) -> int:
    """Sources per kernel call of ``_distance_blocks`` on an n-vertex graph."""
    return max(1, _CHUNK_ENTRIES // max(n, 1))


def _distance_blocks(
    G: MetricMeasureGraph,
    source_idx: Sequence[int],
    metric: Metric = None,
    limit: float = np.inf,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(sources, rows)`` per kernel call: a run of the source indices, in
    order, and their distance rows (by vertex index), one per source.

    Sources go to ``distances_from`` in chunks of ``_chunk_sources(n)``,
    so a scan over all n vertices makes ceil(n / _chunk_sources(n))
    kernel calls instead of n.  A truncated search gives every vertex
    within ``limit`` the float a single-source search gives it: the
    prefix sums of a shortest path never exceed its length.
    """
    step = _chunk_sources(G.n_vertices)
    ids = G.vertex_ids
    source_idx = np.asarray(source_idx, dtype=np.int64)
    for start in range(0, source_idx.size, step):
        chunk = source_idx[start:start + step]
        rows = G.distances_from(ids[chunk].tolist(), mask=metric, limit=limit)
        yield chunk, np.atleast_2d(rows)


def _sparse_blocks(G: MetricMeasureGraph, source_idx: np.ndarray, limit: float):
    """``(rows, cols, dists)`` per kernel call of ``_distance_blocks``: the
    finite entries of the sources' rows in increasing ``(row, col)`` order.
    Rows are vertex indices, so a source listed twice cannot be told apart
    from one listed once: a row per listed source needs ``_distance_blocks``."""
    for chunk, block in _distance_blocks(G, source_idx, limit=limit):
        row, col = np.nonzero(np.isfinite(block))
        yield chunk[row], col, block[row, col]


#: Stands for a vertex that a field has no value at.
_MISSING = object()


def _sorted_ids(vertices: Iterable[int]) -> list[int]:
    """Ascending Python ints; ``InputError`` names the first id not an int."""
    ids = list(vertices)
    if not all(map(_id_type, set(map(type, ids)))):
        raise InputError(f"unknown vertex id {next(v for v in ids if not _id_type(type(v)))}")
    return sorted(map(int, ids))


def _vertex_set(
    G: MetricMeasureGraph, vertices: Iterable[int], what: str
) -> tuple[list[int], np.ndarray]:
    """The ids of a vertex set in ascending order and their indices.

    ``InputError`` for the first id that is not an int (see ``index_of``),
    else for an empty set, else for the first id, in ascending order, that
    is unknown or repeated; ``what`` names the set.
    """
    ids = _sorted_ids(vertices)
    if not ids:
        raise InputError(f"{what} must be nonempty")
    idx = []
    for k, v in enumerate(ids):
        idx.append(G.index_of(v))
        if k and v == ids[k - 1]:
            raise InputError(f"duplicate vertex {v} in {what}")
    return ids, np.asarray(idx, dtype=np.int64)


def _values(
    f: Mapping[int, object],
    ids: Sequence[int],
    what: str,
    allow_inf: bool = False,
    vector: bool = False,
) -> np.ndarray:
    """The float64 values of the field ``f`` at ``ids``, in order: one
    number per id, or for a ``vector`` field one row per id.  Ids that
    ``f`` has and ``ids`` lacks are ignored.

    ``InputError`` names the first of ``ids`` whose value is missing, is
    not a number ``float`` can read, or has a NaN or, unless
    ``allow_inf``, an infinite entry, or is a vector in a scalar field;
    ``what`` names the field.
    """
    rows = [f.get(v, _MISSING) for v in ids]
    try:
        if _numbers(rows):
            vals = np.asarray(rows, dtype=np.float64)
            if (vector or vals.ndim == 1) and not np.any(
                np.isnan(vals) if allow_inf else ~np.isfinite(vals)
            ):
                return vals
    except (TypeError, ValueError, OverflowError):
        pass
    for v, x in zip(ids, rows):
        if x is _MISSING:
            raise InputError(f"{what} missing at vertex {v}")
        try:
            x = np.asarray(x, dtype=np.float64) if _numbers([x]) else np.nan
        except (TypeError, ValueError, OverflowError):
            x = np.nan
        if np.any(np.isnan(x) if allow_inf else ~np.isfinite(x)):
            raise InputError(f"{what} not finite at vertex {v}")
        if not vector and np.ndim(x):
            raise InputError(f"{what} not a number at vertex {v}")
    raise InputError(f"{what} values must share one shape")


def _int_column(records: Sequence, key: str, message: str) -> np.ndarray | list:
    """The int64 column of ``key``, or ``InputError(message)`` when a record
    is not a mapping or its field is missing or not an int (a Python or
    numpy int; a bool is not one).  A column past the int64 range comes
    back as a list, for ``_record_arrays`` to reject in its turn."""
    try:
        col = [r.get(key) for r in records]
    except AttributeError:
        raise InputError(message) from None
    if not all(map(_id_type, set(map(type, col)))):
        raise InputError(message)
    try:
        return np.asarray(col, dtype=np.int64)
    except OverflowError:
        return col


def _positions(col: list) -> np.ndarray | None:
    """The (n, dim) positions of a ``pos`` column, None when no vertex has one."""
    given = sum(p is not None for p in col)
    if 0 < given < len(col):
        raise InputError("pos must be given for all vertices or none")
    if not given:
        return None
    pos = _floats(col, "vertex pos")
    if pos.ndim != 2:
        raise InputError("vertex pos entries must share one dimension")
    return pos


def _record_arrays(vertices: Sequence[Mapping], edges: Sequence[Mapping]) -> tuple:
    """The seven ``_init_arrays`` columns of vertex and edge records.

    Each key's column is taken once and its element types checked once:
    ids and endpoints must be ints, the other fields numbers.
    """
    ids = _int_column(vertices, "id", "vertex id must be an integer")
    ends = "edge endpoints must be integer vertex ids"
    ea, eb = _int_column(edges, "a", ends), _int_column(edges, "b", ends)
    try:
        ids = np.asarray(ids, dtype=np.int64)
        mu = _floats([v["mu"] for v in vertices], "vertex mu")
        pos = _positions([v.get("pos") for v in vertices])
        ea = np.asarray(ea, dtype=np.int64)
        eb = np.asarray(eb, dtype=np.int64)
        elen = _floats([e["len"] for e in edges], "edge len")
        emu = _floats([e["mu_edge"] for e in edges], "edge mu_edge")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed vertex or edge record: {exc}") from exc
    return ids, mu, pos, ea, eb, elen, emu


def graph_from_dict(data: Mapping) -> MetricMeasureGraph:
    """Graph of a parsed graph JSON object; ids and endpoints must be ints."""
    if not isinstance(data, Mapping) or "vertices" not in data or "edges" not in data:
        raise InputError("graph JSON must have 'vertices' and 'edges'")
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, (list, tuple)) or not isinstance(edges, (list, tuple)):
        raise InputError("graph JSON 'vertices' and 'edges' must be lists")
    return MetricMeasureGraph(vertices, edges)


def load_graph(path: str | os.PathLike) -> MetricMeasureGraph:
    """Read a graph from its JSON file form, validating as it loads."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc
    return graph_from_dict(data)


#: Records per ``%`` template in ``save_graph``: a few hundred kB of text
#: per write, whatever the graph's size.
_WRITE_BLOCK = 4096

#: One ``%s`` per column: ``_write_list`` fills in each column's slot.
_EDGE_RECORD = (
    '    {\n      "a": %s,\n      "b": %s,\n      "len": %s,\n      "mu_edge": %s\n    }'
)


def _vertex_record(dim: int | None) -> str:
    """Record of one vertex with ``dim`` positions (None: no pos), one
    ``%s`` per column."""
    if dim is None:
        return '    {\n      "id": %s,\n      "mu": %s\n    }'
    pos = "[\n" + ",\n".join(["        %s"] * dim) + "\n      ]" if dim else "[]"
    return '    {\n      "id": %s,\n      "mu": %s,\n      "pos": ' + pos + "\n    }"


def _slot(col: np.ndarray) -> tuple[np.ndarray, str]:
    """A column as ``_write_list`` renders it, and its ``%`` slot.

    Ints go to ``%d``.  A float column whose distinct bit patterns are at
    most half its entries becomes the ``repr`` of each distinct value,
    rendered once, in a ``%s`` slot (``str`` of a float is its ``repr``).
    Bit patterns, not values, so ``-0.0`` and ``0.0`` stay apart.  Any
    other float column goes to ``%r``.
    """
    if col.dtype.kind in "iu":
        return col, "%d"
    bits = col.view(np.int64)
    sorted_bits = np.sort(bits)
    first = np.ones(bits.size, dtype=bool)
    np.not_equal(sorted_bits[1:], sorted_bits[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) > bits.size:
        return col, "%r"
    distinct = sorted_bits[first]
    text = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return text[np.searchsorted(distinct, bits)], "%s"


def _write_list(fh, record: str, columns: Sequence[np.ndarray]) -> None:
    """Write a JSON list of records, one per row of the columns, at most
    ``_WRITE_BLOCK`` records per ``%`` template and write.  ``record``
    holds one ``%s`` per column, which ``_slot`` fills in."""
    n = len(columns[0])
    if n == 0:
        fh.write("[]")
        return
    columns, slots = zip(*map(_slot, columns))
    record = record % slots
    fh.write("[\n")
    for start in range(0, n, _WRITE_BLOCK):
        rows = zip(*(c[start:start + _WRITE_BLOCK].tolist() for c in columns))
        values = tuple(itertools.chain.from_iterable(rows))
        if start:
            fh.write(",\n")
        fh.write(",\n".join([record] * min(_WRITE_BLOCK, n - start)) % values)
    fh.write("\n  ]")


def save_graph(G: MetricMeasureGraph, path: str | os.PathLike) -> None:
    """Write ``G`` in its graph JSON file form, straight from its arrays.

    The bytes are those of ``util.dump_json(G.to_dict(), path)``: two-space
    indent, sorted keys, floats as ``repr``, vertices by ascending id and
    edges in ``G``'s order, and a final newline.  A float column (edge
    lengths and measures, vertex measures, one position coordinate) in
    which at most half the entries are distinct, as on a mesh, has the
    ``repr`` of each distinct value computed once; any other column is
    rendered entry by entry.  Either way the bytes are the same.
    """
    ids = G._ids
    pos = G._pos
    vertex_cols = [ids, G._mu] + ([] if pos is None else list(pos.T))
    record = _vertex_record(None if pos is None else pos.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "edges": ')
        _write_list(
            fh, _EDGE_RECORD, [ids[G._edge_ia], ids[G._edge_ib], G._edge_len, G._edge_mu]
        )
        fh.write(',\n  "vertices": ')
        _write_list(fh, record, vertex_cols)
        fh.write("\n}\n")


# -- shortest paths -------------------------------------------------------


def shortest_path(
    G: MetricMeasureGraph,
    x: int,
    y: int,
    edge_filter: Metric = None,
) -> PathResult:
    """Exact shortest path between two vertices.

    One ``distances_from`` search from ``x`` gives every distance ``d``,
    and the path is read back from ``y``.  Among equal-length geodesics
    the one returned is the one whose predecessors, read back from ``y``,
    have the smallest (distance, id) keys.  Precisely, every vertex ``w``
    takes, of its tight neighbours ``v`` (``d[v] + len == d[w]`` in
    floats) that come before it in the settle order, the first.  The order
    is by (distance, id), except inside a set of equal-distance vertices
    joined by edges that vanish in rounding (``d + len == d``, say a
    1e-300 edge among unit edges): there the smallest id among the
    members reached so far comes next, where a member is reached by a
    tight edge from a smaller distance or by a vanishing edge from a
    member that came before.
    """
    xi, yi = G.index_of(x), G.index_of(y)
    if xi == yi:
        return PathResult(0.0, (int(x),))
    metric = G._metric(edge_filter)
    d = G.distances_from([x], mask=metric, min_only=True)
    if d[yi] == math.inf:
        return PathResult(math.inf, ())
    seq = _read_back(G, metric, d, xi, yi)
    return PathResult(float(d[yi]), tuple(G.vertex_ids[seq].tolist()))


def _read_back(G, metric, d: np.ndarray, xi: int, yi: int) -> list[int]:
    """The vertex indices of the path ``shortest_path`` picks from ``xi``
    to ``yi``, given the distances ``d`` from ``xi`` in the resolved
    ``metric``.  Vertex indices are in id order, so an index order is an
    id order.  The metric's edges come from the edge arrays, not its CSR:
    a mask metric's CSR is not cached, and the search built it already."""
    keep = G.edge_mask(metric)
    ia, ib, length = G._edge_ia[keep], G._edge_ib[keep], G._edge_len[keep]
    # both directions of every edge
    v, w, length = np.concatenate([ia, ib]), np.concatenate([ib, ia]), np.concatenate([length] * 2)
    n, reach = d.size, d[yi]
    dv, dw = d[v], d[w]
    with np.errstate(over="ignore"):  # a sum past the float range is not tight
        tight = (dw <= reach) & (dv + length == dw)
    v, w, vanish = v[tight], w[tight], dv[tight] == dw[tight]
    near = np.flatnonzero(d <= reach)
    order = near[np.argsort(d[near], kind="stable")]
    if vanish.any():
        _replay_vanishing(order, d, v, w, vanish)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(order.size)
    before = rank[v] < rank[w]
    # the settle rank of each vertex's predecessor (order.size: none)
    first = np.full(n, order.size)
    np.minimum.at(first, w[before], rank[v[before]])
    seq = [yi]
    while seq[-1] != xi:
        seq.append(int(order[first[seq[-1]]]))
    return seq[::-1]


def _replay_vanishing(order, d, v, w, vanish) -> None:
    """Reorder, in place, each equal-distance run of ``order`` that tight
    vanishing edges ``v[k] - w[k]`` join: the smallest index among the
    members reached so far comes next."""
    dorder = d[order]
    links: dict[int, list[int]] = {}
    for a, b in zip(v[vanish].tolist(), w[vanish].tolist()):
        links.setdefault(a, []).append(b)
    for level in np.unique(d[w[vanish]]):
        lo, hi = np.searchsorted(dorder, level, "left"), np.searchsorted(dorder, level, "right")
        heap = np.unique(w[~vanish & (d[w] == level)]).tolist()
        seen = set(heap)
        for k in range(lo, hi):
            order[k] = a = heapq.heappop(heap)
            for b in links.get(a, ()):
                if b not in seen:
                    seen.add(b)
                    heapq.heappush(heap, b)


def ball(
    G: MetricMeasureGraph,
    x: int,
    r: float,
    closed: bool = False,
    edge_filter: Metric = None,
) -> Ball:
    """Metric ball around ``x``: open ``d < r`` by default, closed ``d <= r``."""
    if not (r > 0) or not np.isfinite(r):
        raise InputError(f"ball radius must be positive and finite, got {r}")
    dist = G.distances_from([x], mask=edge_filter, limit=r, min_only=True)
    inside = dist <= r if closed else dist < r
    members = G.vertex_ids[inside]
    return Ball(
        center=int(x),
        radius=float(r),
        members=tuple(int(v) for v in members),
        measure=float(G.mu[inside].sum()),
        closed=closed,
    )


def components(
    G: MetricMeasureGraph, edge_filter: Metric = None
) -> list[tuple[int, ...]]:
    """Connected components as sorted id tuples, ordered by smallest member."""
    csr = G._csr(edge_filter)
    if G.n_vertices == 0:
        return []
    _, labels = _cc(csr, directed=False)
    parts: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        parts.setdefault(int(lab), []).append(int(G.vertex_ids[i]))
    return sorted((tuple(p) for p in parts.values()), key=lambda p: p[0])


def component_count(G: MetricMeasureGraph, edge_filter: Metric = None) -> int:
    """Number of connected components, 0 for the empty graph: the length of
    ``components(G, edge_filter)`` without building its tuples."""
    return int(_cc(G._csr(edge_filter), directed=False)[0])


def lipschitz_constant(
    G: MetricMeasureGraph,
    u: Mapping[int, float],
    metric: Metric | Callable[[int, int], float] = None,
) -> float:
    """Largest ratio ``|u(x) - u(y)| / metric(x, y)`` over pairs in ``u``.

    ``u`` must be nonempty and may cover only part of the vertex set; the
    supremum runs over pairs of its keys.  Pairs at infinite distance are
    skipped.  ``metric`` is the graph metric by default, ``"essential"``
    for the metric of the positive-measure subgraph, a bool edge mask for
    the metric of that edge subset, or a callable distance on vertex-id
    pairs (an :class:`Edge` predicate is not a distance and raises
    TypeError here).
    When no edge of the metric leaves the keys, they are whole components
    and the constant is the largest edge slope ``|u(a) - u(b)| / len``,
    with no search.  Otherwise steepest-pair rounds (``_steepest_rounds``,
    three searches a round) set aside every key that no pair steeper than
    a proven lower bound can end at, and the smallest key left, whose row
    they read; each pair of the keys left is read from its smaller key's
    row.  On smooth data on a square's
    boundary that is 3 searches for 128 keys at h=1/32 and 3 for 512 at
    h=1/128, where a search from every key makes 128 and 512.  Tied data,
    whose rounds stop when they fail to halve the keys, costs up to one
    search per key.  The value is the one a search from every key gives.
    """
    keys, idx = _vertex_set(G, u, "u")
    vals = _values(u, keys, "u")
    if callable(metric):
        i, j = np.triu_indices(len(keys), k=1)
        d = [float(metric(keys[a], keys[b])) for a, b in zip(i, j)]
        return _max_diff_ratio(np.abs, vals[i], vals[j], np.asarray(d))
    return _max_slope(G, idx, vals, np.abs, metric)


def _max_slope(G, idx, vals, size, metric) -> float:
    """Largest ``size(vals[a] - vals[b]) / d(idx[a], idx[b])`` over pairs of
    distinct vertex indices ``idx`` (ascending): ``vals`` holds one value
    (or row) per index, and ``size`` maps the differences of many pairs to
    their sizes (``abs``, or a vector norm).  Each pair is read from its
    smaller key's row; scalar data first reads and sets aside keys by
    ``_steepest_rounds``."""
    metric = G._metric(metric)
    pos = np.full(G.n_vertices, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    keep = G.edge_mask(metric)
    i, j, d = pos[G._edge_ia[keep]], pos[G._edge_ib[keep]], G._edge_len[keep]
    inner = (i >= 0) & (j >= 0)
    # no search gives a pair more than its edge's length, so the largest
    # edge slope is at most the largest slope
    alpha = _max_diff_ratio(size, vals[i[inner]], vals[j[inner]], d[inner])
    if alpha == math.inf or np.array_equal(i < 0, j < 0):
        # whole components: a geodesic's difference is at most the sum of
        # its edges' differences, so the largest ratio is an edge slope
        return alpha
    cand = np.arange(idx.size)
    if vals.ndim == 1:
        alpha, cand = _steepest_rounds(G, metric, idx, vals, alpha, float(d.min()))
        if alpha == math.inf:  # read exactly: no pair is steeper
            return alpha
    # each pair of candidates from its smaller key's row
    for chunk, block in _distance_blocks(G, idx[cand[:-1]], metric):
        a = pos[chunk]
        r, c = np.nonzero(cand > a[:, None])
        b = cand[c]
        alpha = max(alpha, _max_diff_ratio(size, vals[a[r]], vals[b], block[r, idx[b]]))
    return alpha


def _virtual_source(csr: csr_matrix, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Distances from a virtual source joined to each vertex ``idx[k]`` by
    an edge of weight ``w[k]``: ``min_k w[k] + d(idx[k], t)`` at every
    vertex t, in one search.  Explicit zeros stay edges."""
    n = csr.shape[0]
    aug = csr_matrix(
        (
            np.concatenate([csr.data, w]),
            np.concatenate([csr.indices, idx]),
            np.append(csr.indptr, csr.nnz + idx.size),
        ),
        shape=(n + 1, n + 1),
    )
    return _dijkstra(aug, directed=True, indices=n)[:n]


def _steepest_rounds(G, metric, idx, vals, alpha, dmin) -> tuple[float, np.ndarray]:
    """Raise ``alpha``, a lower bound of the largest slope of scalar
    ``vals`` on the keys ``idx``, and prune the keys (Kyng, Rao, Sachdeva
    and Spielman, "Algorithms for Lipschitz Learning on Graphs", §4).

    ``dmin`` is the metric's shortest edge.  Returns ``alpha`` and the
    candidates: the positions of the keys of which some pair not yet read
    may be steeper than ``alpha``.  Every other pair has a slope of at
    most ``alpha``, so the largest slope is ``alpha`` or that of a pair of
    candidates.

    Each round searches from a virtual source twice, for the envelopes
    U(t) = min_s g_s + beta d(s, t) and L(t) = max_s g_s - beta d(s, t)
    at beta = alpha (1 - eps), in distance units: each key's weight
    w = (g - lo) / beta against the search from all of them, and
    w = (hi - g) / beta likewise.  A key's own term reaches it exactly, as
    its own edge, so a key stays a candidate only where another key's
    term undercuts its w: its own term needs no slack.  Then the row of
    the smallest candidate is searched.  Its pairs with the other
    candidates are pairs of its smaller key, read as one search from
    every key reads them, so they raise ``alpha`` exactly and the key
    leaves the candidates.  Both keys of a pair steeper than beta lie
    outside an envelope, one above U and one below L, so the candidates
    keep every such pair not yet read.  The rounds stop when one fails to
    halve the candidates, as on tied data, when fewer than two are left,
    and at an ``alpha`` of 0 (no envelope to build) or inf (the answer).

    Rounding.  A search sums at most n nonnegative terms along a path,
    within a factor 1 -+ t of the exact sum, t ~ n u with u = 2**-53, and
    every other operation here is one rounding.  So a key t within both
    envelopes has, for every key s of its component,
        |g_t - g_s| <= beta (1 + t) d(s, t) + (t + 4u)(hi - lo) + beta 2**-1073,
    where the middle term is the rounding of the offsets w and the last
    the underflow of one division.  A search gives the pair at least
    (1 - t) d(s, t), and d(s, t) >= dmin, so its slope is at most alpha
    when eps >= 2t + u + (t + 4u)(hi - lo) / (alpha dmin) + 2**-1072 / dmin.
    The eps used takes n 2**-48 = 32 n u for t and u, and 2**-1070.  Data
    whose differences overflow and an eps of 1/2 or more end the rounds.
    """
    ids = G.vertex_ids
    csr = G._csr(metric)
    cand = np.arange(idx.size)
    lo, hi = float(vals.min()), float(vals.max())
    osc = hi - lo
    if not math.isfinite(osc):
        return alpha, cand
    rel = G.n_vertices * 2.0**-48
    while cand.size > 1:
        if alpha > 0:
            with np.errstate(over="ignore", divide="ignore"):
                eps = rel * (1 + np.float64(osc) / (alpha * dmin)) + 2.0**-1070 / dmin
                beta = alpha * (1 - eps)
                wu, wl = (vals - lo) / beta, (hi - vals) / beta
            if not (eps < 0.5 and np.isfinite(wu).all() and np.isfinite(wl).all()):
                break
            excess = np.maximum(wu - _virtual_source(csr, idx, wu)[idx],
                                wl - _virtual_source(csr, idx, wl)[idx])
            keep = cand[excess[cand] > 0]
            halved, cand = 2 * keep.size <= cand.size, keep
            if not halved or cand.size < 2:
                break
        x, cand = cand[0], cand[1:]
        row = G.distances_from([int(ids[idx[x]])], mask=metric)[0]
        alpha = max(alpha, _max_diff_ratio(np.abs, vals[x].repeat(cand.size), vals[cand],
                                           row[idx[cand]]))
        if alpha == 0 or alpha == math.inf:  # no envelope to build, or the answer
            break
    return alpha, cand


def _max_diff_ratio(size, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> float:
    """Largest ``size(a - b) / d`` over pairs, as ``_max_ratio``; a pair whose
    size overflows is redone as 2 (size(a/2 - b/2) / d), exact for such values."""
    with np.errstate(over="ignore"):
        du = size(a - b)
        big = np.isinf(du)
        half = size(a[big] * 0.5 - b[big] * 0.5)
    du[big] = 0.0
    return max(_max_ratio(du, d), 2 * _max_ratio(half, d[big]))


def _max_ratio(du: np.ndarray, d: np.ndarray) -> float:
    """Largest ``du / d`` over pairs: pairs at infinite distance are
    skipped, a positive ``du`` at distance ``<= 0`` gives ``inf``, so does
    a ratio past the float range, and no pair at all gives 0."""
    finite = np.isfinite(d)
    d, du = d[finite], du[finite]
    if np.any((d <= 0) & (du > 0)):
        return math.inf
    ok = d > 0
    with np.errstate(over="ignore"):
        return float(np.max(du[ok] / d[ok], initial=0.0))

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


def _floats(values: list, what: str, rows: bool = False) -> np.ndarray:
    """Float array of numbers (of rows of numbers with ``rows``).  Strings
    and bools are rejected: numpy would read ``"2"`` as 2.0 and ``True``
    as 1.0."""
    items = itertools.chain.from_iterable(values) if rows else values
    if not {str, bool}.isdisjoint(map(type, items)):
        raise InputError(f"{what} must be numbers, not strings or booleans")
    return np.asarray(values, dtype=np.float64)


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
        try:
            ids = np.asarray([v["id"] for v in vertices], dtype=np.int64)
            mu = _floats([v["mu"] for v in vertices], "vertex mu")
            has_pos = [("pos" in v and v["pos"] is not None) for v in vertices]
            if any(has_pos) and not all(has_pos):
                raise InputError("pos must be given for all vertices or none")
            pos = None
            if vertices and all(has_pos):
                pos = _floats([v["pos"] for v in vertices], "vertex pos", rows=True)
                if pos.ndim != 2:
                    raise InputError("vertex pos entries must share one dimension")
            ea = np.asarray([e["a"] for e in edges], dtype=np.int64)
            eb = np.asarray([e["b"] for e in edges], dtype=np.int64)
            elen = _floats([e["len"] for e in edges], "edge len")
            emu = _floats([e["mu_edge"] for e in edges], "edge mu_edge")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed vertex or edge record: {exc}") from exc
        self._init_arrays(ids, mu, pos, ea, eb, elen, emu)

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
            if np.unique(key).size != key.size:
                raise InputError("duplicate undirected edge")

        self._ids = ids
        self._mu = mu
        self._pos = pos
        self._edge_ia = ia
        self._edge_ib = ib
        self._edge_len = elen
        self._edge_mu = emu
        self._positive = emu > 0
        self._positive.flags.writeable = False
        self._id_to_idx = {int(v): i for i, v in enumerate(ids)}
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
        return int(vid) in self._id_to_idx

    def index_of(self, vid: int) -> int:
        try:
            return self._id_to_idx[int(vid)]
        except KeyError:
            raise InputError(f"unknown vertex id {vid}") from None

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
        for i in range(self.n_edges):
            yield self.edge(i)

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

    def distance_matrix(
        self,
        source_ids: Sequence[int] | None = None,
        mask: Metric = None,
    ) -> np.ndarray:
        """Rows of the all-pairs distance matrix (all vertices by default)."""
        if source_ids is None:
            source_ids = [int(v) for v in self._ids]
        return np.atleast_2d(self.distances_from(source_ids, mask=mask))

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


#: Distance entries per kernel call of ``_distance_rows``: 2**17 float64
#: entries, 1 MB of output per call whatever the graph's size.
_CHUNK_ENTRIES = 1 << 17


def _chunk_sources(n: int) -> int:
    """Sources per kernel call of ``_distance_rows`` on an n-vertex graph."""
    return max(1, _CHUNK_ENTRIES // max(n, 1))


def _distance_rows(
    G: MetricMeasureGraph,
    source_idx: Sequence[int],
    metric: Metric = None,
    limit: float = np.inf,
) -> Iterator[np.ndarray]:
    """The distance row (by vertex index) of each source index, in order.

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
        chunk = ids[source_idx[start:start + step]].tolist()
        yield from np.atleast_2d(G.distances_from(chunk, mask=metric, limit=limit))


def graph_from_dict(data: Mapping) -> MetricMeasureGraph:
    if not isinstance(data, Mapping) or "vertices" not in data or "edges" not in data:
        raise InputError("graph JSON must have 'vertices' and 'edges'")
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, (list, tuple)) or not isinstance(edges, (list, tuple)):
        raise InputError("graph JSON 'vertices' and 'edges' must be lists")
    for v in vertices:
        vid = v.get("id") if isinstance(v, Mapping) else None
        if not isinstance(vid, int) or isinstance(vid, bool):
            raise InputError("vertex id must be an integer")
    for e in edges:
        ends = (e.get("a"), e.get("b")) if isinstance(e, Mapping) else (None, None)
        if any(not isinstance(x, int) or isinstance(x, bool) for x in ends):
            raise InputError("edge endpoints must be integer vertex ids")
    return MetricMeasureGraph(vertices, edges)


def load_graph(path: str | os.PathLike) -> MetricMeasureGraph:
    """Read a graph from its JSON file form, validating as it loads."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc
    return graph_from_dict(data)


def save_graph(G: MetricMeasureGraph, path: str | os.PathLike) -> None:
    from .util import dump_json

    dump_json(G.to_dict(), path)


# -- shortest paths -------------------------------------------------------


def shortest_path(
    G: MetricMeasureGraph,
    x: int,
    y: int,
    edge_filter: Metric = None,
) -> PathResult:
    """Exact shortest path between two vertices.

    Dijkstra over nonnegative edge lengths.  Among equal-distance frontier
    vertices the smallest vertex id settles first, and predecessors change
    only on strict improvement, so equal-length geodesics resolve to the
    one through the smaller-id neighbor.
    """
    xi, yi = G.index_of(x), G.index_of(y)
    if xi == yi:
        return PathResult(0.0, (int(x),))
    return _heap_dijkstra_pair(G._csr(edge_filter), G.vertex_ids, xi, yi)


# This search stays next to scipy on purpose: the tie-break above is defined
# by the order in which vertices settle.  Backtracking a scipy distance
# array along tight edges (smallest (dist, id) predecessor) reproduces it on
# ordinary inputs, but finds no predecessor when an edge vanishes in
# rounding, fl(d + len) == d (say a 1e-300 edge among length-1 edges).
def _heap_dijkstra_pair(csr, ids, xi, yi) -> PathResult:
    # plain lists: indexing a numpy array yields a boxed scalar per edge
    indptr, heads, lens = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    ids = ids.tolist()
    dist = {xi: 0.0}
    pred: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int, int]] = [(0.0, ids[xi], xi)]
    while heap:
        d, _, vi = heapq.heappop(heap)
        if vi in done:
            continue
        done.add(vi)
        if vi == yi:
            seq = [yi]
            while seq[-1] != xi:
                seq.append(pred[seq[-1]])
            return PathResult(d, tuple(ids[i] for i in reversed(seq)))
        for p in range(indptr[vi], indptr[vi + 1]):
            wi = heads[p]
            if wi in done:
                continue
            nd = d + lens[p]
            if nd < dist.get(wi, math.inf):
                dist[wi] = nd
                pred[wi] = vi
                heapq.heappush(heap, (nd, ids[wi], wi))
    return PathResult(math.inf, ())


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


def lipschitz_constant(
    G: MetricMeasureGraph,
    u: Mapping[int, float],
    metric: Metric | Callable[[int, int], float] = None,
) -> float:
    """Largest ratio ``|u(x) - u(y)| / metric(x, y)`` over pairs in ``u``.

    ``u`` may cover only part of the vertex set; the supremum runs over
    pairs of its keys.  Pairs at infinite distance are skipped.  ``metric``
    is the graph metric by default, ``"essential"`` for the metric of the
    positive-measure subgraph, a bool edge mask for the metric of that
    edge subset, or a callable distance on vertex-id pairs (an
    :class:`Edge` predicate is not a distance and raises TypeError here).
    When no edge of the metric leaves the keys, they are whole components
    and the constant is the largest edge slope ``|u(a) - u(b)| / len``;
    otherwise one search from the keys gives every pair distance.
    """
    if G.n_vertices == 0:
        raise InputError("lipschitz_constant of an empty graph")
    keys = sorted(int(k) for k in u.keys())
    for k in keys:
        G.index_of(k)
        if not np.isfinite(u[k]):
            raise InputError(f"non-finite value at vertex {k}")
    vals = np.asarray([float(u[k]) for k in keys])
    if callable(metric):
        i, j = np.triu_indices(len(keys), k=1)
        d = [float(metric(keys[a], keys[b])) for a, b in zip(i, j)]
        return _max_ratio(np.abs(vals[i] - vals[j]), np.asarray(d))
    return _max_slope(G, keys, vals, np.abs, metric)


def _max_slope(G, keys, vals, size, metric) -> float:
    """Largest ``size(vals[a] - vals[b]) / d(keys[a], keys[b])`` over pairs of
    keys: ``vals`` holds one value (or row) per key, and ``size`` maps the
    differences of many pairs to their sizes (``abs``, or a vector norm)."""
    metric = G._metric(metric)
    idx = np.asarray([G.index_of(k) for k in keys], dtype=np.int64)
    pos = np.full(G.n_vertices, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    keep = G.edge_mask(metric)
    i, j, d = pos[G._edge_ia[keep]], pos[G._edge_ib[keep]], G._edge_len[keep]
    if np.array_equal(i < 0, j < 0):
        # whole components: a geodesic's difference is at most the sum of
        # its edges' differences, so the largest ratio is an edge slope
        inner = i >= 0
        i, j, d = i[inner], j[inner], d[inner]
    else:
        rows = np.atleast_2d(G.distances_from(keys, mask=metric))
        i, j = np.triu_indices(idx.size, k=1)
        d = rows[i, idx[j]]
    return _max_ratio(size(vals[i] - vals[j]), d)


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

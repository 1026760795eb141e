"""Independent reference computations for the output checks.

Distances come from networkx's Dijkstra on graphs built from the
benchmark's own generated arrays, or from graph JSON files parsed with
the ``json`` module, so no reference value runs mmgraph or scipy code.
Averages use exact rational arithmetic, so the oscillation of a
one-vertex ball is exactly zero.

Where a distance lies within a relative ``BAND`` of a radius, the two
Dijkstras may round the same path length to different sides of it;
checks then accept either side instead of failing on the last ulp.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import networkx as nx
import numpy as np

BAND = 1e-12


class CheckFailed(Exception):
    """An output disagreed with its reference."""


class KnownDefect(Exception):
    """An output disagreed with its reference exactly as a documented
    defect of the program predicts (see README.md, "Known defect")."""


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def nx_graph(a, b, length, keep=None, nodes=()) -> nx.Graph:
    """Undirected weighted graph on ``nodes`` plus the (kept) edges a-b."""
    G = nx.Graph()
    G.add_nodes_from(int(v) for v in nodes)
    if keep is None:
        keep = np.ones(len(a), dtype=bool)
    G.add_weighted_edges_from(
        (int(x), int(y), float(w)) for x, y, w, k in zip(a, b, length, keep) if k
    )
    return G


def sssp(G: nx.Graph, src: int, cutoff: float | None = None) -> dict[int, float]:
    return nx.single_source_dijkstra_path_length(G, int(src), cutoff=cutoff)


def pair_distance(G: nx.Graph, a: int, b: int) -> float:
    try:
        return float(nx.dijkstra_path_length(G, int(a), int(b)))
    except nx.NetworkXNoPath:
        return math.inf


def inside(dist: dict[int, float], r: float, closed: bool = False):
    """(exact, definite, possible) member sets of a ball of radius r.

    ``exact`` applies the same float predicate as the library; the other
    two widen or narrow the boundary by ``BAND``.
    """
    lo, hi = r * (1 - BAND), r * (1 + BAND)
    if closed:
        exact = {v for v, d in dist.items() if d <= r}
        definite = {v for v, d in dist.items() if d <= lo}
        possible = {v for v, d in dist.items() if d <= hi}
    else:
        exact = {v for v, d in dist.items() if d < r}
        definite = {v for v, d in dist.items() if d < lo}
        possible = {v for v, d in dist.items() if d < hi}
    return exact, definite, possible


def fsum_over(values: dict[int, float], members) -> float:
    return math.fsum(values[v] for v in members)


def in_band(value: float, lo: float, hi: float, rel: float = 1e-12) -> bool:
    return lo * (1 - rel) - 1e-300 <= value <= hi * (1 + rel) + 1e-300


def oscillation(mu: dict[int, float], u: dict[int, float], members) -> float:
    """Exact mu-weighted mean of |u - u_B| over a ball, rounded once."""
    m = sum(Fraction(mu[v]) for v in members)
    ub = sum(Fraction(mu[v]) * Fraction(u[v]) for v in members) / m
    return float(sum(Fraction(mu[v]) * abs(Fraction(u[v]) - ub) for v in members) / m)


def set_diameter(G: nx.Graph, members, limit: float) -> float:
    best = 0.0
    for v in members:
        dist = sssp(G, v, cutoff=limit * (1 + 1e-9))
        best = max(best, max((dist.get(w, math.inf) for w in members), default=0.0))
    return best


def local_residual(u: dict[int, float], interior, nbrs: dict[int, list]) -> float:
    """Largest |max up-slope - max down-slope| over the interior vertices."""
    worst = 0.0
    for v in interior:
        ups = [(u[w] - u[v]) / length for w, length in nbrs.get(v, ())]
        if ups:
            worst = max(worst, abs(max(ups) - max(-s for s in ups)))
    return worst


def neighbours(a, b, length, keep=None) -> dict[int, list[tuple[int, float]]]:
    out: dict[int, list[tuple[int, float]]] = {}
    if keep is None:
        keep = np.ones(len(a), dtype=bool)
    for x, y, w, k in zip(a, b, length, keep):
        if k:
            out.setdefault(int(x), []).append((int(y), float(w)))
            out.setdefault(int(y), []).append((int(x), float(w)))
    return out


class GraphFile:
    """A graph JSON file parsed with ``json`` plus its reference graphs."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        verts, edges = data["vertices"], data["edges"]
        self.ids = [int(v["id"]) for v in verts]
        self.mu = {int(v["id"]): float(v["mu"]) for v in verts}
        self.pos = {int(v["id"]): v.get("pos") for v in verts}
        self.a = np.asarray([e["a"] for e in edges], dtype=np.int64)
        self.b = np.asarray([e["b"] for e in edges], dtype=np.int64)
        self.len = np.asarray([e["len"] for e in edges], dtype=np.float64)
        self.mu_edge = np.asarray([e["mu_edge"] for e in edges], dtype=np.float64)
        self.graph = nx_graph(self.a, self.b, self.len, nodes=self.ids)
        self.essential = nx_graph(
            self.a, self.b, self.len, keep=self.mu_edge > 0, nodes=self.ids
        )

    @property
    def n_vertices(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return int(self.a.size)

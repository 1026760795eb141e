"""``shortest_path`` checked against a heap Dijkstra that settles vertices
one at a time.

The oracle below is the search ``shortest_path`` used to run: vertices
settle in heap order and a predecessor changes only on strict
improvement.  ``shortest_path`` now reads the same path back from one
distance search; random graphs with lengths 1e-300, 1 and 1e300 make
edges vanish in rounding (``d + len == d``), the one place where the
settle order is not plain (distance, id).
"""

import heapq
import itertools
import math

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_graph
from mmgraph import MetricMeasureGraph, PathResult, gen_grid, graph, shortest_path

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
#: a few lengths only, so that ties and vanishing edges are common
LENGTHS = st.sampled_from([1.0, 2.0, 0.5, 1e-300, 1e300])


def heap_path(G, x, y, metric=None):
    """The path a heap Dijkstra from x finds to y, stopped when y settles.

    Among equal-distance entries the smallest id pops first; a
    predecessor changes only on strict improvement.
    """
    keep = G.edge_mask(metric)
    adj = {int(v): [] for v in G.vertex_ids}
    for e in G.edges():
        if keep[e.index]:
            adj[e.a].append((e.b, e.length))
            adj[e.b].append((e.a, e.length))
    dist, pred, done = {x: 0.0}, {}, set()
    heap = [(0.0, x)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == y:
            seq = [y]
            while seq[-1] != x:
                seq.append(pred[seq[-1]])
            return PathResult(d, tuple(reversed(seq)))
        for w, length in adj[v]:
            if w in done:
                continue
            nd = d + length
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                pred[w] = v
                heapq.heappush(heap, (nd, w))
    return PathResult(math.inf, ())


@st.composite
def graphs(draw, max_n=9):
    """Shuffled ids, zero-measure edges, maybe disconnected."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(a, b, draw(LENGTHS), draw(st.sampled_from([0.0, 1.0]))) for a, b in chosen]
    return make_graph([(v, 1.0) for v in ids], edges)


def spellings(G, metric):
    """Every spelling of ``metric``: the name, a bool mask and a predicate."""
    if metric == "graph":
        return ["graph", None, np.ones(G.n_edges, bool), lambda e: True]
    return ["essential", "positive", G.positive_edge_mask(), lambda e: e.mu_edge > 0]


class TestAgainstTheHeap:
    @SETTINGS
    @given(graphs(), st.sampled_from(["graph", "essential"]))
    def test_every_pair_and_spelling(self, G, metric):
        ids = [int(v) for v in G.vertex_ids]
        for x, y in itertools.product(ids, repeat=2):
            want = heap_path(G, x, y, metric)
            for spelling in spellings(G, metric):
                got = shortest_path(G, x, y, spelling)
                assert got == want
                assert repr(got) == repr(want)

    def test_vanishing_edge_from_a_larger_id(self):
        # 2 is at distance 1 only through 5 and a 1e-300 edge, so it
        # settles after 5 although its id is smaller.  At distance 2, 1
        # (reached from 2) comes before 9 (reached from 0), so 4, joined
        # to both by 1e-300 edges, comes before 9 too and takes 1
        G = make_graph(
            [(v, 1.0) for v in (0, 1, 2, 4, 5, 9)],
            [(0, 5, 1.0), (5, 2, 1e-300), (0, 9, 2.0), (9, 4, 1e-300),
             (4, 1, 1e-300), (2, 1, 1.0)],
        )
        for y, want in [
            (2, (0, 5, 2)), (1, (0, 5, 2, 1)), (4, (0, 5, 2, 1, 4)), (9, (0, 9)),
        ]:
            assert shortest_path(G, 0, y).vertex_sequence == want
            assert shortest_path(G, 0, y) == heap_path(G, 0, y)

    def test_unit_grid_with_vanishing_rungs(self):
        # a unit grid whose every third edge is 1e-300: large equal-distance
        # sets joined by vanishing edges
        G = gen_grid(1 / 6, (0.0, 0.0, 1.0, 1.0))
        lengths = np.where(np.arange(G.n_edges) % 3 == 0, 1e-300, 1.0)
        ids = G.vertex_ids
        H = MetricMeasureGraph.from_arrays(
            ids, G.mu, G.pos, ids[G._edge_ia], ids[G._edge_ib], lengths, G.edge_measures
        )
        for x, y in itertools.permutations([int(v) for v in ids[::4]], 2):
            assert shortest_path(H, x, y) == heap_path(H, x, y)

    def test_unreachable_and_same_vertex(self):
        G = make_graph([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1, 1.0, 0.0)])
        assert shortest_path(G, 0, 1, "essential") == PathResult(math.inf, ())
        assert shortest_path(G, 0, 2) == PathResult(math.inf, ())
        assert shortest_path(G, 2, 2, "essential") == PathResult(0.0, (2,))

    def test_length_past_the_float_range_is_unreachable(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1, 1.5e308), (1, 2, 1.5e308)]
        )
        assert shortest_path(G, 0, 1) == PathResult(1.5e308, (0, 1))
        assert shortest_path(G, 0, 2) == heap_path(G, 0, 2) == PathResult(math.inf, ())


def test_one_kernel_call_per_query(monkeypatch):
    G = gen_grid(1 / 8, (0.0, 0.0, 1.0, 1.0))
    calls = []
    orig = MetricMeasureGraph.distances_from

    def counting(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(MetricMeasureGraph, "distances_from", counting)
    H = nx.Graph()
    H.add_weighted_edges_from((e.a, e.b, e.length) for e in G.edges())
    for x, y in [(0, 80), (3, 4), (40, 0)]:
        calls.clear()
        res = shortest_path(G, x, y)
        assert len(calls) == 1
        assert res.length == nx.shortest_path_length(H, x, y, weight="weight")


def test_one_csr_build_per_mask_or_predicate_query(monkeypatch):
    """A mask or predicate metric's CSR is not cached; the path is read
    back from the edge arrays, so the search builds the only one."""
    G = gen_grid(1 / 8, (0.0, 0.0, 1.0, 1.0))
    builds = []
    orig = graph.csr_matrix

    def counting(*args, **kwargs):
        builds.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(graph, "csr_matrix", counting)
    mask = G.positive_edge_mask()
    for metric in (mask, lambda e: e.mu_edge > 0):
        builds.clear()
        res = shortest_path(G, 0, 80, metric)
        assert len(builds) == 1
        assert res == heap_path(G, 0, 80, metric)

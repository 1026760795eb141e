"""Shortest-path kernels checked against networkx and brute force.

Random graphs mix zero-measure edges, disconnected parts, single
vertices, and edge lengths of 1e-300 and 1e300, so the graph and the
essential metric differ and rounding meets both ends of the float range.
"""

import itertools
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_graph, path_graph
from mmgraph import (
    InputError,
    MetricMeasureGraph,
    VectorField,
    components,
    gen_grid,
    lipschitz_constant,
    mcshane_extend,
    shortest_path,
    vector_lipschitz_constant,
)

LENGTHS = st.one_of(
    st.sampled_from([1e-300, 1e300, 1.0]),
    st.floats(min_value=0.01, max_value=100.0),
)
FAST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def graphs(draw, max_n=10):
    """A graph on shuffled non-contiguous ids with random zero-measure edges."""
    n = draw(st.integers(1, max_n))
    ids = draw(
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True)
    )
    pairs = [(a, b) for a, b in itertools.combinations(ids, 2)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [
        (a, b, draw(LENGTHS), draw(st.sampled_from([0.0, 0.0, 1.0, 2.5])))
        for a, b in chosen
    ]
    return make_graph([(v, 1.0) for v in ids], edges)


def nx_graph(G, metric):
    """The same graph in networkx, zero-measure edges dropped for "essential"."""
    H = nx.Graph()
    H.add_nodes_from(int(v) for v in G.vertex_ids)
    for e in G.edges():
        if metric == "graph" or e.mu_edge > 0:
            H.add_edge(e.a, e.b, weight=e.length)
    return H


def nx_row(G, H, sources, cutoff=None):
    """Distances from the nearest of ``sources``, in internal index order."""
    d = nx.multi_source_dijkstra_path_length(H, set(sources), cutoff=cutoff)
    return np.asarray([d.get(int(v), math.inf) for v in G.vertex_ids])


def assert_same_distances(got, want):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-12, atol=0)


METRICS = ("graph", "essential")


class TestDistancesFrom:
    @FAST
    @given(graphs(), st.sampled_from(METRICS), st.data())
    def test_rows_match_networkx(self, G, metric, data):
        ids = [int(v) for v in G.vertex_ids]
        sources = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
        H = nx_graph(G, metric)
        rows = np.atleast_2d(G.distances_from(sources, mask=metric))
        for s, row in zip(sources, rows):
            assert_same_distances(row, nx_row(G, H, [s]))

    @FAST
    @given(graphs(), st.sampled_from(METRICS), st.data())
    def test_min_only_and_nearest_source(self, G, metric, data):
        ids = [int(v) for v in G.vertex_ids]
        sources = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
        H = nx_graph(G, metric)
        want = nx_row(G, H, sources)
        dist, nearest = G.distances_from(
            sources, mask=metric, min_only=True, return_nearest_source=True
        )
        assert_same_distances(dist, want)
        assert np.array_equal(nearest == -1, np.isinf(want))
        for i in np.nonzero(nearest >= 0)[0]:
            s = int(nearest[i])
            assert s in sources
            alone = nx.single_source_dijkstra_path_length(H, s)
            assert alone[int(G.vertex_ids[i])] == pytest.approx(want[i], rel=1e-12)

    @FAST
    @given(graphs(), st.sampled_from(METRICS), st.data())
    def test_truncated_limit(self, G, metric, data):
        ids = [int(v) for v in G.vertex_ids]
        s = data.draw(st.sampled_from(ids))
        H = nx_graph(G, metric)
        full = nx_row(G, H, [s])
        finite = sorted(set(full[np.isfinite(full)].tolist()))
        limit = data.draw(
            st.one_of(st.sampled_from(finite), st.floats(1e-3, 1e3))
        )
        got = G.distances_from([s], mask=metric, limit=limit, min_only=True)
        inside = full <= limit
        assert_same_distances(got[inside], full[inside])
        # beyond the documented slack nothing is reported
        beyond = full > limit * (1 + 1e-9) + 1e-300
        assert np.all(np.isinf(got[beyond]))
        between = ~inside & ~beyond
        assert np.all(np.isinf(got[between]) | (got[between] == full[between]))


class TestComponents:
    @FAST
    @given(graphs(), st.sampled_from(METRICS + ("positive", None)))
    def test_match_networkx(self, G, metric):
        name = "essential" if metric == "positive" else (metric or "graph")
        want = sorted(
            (tuple(sorted(c)) for c in nx.connected_components(nx_graph(G, name))),
            key=lambda c: c[0],
        )
        assert components(G, edge_filter=metric) == want


def brute_lipschitz(H, u):
    best = 0.0
    for x, y in itertools.combinations(sorted(u), 2):
        if nx.has_path(H, x, y):
            d = nx.shortest_path_length(H, x, y, weight="weight")
            best = max(best, abs(u[x] - u[y]) / d)
    return best


def brute_mcshane(G, H, u, lip):
    out = {}
    for x in (int(v) for v in G.vertex_ids):
        dx = nx.single_source_dijkstra_path_length(H, x)
        cands = [u[y] + lip * dx[y] for y in u if y in dx]
        out[x] = min(cands) if cands else math.inf
    return out


class TestMcShane:
    @FAST
    @given(graphs(), st.sampled_from(METRICS), st.data())
    def test_matches_brute_force(self, G, metric, data):
        ids = [int(v) for v in G.vertex_ids]
        omega = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        vals = data.draw(
            st.lists(
                st.floats(-10.0, 10.0), min_size=len(omega), max_size=len(omega)
            )
        )
        u = dict(zip(omega, vals))
        H = nx_graph(G, metric)
        lip = brute_lipschitz(H, u)
        assert lipschitz_constant(G, u, metric) == pytest.approx(lip, rel=1e-12)
        want = brute_mcshane(G, H, u, lip)
        got = mcshane_extend(G, omega, u, metric)
        scale = max(abs(v) for v in vals)
        for x, w in want.items():
            if x in u:
                assert got[x] == u[x]
            elif math.isinf(w):
                assert got[x] == w
            else:
                assert got[x] == pytest.approx(w, rel=1e-12, abs=1e-12 * scale)

    @FAST
    @given(graphs(), st.data())
    def test_zero_slope_takes_component_minimum(self, G, data):
        """L = 0: each component's data is constant, possibly different."""
        label = {v: k for k, comp in enumerate(components(G)) for v in comp}
        level = data.draw(
            st.lists(st.floats(-5, 5), min_size=len(set(label.values())),
                     max_size=len(set(label.values())))
        )
        ids = [int(v) for v in G.vertex_ids]
        omega = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        u = {v: level[label[v]] for v in omega}
        assert lipschitz_constant(G, u) == 0.0
        got = mcshane_extend(G, omega, u)
        hit = {label[v] for v in omega}
        for x in ids:
            assert got[x] == (level[label[x]] if label[x] in hit else math.inf)

    def test_zero_slope_on_disconnected_graph(self):
        G = make_graph(
            [(i, 1.0) for i in range(6)],
            [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 2.0)],
        )
        got = mcshane_extend(G, [0, 2, 4], {0: 3.0, 2: 3.0, 4: -1.0})
        assert got == {0: 3.0, 1: 3.0, 2: 3.0, 3: -1.0, 4: -1.0, 5: math.inf}

    def test_minimum_vertex_seeds_its_neighbours(self):
        """The Omega vertex holding the smallest value sits at offset 0."""
        G = path_graph(5)
        got = mcshane_extend(G, [0, 4], {0: 0.0, 4: 4.0})
        assert got == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}

    def test_per_component_offsets_survive_a_tiny_slope(self):
        """A slope near the float floor must not push other parts to inf."""
        G = make_graph(
            [(i, 1.0) for i in range(5)],
            [(0, 1, 1e300), (1, 2, 1e300), (3, 4, 1.0)],
        )
        u = {0: 0.0, 2: 1e-10, 3: 5.0}
        lip = lipschitz_constant(G, u)
        got = mcshane_extend(G, [0, 2, 3], u)
        assert lip == pytest.approx(1e-10 / 2e300)
        assert got[4] == pytest.approx(5.0 + lip)
        assert got[1] == pytest.approx(lip * 1e300)


def spelled_metric(G, spelling, data):
    """A metric argument and, built from the edges on their own, the
    networkx graph of the same metric."""
    if spelling == "mask":
        keep = data.draw(
            st.lists(st.booleans(), min_size=G.n_edges, max_size=G.n_edges)
        )
        metric = np.asarray(keep, dtype=bool)
    else:
        keep = [spelling is None or e.mu_edge > 0 for e in G.edges()]
        metric = spelling
    H = nx.Graph()
    H.add_nodes_from(int(v) for v in G.vertex_ids)
    H.add_weighted_edges_from(
        (e.a, e.b, e.length) for e in G.edges() if keep[e.index]
    )
    return metric, H


def brute_slope(H, f, norm="max"):
    """Largest norm(f(x) - f(y)) / d(x, y) over every reachable pair."""
    dist = dict(nx.all_pairs_dijkstra_path_length(H))
    best = 0.0
    for x, y in itertools.combinations(sorted(f), 2):
        if y in dist[x]:
            diff = [a - b for a, b in zip(f[x], f[y])]
            if norm == "max":
                size = max(abs(t) for t in diff)
            else:
                size = math.hypot(*diff)  # no underflow of tiny differences
            best = max(best, size / dist[x][y])
    return best


def _no_search(*args, **kwargs):
    raise AssertionError("a whole-component audit ran a distance search")


#: How the audits are called: scalar values, or vectors under a norm.
FIELDS = ("scalar", "max", "euclidean")


class TestLipschitzRoutes:
    """Whole-component domains take the edge route, partial ones the
    pairwise route; both must give the brute-force pairwise value."""

    @staticmethod
    def audit(G, f, kind, metric):
        if kind == "scalar":
            return lipschitz_constant(G, {k: v[0] for k, v in f.items()}, metric)
        return vector_lipschitz_constant(G, VectorField(f, kind), metric)

    @staticmethod
    def draw_field(data, keys, kind):
        dim = 1 if kind == "scalar" else data.draw(st.integers(1, 3))
        vec = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
        return {k: tuple(data.draw(vec)) for k in keys}

    @FAST
    @given(
        graphs(),
        st.sampled_from((None, "essential", "mask")),
        st.sampled_from(FIELDS),
        st.booleans(),
        st.data(),
    )
    def test_both_routes_match_brute_force(self, G, spelling, kind, whole, data):
        metric, H = spelled_metric(G, spelling, data)
        if whole:
            comps = sorted(sorted(c) for c in nx.connected_components(H))
            picked = data.draw(st.lists(st.sampled_from(comps), min_size=1))
            keys = sorted({v for c in picked for v in c})
        else:
            ids = [int(v) for v in G.vertex_ids]
            keys = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        f = self.draw_field(data, keys, kind)
        with pytest.MonkeyPatch.context() as mp:
            if whole:
                mp.setattr(MetricMeasureGraph, "distances_from", _no_search)
            got = self.audit(G, f, kind, metric)
        # below the normal range a ratio keeps only an absolute precision
        want = brute_slope(H, f, "max" if kind == "scalar" else kind)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-320)

    @FAST
    @given(graphs(), st.sampled_from(METRICS), st.data())
    def test_callable_distance_matches_brute_force(self, G, metric, data):
        H = nx_graph(G, metric)
        dist = dict(nx.all_pairs_dijkstra_path_length(H))
        ids = [int(v) for v in G.vertex_ids]
        keys = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        vals = data.draw(
            st.lists(st.floats(-10.0, 10.0), min_size=len(keys), max_size=len(keys))
        )
        u = dict(zip(keys, vals))
        got = lipschitz_constant(G, u, lambda x, y: dist[x].get(y, math.inf))
        want = brute_slope(H, {k: (v,) for k, v in u.items()})
        assert got == pytest.approx(want, rel=1e-12, abs=1e-320)

    def test_whole_grid_audit_stays_small(self):
        """n = 4225: one dense distance row per vertex would take 143 MB."""
        G = gen_grid(1 / 64, rect=[0, 0, 1, 1])
        x, y = G.pos[:, 0], G.pos[:, 1]
        u = dict(zip(G.vertex_ids.tolist(), (np.sin(4 * x) + y * y).tolist()))
        vf = VectorField({k: (v, -v) for k, v in u.items()}, "euclidean")
        for audit in (
            lambda: lipschitz_constant(G, u),
            lambda: vector_lipschitz_constant(G, vf),
        ):
            tracemalloc.start()
            try:
                assert audit() > 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20


def unit_grid(rows, cols, ids):
    """Four-neighbour unit grid; vertex (r, c) gets id ids[r * cols + c]."""
    at = np.asarray(ids).reshape(rows, cols)
    edges = [(int(a), int(b), 1.0) for a, b in zip(at[:, :-1].ravel(), at[:, 1:].ravel())]
    edges += [(int(a), int(b), 1.0) for a, b in zip(at[:-1].ravel(), at[1:].ravel())]
    return make_graph([(int(v), 1.0) for v in ids], edges)


def rule_path(H, x, y):
    """The geodesic the documented tie-break picks, by enumeration.

    Vertices settle in (distance, id) order and a predecessor changes only
    on strict improvement, so each vertex keeps its earliest-settled tight
    neighbour: among all geodesics the winner is the one whose
    predecessors, read back from y, have the smallest (distance, id) keys.
    """
    d = nx.single_source_dijkstra_path_length(H, x)
    paths = nx.all_shortest_paths(H, x, y, weight="weight")
    return min(paths, key=lambda p: [(d[v], v) for v in reversed(p[:-1])])


class TestTieBreak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unit_grid_paths_follow_the_rule(self, seed):
        ids = np.random.default_rng(seed).permutation(100)[:20] * 7 + 3
        G = unit_grid(4, 5, ids)
        H = nx_graph(G, "graph")
        for x, y in itertools.permutations((int(v) for v in ids[::3]), 2):
            res = shortest_path(G, x, y)
            assert list(res.vertex_sequence) == rule_path(H, x, y)
            assert res.length == nx.shortest_path_length(H, x, y, weight="weight")


class TestMetricSpellings:
    def test_all_spellings_agree(self):
        G = make_graph(
            [(i, 1.0) for i in range(4)],
            [(0, 1, 1.0, 0.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 1.0, 0.0)],
        )
        graph = G.distances_from([0], min_only=True)
        ess = G.distances_from([0], mask="essential", min_only=True)
        row = lambda spelling: G.distances_from([0], mask=spelling, min_only=True)
        for spelling in (None, "graph", np.ones(4, dtype=bool), lambda e: True):
            assert np.array_equal(row(spelling), graph)
        for spelling in ("positive", G.positive_edge_mask(), lambda e: e.mu_edge > 0):
            assert np.array_equal(row(spelling), ess)
        assert G.edge_mask("essential").tolist() == [False, True, True, False]
        assert G.edge_mask(None).tolist() == [True] * 4

    @pytest.mark.parametrize(
        "bad", ["euclidean", "", np.ones(3, dtype=bool), np.ones(4), 7]
    )
    def test_unknown_spellings_rejected(self, bad):
        G = path_graph(5)
        with pytest.raises(InputError):
            G.distances_from([0], mask=bad)
        with pytest.raises(InputError):
            components(G, edge_filter=bad)

    def test_returned_masks_are_copies(self):
        G = path_graph(3)
        m = G.edge_mask("essential")
        m[:] = False
        assert G.edge_mask("positive").all()
        assert G.positive_edge_mask().all()

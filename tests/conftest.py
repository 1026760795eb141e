"""Shared builders for the test suite."""

import numpy as np
import pytest

from mmgraph import MetricMeasureGraph, gen_simplicial

#: Filled by the acceptance tests: criterion number -> (passed, detail).
ACCEPTANCE_RESULTS = {}


def record_criterion(num, passed, detail):
    ACCEPTANCE_RESULTS[num] = (bool(passed), str(detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} {status} - {detail}")


def make_graph(vertices, edges):
    """Build a graph from (id, mu) or (id, mu, (x, y)) vertex tuples and
    (a, b, len) or (a, b, len, mu_edge) edge tuples."""
    vs = []
    for v in vertices:
        d = {"id": v[0], "mu": v[1]}
        if len(v) > 2:
            d["pos"] = list(v[2])
        vs.append(d)
    es = []
    for e in edges:
        d = {"a": e[0], "b": e[1], "len": e[2]}
        d["mu_edge"] = e[3] if len(e) > 3 else 1.0
        es.append(d)
    return MetricMeasureGraph(vs, es)


def path_graph(n, edge_len=1.0, mu=1.0):
    """Path 0-1-...-(n-1) embedded on the x axis."""
    return make_graph(
        [(i, mu, (i * edge_len, 0.0)) for i in range(n)],
        [(i, i + 1, edge_len) for i in range(n - 1)],
    )


def l_complex(h):
    """Two unit segments meeting at the origin, endpoints (1,0) and (0,1)."""
    return gen_simplicial(
        {"points": [[1, 0], [0, 0], [0, 1]], "segments": [[0, 1], [1, 2]], "h": h}
    )


def random_geometric_graph(rng, n, connect=True):
    """Random positions in the unit square, edges within range plus a
    random chain keeping the graph connected; random measures."""
    pos = rng.random((n, 2))
    mu = rng.random(n) + 0.05
    edges = {}
    radius = 1.8 / np.sqrt(n)
    for i in range(n):
        d = np.linalg.norm(pos - pos[i], axis=1)
        for j in np.nonzero((d < radius) & (np.arange(n) > i))[0]:
            edges[(i, int(j))] = float(d[j]) + 1e-3
    if connect:
        order = rng.permutation(n)
        for a, b in zip(order[:-1], order[1:]):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key not in edges:
                edges[key] = float(np.linalg.norm(pos[key[0]] - pos[key[1]])) + 1e-3
    return make_graph(
        [(i, float(mu[i]), tuple(pos[i])) for i in range(n)],
        [(a, b, L) for (a, b), L in sorted(edges.items())],
    )


def distance_matrix(G, source_ids=None, mask=None):
    """Rows of the dense all-pairs distance matrix (all vertices by default),
    from one untruncated search."""
    if source_ids is None:
        source_ids = G.vertex_ids.tolist()
    return np.atleast_2d(G.distances_from(source_ids, mask=mask))


def brute_force_distance(G, x, y, edge_filter=None):
    """Bellman-Ford style relaxation, independent of the Dijkstra code."""
    ids = [int(v) for v in G.vertex_ids]
    dist = {v: np.inf for v in ids}
    dist[x] = 0.0
    elist = [
        (e.a, e.b, e.length)
        for e in G.edges()
        if edge_filter is None or edge_filter(e)
    ]
    for _ in range(len(ids)):
        changed = False
        for a, b, L in elist:
            if dist[a] + L < dist[b]:
                dist[b] = dist[a] + L
                changed = True
            if dist[b] + L < dist[a]:
                dist[a] = dist[b] + L
                changed = True
        if not changed:
            break
    return dist[y]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

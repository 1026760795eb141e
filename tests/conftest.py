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


def simplicial_reference(spec):
    """``gen_simplicial``'s mesh of a valid ``spec``, built one lattice point
    at a time: the builder the array code replaced, the test oracle for it.

    Points merge on their coordinates rounded to 9 decimals (a coordinate
    too large to round is its own key), a vertex keeps the first point's
    position, measures add up in the order the simplices are listed, and an
    edge keeps the length of the first simplex that lists it.
    """
    h = float(spec["h"])
    pts = np.asarray(spec["points"], dtype=float)
    segments = [tuple(s) for s in spec.get("segments", [])]
    triangles = [tuple(t) for t in spec.get("triangles", [])]
    atoms = spec.get("atoms", [])
    atoms = list(atoms.items()) if isinstance(atoms, dict) else atoms
    dim = pts.shape[1]
    seg_len = [float(np.linalg.norm(pts[b] - pts[a])) for a, b in segments]
    seg_n = [max(1, round(L / h)) for L in seg_len]
    sides = [[np.linalg.norm(pts[j] - pts[i]) for i, j in ((a, b), (b, c), (c, a))]
             for a, b, c in triangles]
    tri_n = [max(1, round(float(max(s)) / h)) for s in sides]

    key_of = {}
    positions = []
    measures = []

    def vertex_at(p):
        with np.errstate(over="ignore"):
            r = np.round(np.asarray(p, dtype=float), 9)
        key = tuple(np.where(np.isfinite(r), r, p))
        vid = key_of.get(key)
        if vid is None:
            vid = len(positions)
            key_of[key] = vid
            positions.append(tuple(float(c) for c in p))
            measures.append(0.0)
        return vid

    edge_len = {}

    def add_edge(a, b, length):
        if a != b:
            edge_len.setdefault((min(a, b), max(a, b)), length)

    for (a_i, b_i), L, n in zip(segments, seg_len, seg_n):
        A, B = pts[a_i], pts[b_i]
        chain = [vertex_at(A + (B - A) * (i / n)) for i in range(n + 1)]
        for i in range(n):
            add_edge(chain[i], chain[i + 1], L / n)
            measures[chain[i]] += L / (2 * n)
            measures[chain[i + 1]] += L / (2 * n)

    for (a_i, b_i, c_i), n in zip(triangles, tri_n):
        A, B, C = pts[a_i], pts[b_i], pts[c_i]
        u, v = B - A, C - A
        if dim == 2:
            area = abs(float(u[0] * v[1] - u[1] * v[0])) / 2.0
        else:
            area = float(np.linalg.norm(np.cross(u, v))) / 2.0
        cell = area / (n * n)
        grid_ids = {}
        for a in range(n + 1):
            for b in range(n + 1 - a):
                grid_ids[(a, b)] = vertex_at(A + (B - A) * (a / n) + (C - A) * (b / n))
        for a in range(n):
            for b in range(n - a):
                v0, v1, v2 = grid_ids[(a, b)], grid_ids[(a + 1, b)], grid_ids[(a, b + 1)]
                for v in (v0, v1, v2):
                    measures[v] += cell / 3.0
                if b < n - a - 1:
                    for v in (v1, v2, grid_ids[(a + 1, b + 1)]):
                        measures[v] += cell / 3.0
        for (a, b), vid in grid_ids.items():
            for da, db in ((1, 0), (0, 1), (-1, 1)):
                other = grid_ids.get((a + da, b + db))
                if other is not None:
                    pa, pb = np.asarray(positions[vid]), np.asarray(positions[other])
                    add_edge(vid, other, float(np.linalg.norm(pb - pa)))

    for i, m in atoms:
        measures[vertex_at(pts[i])] += float(m)

    keys = sorted(edge_len)
    return MetricMeasureGraph.from_arrays(
        ids=np.arange(len(positions), dtype=np.int64),
        mu=np.asarray(measures),
        pos=np.asarray(positions),
        edge_a=np.asarray([a for a, _ in keys], dtype=np.int64),
        edge_b=np.asarray([b for _, b in keys], dtype=np.int64),
        edge_len=np.asarray([edge_len[k] for k in keys]),
        edge_mu=np.ones(len(keys)),
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

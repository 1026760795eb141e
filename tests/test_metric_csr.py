"""The path search and the AMLE code walk the metric's CSR.

A bool edge mask and an edge predicate get a CSR built per call, while
"essential" gets the cached one; every result must be the same.  The test
graph is a unit grid whose edges across a vertical wall have measure 0
except in a one-row gap, with a corner vertex cut off by zero-measure
edges, so the essential metric differs from the graph metric and leaves
a degenerate vertex.
"""

import itertools
import math

import networkx as nx
import numpy as np
import pytest

from conftest import make_graph
from mmgraph import (
    AMLEProblem,
    InputError,
    as_vector_field,
    check_amle_local,
    comparison_check,
    infinity_harmonic_extend,
    mcshane_extend,
    shortest_path,
    solve_amle,
    vector_lipschitz_constant,
)

ROWS, COLS, WALL, GAP = 6, 7, 3, 2

ESSENTIAL_SPELLINGS = [
    pytest.param(lambda G: "essential", id="name"),
    pytest.param(lambda G: G.positive_edge_mask(), id="mask"),
    pytest.param(lambda G: (lambda e: e.mu_edge > 0), id="predicate"),
]


def walled_grid(seed):
    """Four-neighbour unit grid on shuffled ids, so equal-length geodesics
    abound; see the module docstring."""
    ids = np.random.default_rng(seed).permutation(1000)[: ROWS * COLS] + 5
    at = ids.reshape(ROWS, COLS)
    corner = (ROWS - 1, COLS - 1)
    edges = []
    for r, c in itertools.product(range(ROWS), range(COLS)):
        for dr, dc in ((0, 1), (1, 0)):
            r2, c2 = r + dr, c + dc
            if not (0 <= r2 < ROWS and 0 <= c2 < COLS):
                continue
            wall = min(c, c2) < WALL <= max(c, c2) and not r == r2 == GAP
            cut = corner in ((r, c), (r2, c2))
            edges.append((int(at[r, c]), int(at[r2, c2]), 1.0, 0.0 if wall or cut else 1.0))
    return make_graph([(int(v), 1.0) for v in ids], edges), at


def essential_nx(G):
    H = nx.Graph()
    H.add_nodes_from(int(v) for v in G.vertex_ids)
    H.add_weighted_edges_from((e.a, e.b, e.length) for e in G.edges() if e.mu_edge > 0)
    return H


def side_problem(G, at, metric, shift=0.0):
    """Boundary: the left and right columns, with data raised by ``shift``."""
    boundary = sorted(int(v) for v in np.concatenate([at[:-1, 0], at[:-1, -1]]))
    g = {v: math.sin(v) + shift for v in boundary}
    return AMLEProblem(G, tuple(boundary), g, metric)


@pytest.mark.parametrize("spelling", ESSENTIAL_SPELLINGS)
def test_mcshane_init_is_the_same_for_every_spelling(spelling):
    G, at = walled_grid(0)
    p = side_problem(G, at, "essential")
    want = mcshane_extend(G, p.boundary, p.g, "essential")
    assert repr(mcshane_extend(G, p.boundary, p.g, spelling(G))) == repr(want)


@pytest.mark.parametrize("spelling", ESSENTIAL_SPELLINGS)
@pytest.mark.parametrize("init", ["mcshane", "min", "max"])
def test_solve_amle_is_the_same_for_every_spelling(spelling, init):
    G, at = walled_grid(0)
    want = solve_amle(side_problem(G, at, "essential"), tol=1e-12, init=init)
    got = solve_amle(side_problem(G, at, spelling(G)), tol=1e-12, init=init)
    assert want.degenerate_vertices == (int(at[-1, -1]),)
    assert repr(got.u) == repr(want.u)  # NaN-aware and bit-exact
    assert (got.residual, got.iterations) == (want.residual, want.iterations)
    assert got.degenerate_vertices == want.degenerate_vertices


@pytest.mark.parametrize("spelling", ESSENTIAL_SPELLINGS)
def test_check_amle_local_is_the_same_for_every_spelling(spelling):
    G, at = walled_grid(1)
    sol = solve_amle(side_problem(G, at, "essential"), tol=1e-6)
    u = {v: 0.0 if math.isnan(x) else x for v, x in sol.u.items()}
    want = check_amle_local(u, side_problem(G, at, "essential"))
    got = check_amle_local(u, side_problem(G, at, spelling(G)))
    assert got == want
    assert want[int(at[-1, -1])] == 0.0
    assert max(want.values()) > 0.0


@pytest.mark.parametrize("spelling", ESSENTIAL_SPELLINGS)
def test_comparison_check_is_the_same_for_every_spelling(spelling):
    G, at = walled_grid(2)
    low = solve_amle(side_problem(G, at, "essential"), tol=1e-12)
    high = solve_amle(side_problem(G, at, spelling(G), shift=0.5), tol=1e-12)
    assert comparison_check(low, high)
    # equal fields with a negative tolerance must compare False
    assert not comparison_check(
        solve_amle(side_problem(G, at, spelling(G)), tol=1e-12), low, tol=-1.0
    )
    plain = solve_amle(side_problem(G, at, "graph", shift=0.5), tol=1e-12)
    with pytest.raises(InputError):
        comparison_check(low, plain)


@pytest.mark.parametrize("spelling", ESSENTIAL_SPELLINGS)
@pytest.mark.parametrize("seed", [0, 1])
def test_shortest_path_is_the_same_for_every_spelling(spelling, seed):
    G, at = walled_grid(seed)
    H = essential_nx(G)
    metric = spelling(G)
    for x, y in itertools.permutations((int(v) for v in at.ravel()[::5]), 2):
        res = shortest_path(G, x, y, metric)
        assert res == shortest_path(G, x, y, "essential")
        if not nx.has_path(H, x, y):
            assert res.length == math.inf and res.vertex_sequence == ()
            continue
        # the documented tie-break: each vertex keeps its earliest-settled
        # tight neighbour, so the winner has the smallest (distance, id)
        # predecessor keys read back from y
        d = nx.single_source_dijkstra_path_length(H, x)
        paths = nx.all_shortest_paths(H, x, y, weight="weight")
        rule = min(paths, key=lambda p: [(d[v], v) for v in reversed(p[:-1])])
        assert list(res.vertex_sequence) == rule
        assert res.length == d[y]


@pytest.mark.parametrize("seed", range(6))
def test_infinity_harmonic_boundary_matches_an_edge_scan(seed):
    G, at = walled_grid(seed)
    rng = np.random.default_rng(seed)
    ids = [int(v) for v in at.ravel()]
    omega = sorted(int(v) for v in rng.choice(ids, size=1 + seed * 3, replace=False))
    if seed == 0:
        omega = [int(at[-1, -1])]  # only zero-measure edges leave it
    inside = set(omega)
    want = set()
    for e in G.edges():
        if e.mu_edge > 0 and (e.a in inside) != (e.b in inside):
            want.add(e.b if e.a in inside else e.a)
    g = {v: float(v % 7) for v in ids if v not in inside}
    sol = infinity_harmonic_extend(G, omega, g)
    if want:
        assert sol.problem.boundary == tuple(sorted(want))
    else:
        assert sol.degenerate_vertices == tuple(omega)


def test_a_predicate_is_evaluated_once_per_edge_per_call():
    G, at = walled_grid(0)
    calls = []

    def predicate(e):
        calls.append(e.index)
        return e.mu_edge > 0

    problem = side_problem(G, at, predicate)
    sol = solve_amle(problem, tol=1e-6)
    ids = [int(v) for v in G.vertex_ids]
    audits = {
        "solve_amle": lambda: solve_amle(problem, tol=1e-6),
        "check_amle_local": lambda: check_amle_local(
            {v: 0.0 if math.isnan(x) else x for v, x in sol.u.items()}, problem
        ),
        "vector_lipschitz_constant": lambda: vector_lipschitz_constant(
            G, as_vector_field({v: (v, -v) for v in ids[::4]}), predicate
        ),
    }
    for name, audit in audits.items():
        calls.clear()
        audit()
        assert sorted(calls) == list(range(G.n_edges)), name

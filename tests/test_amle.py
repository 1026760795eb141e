"""Discrete infinity-harmonic (AMLE) solver and its audits."""

import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmgraph import (
    AMLEProblem,
    AMLESolution,
    InputError,
    MetricMeasureGraph,
    check_amle_local,
    comparison_check,
    gen_grid,
    infinity_harmonic_extend,
    mcshane_extend,
    solve_amle,
)
from mmgraph import amle

from conftest import make_graph, path_graph, random_geometric_graph


def star_graph(arm_lengths, leaf_values):
    """Center 0, leaves 1..k with given edge lengths."""
    k = len(arm_lengths)
    vs = [(0, 1.0)] + [(i + 1, 1.0) for i in range(k)]
    es = [(0, i + 1, float(arm_lengths[i])) for i in range(k)]
    G = make_graph(vs, es)
    boundary = tuple(range(1, k + 1))
    g = {i + 1: float(leaf_values[i]) for i in range(k)}
    return AMLEProblem(G, boundary, g)


def star_center_oracle(arm_lengths, leaf_values):
    """Bisection on the slope-balance condition at the center.

    f(t) = max_i (g_i - t)/L_i - max_i (t - g_i)/L_i is strictly
    decreasing with a unique root, the AMLE center value.
    """
    def f(t):
        up = max((g - t) / L for g, L in zip(leaf_values, arm_lengths))
        dn = max((t - g) / L for g, L in zip(leaf_values, arm_lengths))
        return up - dn

    lo, hi = min(leaf_values), max(leaf_values)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPathProblems:
    def test_unit_path_linear(self):
        G = path_graph(11, edge_len=0.1)
        sol = solve_amle(AMLEProblem(G, (0, 10), {0: 0.0, 10: 1.0}), tol=1e-12)
        assert sol.converged
        for k in range(11):
            assert sol.u[k] == pytest.approx(k / 10, abs=1e-8)

    def test_uneven_edge_lengths(self):
        # 0 -2.0- 1 -1.0- 2: AMLE interpolates linearly in arc length
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 2.0), (1, 2, 1.0)],
        )
        sol = solve_amle(AMLEProblem(G, (0, 2), {0: 0.0, 2: 3.0}), tol=1e-12)
        assert sol.u[1] == pytest.approx(2.0, abs=1e-9)

    def test_boundary_exact(self):
        G = path_graph(5)
        g = {0: 0.123456789, 4: -3.25}
        sol = solve_amle(AMLEProblem(G, (0, 4), g))
        assert sol.u[0] == g[0]
        assert sol.u[4] == g[4]


class TestStarProblems:
    def test_symmetric_star(self):
        problem = star_graph([1.0, 1.0], [0.0, 1.0])
        sol = solve_amle(problem, tol=1e-12)
        assert sol.u[0] == pytest.approx(0.5, abs=1e-9)

    def test_four_star_matches_bisection_oracle(self):
        arms = [1.0, 2.0, 0.5, 1.5]
        vals = [0.0, 1.0, -0.5, 2.0]
        problem = star_graph(arms, vals)
        sol = solve_amle(problem, tol=1e-13)
        want = star_center_oracle(arms, vals)
        assert sol.u[0] == pytest.approx(want, abs=1e-6)

    def test_random_stars_match_oracle(self, rng):
        for _ in range(10):
            k = int(rng.integers(3, 7))
            arms = (rng.random(k) + 0.2).tolist()
            vals = rng.normal(size=k).tolist()
            problem = star_graph(arms, vals)
            sol = solve_amle(problem, tol=1e-13)
            want = star_center_oracle(arms, vals)
            assert sol.u[0] == pytest.approx(want, abs=1e-6)


class TestSolverProperties:
    def _random_problem(self, rng, n=40, frac=0.4):
        G = random_geometric_graph(rng, n)
        k = max(2, int(frac * n))
        boundary = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
        g = {v: float(rng.normal()) for v in boundary}
        return AMLEProblem(G, boundary, g)

    def test_converges_and_certifies(self, rng):
        for _ in range(5):
            problem = self._random_problem(rng)
            sol = solve_amle(problem, tol=1e-11)
            assert sol.converged
            assert sol.residual <= 1e-11
            res = check_amle_local(sol.u, problem)
            assert max(res.values(), default=0.0) <= 1e-10

    def test_maximum_principle(self, rng):
        for _ in range(5):
            problem = self._random_problem(rng)
            sol = solve_amle(problem, tol=1e-10)
            lo, hi = min(problem.g.values()), max(problem.g.values())
            vals = [x for x in sol.u.values() if not np.isnan(x)]
            assert min(vals) >= lo - 1e-9
            assert max(vals) <= hi + 1e-9

    def test_init_variants_agree(self, rng):
        problem = self._random_problem(rng, n=30)
        tol = 1e-12
        u_min = solve_amle(problem, tol=tol, init="min")
        u_max = solve_amle(problem, tol=tol, init="max")
        u_mc = solve_amle(problem, tol=tol, init="mcshane")
        for v in u_mc.u:
            assert u_min.u[v] == pytest.approx(u_max.u[v], abs=1e-9)
            assert u_min.u[v] == pytest.approx(u_mc.u[v], abs=1e-9)

    def test_explicit_init(self, rng):
        problem = self._random_problem(rng, n=20)
        fill = {int(v): 0.0 for v in problem.graph.vertex_ids}
        for v in problem.boundary:
            fill[v] = problem.g[v]
        sol = solve_amle(problem, init=fill, tol=1e-11)
        assert sol.converged

    def test_non_convergence_reported(self, rng):
        problem = self._random_problem(rng, n=40, frac=0.1)
        sol = solve_amle(problem, tol=1e-14, max_iter=2, init="min")
        assert not sol.converged
        assert sol.iterations == 2
        assert sol.residual > 1e-14

    def test_comparison_principle(self, rng):
        for _ in range(6):
            problem = self._random_problem(rng, n=30)
            bump = {v: problem.g[v] + float(rng.random()) for v in problem.boundary}
            upper = AMLEProblem(
                problem.graph, problem.boundary, bump, problem.metric_choice
            )
            s1 = solve_amle(problem, tol=1e-12)
            s2 = solve_amle(upper, tol=1e-12)
            assert comparison_check(s1, s2)

    def test_comparison_validation(self, rng):
        p1 = self._random_problem(rng, n=10)
        s1 = solve_amle(p1)
        p_other = self._random_problem(rng, n=10)
        s_other = solve_amle(p_other)
        with pytest.raises(InputError):
            comparison_check(s1, s_other)
        lower = AMLEProblem(
            p1.graph,
            p1.boundary,
            {v: p1.g[v] - 1.0 for v in p1.boundary},
            p1.metric_choice,
        )
        s_lower = solve_amle(lower)
        with pytest.raises(InputError):
            comparison_check(s1, s_lower)

    def test_comparison_compares_edge_sets(self):
        # with no zero-measure edge the two metric choices are one metric
        G = path_graph(5)
        g = {0: 0.0, 4: 1.0}
        graph = solve_amle(AMLEProblem(G, (0, 4), g, "graph"))
        essential = solve_amle(AMLEProblem(G, (0, 4), g, "essential"))
        assert comparison_check(graph, essential) and comparison_check(essential, graph)
        mask = solve_amle(AMLEProblem(G, (0, 4), g, np.ones(G.n_edges, dtype=bool)))
        assert comparison_check(graph, mask)
        H = make_graph([(v, 1.0) for v in range(3)], [(0, 1, 1.0), (1, 2, 1.0, 0.0)])
        h = {0: 0.0, 2: 1.0}
        graph = solve_amle(AMLEProblem(H, (0, 2), h, "graph"))
        essential = solve_amle(AMLEProblem(H, (0, 2), h, "essential"))
        with pytest.raises(InputError):
            comparison_check(graph, essential)


class TestDegenerate:
    def test_unreachable_interior_is_nan(self):
        # both edges measure zero: essential metric isolates vertex 1
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0)],
        )
        problem = AMLEProblem(G, (0, 2), {0: 0.0, 2: 1.0}, metric_choice="essential")
        sol = solve_amle(problem)
        assert sol.converged
        assert sol.degenerate_vertices == (1,)
        assert np.isnan(sol.u[1])
        assert sol.u[0] == 0.0

    def test_degenerate_vertices_accept_any_value(self):
        # non-uniqueness regime: every boundary-respecting field is
        # infinity-harmonic where no positive-measure edges exist
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0)],
        )
        problem = AMLEProblem(G, (0, 2), {0: 0.0, 2: 1.0}, metric_choice="essential")
        for fill in (-7.0, 0.2, 55.0):
            u = {0: 0.0, 1: fill, 2: 1.0}
            res = check_amle_local(u, problem)
            assert res == {1: 0.0}


class TestCheckLocal:
    def test_zero_on_linear_path(self):
        G = path_graph(5)
        problem = AMLEProblem(G, (0, 4), {0: 0.0, 4: 1.0})
        u = {k: k / 4 for k in range(5)}
        res = check_amle_local(u, problem)
        assert max(res.values()) == pytest.approx(0.0, abs=1e-15)

    def test_flags_imbalance(self):
        G = path_graph(3)
        problem = AMLEProblem(G, (0, 2), {0: 0.0, 2: 1.0})
        res = check_amle_local({0: 0.0, 1: 0.9, 2: 1.0}, problem)
        assert res[1] == pytest.approx(0.8)

    def test_boundary_mismatch_rejected(self):
        G = path_graph(3)
        problem = AMLEProblem(G, (0, 2), {0: 0.0, 2: 1.0})
        with pytest.raises(InputError):
            check_amle_local({0: 0.1, 1: 0.5, 2: 1.0}, problem)

    def test_missing_value_rejected(self):
        G = path_graph(3)
        problem = AMLEProblem(G, (0, 2), {0: 0.0, 2: 1.0})
        with pytest.raises(InputError):
            check_amle_local({0: 0.0, 2: 1.0}, problem)


class TestProblemValidation:
    def test_empty_boundary(self):
        with pytest.raises(InputError):
            AMLEProblem(path_graph(3), (), {})

    def test_boundary_not_in_graph(self):
        with pytest.raises(InputError):
            AMLEProblem(path_graph(3), (0, 9), {0: 0.0, 9: 1.0})

    def test_missing_or_nonfinite_data(self):
        with pytest.raises(InputError):
            AMLEProblem(path_graph(3), (0, 2), {0: 0.0})
        with pytest.raises(InputError):
            AMLEProblem(path_graph(3), (0, 2), {0: 0.0, 2: np.inf})

    def test_bad_metric_choice(self):
        with pytest.raises(InputError):
            AMLEProblem(path_graph(3), (0,), {0: 0.0}, metric_choice="taxicab")

    def test_bad_init_rejected(self):
        problem = AMLEProblem(path_graph(3), (0, 2), {0: 0.0, 2: 1.0})
        with pytest.raises(InputError):
            solve_amle(problem, init="zeros")
        with pytest.raises(InputError):
            solve_amle(problem, init={0: 0.0})


class TestInfinityHarmonicExtend:
    def test_interface_construction(self):
        # Omega = {1}: vertex 0 touches it through a positive edge, vertex
        # 2 only through a zero-measure one, so 2 keeps its data and only
        # 0 and 1 enter the sub-problem
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            [(0, 1, 1.0), (1, 2, 1.0, 0.0), (0, 3, 1.0), (2, 3, 1.0)],
        )
        g = {0: 2.0, 2: -1.0, 3: 0.5}
        sol = infinity_harmonic_extend(G, [1], g)
        assert sol.u[0] == 2.0
        assert sol.u[2] == -1.0
        assert sol.u[3] == 0.5
        assert np.isfinite(sol.u[1])

    def test_path_interior(self):
        G = path_graph(5)
        sol = infinity_harmonic_extend(G, [1, 2, 3], {0: 0.0, 4: 1.0})
        assert sol.converged
        # boundary values propagate linearly across the solved interior
        assert sol.u[2] == pytest.approx(0.5, abs=1e-8)

    def test_comparison_of_two_extensions(self):
        # each call solves on its own induced subgraph of G
        G = path_graph(5)
        low = infinity_harmonic_extend(G, [1, 2, 3], {0: 0.0, 4: 1.0})
        high = infinity_harmonic_extend(G, [1, 2, 3], {0: 0.0, 4: 2.0})
        assert low.problem.graph is not high.problem.graph
        assert comparison_check(low, high)
        assert not comparison_check(low, replace(high, u={**high.u, 2: 0.0}))
        with pytest.raises(InputError, match="g1 <= g2"):
            comparison_check(high, low)
        narrow = infinity_harmonic_extend(G, [1, 2], {0: 0.0, 3: 1.0, 4: 2.0})
        with pytest.raises(InputError, match="matching problems"):
            comparison_check(narrow, high)

    def test_no_interface_degenerate(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0)],
        )
        sol = infinity_harmonic_extend(G, [1], {0: 3.0, 2: 4.0})
        assert sol.degenerate_vertices == (1,)
        assert np.isnan(sol.u[1])
        assert sol.u[0] == 3.0 and sol.u[2] == 4.0
        assert list(sol.u) == [0, 2, 1]  # the complement, then Omega
        assert sol.iterations == 0 and sol.residual == 0.0 and sol.converged
        assert sol.tol == 1e-10
        assert sol.problem.boundary == (0, 2) and sol.problem.graph is G
        assert sol.problem.metric_choice == "essential"
        with pytest.raises(InputError):
            infinity_harmonic_extend(G, [1], {0: 3.0, 2: 4.0}, tol=0.0)

    def test_no_interface_validates_tol(self):
        # the edge leaving Omega = {0} has measure 0
        G = make_graph([(v, 1.0) for v in range(3)], [(0, 1, 1.0, 0.0), (1, 2, 1.0)])
        with pytest.raises(InputError):
            infinity_harmonic_extend(G, [0], {1: 1.7e308, 2: -1.7e308}, tol=0.0)

    def test_omega_everything_rejected(self):
        G = path_graph(3)
        with pytest.raises(InputError):
            infinity_harmonic_extend(G, [0, 1, 2], {})

    def test_data_must_cover_complement(self):
        G = path_graph(4)
        with pytest.raises(InputError):
            infinity_harmonic_extend(G, [1, 2], {0: 0.0})


# -- bit-identity oracles -------------------------------------------------------
#
# ``ReduceatSweep`` is the sweep the bucketed ``amle._Sweep`` replaced: one
# flat pair table per color class, reduced with ``np.minimum.reduceat`` over
# each row's d x d block and ``np.maximum.reduceat`` over its d minima.  It
# evaluates every (i, j) pair of a row, so it is also the oracle for the
# length groups that ``amle._Sweep`` reduces the pairs to.
# ``solve_amle`` run with it patched in must give the same ``u``,
# ``residual``, ``iterations`` and degenerate vertices, compared with ``==``,
# under plain sweeps (``plain_sweeps``).
# It keeps no witnesses (``witnessed`` is always False), so the solver runs
# its full residual after every sweep; the arithmetic is the old one.


class ReduceatSweep:
    def __init__(self, csr, active_idx):
        sub = csr[active_idx]
        indptr, nbr = sub.indptr.astype(np.intp), sub.indices.astype(np.intp)
        self.active = active_idx
        self.starts = indptr[:-1]
        self.nbr = nbr
        self.lens = sub.data
        self.expand = np.repeat(np.arange(active_idx.size), np.diff(indptr))
        cuts = indptr[1:-1]
        rows, nbrs_of, lens_of = (
            active_idx.tolist(), np.split(nbr, cuts), np.split(sub.data, cuts)
        )
        color_of = {}
        for k, vi in enumerate(rows):
            used = {color_of[int(w)] for w in nbrs_of[k] if int(w) in color_of}
            c = 0
            while c in used:
                c += 1
            color_of[vi] = c
        self.classes = []
        for c in range(max(color_of.values()) + 1):
            members = [k for k, vi in enumerate(rows) if color_of[vi] == c]
            pair_i, pair_j, coef_i, coef_j, inner, outer = [], [], [], [], [], []
            pos_pairs = pos_blocks = 0
            for k in members:
                vn, vl = nbrs_of[k], lens_of[k]
                d = len(vn)
                pair_i.append(np.repeat(vn, d))
                pair_j.append(np.tile(vn, d))
                li, lj = np.repeat(vl, d), np.tile(vl, d)
                coef_i.append(li / (li + lj))
                coef_j.append(lj / (li + lj))
                inner.extend(range(pos_pairs, pos_pairs + d * d, d))
                outer.append(pos_blocks)
                pos_pairs += d * d
                pos_blocks += d
            self.classes.append((
                np.asarray([rows[k] for k in members], dtype=np.int64),
                np.concatenate(pair_i), np.concatenate(pair_j),
                np.concatenate(coef_i), np.concatenate(coef_j),
                np.asarray(inner, dtype=np.int64), np.asarray(outer, dtype=np.int64),
            ))

    def residual(self, u, tol=None):
        s = (u[self.nbr] - u[self.active[self.expand]]) / self.lens
        sup = np.maximum.reduceat(s, self.starts)
        sdn = np.maximum.reduceat(-s, self.starts)
        return float(np.max(np.abs(sup - sdn)))

    def witnessed(self, u, tol):
        return False

    def relax(self, u):
        for verts, pair_i, pair_j, coef_i, coef_j, inner, outer in self.classes:
            t = coef_j * u[pair_i] + coef_i * u[pair_j]
            u[verts] = np.maximum.reduceat(np.minimum.reduceat(t, inner), outer)


@pytest.fixture(scope="class")
def plain_sweeps():
    """Plain Gauss-Seidel sweeps (``amle._OMEGA = 1``), the scheme that the
    oracles below reproduce bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amle, "_OMEGA", 1.0)
        yield


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_solution(got, want):
    assert list(got.u) == list(want.u)
    assert all(_same(got.u[v], want.u[v]) for v in got.u)
    assert _same(got.residual, want.residual)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.degenerate_vertices == want.degenerate_vertices


def with_reduceat_sweep(solve, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amle, "_Sweep", ReduceatSweep)
        return solve(*args, **kwargs)


def assert_matches_reduceat(problem, **kwargs):
    got = solve_amle(problem, **kwargs)
    assert_same_solution(got, with_reduceat_sweep(solve_amle, problem, **kwargs))
    return got


def bucket_layout(problem):
    """(row shapes (g, s), padded members, padded groups) of the problem's
    sweep, whose buckets hold (s, g, k) neighbor tables."""
    G = problem.graph
    bset = set(problem.boundary)
    metric = G._metric(problem.metric_choice)
    reach = np.isfinite(G.distances_from(list(bset), mask=metric, min_only=True))
    active = np.asarray(
        [i for i, v in enumerate(G.vertex_ids) if int(v) not in bset and reach[i]]
    )
    tables = [nb for _, nb, _, _ in amle._Sweep(G._csr(metric), active).buckets]
    shapes = {(nb.shape[1], nb.shape[0]) for nb in tables}
    # a CSR row never repeats a neighbor, so a repeat is padding
    members = sum(int(np.sum(nb[-1] == nb[-2])) for nb in tables if len(nb) > 1)
    groups = sum(
        int(np.sum(np.all(nb[:, -1] == nb[:, -2], axis=0))) for nb in tables if nb.shape[1] > 1
    )
    return shapes, members, groups


LENGTHS = st.one_of(
    st.sampled_from([1e-300, 1e300, 1.0]),
    st.floats(min_value=0.01, max_value=100.0),
)
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(min_value=-10.0, max_value=10.0),
)
#: Lengths drawn from a pool of two or three, so that rows have groups of
#: several equal-length neighbors.
POOLED = st.lists(LENGTHS, min_size=2, max_size=3, unique=True).map(st.sampled_from)
ORACLE = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def amle_problems(draw, max_n=14, values=VALUES, lengths=st.just(LENGTHS)):
    """A problem on shuffled ids with mixed degrees and zero-measure edges;
    ``lengths`` draws the strategy of the problem's edge lengths."""
    n = draw(st.integers(2, max_n))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    length = draw(lengths)
    edges = [
        (a, b, draw(length), draw(st.sampled_from([0.0, 0.0, 1.0, 2.5])))
        for a, b in chosen
    ]
    G = make_graph([(v, 1.0) for v in ids], edges)
    boundary = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    g = {v: draw(values) for v in boundary}
    return AMLEProblem(G, tuple(boundary), g, draw(st.sampled_from(["graph", "essential"])))


def square_boundary(h):
    """The unit-square grid, and the data sin 3.5x + y^2 + 0.5xy on the
    square's boundary vertices."""
    G = gen_grid(h, rect=(0, 0, 1, 1))
    side = (np.min(G.pos, axis=1) < 1e-9) | (np.max(G.pos, axis=1) > 1 - 1e-9)
    x, y = G.pos[:, 0], G.pos[:, 1]
    data = np.sin(3.5 * x) + y ** 2 + 0.5 * x * y
    return G, {int(v): float(d) for v, d, s in zip(G.vertex_ids, data, side) if s}


def walled_grid(h):
    """``square_boundary``'s grid and data, with the edges across x = 0.45
    of measure zero, except in a gap at 0.3 <= y <= 0.5."""
    G, g = square_boundary(h)
    ids = G.vertex_ids
    pos = {int(v): p for v, p in zip(ids, G.pos)}
    a, b, length, mu = [], [], [], []
    for e in G.edges():
        (xa, ya), (xb, yb) = pos[e.a], pos[e.b]
        cross = min(xa, xb) < 0.45 < max(xa, xb)
        gap = 0.3 <= min(ya, yb) and max(ya, yb) <= 0.5
        a.append(e.a)
        b.append(e.b)
        length.append(e.length)
        mu.append(0.0 if cross and not gap else 1.0)
    W = MetricMeasureGraph.from_arrays(
        ids, G.mu, G.pos, np.asarray(a), np.asarray(b), np.asarray(length), np.asarray(mu)
    )
    return W, g


class TestBoundarySplit:
    """``solve_amle``'s boundary, active and degenerate vertices against
    networkx reachability, on shuffled ids with zero-measure edges."""

    @ORACLE
    @given(amle_problems(max_n=20), st.sampled_from(["mcshane", "min", "max"]))
    def test_matches_networkx_reachability(self, problem, init):
        G = problem.graph
        ids = G.vertex_ids.tolist()
        H = nx.Graph()
        H.add_nodes_from(ids)
        H.add_edges_from(
            (e.a, e.b) for e in G.edges() if problem.metric_choice == "graph" or e.mu_edge > 0
        )
        reached = set().union(*(nx.node_connected_component(H, v) for v in problem.boundary))
        sol = solve_amle(problem, max_iter=0, init=init)
        assert list(sol.u) == sorted(ids)
        assert sol.degenerate_vertices == tuple(v for v in ids if v not in reached)
        for v, x in problem.g.items():
            assert repr(sol.u[v]) == repr(x)
        active = [v for v in ids if v in reached and v not in problem.g]
        assert all(math.isnan(sol.u[v]) for v in sol.degenerate_vertices)
        assert not any(math.isnan(sol.u[v]) for v in active)
        lo, hi = min(problem.g.values()), max(problem.g.values())
        if init == "mcshane":  # the start, clamped as Python's min and max do it
            t = mcshane_extend(G, problem.boundary, problem.g, problem.metric_choice)
            for v in active:
                assert repr(sol.u[v]) == repr(min(hi, max(lo, t[v])))
        else:
            assert all(sol.u[v] == (lo if init == "min" else hi) for v in active)


@pytest.mark.usefixtures("plain_sweeps")
class TestReduceatOracle:
    @ORACLE
    @given(amle_problems(), st.sampled_from(["mcshane", "min", "max"]))
    def test_random_graphs(self, problem, init):
        assert_matches_reduceat(problem, tol=1e-12, max_iter=40, init=init)

    @ORACLE
    @given(amle_problems(lengths=POOLED), st.sampled_from(["mcshane", "min", "max"]))
    def test_pooled_lengths(self, problem, init):
        assert_matches_reduceat(problem, tol=1e-12, max_iter=40, init=init)

    def test_length_groups_with_extreme_lengths(self):
        # groups of 1e-300, 1e300 and 1.0 in one row, with values tied at +-0.0
        arms = [1e-300] * 3 + [1e300] * 3 + [1.0] * 2
        problem = star_graph(arms, [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, -0.0])
        for init in ("mcshane", "min", "max"):
            assert_matches_reduceat(problem, tol=1e-13, max_iter=40, init=init)
        assert bucket_layout(problem)[0] == {(3, 3)}

    @ORACLE
    @given(st.data(), st.integers(1, 20))
    def test_stars(self, data, k):
        arms = [data.draw(LENGTHS) for _ in range(k)]
        vals = [data.draw(VALUES) for _ in range(k)]
        problem = star_graph(arms, vals)
        # leaves outside the boundary are degree-1 rows next to the center
        keep = data.draw(st.lists(st.sampled_from(problem.boundary), min_size=1, unique=True))
        problem = AMLEProblem(problem.graph, tuple(keep), {v: problem.g[v] for v in keep})
        assert_matches_reduceat(problem, tol=1e-13, max_iter=40)

    def test_extreme_lengths(self):
        # 1e-300 next to 1e300: the pair coefficients underflow to 0 and 1
        G = make_graph(
            [(v, 1.0) for v in range(6)],
            [(0, 1, 1e-300), (1, 2, 1e300), (1, 3, 1.0), (3, 4, 1e-300),
             (4, 5, 1e300), (2, 4, 2.0)],
        )
        for init in ("mcshane", "min", "max"):
            problem = AMLEProblem(G, (0, 5), {0: -1.0, 5: 2.0})
            assert_matches_reduceat(problem, tol=1e-12, max_iter=60, init=init)

    def test_mixed_degrees_use_padded_buckets(self, rng):
        # distinct lengths: one neighbor per group, and g is the degree
        G = random_geometric_graph(rng, 300)
        boundary = tuple(int(v) for v in rng.choice(300, size=30, replace=False))
        problem = AMLEProblem(G, boundary, {v: float(rng.normal()) for v in boundary})
        shapes, members, groups = bucket_layout(problem)
        assert len(shapes) >= 2 and {s for _, s in shapes} == {1} and groups > 0
        assert_matches_reduceat(problem, tol=1e-12, max_iter=60)

    def test_mixed_groups_use_padded_buckets(self, rng):
        # lengths from a pool of three: groups of several members
        G = random_geometric_graph(rng, 300)
        edges = [(e.a, e.b, float(rng.choice([0.05, 0.08, 0.1]))) for e in G.edges()]
        G = make_graph([(v, 1.0) for v in range(300)], edges)
        boundary = tuple(int(v) for v in rng.choice(300, size=30, replace=False))
        problem = AMLEProblem(G, boundary, {v: float(rng.normal()) for v in boundary})
        shapes, members, groups = bucket_layout(problem)
        assert len(shapes) >= 2 and members > 0 and groups > 0
        assert_matches_reduceat(problem, tol=1e-12, max_iter=60)

    @pytest.mark.parametrize("spec", [
        dict(h=1 / 12, rect=(0, 0, 1, 1)), dict(h=0.07, rect=(-0.3, 0.1, 1.9, 0.8)),
        dict(h=1 / 32, rect=(0, 0, 1, 1)), dict(h=0.1, disc=(0.2, -0.4, 0.75)),
    ])
    def test_grid_rows_have_two_length_groups(self, spec):
        G = gen_grid(**spec)
        boundary = tuple(int(v) for v in G.vertex_ids[:: 7])
        problem = AMLEProblem(G, boundary, {v: 0.0 for v in boundary})
        assert max(g for g, _ in bucket_layout(problem)[0]) <= 2

    @pytest.mark.parametrize("metric", ["graph", "essential"])
    @pytest.mark.parametrize("init", ["mcshane", "min", "max"])
    def test_walled_grid(self, metric, init):
        G, g = walled_grid(1 / 12)
        problem = AMLEProblem(G, tuple(g), g, metric)
        sol = assert_matches_reduceat(problem, tol=1e-10, max_iter=2000, init=init)
        assert sol.converged
        if metric == "essential":
            # the wall leaves rows of 3 axis neighbors among rows of 4
            assert bucket_layout(problem)[1] > 0

    def test_walled_grid_interior_extension(self):
        G, _ = walled_grid(1 / 12)
        pos = {int(v): p for v, p in zip(G.vertex_ids, G.pos)}
        omega = [v for v, (x, y) in pos.items() if (x - 0.45) ** 2 + (y - 0.5) ** 2 < 0.09]
        gg = {v: math.cos(2 * x) * y + 0.5 * x for v, (x, y) in pos.items() if v not in omega}
        kwargs = dict(tol=1e-10, max_iter=2000)
        got = infinity_harmonic_extend(G, omega, gg, **kwargs)
        assert got.converged
        assert_same_solution(got, with_reduceat_sweep(infinity_harmonic_extend, G, omega, gg, **kwargs))


# ``solve_unscreened`` is the stopping loop the witness screen replaced: the
# full residual after every sweep.  Starting from the field ``solve_amle``
# fills in before its first sweep, it must give the same ``u`` bits,
# ``residual``, ``iterations``, ``converged`` and degenerate vertices under
# plain sweeps.


def solve_unscreened(problem, tol, max_iter, init="mcshane"):
    start = solve_amle(problem, tol=tol, max_iter=0, init=init)
    G = problem.graph
    ids = G.vertex_ids.tolist()
    skip = set(problem.boundary) | set(start.degenerate_vertices)
    active = np.asarray([i for i, v in enumerate(ids) if v not in skip], dtype=np.int64)
    if not active.size:
        return start
    u = np.asarray([start.u[v] for v in ids])
    sweep = amle._Sweep(G._csr(problem.metric_choice), active)
    iterations = 0
    while True:
        residual = sweep.residual(u, tol)
        if residual <= tol:
            converged = True
            break
        if iterations >= max_iter:
            converged = False
            break
        sweep.relax(u)
        iterations += 1
    return AMLESolution(
        u=dict(zip(ids, u.tolist())),
        residual=residual,
        iterations=iterations,
        converged=converged,
        degenerate_vertices=start.degenerate_vertices,
        tol=float(tol),
        problem=problem,
    )


def assert_same_bits(got, want):
    assert list(got.u) == list(want.u)
    bits = [np.asarray(list(sol.u.values())).tobytes() for sol in (got, want)]
    assert bits[0] == bits[1]
    assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.degenerate_vertices == want.degenerate_vertices


@pytest.mark.usefixtures("plain_sweeps")
class TestScreenOracle:
    @ORACLE
    @given(
        amle_problems(values=st.one_of(VALUES, st.sampled_from([1e300, -1e300]))),
        st.sampled_from(["mcshane", "min", "max"]),
        st.sampled_from([0, 1, 5, 40]),
    )
    def test_random_graphs(self, problem, init, max_iter):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_amle(problem, tol=1e-12, max_iter=max_iter, init=init)
        assert_same_bits(got, solve_unscreened(problem, 1e-12, max_iter, init))

    @pytest.mark.parametrize("metric", ["graph", "essential"])
    @pytest.mark.parametrize("init", ["mcshane", "min", "max"])
    def test_walled_grid(self, metric, init):
        G, g = walled_grid(1 / 12)
        problem = AMLEProblem(G, tuple(g), g, metric)
        for max_iter in (0, 1, 5, 2000):
            got = solve_amle(problem, tol=1e-10, max_iter=max_iter, init=init)
            assert_same_bits(got, solve_unscreened(problem, 1e-10, max_iter, init))
        assert got.converged

    def test_tol_on_a_reached_residual(self):
        # a witness whose imbalance equals tol does not hold the loop
        G, g = walled_grid(1 / 12)
        problem = AMLEProblem(G, tuple(g), g, "essential")
        for k in range(1, 12):
            tol = solve_amle(problem, tol=1e-10, max_iter=k).residual
            got = solve_amle(problem, tol=tol)
            assert_same_bits(got, solve_unscreened(problem, tol, 10 ** 6))

    def test_full_residual_runs_rarely(self, monkeypatch):
        G, g = walled_grid(1 / 32)
        calls = full_residual_runs(monkeypatch)
        for metric, init in (("graph", "mcshane"), ("essential", "min"), ("essential", "max")):
            calls.clear()
            sol = solve_amle(AMLEProblem(G, tuple(g), g, metric), tol=1e-8, init=init)
            assert sol.converged and sol.iterations > 500
            assert len(calls) <= sol.iterations // 50

    def test_overflowing_slopes_converge(self):
        # slopes of +-5e309 overflow; the midpoint balances them exactly
        G = make_graph([(v, 1.0) for v in range(3)], [(0, 1, 1e-300), (1, 2, 1e-300)])
        problem = AMLEProblem(G, (0, 2), {0: 0.0, 2: 1e10})
        for init in ("mcshane", "min", "max"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = solve_amle(problem, init=init)
            assert sol.converged and sol.residual == 0.0 and sol.iterations <= 2
            assert sol.u[1] == 5e9


def full_residual_runs(monkeypatch):
    """A list that grows by one entry on every full residual ``solve_amle``
    runs."""
    calls = []
    full = amle._Sweep.residual

    def counting(self, u, tol):
        calls.append(1)
        return full(self, u, tol)

    monkeypatch.setattr(amle._Sweep, "residual", counting)
    return calls


class TestRelaxedSweeps:
    """``solve_amle``'s default: sweeps over-relaxed by ``amle._OMEGA`` until
    the full residual reaches ``tol`` or stalls, then plain sweeps."""

    @ORACLE
    @given(
        amle_problems(values=st.one_of(VALUES, st.sampled_from([1e300, -1e300]))),
        st.sampled_from(["mcshane", "min", "max"]),
    )
    def test_converges_where_plain_sweeps_do(self, problem, init):
        tol = 1e-12
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(amle, "_OMEGA", 1.0)
            plain = solve_amle(problem, tol=tol, max_iter=500, init=init)
        if not plain.converged:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_amle(problem, tol=tol, max_iter=10_000, init=init)
        assert sol.converged and sol.residual <= tol
        assert sol.degenerate_vertices == plain.degenerate_vertices
        lo, hi = min(problem.g.values()), max(problem.g.values())
        skip = set(problem.boundary) | set(sol.degenerate_vertices)
        assert all(lo <= x <= hi for v, x in sol.u.items() if v not in skip)
        # a degenerate component balances under any constant
        u = {v: lo if v in sol.degenerate_vertices else x for v, x in sol.u.items()}
        assert max(check_amle_local(u, problem).values(), default=0.0) <= tol

    def test_a_stalling_omega_falls_back_to_plain_sweeps(self, monkeypatch):
        # at a fixed omega of 1.9 the residual of the h=1/24 grid stalls near 1e-6
        G, g = square_boundary(1 / 24)
        problem = AMLEProblem(G, tuple(g), g)
        monkeypatch.setattr(amle, "_OMEGA", 1.9)
        for init in ("mcshane", "min", "max"):
            with monkeypatch.context() as mp:
                mp.setattr(amle, "_WINDOW", 10 ** 9)  # omega never drops
                stuck = solve_amle(problem, tol=1e-10, max_iter=3000, init=init)
            assert not stuck.converged
            sol = solve_amle(problem, tol=1e-10, init=init)
            assert sol.converged
            assert max(check_amle_local(sol.u, problem).values()) <= 1e-10

    def test_a_start_that_meets_tol_is_returned(self):
        # a sweep rounds vertex 2 off the exact fill of 1e300, and the
        # 1e-300 edge from vertex 1 to the data then reads an imbalance of 1e284
        G = make_graph(
            [(v, 1.0) for v in range(5)],
            [(0, 1, 1e-300), (0, 3, 1e-300), (0, 4, 1e-300), (1, 2, 1.125), (0, 2, 65.0)],
        )
        problem = AMLEProblem(G, (0,), {0: 1e300})
        for init in ("mcshane", "min", "max"):
            sol = solve_amle(problem, tol=1e-12, max_iter=1000, init=init)
            assert sol.converged and sol.iterations == 0

    def test_data_spanning_past_the_float_range_sweeps_plainly(self):
        # omega (max g - min g) overflows, so a relaxed step could too
        G = make_graph([(v, 1.0) for v in range(4)], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)])
        problem = AMLEProblem(G, (0, 3), {0: 1.7e308, 3: -1.7e308})
        for init in ("mcshane", "min", "max"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = solve_amle(problem, init=init)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(amle, "_OMEGA", 1.0)
                assert_same_bits(sol, solve_amle(problem, init=init))
            assert sol.converged

    def test_full_residual_runs_rarely(self, monkeypatch):
        # at least once per quarter window while relaxed: the first, the one
        # that reaches tol and the certified stop come on top
        G, g = walled_grid(1 / 32)
        calls = full_residual_runs(monkeypatch)
        for metric, init in (("graph", "mcshane"), ("essential", "min"), ("essential", "max")):
            calls.clear()
            sol = solve_amle(AMLEProblem(G, tuple(g), g, metric), tol=1e-8, init=init)
            assert sol.converged and sol.iterations < 300
            assert len(calls) <= sol.iterations // (amle._WINDOW // 4) + 3

    def test_sweep_counts(self, monkeypatch):
        """Host-free cost of the h=1/32 square-boundary solve at tol 1e-8:
        (sweeps, full residual runs) per init, relaxed and plain."""
        assert (amle._OMEGA, amle._WINDOW) == (1.5, 256)
        G, g = square_boundary(1 / 32)
        problem = AMLEProblem(G, tuple(g), g)
        calls = full_residual_runs(monkeypatch)
        want = {
            1.5: {"mcshane": (218, 6), "min": (239, 6), "max": (230, 6)},
            1.0: {"mcshane": (665, 2), "min": (744, 3), "max": (708, 3)},
        }
        for omega, counts in want.items():
            monkeypatch.setattr(amle, "_OMEGA", omega)
            for init, cost in counts.items():
                calls.clear()
                sol = solve_amle(problem, tol=1e-8, init=init)
                assert sol.converged and (sol.iterations, len(calls)) == cost


def unbounded(x):
    """The Fraction x rounded to 53 bits, with no limit on the exponent."""
    if x == 0:
        return x
    scale = Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length())
    return Fraction(float(x / scale)) * scale


def check_local_loop(u, problem):
    """The per-edge loop ``check_amle_local`` replaced.

    ``u`` is read first: on the boundary, then at each interior vertex
    with an edge and at its neighbours, in id order.

    A row with an overflowing slope is summed again in exact rationals,
    rounded as floats with an unbounded exponent would round, and reads
    inf only when that imbalance is past the float range.
    """
    G = problem.graph
    ids = G.vertex_ids
    bset = set(problem.boundary)
    csr = G._csr(problem.metric_choice)
    indptr, heads, lens = csr.indptr, csr.indices, csr.data
    read = set()
    for vi in range(G.n_vertices):
        if int(ids[vi]) not in bset and indptr[vi + 1] > indptr[vi]:
            read |= {int(ids[vi])} | {int(ids[w]) for w in heads[indptr[vi]:indptr[vi + 1]]}

    def value(v):
        if v not in u:
            raise InputError(f"u missing at vertex {v}")
        try:
            x = float(u[v])
        except (TypeError, ValueError):
            x = math.nan
        if type(u[v]) in (str, bytes, bool) or not math.isfinite(x):
            raise InputError(f"u not finite at vertex {v}")
        return x

    boundary = [value(v) for v in problem.boundary]
    for v, x in zip(problem.boundary, boundary):
        if x != problem.g[v]:
            raise InputError(f"u differs from boundary data at vertex {v}")
    for v in sorted(read):
        value(v)
    out = {}
    for vi in range(G.n_vertices):
        vid = int(ids[vi])
        if vid in bset:
            continue
        sup, sdn = -math.inf, -math.inf
        edges = []
        for p in range(indptr[vi], indptr[vi + 1]):
            wid = int(ids[heads[p]])
            ux, uw = float(u[vid]), float(u[wid])
            slope = (uw - ux) / float(lens[p])
            sup = max(sup, slope)
            sdn = max(sdn, -slope)
            edges.append((uw, ux, float(lens[p])))
        if not edges:
            out[vid] = 0.0
        elif math.isfinite(sup) and math.isfinite(sdn):
            out[vid] = abs(sup - sdn)
        else:
            s = [unbounded(unbounded(Fraction(a) - Fraction(b)) / Fraction(L))
                 for a, b, L in edges]
            imb = abs(unbounded(max(s) + min(s)))
            out[vid] = float(imb) if imb < 2 ** 1024 else math.inf
    return out


def local_outcome(check, u, problem):
    try:
        return list(check(u, problem).items())
    except InputError as exc:
        return str(exc)


class TestCheckLocalOracle:
    @ORACLE
    @given(
        amle_problems(),
        st.data(),
        st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_matches_loop(self, problem, data, bad_rate):
        """Same residuals bit for bit, or the same error at the same vertex."""
        u = dict(problem.g)
        for v in problem.graph.vertex_ids.tolist():
            if v in u:
                continue
            if data.draw(st.floats(0, 1)) < bad_rate:
                choice = data.draw(st.sampled_from(
                    ["missing", math.nan, math.inf, -math.inf, "abc", "12", None, True]))
                if choice != "missing":
                    u[v] = choice
            else:
                u[v] = data.draw(st.one_of(
                    VALUES, st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = local_outcome(check_amle_local, u, problem)
        assert got == local_outcome(check_local_loop, u, problem)

    def test_values_are_read_under_one_policy(self):
        """Boundary first, then in id order; a value ``float`` cannot read,
        a string and a bool are input errors, not raw exceptions."""
        problem = AMLEProblem(path_graph(4), (0, 3), {0: 0.0, 3: 1.0})
        for bad in ("abc", object(), "0.5", b"1", True):
            with pytest.raises(InputError, match="^u not finite at vertex 2$"):
                check_amle_local({0: 0.0, 1: 0.5, 2: bad, 3: 1.0}, problem)
        with pytest.raises(InputError, match="^u not finite at vertex 3$"):
            check_amle_local({0: 0.0, 2: 0.5, 3: "1.0"}, problem)
        with pytest.raises(InputError, match="^u missing at vertex 1$"):
            check_amle_local({0: 0.0, 2: math.nan, 3: 1.0}, problem)
        with pytest.raises(InputError, match="^u differs from boundary data at vertex 3$"):
            check_amle_local({0: 0.0, 1: "x", 3: 2.0}, problem)
        # a bad boundary value is read as one before it is compared
        with pytest.raises(InputError, match="^u not finite at vertex 0$"):
            check_amle_local({0: math.nan, 1: 0.5, 2: 0.5, 3: 1.0}, problem)

    def test_overflowing_slopes(self):
        # 1e300 across 1e-300 overflows to an infinite slope: an infinite
        # max up-slope and an infinite max down-slope both read inf
        G = make_graph(
            [(v, 1.0) for v in range(4)], [(0, 1, 1e-300), (1, 2, 1.0), (2, 3, 1e-300)]
        )
        problem = AMLEProblem(G, (0, 3), {0: 1e300, 3: -1e300})
        u = {0: 1e300, 1: 0.0, 2: 0.0, 3: -1e300}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_amle_local(u, problem) == {1: math.inf, 2: math.inf}
        for mid in (1e300, -1e300, 5.0):
            u[1] = u[2] = mid
            assert local_outcome(check_amle_local, u, problem) == local_outcome(
                check_local_loop, u, problem
            )

    def test_overflowing_slopes_that_balance(self):
        # slopes near +-1e310 overflow, but their sum -2 * mid / 1e-300 is
        # finite for a small mid: it reads that sum, not NaN or inf
        G = make_graph([(v, 1.0) for v in range(3)], [(0, 1, 1e-300), (1, 2, 1e-300)])
        problem = AMLEProblem(G, (0, 2), {0: -1e10, 2: 1e10})
        got = {}
        for mid in (0.0, 1e-5, 1e9):
            u = {0: -1e10, 1: mid, 2: 1e10}
            got[mid] = check_amle_local(u, problem)[1]
            assert got[mid] == check_local_loop(u, problem)[1]
        assert got[0.0] == 0.0
        assert got[1e-5] == pytest.approx(2e295, rel=0.2)
        assert got[1e9] == math.inf

    def test_overflowing_differences(self):
        # 1.7e308 - -1.7e308 overflows, but halved over length 4 the slope
        # 8.5e307 is finite, and so is the imbalance
        G = make_graph([(v, 1.0) for v in range(3)], [(0, 1, 4.0), (1, 2, 4.0)])
        problem = AMLEProblem(G, (0, 2), {0: 1.7e308, 2: -1.7e308})
        u = {0: 1.7e308, 1: -1.7e308, 2: -1.7e308}
        assert check_amle_local(u, problem) == {1: 8.5e307} == check_local_loop(u, problem)

    def test_matches_loop_on_solution(self):
        G, g = walled_grid(1 / 12)
        for metric in ("graph", "essential"):
            problem = AMLEProblem(G, tuple(g), g, metric)
            sol = solve_amle(problem, tol=1e-10, max_iter=2000)
            assert check_amle_local(sol.u, problem) == check_local_loop(sol.u, problem)

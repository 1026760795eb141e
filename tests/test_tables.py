"""The batched distance scans checked against networkx and brute force.

Poincare rows, doubling ratios and balls are recomputed from exact
networkx distances on random graphs with zero-measure vertices and
edges, disconnected parts and edge lengths of 1e-300 and 1e300; Nagata
and Whitney covers are compared with the constructions they replaced.  The
chunk size of the batched kernel calls is drawn too, so that one source
per call, a few per call and all of them in one call are each covered.
The Poincare scan is also compared, with ``==``, with the per-center loop
it replaced (``loop_poincare``).
"""

import contextlib
import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import mmgraph.extension as ext_mod
import mmgraph.graph as graph_mod
from conftest import distance_matrix, make_graph
from mmgraph import (
    Ball,
    CertifyError,
    InputError,
    MeshSpec,
    MetricMeasureGraph,
    NagataCover,
    PoincareRow,
    QCRow,
    QuasiconvexityReport,
    VectorField,
    WhitneyData,
    as_vector_field,
    ball,
    components,
    doubling_ratios,
    gen_grid,
    hajlasz_gradient_from_upper,
    lipschitz_constant,
    mcshane_extend,
    nagata_cover,
    poincare_constant,
    quasiconvexity_constant,
    vector_lipschitz_constant,
    verify_hajlasz,
    whitney_cover,
)
from mmgraph.util import LENGTH_TOL

LENGTHS = st.one_of(
    st.sampled_from([1e-300, 1e300, 1.0]),
    st.floats(min_value=0.01, max_value=100.0),
)
SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
#: 1 entry per call forces one source per kernel call; 7 gives a few; the
#: default puts every source of these small graphs in one call.
CHUNKS = st.sampled_from([1, 7, graph_mod._CHUNK_ENTRIES])


@st.composite
def graphs(draw, max_n=8):
    """Shuffled ids, zero-measure vertices and edges, maybe disconnected."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vertices = [(v, draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))) for v in ids]
    edges = [(a, b, draw(LENGTHS), draw(st.sampled_from([0.0, 1.0]))) for a, b in chosen]
    return make_graph(vertices, edges)


def exact_distances(G, metric="graph"):
    """All-pairs distances from networkx: ``d[a][b]``, inf when cut."""
    H = nx.Graph()
    H.add_nodes_from(int(v) for v in G.vertex_ids)
    for e in G.edges():
        if metric == "graph" or e.mu_edge > 0:
            H.add_edge(e.a, e.b, weight=e.length)
    d = dict(nx.all_pairs_dijkstra_path_length(H))
    return lambda a, b: d[a].get(b, math.inf)


def finite_gaps(G, d):
    ids = [int(v) for v in G.vertex_ids]
    return sorted({d(a, b) for a in ids for b in ids if 0 < d(a, b) < math.inf})


def radius(data, gaps):
    """A radius that often lands exactly on a distance."""
    return data.draw(st.one_of(st.sampled_from(gaps + [0.5, 3.0]), st.floats(0.01, 50.0)))


@contextlib.contextmanager
def chunked(entries):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "_CHUNK_ENTRIES", entries)
        yield


def poincare_rows(G, u, rho, lam, r, radii, exhaustive):
    """Every row of ``poincare_constant`` by brute force, in its order."""
    ids = [int(v) for v in G.vertex_ids]
    mu = dict(zip(ids, G.mu.tolist()))
    d = exact_distances(G)
    rows = []
    for c in ids:
        if exhaustive:
            gaps = sorted({d(c, v) for v in ids if 0 < d(c, v) <= r})
            local = [g * (1 + 1e-12) + 1e-300 for g in gaps]
        else:
            local = radii
        for rad in local:
            members = [v for v in ids if d(c, v) < rad]
            m = math.fsum(mu[v] for v in members)
            if m <= 0:
                rows.append((c, rad, 0.0, None, None, None, None))
                continue
            w = [Fraction(mu[v]) for v in members]
            mean = sum(a * Fraction(u[v]) for a, v in zip(w, members)) / sum(w)
            osc = sum(a * abs(Fraction(u[v]) - mean) for a, v in zip(w, members)) / sum(w)
            sup_rho = max(rho[v] for v in ids if d(c, v) < lam * rad)
            diam = max(d(a, b) for a in members for b in members)
            if osc == 0:
                rows.append((c, rad, m, 0.0, sup_rho, None, 0.0))
                continue
            den = diam * sup_rho
            rows.append((c, rad, m, float(osc), sup_rho, diam,
                         math.inf if den <= 0 else float(osc) / den))
    return rows


def loop_poincare(G, u, rho, lam, r, radii=None, exhaustive_radii=False):
    """``poincare_constant`` as a loop over centers and radii, each ball's
    diameter the prefix maximum of its center's nearest-first order over
    the members' whole table rows: the reference the scan must equal."""
    ids = G.vertex_ids
    uvals = np.array([float(u[int(v)]) for v in ids])
    rvals = np.array([float(rho[int(v)]) for v in ids])
    if radii is None:
        radii = [r, r / 2, r / 4, r / 8]
    radii = [float(x) for x in radii]
    rmax = r * (1 + 1e-12) + 1e-300 if exhaustive_radii else max(radii)
    table = np.concatenate([rows for _, rows in graph_mod._distance_blocks(
        G, np.arange(G.n_vertices), limit=max(lam, 2.0) * rmax)])
    best, witness, rows, skipped = 0.0, None, [], 0
    for ci, full in enumerate(table):
        near = np.flatnonzero(np.isfinite(full))
        cid, dist = int(ids[ci]), full[near]
        mu, u_near, rho_near = G.mu[near], uvals[near], rvals[near]
        if exhaustive_radii:
            local = [float(x) * (1 + 1e-12) + 1e-300
                     for x in np.unique(dist[(dist > 0) & (dist <= r)])]
        else:
            local = radii
        diams = None
        for rad in local:
            inside = dist < rad
            w = mu[inside]
            m = float(w.sum())
            if m <= 0:
                skipped += 1
                rows.append(PoincareRow(cid, float(rad), 0.0, math.nan, math.nan,
                                        math.nan, math.nan))
                continue
            uu = u_near[inside]
            seen = uu[w > 0]
            if seen.min() == seen.max():
                num = 0.0
            else:
                ub = float((w * uu).sum() / m)
                num = float((w * np.abs(uu - ub)).sum() / m)
            sup_rho = float(np.max(rho_near[dist < lam * rad]))
            if num <= 0:
                rows.append(PoincareRow(cid, float(rad), m, 0.0, sup_rho, math.nan, 0.0))
                continue
            if diams is None:
                nearest = near[np.argsort(dist, kind="stable")]
                k = np.count_nonzero(dist < max(local))
                D = table[np.ix_(nearest[:k], nearest[:k])]
                D = np.maximum(D, D.T)
                diams = np.maximum.accumulate(np.tril(D).max(axis=1))
            diam = float(diams[np.count_nonzero(inside) - 1])
            den = diam * sup_rho
            val = math.inf if den <= 0 else num / den
            rows.append(PoincareRow(cid, float(rad), m, num, sup_rho, diam, val))
            if val > best:
                best = val
                witness = Ball(cid, float(rad), tuple(int(ids[k]) for k in near[inside]),
                               m, False)
    return best, witness, skipped, rows


def same_floats(a, b):
    """Equal field by field, a nan equal to a nan."""
    return len(a) == len(b) and all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(a, b)
    )


def assert_matches_loop(rep, G, u, rho, lam, r, radii=None, exhaustive_radii=False):
    best, witness, skipped, rows = loop_poincare(G, u, rho, lam, r, radii, exhaustive_radii)
    assert (rep.best_C, rep.witness_ball, rep.skipped_zero_measure) == (best, witness, skipped)
    assert len(rep.rows) == len(rows)
    for got, want in zip(rep.rows, rows):
        assert same_floats(dataclasses.astuple(got), dataclasses.astuple(want)), (got, want)


class TestPoincareRows:
    @SETTINGS
    @given(graphs(), CHUNKS, st.data())
    def test_every_row_matches_brute_force(self, G, entries, data):
        ids = [int(v) for v in G.vertex_ids]
        u = {v: data.draw(st.sampled_from([0.0, 1.0, -2.5, 0.3])) for v in ids}
        rho = {v: data.draw(st.sampled_from([0.0, 0.5, 2.0, math.inf])) for v in ids}
        lam = data.draw(st.one_of(
            st.floats(1.0, 2.0, exclude_max=True), st.sampled_from([1.0, 2.0, 3.5])))
        d = exact_distances(G)
        r = radius(data, finite_gaps(G, d))
        mode = data.draw(st.sampled_from(["default", "explicit", "exhaustive"]))
        radii = [r, r / 2, r / 4, r / 8]
        if mode == "explicit":
            below = [g for g in finite_gaps(G, d) if g <= r]
            radii = data.draw(st.lists(st.sampled_from(below + [r, r / 3]), min_size=1, max_size=3))
        with chunked(entries):
            rep = poincare_constant(
                G, u, rho, lam=lam, r=r,
                radii=radii if mode == "explicit" else None,
                exhaustive_radii=mode == "exhaustive",
            )
        assert_matches_loop(rep, G, u, rho, lam, r, radii if mode == "explicit" else None,
                            mode == "exhaustive")
        want = poincare_rows(G, u, rho, lam, r, radii, mode == "exhaustive")
        assert len(rep.rows) == rep.balls_checked == len(want)
        assert rep.skipped_zero_measure == sum(w[2] == 0 for w in want)
        for row, (c, rad, m, osc, sup_rho, diam, C) in zip(rep.rows, want):
            assert (row.center, row.radius) == (c, rad)
            assert row.measure == pytest.approx(m, rel=1e-12, abs=0)
            if osc is None:
                assert all(math.isnan(x) for x in (row.oscillation, row.sup_rho,
                                                    row.diameter, row.C))
                continue
            assert row.oscillation == pytest.approx(osc, rel=1e-9, abs=0)
            assert row.sup_rho == sup_rho
            if diam is None:
                assert math.isnan(row.diameter)
            else:
                assert row.diameter == diam
            assert row.C == pytest.approx(C, rel=1e-9, abs=0)
        finite = [w[6] for w in want if w[6] is not None]
        assert rep.best_C == pytest.approx(max(finite, default=0.0), rel=1e-9, abs=0)
        if rep.witness_ball is not None:
            wb = rep.witness_ball
            assert wb.members == tuple(v for v in ids if d(wb.center, v) < wb.radius)


    def test_diameter_reads_both_directions_of_a_pair(self):
        """Summed from 3, the path 3-2-1-0 is 0.6000000000000001 long; from
        0 it is 0.6.  The diameter is the larger, as brute force reads it,
        whichever end comes later in the nearest-first order of center 2."""
        G = make_graph(
            [(v, 1.0) for v in range(4)], [(0, 1, 0.3), (1, 2, 0.2), (2, 3, 0.1)]
        )
        d = exact_distances(G)
        assert d(3, 0) == 0.6000000000000001 != d(0, 3)
        u = {0: 0.0, 1: 1.0, 2: 0.0, 3: 1.0}
        rep = poincare_constant(G, u, {v: 1.0 for v in range(4)}, lam=1.0, r=0.51,
                                radii=[0.51])
        row = next(row for row in rep.rows if row.center == 2)
        assert row.diameter == 0.6000000000000001

    @pytest.mark.parametrize("mode", ["default", "explicit", "exhaustive"])
    def test_a_long_path_whose_two_directions_round_apart(self, mode):
        """A 0.3 edge, then forty 0.1 edges: summed from the far end, a
        pair across the 0.3 edge can come out an ulp longer than from the
        near end, and every ball's diameter is the longer reading."""
        m = 41
        G = make_graph([(v, 1.0) for v in range(m + 1)],
                       [(v, v + 1, 0.3 if v == 0 else 0.1) for v in range(m)])
        d = exact_distances(G)
        assert any(d(a, b) != d(b, a) for a in range(m + 1) for b in range(a))
        u = {v: float(v % 3) for v in range(m + 1)}
        rho = {v: 1.0 for v in range(m + 1)}
        r, radii = 2.0, [2.0, 0.65, 1.45] if mode == "explicit" else None
        rep = poincare_constant(G, u, rho, lam=1.5, r=r, radii=radii,
                                exhaustive_radii=mode == "exhaustive")
        assert_matches_loop(rep, G, u, rho, 1.5, r, radii, mode == "exhaustive")
        for row in rep.rows:
            members = [v for v in range(m + 1) if d(row.center, v) < row.radius]
            if not math.isnan(row.diameter):
                assert row.diameter == max(d(a, b) for a in members for b in members)

    def test_a_pair_away_from_the_farthest_member_sets_the_diameter(self):
        """Center 0; 2 and 3 tie at the largest distance 1, so 3 is the
        farthest member f, and its longest pair (with 1) falls 1e-12 short
        of the pair 1-2, which the shell must still read."""
        G = make_graph([(v, 1.0) for v in range(4)], [
            (0, 2, 1.0), (0, 3, 1.0), (0, 1, 0.9), (3, 2, 1e-12), (3, 1, 1.9 - 1e-12),
        ])
        d = exact_distances(G)
        assert max(d(3, v) for v in range(4)) < d(1, 2) == 1.9
        rep = poincare_constant(G, {0: 0.0, 1: 1.0, 2: 0.0, 3: 1.0},
                                {v: 1.0 for v in range(4)}, lam=1.0, r=1.5, radii=[1.5])
        assert rep.rows[0].diameter == 1.9

    def test_the_shell_keeps_a_pair_that_beats_lb_by_rounding(self):
        """Around center 3 (radius 0.75...), a pair reads 0.8000000000000002
        while lb - e puts one of its ends an ulp inside the shell's edge:
        without the rounding slack the diameter comes out 0.8."""
        G = make_graph([(v, 1.0) for v in range(9)], [
            (0, 1, 0.35), (0, 2, 0.3), (0, 5, 0.30000000000000004),
            (0, 6, 0.30000000000000004), (0, 7, 0.3), (1, 5, 0.2),
            (1, 6, 0.30000000000000004), (1, 7, 0.4), (2, 3, 0.15), (3, 4, 0.05),
            (3, 5, 1.2000000000000002), (3, 8, 0.6), (4, 8, 0.8999999999999999),
            (5, 7, 0.21000000000000002), (5, 8, 0.35), (6, 7, 0.6), (6, 8, 0.7),
        ])
        u, rho = {v: float(v % 2) for v in range(9)}, {v: 1.0 for v in range(9)}
        rep = poincare_constant(G, u, rho, lam=1.0, r=1.0, exhaustive_radii=True)
        assert_matches_loop(rep, G, u, rho, 1.0, 1.0, None, True)
        row = next(row for row in rep.rows
                   if row.center == 3 and row.radius == 0.7500000000007501)
        assert row.diameter == 0.8000000000000002


class TestPoincareMeshes:
    """The scan equals the per-center loop on meshes, and its temporaries
    stay bounded."""

    @staticmethod
    def walled(h):
        """A unit-square grid whose edges across x = 1/2 have measure 0,
        except in a gap."""
        G = gen_grid(h, (0.0, 0.0, 1.0, 1.0))
        ia, ib, pos = G._edge_ia, G._edge_ib, G.pos
        lo, hi = np.minimum(pos[ia], pos[ib]), np.maximum(pos[ia], pos[ib])
        cross = (lo[:, 0] < 0.49) & (hi[:, 0] > 0.49)
        gap = (lo[:, 1] >= 0.3) & (hi[:, 1] <= 0.4)
        ids = G.vertex_ids
        return MetricMeasureGraph.from_arrays(
            ids, G.mu, pos, ids[ia], ids[ib], G.edge_lengths,
            np.where(cross & ~gap, 0.0, 1.0),
        )

    @pytest.mark.parametrize("mesh", ["grid", "walled"])
    @pytest.mark.parametrize("mode", ["default", "explicit", "exhaustive"])
    def test_matches_the_loop(self, mesh, mode):
        G = gen_grid(1 / 24, (0.0, 0.0, 1.0, 1.0)) if mesh == "grid" else self.walled(1 / 24)
        ids = G.vertex_ids.tolist()
        x, y = G.pos[:, 0], G.pos[:, 1]
        u = dict(zip(ids, (np.sin(7 * x) + (x > 0.5) + np.where(y < 0.2, 0.0, y)).tolist()))
        rho = dict(zip(ids, (1 + y).tolist()))
        r = 0.08 if mode == "exhaustive" else 0.15
        radii = [0.15, 0.05, 0.1] if mode == "explicit" else None
        rep = poincare_constant(G, u, rho, lam=2.0, r=r, radii=radii,
                                exhaustive_radii=mode == "exhaustive")
        assert_matches_loop(rep, G, u, rho, 2.0, r, radii, mode == "exhaustive")

    def test_peak_memory_at_h_1_32(self):
        """The table (105k entries, 1.3 MB) and blocks of bounded
        temporaries peak at 3.6 MB; one block of every center took 9.4 MB."""
        G = gen_grid(1 / 32, (0.0, 0.0, 1.0, 1.0))
        ids = G.vertex_ids.tolist()
        x, y = G.pos[:, 0], G.pos[:, 1]
        u = dict(zip(ids, (np.sin(7 * x) + (x > 0.5)).tolist()))
        rho = dict(zip(ids, (1 + y).tolist()))
        tracemalloc.start()
        try:
            poincare_constant(G, u, rho, lam=2.0, r=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestBatchedCalls:
    """Every per-vertex scan makes at most ceil(sources / chunk) kernel calls."""

    @pytest.mark.parametrize("per_call", [5, None])
    def test_kernel_calls_per_scan(self, per_call, monkeypatch):
        G = gen_grid(1 / 8, (0.0, 0.0, 1.0, 1.0))
        n = G.n_vertices
        if per_call is not None:
            monkeypatch.setattr(graph_mod, "_CHUNK_ENTRIES", per_call * n)
        bound = math.ceil(n / graph_mod._chunk_sources(n))
        assert bound == (math.ceil(n / per_call) if per_call else 1)
        calls = []
        orig = MetricMeasureGraph.distances_from

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(MetricMeasureGraph, "distances_from", counting)
        ids = [int(v) for v in G.vertex_ids]
        x = dict(zip(ids, G.pos[:, 0].tolist()))
        rho = {v: 1.0 + x[v] for v in ids}
        scans = [
            lambda: poincare_constant(G, x, rho, lam=1.5, r=0.3),
            lambda: poincare_constant(G, x, rho, lam=2.0, r=0.3, exhaustive_radii=True),
            lambda: hajlasz_gradient_from_upper(G, rho, 1.5, 0.2),
            lambda: verify_hajlasz(G, x, {v: 0.1 for v in ids}, 0.3),
            lambda: quasiconvexity_constant(G, "euclidean"),
            lambda: quasiconvexity_constant(G, "euclidean", metric_choice="essential"),
            lambda: doubling_ratios(G, ids, [0.1, 0.2]),
        ]
        for scan in scans:
            calls.clear()
            scan()
            assert 1 <= len(calls) <= bound


class TestDoublingOracle:
    @SETTINGS
    @given(graphs(), CHUNKS, st.data())
    def test_measures_match_brute_force(self, G, entries, data):
        ids = [int(v) for v in G.vertex_ids]
        mu = dict(zip(ids, G.mu.tolist()))
        d = exact_distances(G)
        gaps = finite_gaps(G, d)
        centers = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
        scales = data.draw(st.lists(st.sampled_from(gaps + [0.5]), min_size=1, max_size=3))
        with chunked(entries):
            rep = doubling_ratios(G, centers, scales)
        keys = [(c, r) for c in centers for r in scales]
        assert [(row.center, row.r) for row in rep.rows] == keys
        for row in rep.rows:
            c, r = row.center, row.r
            inner = math.fsum(mu[v] for v in ids if d(c, v) < r)
            outer = math.fsum(mu[v] for v in ids if d(c, v) < 2 * r)
            assert row.inner_measure == pytest.approx(inner, rel=1e-12, abs=0)
            assert row.outer_measure == pytest.approx(outer, rel=1e-12, abs=0)
            assert row.ratio == (outer / inner if inner > 0 else math.inf)


class TestBallOracle:
    @SETTINGS
    @given(graphs(), st.sampled_from(["graph", "essential"]), st.booleans(), st.data())
    def test_members_and_measure_match_brute_force(self, G, metric, closed, data):
        ids = [int(v) for v in G.vertex_ids]
        mu = dict(zip(ids, G.mu.tolist()))
        d = exact_distances(G, metric)
        x = data.draw(st.sampled_from(ids))
        r = radius(data, finite_gaps(G, d))
        b = ball(G, x, r, closed=closed, edge_filter=metric)
        want = [v for v in ids if (d(x, v) <= r if closed else d(x, v) < r)]
        assert b.members == tuple(want)
        assert b.measure == pytest.approx(math.fsum(mu[v] for v in want), rel=1e-12, abs=0)
        assert (b.center, b.radius, b.closed) == (x, r, closed)


def qc_oracle(G, ambient, R, metric, seed, max_pairs, exhaustive_limit):
    """``quasiconvexity_constant`` as a loop over sources: each source's
    ambient row, the worst pair among its targets within R, and exact
    networkx distances for the chosen metric."""
    n, ids = G.n_vertices, G.vertex_ids
    d = exact_distances(G, metric)

    def worst_from(i, cols):
        if ambient == "euclidean":
            diff = G.pos[[i]][:, None, :] - G.pos[None, :, :]
            amb = np.sqrt(np.sum(diff * diff, axis=2))[0][cols]
        else:
            amb = np.array([ambient(int(ids[i]), int(ids[j])) for j in cols], dtype=float)
        bad = ~(amb > 0)
        if np.any(bad):
            k = np.nonzero(bad)[0][0]
            value = "0" if amb[k] == 0 else repr(float(amb[k]))
            raise InputError(
                f"ambient distance {value} between distinct vertices "
                f"{int(ids[i])} and {int(ids[cols[k]])}"
            )
        within = amb < R
        cols, amb = cols[within], amb[within]
        if cols.size == 0:
            return 0, None
        dist = np.array([d(int(ids[i]), int(ids[j])) for j in cols])
        with np.errstate(over="ignore"):  # a ratio past the float range is inf
            ratio = dist / amb
        k = int(np.argmax(ratio))
        row = QCRow(int(ids[i]), int(ids[cols[k]]), float(amb[k]), float(dist[k]),
                    float(ratio[k]))
        return cols.size, row

    exhaustive = n <= exhaustive_limit
    if exhaustive:
        scans = [(i, np.arange(i + 1, n)) for i in range(n - 1)]
    else:
        rng = np.random.default_rng(seed)
        n_src = min(n, max(1, int(math.isqrt(max_pairs) * 2)))
        per_src = max(1, max_pairs // n_src)
        src = np.sort(rng.choice(n, size=n_src, replace=False))
        scans = []
        for i, child in zip(src, rng.spawn(n_src)):
            tgt = child.integers(0, n, size=per_src)
            scans.append((int(i), tgt[tgt != i]))
    best, worst, samples, rows = 1.0, None, 0, []
    for i, cols in scans:
        cnt, row = worst_from(i, cols)
        samples += cnt
        if row is not None:
            rows.append(row)
            if row.ratio > best:
                best, worst = row.ratio, (row.source, row.target)
    return QuasiconvexityReport(
        C=best, R=float(R), worst_pair=worst, samples=samples, exhaustive=exhaustive,
        metric_choice=metric, seed=None if exhaustive else seed, rows=tuple(rows),
    )


def outcome(scan, *args, **kwargs):
    """A scan's report, or the message of its input error."""
    try:
        return scan(*args, **kwargs)
    except InputError as exc:
        return str(exc)


class TestQuasiconvexityOracle:
    @SETTINGS
    @given(graphs(), CHUNKS, st.data())
    def test_report_matches_the_per_source_scan(self, G, entries, data):
        dim = data.draw(st.integers(1, 3))
        coord = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1.0]))
        pos = np.array([[data.draw(coord) for _ in range(dim)] for _ in G.vertex_ids])
        ids = G.vertex_ids
        G = MetricMeasureGraph.from_arrays(
            ids, G.mu, pos, ids[G._edge_ia], ids[G._edge_ib], G.edge_lengths,
            G.edge_measures,
        )
        ambient = data.draw(st.sampled_from(["euclidean", lambda a, b: abs(a - b) / 7]))
        R = data.draw(st.one_of(st.just(math.inf), st.floats(0.1, 10.0)))
        args = dict(
            ambient=ambient, R=R, metric=data.draw(st.sampled_from(["graph", "essential"])),
            seed=data.draw(st.integers(0, 3)), max_pairs=data.draw(st.integers(1, 50)),
            exhaustive_limit=data.draw(st.sampled_from([1, 2000])),
        )
        want = outcome(qc_oracle, G, **args)
        args["metric_choice"] = args.pop("metric")
        with chunked(entries):
            got = outcome(quasiconvexity_constant, G, **args)
        assert got == want
        if not isinstance(want, str):
            assert got.rows == want.rows
            assert got.to_csv() == want.to_csv()
            assert repr(got) == repr(want)


def dense_nagata(G, s, target_n=None, points=None):
    """``nagata_cover`` as built from the dense point-by-point distance matrix."""
    pts = [int(v) for v in G.vertex_ids] if points is None else sorted(points)
    k = len(pts)
    cols = [G.index_of(v) for v in pts]
    dmat = distance_matrix(G, pts)[:, cols]
    mind = np.full(k, math.inf)
    center_rows = []
    for i in range(k):
        if mind[i] >= s:
            center_rows.append(i)
            np.minimum(mind, dmat[i], out=mind)
    assign = np.argmin(dmat[center_rows], axis=0)
    sets = []
    for ci in range(len(center_rows)):
        rows = [j for j in range(k) if assign[j] == ci]
        sets.append(tuple(pts[j] for j in rows))
        diam = float(np.max(dmat[np.ix_(rows, rows)]))
        if diam > 2.0 * s + 1e-9:
            raise CertifyError(f"cover set diameter {diam} exceeds 2s = {2 * s}")
    probe_max, probe_witness = 0, None
    for j in range(k):
        count = int(np.unique(assign[dmat[j] <= s / 2.0]).size)
        if count > probe_max:
            probe_max, probe_witness = count, pts[j]
    return NagataCover(
        sets=tuple(sets),
        s=float(s),
        c=2.0,
        n=max(0, probe_max - 1),
        probe_stats={
            "probe_family": "closed balls of radius s/2",
            "probes": k,
            "max_multiplicity": probe_max,
            "witness_center": probe_witness,
        },
        exceeded_target=target_n is not None and probe_max > target_n + 1,
    )


def nagata_outcome(cover, *args, **kwargs):
    try:
        return cover(*args, **kwargs)
    except CertifyError as exc:
        return str(exc)


def dense_nagata_outcome(*args, **kwargs):
    return nagata_outcome(dense_nagata, *args, **kwargs)


class TestNagataOracle:
    @SETTINGS
    @given(graphs(), CHUNKS, st.data())
    def test_matches_dense_construction(self, G, entries, data):
        ids = [int(v) for v in G.vertex_ids]
        gaps = finite_gaps(G, exact_distances(G))
        # scales landing on distances, half and twice distances: ties at s,
        # 2s and the probe radius s/2
        base = data.draw(st.sampled_from(gaps + [1.0]))
        s = data.draw(st.sampled_from([base, base / 2, base * 2, base * 1.0000001]))
        points = data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(ids), min_size=1, unique=True)))
        target = data.draw(st.sampled_from([None, 0, 1]))
        with chunked(entries):
            got = nagata_outcome(nagata_cover, G, s, target_n=target, points=points)
        assert got == dense_nagata_outcome(G, s, target_n=target, points=points)

    def test_rounding_past_2s_is_refused_as_dense(self):
        """Summed from its end 5, this path is longer than twice the
        distance from vertex 0 to its far ends by more than 1e-9: both
        constructions refuse the one-set cover with the same diameter."""
        path = [5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 10]
        lens = [0.7, 0.2, 0.3, 0.2, 0.1, 0.7, 0.2, 0.2, 0.2, 0.2]
        G = make_graph([(v, 1.0) for v in range(11)],
                       [(a, b, x * 2.0 ** 40) for a, b, x in zip(path, path[1:], lens)])
        s = float(np.nextafter(np.max(G.distances_from([0])), np.inf))
        with pytest.raises(CertifyError, match="diameter") as exc:
            nagata_cover(G, s)
        assert str(exc.value) == dense_nagata_outcome(G, s)

    @pytest.mark.parametrize("points", ["all", "odd"])
    def test_grid_and_carpet(self, points):
        for G in (gen_grid(1 / 16, (0.0, 0.0, 1.0, 1.0)),
                  MeshSpec.from_dict({"kind": "carpet", "level": 3,
                                      "negligible_mode": "all"}).build()):
            pts = None if points == "all" else [int(v) for v in G.vertex_ids if v % 2]
            for s in (0.05, 0.1, 0.25):
                assert nagata_cover(G, s, points=pts) == dense_nagata(G, s, points=pts)

    def test_peak_memory_at_h_1_64(self):
        G = gen_grid(1 / 64, (0.0, 0.0, 1.0, 1.0))
        tracemalloc.start()
        try:
            nagata_cover(G, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("per_call", [7, None])
    def test_kernel_calls(self, per_call, monkeypatch):
        """The net searches batches of uncovered points at s + LENGTH_TOL,
        each batch holding at least one new center, and the probes are one
        pass at s/2; no cell of the grid is audited."""
        G = gen_grid(1 / 12, (0.0, 0.0, 1.0, 1.0))
        n = G.n_vertices
        if per_call is not None:
            monkeypatch.setattr(graph_mod, "_CHUNK_ENTRIES", per_call * n)
        limits = []
        monkeypatch.setattr(MetricMeasureGraph, "distances_from", counting(limits))
        step = graph_mod._chunk_sources(n)
        ids = [int(v) for v in G.vertex_ids]
        for pts in (ids, ids[::3]):
            limits.clear()
            cover = nagata_cover(G, 0.2, points=pts)
            centers, probes = limits.count(0.2 + LENGTH_TOL), limits.count(0.1)
            assert math.ceil(len(cover.sets) / step) <= centers <= len(cover.sets)
            if per_call is None:
                assert centers == 1  # every point fits in one call
            assert probes == math.ceil(len(pts) / step)
            assert len(limits) == centers + probes


def counting(limits):
    """``distances_from`` recording each call's limit in ``limits``."""
    orig = MetricMeasureGraph.distances_from

    def wrapped(self, *args, limit=math.inf, **kwargs):
        limits.append(limit)
        return orig(self, *args, limit=limit, **kwargs)

    return wrapped


def dense_whitney(G, omega, alpha=2.0, beta=0.5):
    """``whitney_cover`` as built by a per-center greedy net over each annulus,
    one full kernel call per center and four per block."""
    om = sorted(int(v) for v in omega)
    if not (alpha > 0) or not (beta > 0):
        raise InputError("alpha and beta must be positive")
    delta = beta / (2.0 * (beta + 1.0))
    omset = frozenset(om)
    ids = G.vertex_ids
    n = G.n_vertices
    D = G.distances_from(om, min_only=True)
    om_idx = np.asarray([G.index_of(v) for v in om], dtype=np.int64)

    ext_idx = [i for i in range(n) if int(ids[i]) not in omset]
    excluded = tuple(int(ids[i]) for i in ext_idx if not np.isfinite(D[i]))
    live = [i for i in ext_idx if np.isfinite(D[i])]
    if not live:
        return WhitneyData(
            blocks=(), anchors=(), base_dists=(), alpha=alpha, beta=beta,
            delta=delta, multiplicity=0, sigma={}, excluded=excluded,
            omega=omset,
        )

    levels = sorted({int(math.floor(math.log2(D[i]))) for i in live})
    blocks, anchors, bases = [], [], []
    for k in levels:
        lo, hi = 2.0 ** k, 2.0 ** (k + 1)
        ann = [i for i in live if lo <= D[i] < hi]
        sep = alpha * 2.0 ** (k - 1)
        mind = np.full(len(ann), math.inf)
        owner = np.full(len(ann), -1, dtype=np.int64)
        n_centers = 0
        for j, i in enumerate(ann):
            if mind[j] >= sep:
                row = G.distances_from([int(ids[i])], limit=sep, min_only=True)
                for jj, ii in enumerate(ann):
                    if row[ii] < mind[jj]:
                        mind[jj] = row[ii]
                        owner[jj] = n_centers
                n_centers += 1
        for ci in range(n_centers):
            members = [ann[j] for j in range(len(ann)) if owner[j] == ci]
            base = float(min(D[i] for i in members))
            blocks.append(tuple(int(ids[i]) for i in members))
            bases.append(base)
            brow = G.distances_from([int(ids[i]) for i in members], limit=base, min_only=True)
            dom = brow[om_idx]
            near = float(np.min(dom))
            anchors.append(om[int(np.nonzero(dom <= near + 1e-15)[0][0])])

    for bi, members in enumerate(blocks):
        base = bases[bi]
        midx = [G.index_of(v) for v in members]
        if len(members) > 1:
            rows = np.atleast_2d(
                G.distances_from(list(members), limit=alpha * base + LENGTH_TOL))
            diam = float(np.max(rows[:, midx]))
            if diam > alpha * base + LENGTH_TOL:
                raise CertifyError(
                    f"block {bi} diameter {diam} exceeds alpha*d = {alpha * base}")
        arow = G.distances_from([anchors[bi]], limit=2.0 * base, min_only=True)
        d_anchor = float(np.min(arow[midx]))
        if not d_anchor < (2.0 - delta) * base + LENGTH_TOL:
            raise CertifyError(
                f"block {bi} anchor at distance {d_anchor}, bound {(2.0 - delta) * base}")

    sigma_lists = {int(ids[i]): [] for i in live}
    for bi, members in enumerate(blocks):
        radius = delta * bases[bi]
        row = G.distances_from(list(members), limit=radius, min_only=True)
        for i in np.nonzero(row < radius)[0]:
            vid = int(ids[i])
            if vid not in omset:
                sigma_lists.setdefault(vid, []).append((bi, float(radius - row[i])))

    multiplicity = 0
    sigma = {}
    for i in live:
        vid = int(ids[i])
        entries = tuple(sorted(sigma_lists.get(vid, [])))
        if not entries:
            raise CertifyError(f"exterior vertex {vid} has empty partition support")
        sigma[vid] = entries
        multiplicity = max(multiplicity, len(entries))
    return WhitneyData(
        blocks=tuple(blocks), anchors=tuple(anchors), base_dists=tuple(bases),
        alpha=float(alpha), beta=float(beta), delta=float(delta),
        multiplicity=multiplicity, sigma=sigma, excluded=excluded, omega=omset,
    )


def whitney_outcome(cover, *args, **kwargs):
    """Everything a cover holds, or the message it was refused with."""
    try:
        c = cover(*args, **kwargs)
    except CertifyError as exc:
        return str(exc)
    return c.to_dict(), c.sigma, c.excluded, c.omega


def disc_omega(G, r=0.15):
    d = np.hypot(G.pos[:, 0] - 0.5, G.pos[:, 1] - 0.5)
    return [int(v) for v, x in zip(G.vertex_ids, d) if x <= r]


@st.composite
def linked_graphs(draw, max_n=10):
    """``graphs`` with a path through at least half of the vertices added,
    so that more exterior vertices reach Omega."""
    G = draw(graphs(max_n))
    ids = [int(v) for v in G.vertex_ids]
    have = {frozenset((e.a, e.b)) for e in G.edges()}
    chain = draw(st.permutations(ids))[:draw(st.integers(len(ids) // 2, len(ids)))]
    edges = [(e.a, e.b, e.length, e.mu_edge) for e in G.edges()]
    edges += [(a, b, draw(LENGTHS), draw(st.sampled_from([0.0, 1.0])))
              for a, b in zip(chain, chain[1:]) if frozenset((a, b)) not in have]
    return make_graph(list(zip(ids, G.mu.tolist())), edges)


class TestWhitneyOracle:
    @SETTINGS
    @given(linked_graphs(), CHUNKS, st.data())
    def test_matches_dense_construction(self, G, entries, data):
        ids = [int(v) for v in G.vertex_ids]
        # a few vertices, sometimes with a whole component
        omega = set(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)))
        if data.draw(st.integers(0, 3)) == 0:
            omega.update(data.draw(st.sampled_from(components(G))))
        alpha = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
        beta = data.draw(st.sampled_from([0.1, 0.5, 1.0]))
        with chunked(entries):
            got = whitney_outcome(whitney_cover, G, omega, alpha, beta)
        assert got == whitney_outcome(dense_whitney, G, omega, alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(2.0, 0.5), (0.5, 0.1), (3.5, 1.0)])
    def test_grid_and_carpet(self, alpha, beta):
        grid = gen_grid(1 / 16, (0.0, 0.0, 1.0, 1.0))
        carpet = MeshSpec.from_dict(
            {"kind": "carpet", "level": 3, "negligible_mode": "all"}).build()
        for G, omega in ((grid, disc_omega(grid)),
                         (carpet, [int(v) for v in carpet.vertex_ids if v % 5 == 0])):
            got = whitney_outcome(whitney_cover, G, omega, alpha, beta)
            assert got == whitney_outcome(dense_whitney, G, omega, alpha, beta)
            assert not isinstance(got, str)

    @pytest.mark.parametrize("reach", [1.0, 1.25])
    def test_a_cell_wide_by_rounding_is_audited_exactly(self, reach):
        """The path of ``test_rounding_past_2s_is_refused_as_dense`` hangs
        from Omega = {11} at vertex 0, with alpha set so that the separation
        of its annulus is just past the path's reach from 0: the path is one
        cell whose ends are more than 2 sep + 1e-9 apart, and the cell's
        reach is past 2 sep + 1e-9, so it is audited.  With d(B, Omega) =
        2^43 the exact audit refuses it, as the dense construction does;
        with 1.25 * 2^43 it passes."""
        path = [5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 10]
        lens = [0.7, 0.2, 0.3, 0.2, 0.1, 0.7, 0.2, 0.2, 0.2, 0.2]
        edges = [(a, b, x * 2.0 ** 40) for a, b, x in zip(path, path[1:], lens)]
        G = make_graph([(v, 1.0) for v in range(12)],
                       edges + [(0, 11, reach * 2.0 ** 43)])
        sep = float(np.nextafter(np.max(G.distances_from([0], min_only=True)[:11]), np.inf))
        alpha = sep / 2.0 ** 42
        _, cells, spans = ext_mod._greedy_net(G, np.arange(11), sep)
        assert [c.tolist() for c in cells] == [list(range(11))]
        assert spans[0] > 2.0 * sep + LENGTH_TOL
        got = whitney_outcome(whitney_cover, G, [11], alpha)
        assert got == whitney_outcome(dense_whitney, G, [11], alpha)
        if reach == 1.0:
            assert got.startswith("block 0 diameter ")
        else:
            assert got[0]["blocks"] == [list(range(11))]

    def test_anchor_ties_within_1e_15_go_to_the_smallest_id(self):
        G = make_graph([(0, 1.0), (1, 1.0), (2, 1.0)],
                       [(0, 2, 1.0000000000000002), (1, 2, 1.0)])
        assert whitney_cover(G, [0, 1]).anchors == (0,)
        assert whitney_outcome(whitney_cover, G, [0, 1]) == whitney_outcome(
            dense_whitney, G, [0, 1])

    def test_distance_just_below_a_power_of_two_keeps_its_annulus(self):
        """log2 rounds 1024 - ulp up to 10.0, which put vertex 1 in the empty
        annulus [1024, 2048) of the dense construction and left it in no
        block; its annulus is [512, 1024)."""
        G = make_graph([(0, 1.0), (1, 1.0)], [(0, 1, float(np.nextafter(1024.0, 0.0)))])
        assert whitney_cover(G, [0]).blocks == ((1,),)
        assert whitney_outcome(dense_whitney, G, [0]) == (
            "exterior vertex 1 has empty partition support")

    def test_kernel_calls(self, monkeypatch):
        G = gen_grid(1 / 32, (0.0, 0.0, 1.0, 1.0))
        limits, nets = [], []
        orig_net = ext_mod._greedy_net

        def net(*args):
            nets.append((args[2], orig_net(*args)))
            return nets[-1][1]

        monkeypatch.setattr(MetricMeasureGraph, "distances_from", counting(limits))
        monkeypatch.setattr(ext_mod, "_greedy_net", net)
        cover = whitney_cover(G, disc_omega(G))
        # one search from Omega, the net's searches from its centers, and
        # per block one search from the block and one from its anchor; a
        # block reaching past alpha * base + LENGTH_TOL adds its audit
        step = graph_mod._chunk_sources(G.n_vertices)
        centers = [limits.count(sep + LENGTH_TOL) for sep, _ in nets]
        for (_, (_, cells, _)), calls in zip(nets, centers):
            assert math.ceil(len(cells) / step) <= calls <= len(cells)
        reach = np.concatenate([r for _, (_, _, r) in nets])
        audits = sum(math.ceil(len(b) / step) for b, r, d in zip(
            cover.blocks, reach, cover.base_dists) if r > 2.0 * d + LENGTH_TOL)
        assert len(nets) == len(set(np.frexp(cover.base_dists)[1].tolist()))
        assert len(limits) == 1 + sum(centers) + 2 * len(cover.blocks) + audits

    def test_no_cell_of_a_grid_is_audited(self, monkeypatch):
        """Grid distances are sums of 1/32, so every cell's reach clears its
        bound and neither cover audits a diameter."""
        G = gen_grid(1 / 32, (0.0, 0.0, 1.0, 1.0))
        audited = []

        def diameter(G, idx, limit):
            audited.append(idx.size)
            return 0.0

        monkeypatch.setattr(ext_mod, "_diameter", diameter)
        for s in (0.05, 0.1, 0.25):
            nagata_cover(G, s)
        edge = np.min(np.minimum(G.pos, 1.0 - G.pos), axis=1) == 0
        for omega in (disc_omega(G), G.vertex_ids[edge].tolist()):
            whitney_cover(G, omega)
        assert audited == []

    def test_peak_memory_at_h_1_64(self):
        G = gen_grid(1 / 64, (0.0, 0.0, 1.0, 1.0))
        omega = disc_omega(G)
        tracemalloc.start()
        try:
            whitney_cover(G, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11e6


def dense_slope(G, u, size, metric):
    """The largest slope of ``u`` over pairs of its keys, read from one
    untruncated search from every key, each pair from its smaller key's
    row.  A pair whose difference overflows is halved first, as
    2 (size(a/2 - b/2) / d), which is exact for such values."""
    keys = sorted(u)
    idx = np.asarray([G.index_of(k) for k in keys])
    vals = np.asarray([u[k] for k in keys], dtype=float)
    rows = np.atleast_2d(G.distances_from(keys, mask=metric))
    i, j = np.triu_indices(len(keys), k=1)
    d = rows[i, idx[j]]
    reach = np.isfinite(d)
    a, b, d = vals[i[reach]], vals[j[reach]], d[reach]
    with np.errstate(over="ignore"):
        du = size(a - b)
        half = size(a * 0.5 - b * 0.5)
        slope = np.where(np.isinf(du), 2 * (half / d), du / d)
    return float(np.max(slope, initial=0.0))


def walled(G):
    """``G`` with every edge across x = 0.45 of measure zero: no gap, so
    the essential metric splits the grid in two."""
    ia = np.searchsorted(G.vertex_ids, [e.a for e in G.edges()])
    ib = np.searchsorted(G.vertex_ids, [e.b for e in G.edges()])
    xa, xb = G.pos[ia, 0], G.pos[ib, 0]
    cross = (np.minimum(xa, xb) < 0.45) & (np.maximum(xa, xb) > 0.45)
    ids = G.vertex_ids
    return MetricMeasureGraph.from_arrays(
        ids, G.mu, G.pos, ids[ia], ids[ib], G.edge_lengths, np.where(cross, 0.0, 1.0))


def grid_audits():
    """(grid, metric, keys, data) on the h=1/16 and 1/24 grids and their
    walled copies under the essential metric: the square's boundary, a
    scattered 10 % and a disc, with smooth, tied and +-1.7e308 data."""
    for h in (1 / 16, 1 / 24):
        G = gen_grid(h, (0.0, 0.0, 1.0, 1.0))
        ids, (x, y) = G.vertex_ids, G.pos.T
        sets = {
            "boundary": (np.min(G.pos, axis=1) < 1e-9) | (np.max(G.pos, axis=1) > 1 - 1e-9),
            "scattered": np.random.default_rng(0).random(ids.size) < 0.1,
            "disc": np.hypot(x - 0.5, y - 0.4) < 0.3,
        }
        data = {
            "smooth": np.sin(3.5 * x) + y ** 2 + 0.5 * x * y,
            "tied": (ids % 7).astype(float),
            "huge": np.where(np.sin(7 * x + 3 * y) > 0, 1.7e308, -1.7e308),
        }
        for (graph, metric), (kset, keys), (dname, vals) in itertools.product(
            [(G, "graph"), (walled(G), "essential")], sets.items(), data.items()
        ):
            u = {int(v): float(g) for v, g in zip(ids[keys], vals[keys])}
            yield pytest.param(graph, metric, u, id=f"{round(1 / h)}-{metric}-{kset}-{dname}")


class TestLipschitzOracle:
    @SETTINGS
    @given(graphs(), CHUNKS, st.data())
    def test_matches_one_search_from_every_key(self, G, entries, data):
        ids = [int(v) for v in G.vertex_ids]
        keys = set(data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True)))
        metric = data.draw(st.sampled_from(["graph", "essential"]))
        # data on whole components takes the edge-slope route instead
        assume(any((e.a in keys) != (e.b in keys) for e in G.edges()
                   if metric == "graph" or e.mu_edge > 0))
        values = st.one_of(st.sampled_from([0.0, 1e300, -1e300, 1.7e308, -1.7e308]),
                           st.floats(-1e3, 1e3))
        u = {k: data.draw(values) for k in keys}
        norm = data.draw(st.sampled_from(["max", "euclidean"]))
        f = VectorField({k: (data.draw(values), data.draw(values)) for k in keys}, norm)
        with chunked(entries):
            assert lipschitz_constant(G, u, metric) == dense_slope(G, u, np.abs, metric)
            assert vector_lipschitz_constant(G, f, metric) == dense_slope(
                G, f.values, f._norms, metric)

    @pytest.mark.parametrize("G, metric, u", grid_audits())
    def test_grids(self, G, metric, u, monkeypatch):
        """The constant, the McShane extension built on it, and the vector
        constant of (u, u / 3) under both norms, against one search from
        every key."""
        assert lipschitz_constant(G, u, metric) == dense_slope(G, u, np.abs, metric)
        got = mcshane_extend(G, list(u), u, metric)
        monkeypatch.setattr(ext_mod, "lipschitz_constant",
                            lambda G, u, metric: dense_slope(G, u, np.abs, metric))
        want = mcshane_extend(G, list(u), u, metric)
        assert np.array_equal(list(got.values()), list(want.values()), equal_nan=True)
        for norm in ("max", "euclidean"):
            f = VectorField({k: (v, v / 3) for k, v in u.items()}, norm)
            assert vector_lipschitz_constant(G, f, metric) == dense_slope(
                G, f.values, f._norms, metric)

    def test_a_row_searched_from_the_larger_key_does_not_set_the_value(self):
        """Summed from 0 the path is 1 + 2**-52 long, summed from 3 it is 1.
        The rounds search 3 first (the largest value, no edge between the
        keys), but the constant reads the pair from 0's row."""
        tiny = 2.0 ** -53
        G = make_graph([(v, 1.0) for v in range(4)], [(0, 1, tiny), (1, 2, tiny), (2, 3, 1.0)])
        u = {0: 0.0, 3: 1.0}
        assert G.distances_from([0])[0, 3] > G.distances_from([3])[0, 0]
        assert lipschitz_constant(G, u) == dense_slope(G, u, np.abs, None) < 1.0

    def test_kernel_calls(self, monkeypatch):
        """The h=1/32 square-boundary data (128 keys): two rounds of two
        envelope searches, one row search between them, and no key left
        whose row holds a pair; 128 searches before the rounds."""
        G = gen_grid(1 / 32, (0.0, 0.0, 1.0, 1.0))
        side = (np.min(G.pos, axis=1) < 1e-9) | (np.max(G.pos, axis=1) > 1 - 1e-9)
        x, y = G.pos[side].T
        u = dict(zip(G.vertex_ids[side].tolist(), np.sin(3.5 * x) + y ** 2 + 0.5 * x * y))
        limits, envelopes = [], []
        monkeypatch.setattr(MetricMeasureGraph, "distances_from", counting(limits))
        search = graph_mod._virtual_source
        monkeypatch.setattr(graph_mod, "_virtual_source",
                            lambda *args: envelopes.append(1) or search(*args))
        got = lipschitz_constant(G, u)
        assert (len(limits), len(envelopes)) == (1, 4)
        monkeypatch.undo()
        assert got == dense_slope(G, u, np.abs, None)

    @pytest.mark.parametrize("audit", ["scalar", "vector"])
    def test_peak_memory_at_h_1_64(self, audit):
        """Every other vertex of the grid: one kernel call's rows at a time,
        not the 2113 x 4225 matrix of one search from every key."""
        G = gen_grid(1 / 64, (0.0, 0.0, 1.0, 1.0))
        u = {v: float(v % 7) for v in G.vertex_ids[::2].tolist()}
        tracemalloc.start()
        try:
            if audit == "scalar":
                lipschitz_constant(G, u)
            else:
                vector_lipschitz_constant(G, as_vector_field(u))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

"""The batched distance scans checked against networkx and brute force.

Poincare rows, doubling ratios and balls are recomputed from exact
networkx distances on random graphs with zero-measure vertices and
edges, disconnected parts and edge lengths of 1e-300 and 1e300; Nagata
covers are compared with the dense construction they replaced.  The
chunk size of the batched kernel calls is drawn too, so that one source
per call, a few per call and all of them in one call are each covered.
"""

import contextlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmgraph.graph as graph_mod
from conftest import make_graph
from mmgraph import (
    CertifyError,
    InputError,
    MeshSpec,
    MetricMeasureGraph,
    NagataCover,
    QCRow,
    QuasiconvexityReport,
    ball,
    doubling_ratios,
    gen_grid,
    hajlasz_gradient_from_upper,
    nagata_cover,
    poincare_constant,
    quasiconvexity_constant,
    verify_hajlasz,
)

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
        k = int(np.argmax(dist / amb))
        row = QCRow(int(ids[i]), int(ids[cols[k]]), float(amb[k]), float(dist[k]),
                    float(dist[k] / amb[k]))
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
    dmat = G.distance_matrix(pts)[:, cols]
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
        G = gen_grid(1 / 12, (0.0, 0.0, 1.0, 1.0))
        n = G.n_vertices
        if per_call is not None:
            monkeypatch.setattr(graph_mod, "_CHUNK_ENTRIES", per_call * n)
        calls = []
        orig = MetricMeasureGraph.distances_from

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(MetricMeasureGraph, "distances_from", counting)
        ids = [int(v) for v in G.vertex_ids]
        for pts in (ids, ids[::3]):
            calls.clear()
            nagata_cover(G, 0.2, points=pts)
            assert len(calls) == math.ceil(len(pts) / graph_mod._chunk_sources(n))

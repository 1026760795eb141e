"""Metric-measure analysis: essential metric, quasiconvexity, doubling,
Poincare constants, Hajlasz gradients."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mmgraph import (
    InputError,
    ball,
    c0_constant,
    doubling_ratios,
    essential_distance,
    essential_metric,
    gen_grid,
    hajlasz_gradient_from_upper,
    lipschitz_constant,
    local_to_global_gradient,
    negligible_edges,
    poincare_constant,
    quasiconvexity_constant,
    shortest_path,
    verify_hajlasz,
)

from conftest import brute_force_distance, make_graph, path_graph, random_geometric_graph


class TestEssentialMetric:
    def _bridge_graph(self):
        # two segments joined by a zero-measure shortcut
        return make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            [(0, 1, 1.0), (1, 2, 1.0, 0.0), (2, 3, 1.0), (0, 3, 5.0)],
        )

    def test_negligible_edges_found(self):
        G = self._bridge_graph()
        mark = negligible_edges(G)
        assert len(mark.edge_indices) == 1
        assert G.edge(mark.edge_indices[0]).mu_edge == 0.0

    def test_essential_metric_drops_edges(self):
        G = self._bridge_graph()
        H = essential_metric(G)
        assert H.n_edges == 3
        assert H.n_vertices == G.n_vertices
        assert np.all(H.edge_measures > 0)

    def test_essential_distance_reroutes(self):
        G = self._bridge_graph()
        assert shortest_path(G, 1, 2).length == pytest.approx(1.0)
        assert essential_distance(G, 1, 2) == pytest.approx(7.0)

    def test_essential_distance_infinite_when_cut(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0)],
            [(0, 1, 1.0, 0.0)],
        )
        assert essential_distance(G, 0, 1) == np.inf

    def test_graph_distance_never_exceeds_essential(self, rng):
        for _ in range(6):
            G = random_geometric_graph(rng, 18)
            # zero out a random third of the edge measures
            ea = [e for e in G.edges()]
            flags = rng.random(len(ea)) < 0.33
            H = make_graph(
                [(int(v), float(G.mu[i]), tuple(G.pos[i]))
                 for i, v in enumerate(G.vertex_ids)],
                [(e.a, e.b, e.length, 0.0 if f else 1.0)
                 for e, f in zip(ea, flags)],
            )
            ids = [int(v) for v in H.vertex_ids]
            for x in ids[::5]:
                for y in ids[::7]:
                    d = shortest_path(H, x, y).length
                    dhat = essential_distance(H, x, y)
                    assert d <= dhat + 1e-12


class TestQuasiconvexity:
    def test_straight_path_is_geodesic(self):
        G = path_graph(9, edge_len=0.5)
        rep = quasiconvexity_constant(G, ambient="euclidean")
        assert rep.C == pytest.approx(1.0)
        assert rep.exhaustive

    def test_right_angle_detour(self):
        # corner at origin: graph route 2, Euclidean sqrt(2)
        G = make_graph(
            [(0, 1.0, (1, 0)), (1, 1.0, (0, 0)), (2, 1.0, (0, 1))],
            [(0, 1, 1.0), (1, 2, 1.0)],
        )
        rep = quasiconvexity_constant(G, ambient="euclidean")
        assert rep.C == pytest.approx(math.sqrt(2.0))
        assert tuple(rep.worst_pair) == (0, 2)

    def test_radius_cutoff_excludes_far_pairs(self):
        G = make_graph(
            [(0, 1.0, (1, 0)), (1, 1.0, (0, 0)), (2, 1.0, (0, 1))],
            [(0, 1, 1.0), (1, 2, 1.0)],
        )
        rep = quasiconvexity_constant(G, ambient="euclidean", R=1.2)
        # the corner pair (dist sqrt 2 > 1.2) is out of scope
        assert rep.C == pytest.approx(1.0)

    def test_disconnected_pair_gives_inf(self):
        G = make_graph(
            [(0, 1.0, (0, 0)), (1, 1.0, (1, 0))],
            [],
        )
        rep = quasiconvexity_constant(G, ambient="euclidean")
        assert rep.C == np.inf

    def test_ratio_past_float_range_gives_inf(self):
        # 1e300 over 1e-28 overflows: the ratio rounds to inf, not a warning
        G = make_graph(
            [(0, 1.0, (0, 0)), (1, 1.0, (1e-28, 0))],
            [(0, 1, 1e300)],
        )
        rep = quasiconvexity_constant(G, ambient="euclidean")
        assert rep.C == np.inf
        assert tuple(rep.worst_pair) == (0, 1)
        assert rep.rows[0].chosen == 1e300

    def test_essential_metric_choice(self):
        G = make_graph(
            [(0, 1.0, (0, 0)), (1, 1.0, (1, 0)), (2, 1.0, (0.5, 2.0))],
            [(0, 1, 1.0, 0.0), (0, 2, 2.1), (1, 2, 2.1)],
        )
        plain = quasiconvexity_constant(G, ambient="euclidean")
        ess = quasiconvexity_constant(G, ambient="euclidean", metric_choice="essential")
        # worst plain pair: legs of length 2.1 vs Euclidean sqrt(0.25 + 4)
        assert plain.C == pytest.approx(2.1 / math.sqrt(4.25), rel=1e-9)
        # essentially, 0-1 must detour over both legs: 4.2 vs Euclidean 1
        assert ess.C == pytest.approx(4.2, rel=1e-9)

    def test_predicate_metric_choice_reports_its_mask(self):
        G = gen_grid(0.5, (0, 0, 1, 1))
        keep = [e.a + e.b != 4 for e in G.edges()]
        by_predicate = quasiconvexity_constant(G, metric_choice=lambda e: e.a + e.b != 4)
        by_mask = quasiconvexity_constant(G, metric_choice=np.asarray(keep))
        body = json.loads(json.dumps(by_predicate.to_dict()))
        assert body["metric_choice"] == keep
        assert body == json.loads(json.dumps(by_mask.to_dict()))

    def test_callable_ambient(self):
        G = path_graph(4)
        rep = quasiconvexity_constant(G, ambient=lambda x, y: 0.5 * abs(x - y))
        assert rep.C == pytest.approx(2.0)

    @pytest.mark.parametrize("exhaustive_limit", [2000, 1])
    def test_callable_ambient_is_evaluated_at_scanned_pairs_only(self, exhaustive_limit):
        G = gen_grid(0.25, (0.0, 0.0, 1.0, 1.0))
        n = G.n_vertices
        calls = []

        def ambient(a, b):
            calls.append((a, b))
            return 1.0 + abs(a - b)

        rep = quasiconvexity_constant(
            G, ambient=ambient, exhaustive_limit=exhaustive_limit, max_pairs=100
        )
        if rep.exhaustive:
            ids = [int(v) for v in G.vertex_ids]
            assert calls == list(itertools.combinations(ids, 2))
            assert rep.samples == n * (n - 1) // 2
        else:
            assert all(a != b for a, b in calls)
            assert len(calls) == rep.samples <= 100

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (-0.5, "-0.5"), (0.0, "0")])
    @pytest.mark.parametrize("exhaustive_limit", [2000, 1])
    def test_callable_ambient_value_not_positive_names_pair_and_value(
        self, bad, shown, exhaustive_limit
    ):
        G = path_graph(6)

        def ambient(a, b):
            return bad if {a, b} == {2, 4} else float(abs(a - b))

        with pytest.raises(
            InputError, match=rf"^ambient distance {shown} between distinct vertices (2 and 4|4 and 2)$"
        ):
            quasiconvexity_constant(
                G, ambient=ambient, exhaustive_limit=exhaustive_limit, max_pairs=400
            )

    @pytest.mark.parametrize("max_pairs", [0, -3])
    @pytest.mark.parametrize("exhaustive_limit", [2000, 1])
    def test_nonpositive_max_pairs_rejected(self, max_pairs, exhaustive_limit):
        with pytest.raises(InputError, match="^max_pairs must be a positive integer$"):
            quasiconvexity_constant(
                path_graph(4), max_pairs=max_pairs, exhaustive_limit=exhaustive_limit
            )

    def test_coincident_positions_rejected(self):
        G = make_graph(
            [(0, 1.0, (0, 0)), (1, 1.0, (0, 0))],
            [(0, 1, 1.0)],
        )
        with pytest.raises(InputError):
            quasiconvexity_constant(G, ambient="euclidean")

    @pytest.mark.parametrize("exhaustive_limit", [2000, 1])
    def test_coincident_positions_name_the_pair(self, exhaustive_limit):
        G = make_graph(
            [(0, 1.0, (0, 0)), (1, 1.0, (1, 0)), (2, 1.0, (0, 0))],
            [(0, 1, 1.0), (1, 2, 1.0)],
        )
        with pytest.raises(InputError, match="vertices (0 and 2|2 and 0)$"):
            quasiconvexity_constant(
                G, ambient="euclidean", exhaustive_limit=exhaustive_limit,
                max_pairs=40, seed=0,
            )

    def test_missing_positions_rejected(self):
        G = make_graph([(0, 1.0), (1, 1.0)], [(0, 1, 1.0)])
        with pytest.raises(InputError):
            quasiconvexity_constant(G, ambient="euclidean")

    def test_sampled_run_reproducible_and_lower_bound(self, rng):
        G = random_geometric_graph(rng, 60)
        full = quasiconvexity_constant(G, ambient="euclidean")
        s1 = quasiconvexity_constant(
            G, ambient="euclidean", seed=7, exhaustive_limit=10, max_pairs=400
        )
        s2 = quasiconvexity_constant(
            G, ambient="euclidean", seed=7, exhaustive_limit=10, max_pairs=400
        )
        assert not s1.exhaustive
        assert s1.seed == 7
        assert s1.C == s2.C
        assert s1.worst_pair == s2.worst_pair
        assert s1.C <= full.C + 1e-12

    def test_constant_at_least_one(self):
        # sampling may miss every pair with a detour but never reports < 1
        G = path_graph(3)
        rep = quasiconvexity_constant(
            G, ambient="euclidean", exhaustive_limit=1, max_pairs=2, seed=0
        )
        assert rep.C >= 1.0


class TestDoubling:
    def test_path_ratios_by_hand(self):
        # unit path, unit measures: B(4, 1) = {4} open, B(4, 2) = {3,4,5}
        G = path_graph(9)
        rep = doubling_ratios(G, centers=[4], scales=[1.0, 2.0])
        by_r = {row.r: row for row in rep.rows}
        assert by_r[1.0].inner_measure == pytest.approx(1.0)
        assert by_r[1.0].outer_measure == pytest.approx(3.0)
        assert by_r[1.0].ratio == pytest.approx(3.0)
        assert by_r[2.0].inner_measure == pytest.approx(3.0)
        assert by_r[2.0].outer_measure == pytest.approx(7.0)
        assert by_r[2.0].ratio == pytest.approx(7.0 / 3.0)

    def test_zero_inner_measure_gives_inf(self):
        G = make_graph(
            [(0, 0.0), (1, 1.0)],
            [(0, 1, 1.0)],
        )
        rep = doubling_ratios(G, centers=[0], scales=[0.5])
        assert rep.rows[0].ratio == np.inf

    def test_validation(self):
        G = path_graph(3)
        with pytest.raises(InputError):
            doubling_ratios(G, centers=[], scales=[1.0])
        with pytest.raises(InputError):
            doubling_ratios(G, centers=[0], scales=[-1.0])
        with pytest.raises(InputError):
            doubling_ratios(G, centers=[99], scales=[1.0])


class TestPoincare:
    def _oracle(self, G, u, rho, lam, radii):
        """Independent scan over all centers and the given radii; the mean
        oscillation is computed exactly in rationals and rounded once."""
        ids = [int(v) for v in G.vertex_ids]
        best = 0.0
        for c in ids:
            dist = np.array([brute_force_distance(G, c, v) for v in ids])
            for rad in radii:
                inside = dist < rad
                m = G.mu[inside].sum()
                if m <= 0:
                    continue
                w = [Fraction(float(x)) for x in G.mu[inside]]
                uu = [Fraction(u[v]) for v, f in zip(ids, inside) if f]
                mean = sum(a * b for a, b in zip(w, uu)) / sum(w)
                num = float(sum(a * abs(b - mean) for a, b in zip(w, uu)) / sum(w))
                if num <= 0:
                    continue
                rr = np.array([rho[v] for v in ids])[dist < lam * rad]
                members = [v for v, f in zip(ids, inside) if f]
                diam = max(
                    brute_force_distance(G, a, b) for a in members for b in members
                )
                den = diam * rr.max()
                best = max(best, np.inf if den <= 0 else num / den)
        return best

    def test_matches_oracle_on_path(self):
        G = path_graph(7)
        u = {i: float(i) for i in range(7)}
        rho = {i: 1.0 for i in range(7)}
        radii = [2.0, 1.0]
        rep = poincare_constant(G, u, rho, lam=1.5, r=2.0, radii=radii)
        want = self._oracle(G, u, rho, 1.5, radii)
        assert rep.best_C == pytest.approx(want, rel=1e-12)
        assert rep.witness_ball is not None

    def test_matches_oracle_random(self, rng):
        G = random_geometric_graph(rng, 14)
        ids = [int(v) for v in G.vertex_ids]
        u = {v: float(rng.normal()) for v in ids}
        rho = {v: float(rng.random()) for v in ids}
        rep = poincare_constant(G, u, rho, lam=2.0, r=0.7)
        want = self._oracle(G, u, rho, 2.0, [0.7, 0.35, 0.175, 0.0875])
        assert rep.best_C == pytest.approx(want, rel=1e-9)

    def test_one_member_balls_have_zero_oscillation(self, rng):
        G = random_geometric_graph(rng, 14)
        ids = [int(v) for v in G.vertex_ids]
        u = {v: float(rng.normal()) for v in ids}
        rho = {v: float(rng.random()) for v in ids}
        rep = poincare_constant(G, u, rho, lam=2.0, r=0.1)
        single = [
            row for row in rep.rows
            if len(ball(G, row.center, row.radius).members) == 1
        ]
        assert single
        assert all(row.oscillation == 0.0 and row.C == 0.0 for row in single)

    def test_constant_function_gives_zero(self):
        G = path_graph(5)
        u = {i: 3.0 for i in range(5)}
        rho = {i: 0.0 for i in range(5)}
        rep = poincare_constant(G, u, rho, lam=2.0, r=1.5)
        assert rep.best_C == 0.0

    def test_oscillation_with_zero_gradient_is_inf(self):
        G = path_graph(5)
        u = {i: float(i % 2) for i in range(5)}
        rho = {i: 0.0 for i in range(5)}
        rep = poincare_constant(G, u, rho, lam=2.0, r=1.5)
        assert rep.best_C == np.inf

    def test_zero_measure_balls_skipped(self):
        G = make_graph(
            [(0, 0.0), (1, 0.0), (2, 1.0)],
            [(0, 1, 1.0), (1, 2, 1.0)],
        )
        u = {0: 0.0, 1: 1.0, 2: 0.5}
        rho = {0: 1.0, 1: 1.0, 2: 1.0}
        rep = poincare_constant(G, u, rho, lam=1.0, r=0.5, radii=[0.5])
        assert rep.skipped_zero_measure == 2
        assert rep.balls_checked == 3

    def test_exhaustive_radii_covers_every_scale(self):
        G = path_graph(6)
        u = {i: float(i * i) for i in range(6)}
        rho = {i: 1.0 for i in range(6)}
        default = poincare_constant(G, u, rho, lam=1.0, r=3.0)
        full = poincare_constant(G, u, rho, lam=1.0, r=3.0, exhaustive_radii=True)
        assert full.exhaustive_radii
        assert full.best_C >= default.best_C - 1e-12

    def test_validation(self):
        G = path_graph(3)
        u = {i: 0.0 for i in range(3)}
        rho = dict(u)
        with pytest.raises(InputError):
            poincare_constant(G, u, rho, lam=0.5, r=1.0)
        with pytest.raises(InputError):
            poincare_constant(G, u, rho, lam=1.0, r=0.0)
        with pytest.raises(InputError):
            poincare_constant(G, u, rho, lam=1.0, r=1.0, radii=[2.0])
        with pytest.raises(InputError):
            poincare_constant(G, {0: 0.0}, rho, lam=1.0, r=1.0)
        with pytest.raises(InputError):
            poincare_constant(G, u, {i: -1.0 for i in range(3)}, lam=1.0, r=1.0)


class TestHajlasz:
    def test_transfer_by_hand(self):
        # rho spikes at vertex 3; C = 2, R = 1 -> scan closed balls radius 2
        G = path_graph(6)
        rho = {0: 0.0, 1: 0.0, 2: 0.0, 3: 5.0, 4: 0.0, 5: 0.0}
        g = hajlasz_gradient_from_upper(G, rho, C=2.0, R=1.0)
        assert g[0] == pytest.approx(0.0)
        assert g[1] == pytest.approx(10.0)
        assert g[5] == pytest.approx(10.0)

    def test_verify_flags_undersized_gradient(self):
        G = path_graph(3)
        u = {0: 0.0, 1: 1.0, 2: 2.0}
        g = {0: 0.1, 1: 0.1, 2: 0.1}
        bad = verify_hajlasz(G, u, g, R=np.inf)
        assert bad
        worst = bad[0]
        assert {"x", "y", "distance", "lhs", "rhs"} <= set(worst)

    def test_scale_cutoff_hides_far_violations(self):
        # the only failing pair is 0-2 at distance 2, beyond the cutoff 1.5
        G = path_graph(3)
        u = {0: 0.0, 1: 0.0, 2: 10.0}
        g = {0: 0.0, 1: 8.0, 2: 2.0}
        bad = verify_hajlasz(G, u, g, R=np.inf)
        assert [(v["x"], v["y"]) for v in bad] == [(0, 2)]
        assert verify_hajlasz(G, u, g, R=1.5) == []

    def test_pipeline_no_violations(self, rng):
        # pointwise slope bound + geodesic graph -> transferred gradient
        # satisfies the two-point inequality below scale R
        for _ in range(5):
            G = random_geometric_graph(rng, 16)
            ids = [int(v) for v in G.vertex_ids]
            u = {v: float(rng.normal()) for v in ids}
            rho = {v: 0.0 for v in ids}
            for e in G.edges():
                s = abs(u[e.a] - u[e.b]) / e.length
                rho[e.a] = max(rho[e.a], s)
                rho[e.b] = max(rho[e.b], s)
            R = 0.6
            g = hajlasz_gradient_from_upper(G, rho, C=1.0, R=R)
            assert verify_hajlasz(G, u, g, R=R) == []

    def test_local_to_global(self):
        g = {0: 1.0, 1: 4.0}
        out = local_to_global_gradient(g, u_norm=6.0, R=2.0)
        assert out == {0: 3.0, 1: 4.0}

    def test_local_to_global_gives_global_inequality(self, rng):
        G = random_geometric_graph(rng, 12)
        ids = [int(v) for v in G.vertex_ids]
        u = {v: float(rng.normal()) for v in ids}
        rho = {v: 0.0 for v in ids}
        for e in G.edges():
            s = abs(u[e.a] - u[e.b]) / e.length
            rho[e.a] = max(rho[e.a], s)
            rho[e.b] = max(rho[e.b], s)
        R = 0.5
        g = hajlasz_gradient_from_upper(G, rho, C=1.0, R=R)
        u_norm = max(abs(x) for x in u.values())
        g_glob = local_to_global_gradient(g, u_norm, R)
        assert verify_hajlasz(G, u, g_glob, R=np.inf) == []

    def test_validation(self):
        G = path_graph(3)
        u = {i: 0.0 for i in range(3)}
        with pytest.raises(InputError):
            hajlasz_gradient_from_upper(G, u, C=0.5, R=1.0)
        with pytest.raises(InputError):
            hajlasz_gradient_from_upper(G, u, C=1.0, R=0.0)
        with pytest.raises(InputError):
            local_to_global_gradient({0: 1.0}, u_norm=-1.0, R=1.0)


class TestC0Constant:
    def test_identity_when_A_is_one(self):
        for R in (0.1, 1.0, 10.0):
            assert c0_constant(1.0, R) == 1.0

    def test_reference_value_exact(self):
        assert c0_constant(2.0, 0.1) == 3.0

    def test_formula_agrees_with_direct_evaluation(self):
        A, R = 1.5, 0.3
        t = 2 * R * (A - 1)
        want = (4 * R * (A - 1) + A) / (1 - t)
        assert c0_constant(A, R) == pytest.approx(want, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(InputError):
            c0_constant(2.0, 0.5)
        with pytest.raises(InputError):
            c0_constant(2.0, 0.6)
        # just inside the domain
        assert np.isfinite(c0_constant(2.0, 0.49))

    def test_monotone_in_A_and_R(self):
        As = np.linspace(1.0, 2.0, 9)
        Rs = np.linspace(0.05, 0.4, 9)
        for R in Rs:
            vals = [
                c0_constant(float(A), float(R))
                for A in As
                if 2 * R * (A - 1) < 0.999
            ]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        for A in As:
            vals = [
                c0_constant(float(A), float(R))
                for R in Rs
                if 2 * R * (A - 1) < 0.999
            ]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            c0_constant(0.5, 1.0)
        with pytest.raises(InputError):
            c0_constant(2.0, np.inf)


class TestReportCsv:
    """Row-level CSV forms of the analysis reports."""

    def _parse(self, text):
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        return header, [line.split(",") for line in lines[1:]]

    def test_doubling_csv_one_row_per_ball(self):
        G = path_graph(9)
        rep = doubling_ratios(G, centers=[4, 0], scales=[1.0, 2.0])
        header, rows = self._parse(rep.to_csv())
        assert header == ["center", "r", "inner_measure", "outer_measure", "ratio"]
        assert len(rows) == 4
        assert rows[0][0] == "4" and float(rows[0][4]) == pytest.approx(3.0)
        # round-trips at full precision
        assert [float(x) for x in rows[1][1:]] == [2.0, 3.0, 7.0, 7.0 / 3.0]

    def test_qc_csv_rows_reach_the_constant(self):
        G = make_graph(
            [(0, 1.0, (0.0, 0.0)), (1, 1.0, (1.0, 0.0)), (2, 1.0, (1.0, 1.0))],
            [(0, 1, 1.0), (1, 2, 1.0)],
        )
        rep = quasiconvexity_constant(G, ambient="euclidean", R=math.inf)
        header, rows = self._parse(rep.to_csv())
        assert header == ["source", "target", "ambient", "chosen", "ratio"]
        sources = [int(r[0]) for r in rows]
        assert sources == sorted(set(sources))
        assert max(float(r[4]) for r in rows) == rep.C
        by_src = {int(r[0]): r for r in rows}
        assert float(by_src[0][4]) == pytest.approx(math.sqrt(2))

    def test_qc_csv_sampled_rows(self, rng):
        G = random_geometric_graph(rng, 60)
        rep = quasiconvexity_constant(
            G, ambient="euclidean", R=math.inf, seed=5,
            exhaustive_limit=10, max_pairs=200,
        )
        assert not rep.exhaustive
        _, rows = self._parse(rep.to_csv())
        assert 0 < len(rows) <= rep.samples
        assert max(float(r[4]) for r in rows) == rep.C

    def test_poincare_csv_marks_skipped_and_flat_balls(self):
        G = make_graph(
            [(0, 0.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0), (1, 2, 1.0)],
        )
        u = {0: 0.0, 1: 0.0, 2: 1.0}
        rho = {0: 1.0, 1: 1.0, 2: 1.0}
        rep = poincare_constant(G, u, rho, lam=1.0, r=2.0, radii=[0.5, 2.0])
        header, rows = self._parse(rep.to_csv())
        assert header == [
            "center", "radius", "measure", "oscillation", "sup_rho",
            "diameter", "C",
        ]
        assert len(rows) == rep.balls_checked == 6
        by_key = {(int(r[0]), float(r[1])): r for r in rows}
        skipped = by_key[(0, 0.5)]
        assert float(skipped[2]) == 0.0 and math.isnan(float(skipped[6]))
        flat = by_key[(1, 0.5)]  # singleton ball, zero oscillation
        assert float(flat[6]) == 0.0 and math.isnan(float(flat[5]))
        best = max(
            float(r[6]) for r in rows if not math.isnan(float(r[6]))
        )
        assert best == rep.best_C

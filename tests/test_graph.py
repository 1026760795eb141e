"""Core graph model: validation, serialization, metrics, balls."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgraph import (
    InputError,
    MetricMeasureGraph,
    ball,
    components,
    graph_from_dict,
    lipschitz_constant,
    load_graph,
    save_graph,
    shortest_path,
)
from mmgraph.graph import _slot
from mmgraph.util import dump_json

from conftest import (
    brute_force_distance,
    distance_matrix,
    make_graph,
    path_graph,
    random_geometric_graph,
)


class TestValidation:
    def test_minimal_graph(self):
        G = make_graph([(0, 1.0), (1, 2.0)], [(0, 1, 3.0)])
        assert G.n_vertices == 2
        assert G.n_edges == 1
        assert G.total_measure() == 3.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, 1.0), (0, 1.0)], [])

    def test_negative_measure_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, -0.5)], [])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, 1.0), (1, 1.0)], [(0, 1, 0.0)])
        with pytest.raises(InputError):
            make_graph([(0, 1.0), (1, 1.0)], [(0, 1, -2.0)])

    def test_negative_edge_measure_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, 1.0), (1, 1.0)], [(0, 1, 1.0, -1.0)])

    def test_missing_endpoint_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, 1.0), (1, 1.0)], [(0, 7, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, 1.0)], [(0, 0, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, 1.0), (1, 1.0)], [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize("second", [(0, 1), (1, 0)], ids=["same", "reversed"])
    def test_duplicate_edge_message(self, second):
        with pytest.raises(InputError, match="^duplicate undirected edge$"):
            make_graph([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1, 1.0), (1, 2, 1.0), (*second, 2.0)])

    def test_duplicate_edge_far_apart_in_a_long_list(self):
        """Two copies 9000 records apart among 10,000 edges."""
        n = 10_001
        a, b = np.arange(n - 1), np.arange(1, n)
        a[9_500], b[9_500] = b[500], a[500]  # edge 500 again, reversed
        assert a.size == 10_000
        with pytest.raises(InputError, match="^duplicate undirected edge$"):
            MetricMeasureGraph.from_arrays(
                np.arange(n), np.ones(n), None, a, b, np.ones(n - 1), np.ones(n - 1)
            )

    def test_loop_and_unknown_endpoint_keep_their_messages(self):
        """Both are checked before duplicates, so an input with a duplicate
        edge too still gets their message."""
        vertices = [(0, 1.0), (1, 1.0)]
        with pytest.raises(InputError, match="loop edges"):
            make_graph(vertices, [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
        with pytest.raises(InputError, match="unknown vertex id"):
            make_graph(vertices, [(0, 1, 1.0), (1, 0, 1.0), (1, 7, 1.0)])

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ([{"id": 1.7, "mu": 1.0}], [], "vertex id must be an integer"),
            ([{"id": False, "mu": 1.0}], [], "vertex id must be an integer"),
            (
                [{"id": 0, "mu": 1.0}, {"id": 1, "mu": 1.0}],
                [{"a": 0, "b": 1.2, "len": 1.0, "mu_edge": 1.0}],
                "edge endpoints must be integer vertex ids",
            ),
            (
                [{"id": 0, "mu": 1.0, "pos": 0.0}, {"id": 1, "mu": 1.0, "pos": 1.0}],
                [],
                "malformed vertex or edge record: vertex pos entries must share one dimension",
            ),
        ],
        ids=["float id", "bool id", "float endpoint", "scalar pos"],
    )
    def test_records_are_read_as_graph_from_dict_reads_them(self, vertices, edges, message):
        """No id or endpoint is truncated to an int on the way in."""
        with pytest.raises(InputError, match=f"^{message}$"):
            MetricMeasureGraph(vertices, edges)
        with pytest.raises(InputError, match=f"^{message}$"):
            graph_from_dict({"vertices": vertices, "edges": edges})

    @pytest.mark.parametrize(
        "vertex, edge, what",
        [
            ({"mu": b"1"}, {}, "vertex mu"),
            ({"mu": np.str_("1")}, {}, "vertex mu"),
            ({"mu": np.True_}, {}, "vertex mu"),
            ({"pos": [0.0, b"1"]}, {}, "vertex pos"),
            ({"pos": (0.0, np.True_)}, {}, "vertex pos"),
            ({}, {"len": b"1"}, "edge len"),
            ({}, {"mu_edge": np.False_}, "edge mu_edge"),
        ],
    )
    def test_numbers_numpy_would_read_are_rejected(self, vertex, edge, what):
        vertices = [{"id": 0, "mu": 1.0, "pos": [0.0, 0.0]}, {"id": 1, "mu": 1.0, "pos": [1.0, 0.0]}]
        vertices[1] = {**vertices[1], **vertex}
        edges = [{"a": 0, "b": 1, "len": 1.0, "mu_edge": 1.0, **edge}]
        message = f"malformed vertex or edge record: {what} must be numbers, not strings or booleans"
        with pytest.raises(InputError, match=f"^{message}$"):
            MetricMeasureGraph(vertices, edges)

    def test_numpy_int_ids_are_ints(self):
        G = MetricMeasureGraph(
            [{"id": np.int64(3), "mu": 1.0}, {"id": np.int32(5), "mu": 1.0}],
            [{"a": np.int64(5), "b": 3, "len": 1.0, "mu_edge": 1.0}],
        )
        assert G.vertex_ids.tolist() == [3, 5]

    def test_partial_positions_rejected(self):
        with pytest.raises(InputError):
            MetricMeasureGraph(
                [{"id": 0, "mu": 1.0, "pos": [0, 0]}, {"id": 1, "mu": 1.0}],
                [],
            )

    def test_nonfinite_values_rejected(self):
        with pytest.raises(InputError):
            make_graph([(0, float("nan"))], [])
        with pytest.raises(InputError):
            make_graph([(0, 1.0, (np.inf, 0.0))], [])
        with pytest.raises(InputError):
            make_graph([(0, 1.0), (1, 1.0)], [(0, 1, np.inf)])

    def test_ids_sorted_internally(self):
        G = make_graph([(5, 1.0), (2, 1.0), (9, 1.0)], [(9, 2, 1.0)])
        assert list(G.vertex_ids) == [2, 5, 9]
        assert G.index_of(5) == 1
        assert G.id_at(2) == 9

    def test_zero_vertex_measure_allowed(self):
        G = make_graph([(0, 0.0), (1, 1.0)], [(0, 1, 1.0)])
        assert G.total_measure() == 1.0


def test_edges_are_the_edge_records_with_python_scalars():
    G = make_graph([(7, 1.0), (2, 0.5), (5, 0.0)], [(7, 2, 0.25, 0.0), (5, 7, 1e-300), (2, 5, 3.0)])
    edges = list(G.edges())
    assert edges == [G.edge(i) for i in range(G.n_edges)]
    assert [(e.a, e.b) for e in edges] == [(7, 2), (5, 7), (2, 5)]
    assert {type(x) for e in edges for x in vars(e).values()} == {int, float}


class TestSerialization:
    def test_round_trip_dict(self):
        G = make_graph(
            [(0, 1.0, (0, 0)), (3, 0.5, (1, 2))], [(0, 3, 2.25, 0.0)]
        )
        H = graph_from_dict(G.to_dict())
        assert list(H.vertex_ids) == [0, 3]
        assert H.to_dict() == G.to_dict()

    def test_round_trip_file(self, tmp_path):
        G = path_graph(4)
        p = tmp_path / "g.json"
        save_graph(G, p)
        H = load_graph(p)
        assert H.to_dict() == G.to_dict()
        payload = json.loads(p.read_text())
        assert {"vertices", "edges"} <= set(payload)

    def test_bad_payloads_rejected(self):
        with pytest.raises(InputError):
            graph_from_dict({"edges": []})
        with pytest.raises(InputError):
            graph_from_dict({"vertices": [{"id": 0.5, "mu": 1}], "edges": []})
        with pytest.raises(InputError):
            graph_from_dict(
                {"vertices": [{"id": 0, "mu": 1}], "edges": [{"a": 0, "b": 0}]}
            )

    @pytest.mark.parametrize(
        "part, key, value",
        [
            ("edges", "len", [1.0]),
            ("edges", "mu_edge", [0.0]),
            ("vertices", "mu", [1.0]),
            ("vertices", "mu", [[1.0]]),
        ],
    )
    def test_numeric_field_must_be_one_number(self, part, key, value):
        """A list on every record makes a 2-D column, not a ragged one."""
        data = path_graph(3).to_dict()
        for record in data[part]:
            record[key] = value
        with pytest.raises(InputError, match=f"{key} must be one number per record"):
            graph_from_dict(data)

    def test_measure_sum_must_be_finite(self):
        """Each measure is finite, their total overflows."""
        with pytest.raises(InputError, match="finite sum"):
            make_graph([(0, 1e308), (1, 1e308)], [])

    def test_from_arrays_rejects_2d_columns(self):
        with pytest.raises(InputError, match="vertex mu must be one number"):
            MetricMeasureGraph.from_arrays(
                [0, 1], [[1.0], [1.0]], None, [0], [1], [1.0], [1.0]
            )


#: Positive floats at the ends of the range, and any up to 1e300 (so a
#: few measures have a finite sum).
POSITIVE = st.sampled_from([5e-324, 1e-300, 1e300, 0.1, 1.0]) | st.floats(
    min_value=5e-324, max_value=1e300
)
MEASURES = st.sampled_from([-0.0, 0.0]) | POSITIVE
COORDS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw):
    """Small graphs with sparse ids up to 2**63 - 1, any pos dimension or
    none, and extreme floats; possibly no vertices or no edges."""
    ids = draw(st.lists(st.integers(0, 2**63 - 1), max_size=6, unique=True))
    n = len(ids)
    dim = draw(st.sampled_from([None, 0, 1, 2, 3]))
    pos = None
    if dim is not None:
        pos = np.asarray(
            draw(st.lists(st.lists(COORDS, min_size=dim, max_size=dim), min_size=n, max_size=n)),
            dtype=np.float64,
        ).reshape(n, dim)
    pairs = []
    if n >= 2:
        pairs = draw(st.lists(
            st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True),
            unique_by=frozenset, max_size=8,
        ))
    return MetricMeasureGraph.from_arrays(
        ids,
        draw(st.lists(MEASURES, min_size=n, max_size=n)),
        pos,
        [a for a, _ in pairs],
        [b for _, b in pairs],
        draw(st.lists(POSITIVE, min_size=len(pairs), max_size=len(pairs))),
        draw(st.lists(MEASURES, min_size=len(pairs), max_size=len(pairs))),
    )


class TestGraphFile:
    @settings(max_examples=150, deadline=None)
    @given(G=graphs())
    def test_save_graph_writes_the_dump_json_bytes(self, G, tmp_path_factory):
        """``dump_json(G.to_dict())`` is the oracle for the file's bytes."""
        d = tmp_path_factory.mktemp("graph")
        save_graph(G, d / "new.json")
        dump_json(G.to_dict(), d / "old.json")
        assert (d / "new.json").read_bytes() == (d / "old.json").read_bytes()
        assert load_graph(d / "new.json").to_dict() == G.to_dict()

    @staticmethod
    def assert_dump_json_bytes(G, tmp_path):
        save_graph(G, tmp_path / "new.json")
        dump_json(G.to_dict(), tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("edges", [0, 1, 4095, 4096, 4097, 8193])
    def test_block_boundaries(self, edges, tmp_path):
        self.assert_dump_json_bytes(path_graph(edges + 1, edge_len=0.1), tmp_path)

    def test_repeated_signed_zeros_are_rendered_once_each(self, tmp_path):
        """A column of many ``-0.0`` and ``0.0`` takes the distinct-value
        route, which must keep the two zeros apart."""
        n = 600
        zeros = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
        G = MetricMeasureGraph.from_arrays(
            np.arange(n), zeros, np.stack([zeros, -zeros, np.full(n, 0.5)], axis=1),
            np.arange(n - 1), np.arange(1, n), np.full(n - 1, 0.25), zeros[1:],
        )
        for col in (G.mu, G.edge_measures, G.pos[:, 0]):
            assert _slot(col)[1] == "%s"
        self.assert_dump_json_bytes(G, tmp_path)
        text = (tmp_path / "new.json").read_text()
        assert '"mu": -0.0' in text and '"mu": 0.0' in text

    def test_all_distinct_random_graph(self, rng, tmp_path):
        G = random_geometric_graph(rng, 300)
        for col in (G.mu, G.edge_lengths, G.pos[:, 0], G.pos[:, 1]):
            assert _slot(col)[1] == "%r"
        self.assert_dump_json_bytes(G, tmp_path)

    @pytest.mark.parametrize("edges", [4095, 4096, 4097, 8193])
    def test_repeated_column_across_block_boundaries(self, edges, tmp_path):
        """Distinct-value columns next to an all-distinct one, over blocks
        of ``_WRITE_BLOCK`` records."""
        n = edges + 1
        k = np.arange(n)
        G = MetricMeasureGraph.from_arrays(
            k, 1.0 + k / 7, np.stack([k % 5 * 0.1, np.full(n, -0.0)], axis=1),
            k[:-1], k[1:], np.array([0.1, 1e-300, 0.3, 1e300])[k[:-1] % 4],
            (k[:-1] % 2) * 0.7,
        )
        assert [_slot(c)[1] for c in (G.edge_lengths, G.edge_measures, G.mu)] == ["%s", "%s", "%r"]
        self.assert_dump_json_bytes(G, tmp_path)


class TestShortestPath:
    def test_asymmetric_cycle_oracle(self):
        # 4-cycle with lengths chosen so both arcs are easy to enumerate:
        # 0-1 (1.0), 1-2 (1.0), 2-3 (1.0), 3-0 (2.5)
        G = make_graph(
            [(i, 1.0) for i in range(4)],
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 2.5)],
        )
        res = shortest_path(G, 0, 3)
        assert res.length == pytest.approx(2.5)
        assert res.vertex_sequence == (0, 3)
        res = shortest_path(G, 0, 2)
        assert res.length == pytest.approx(2.0)
        assert res.vertex_sequence == (0, 1, 2)

    def test_same_vertex(self):
        G = path_graph(3)
        res = shortest_path(G, 1, 1)
        assert res.length == 0.0
        assert res.vertex_sequence == (1,)

    def test_unreachable(self):
        G = make_graph([(0, 1.0), (1, 1.0)], [])
        res = shortest_path(G, 0, 1)
        assert res.length == np.inf
        assert res.vertex_sequence == ()

    def test_matches_relaxation_oracle_random(self, rng):
        for _ in range(10):
            G = random_geometric_graph(rng, 24)
            xs = rng.integers(0, 24, size=4)
            ys = rng.integers(0, 24, size=4)
            for x, y in zip(xs, ys):
                want = brute_force_distance(G, int(x), int(y))
                got = shortest_path(G, int(x), int(y)).length
                assert got == pytest.approx(want, abs=1e-12)

    def test_path_sequence_consistent(self, rng):
        G = random_geometric_graph(rng, 30)
        res = shortest_path(G, 0, 29)
        total = 0.0
        for a, b in zip(res.vertex_sequence[:-1], res.vertex_sequence[1:]):
            step = shortest_path(G, int(a), int(b))
            assert step.vertex_sequence == (a, b) or len(step.vertex_sequence) == 2
            total += brute_force_distance(G, int(a), int(b))
        assert total == pytest.approx(res.length, rel=1e-9)

    def test_edge_filter_positive(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0, 0.0), (1, 2, 1.0), (0, 2, 5.0)],
        )
        assert shortest_path(G, 0, 1).length == pytest.approx(1.0)
        res = shortest_path(G, 0, 1, edge_filter="positive")
        assert res.length == pytest.approx(6.0)
        assert res.vertex_sequence == (0, 2, 1)

    def test_missing_vertex(self):
        with pytest.raises(InputError):
            shortest_path(path_graph(3), 0, 99)


class TestDistancesBulk:
    def test_matrix_matches_pairwise(self, rng):
        G = random_geometric_graph(rng, 20)
        D = distance_matrix(G)
        for i in range(0, 20, 5):
            for j in range(0, 20, 7):
                want = shortest_path(G, int(G.vertex_ids[i]), int(G.vertex_ids[j])).length
                assert D[i, j] == pytest.approx(want, abs=1e-12)
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0)

    def test_limit_prunes(self):
        G = path_graph(10)
        d = G.distances_from([0], limit=3.0, min_only=True)
        assert d[3] == pytest.approx(3.0)
        assert np.isinf(d[5])

    def test_multi_source_min(self):
        G = path_graph(10)
        d = G.distances_from([0, 9], min_only=True)
        assert d[4] == pytest.approx(4.0)
        assert d[6] == pytest.approx(3.0)

    def test_nearest_source_labels(self):
        G = path_graph(10)
        d, src = G.distances_from([0, 9], min_only=True, return_nearest_source=True)
        assert src[2] == 0
        assert src[8] == 9


class TestBall:
    def test_open_vs_closed(self):
        G = path_graph(5)
        b_open = ball(G, 2, 1.0)
        assert b_open.members == (2,)
        b_closed = ball(G, 2, 1.0, closed=True)
        assert b_closed.members == (1, 2, 3)
        assert b_closed.measure == pytest.approx(3.0)

    def test_radius_validation(self):
        with pytest.raises(InputError):
            ball(path_graph(3), 0, 0.0)
        with pytest.raises(InputError):
            ball(path_graph(3), 0, np.inf)

    def test_edge_filter(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0, 0.0), (1, 2, 1.0)],
        )
        b = ball(G, 0, 1.5, edge_filter="positive")
        assert b.members == (0,)


class TestComponents:
    def test_two_parts(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            [(0, 1, 1.0), (2, 3, 1.0)],
        )
        parts = components(G)
        assert parts == [(0, 1), (2, 3)]

    def test_essential_split(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0), (1, 2, 1.0, 0.0)],
        )
        assert components(G) == [(0, 1, 2)]
        assert components(G, edge_filter="positive") == [(0, 1), (2,)]


class TestLipschitzConstant:
    def _oracle(self, G, u):
        ids = sorted(u)
        best = 0.0
        for i, x in enumerate(ids):
            for y in ids[i + 1:]:
                d = brute_force_distance(G, x, y)
                du = abs(u[x] - u[y])
                if np.isinf(d):
                    continue
                best = max(best, du / d)
        return best

    def test_linear_on_path(self):
        G = path_graph(5)
        u = {i: 2.0 * i for i in range(5)}
        assert lipschitz_constant(G, u) == pytest.approx(2.0)

    def test_matches_oracle_random(self, rng):
        for _ in range(8):
            G = random_geometric_graph(rng, 15)
            u = {int(v): float(rng.normal()) for v in G.vertex_ids}
            assert lipschitz_constant(G, u) == pytest.approx(
                self._oracle(G, u), rel=1e-12
            )

    def test_partial_field(self):
        G = path_graph(6)
        u = {0: 0.0, 5: 10.0}
        assert lipschitz_constant(G, u) == pytest.approx(2.0)

    def test_single_value_is_zero(self):
        assert lipschitz_constant(path_graph(3), {1: 7.0}) == 0.0

    def test_unreachable_pairs_skipped(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            [(0, 1, 1.0), (2, 3, 2.0)],
        )
        u = {0: 0.0, 1: 1.0, 2: 0.0, 3: 100.0}
        assert lipschitz_constant(G, u) == pytest.approx(50.0)

    def test_callable_metric_zero_distance(self):
        G = path_graph(3)
        u = {0: 0.0, 1: 1.0, 2: 2.0}
        assert lipschitz_constant(G, u, metric=lambda x, y: 0.0) == np.inf

    def test_essential_metric_choice(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0)],
            [(0, 1, 1.0, 0.0)],
        )
        u = {0: 0.0, 1: 3.0}
        assert lipschitz_constant(G, u) == pytest.approx(3.0)
        assert lipschitz_constant(G, u, metric="essential") == 0.0

    def test_bad_field_rejected(self):
        G = path_graph(3)
        with pytest.raises(InputError):
            lipschitz_constant(G, {0: 0.0, 99: 1.0})
        with pytest.raises(InputError):
            lipschitz_constant(G, {0: np.nan, 1: 1.0})

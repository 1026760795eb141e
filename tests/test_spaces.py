"""Tests for the mesh generators and MeshSpec."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mmgraph import (
    InputError,
    MeshSpec,
    SizeError,
    components,
    cusp_profile,
    essential_distance,
    gen_carpet,
    gen_collapsed,
    gen_cusp,
    gen_grid,
    gen_multi_collapse,
    gen_simplicial,
    save_graph,
    shortest_path,
)

from conftest import simplicial_reference


def vid_at(G, x, y):
    """Id of the vertex at position (x, y), which must exist."""
    d = np.hypot(G.pos[:, 0] - x, G.pos[:, 1] - y)
    i = int(np.argmin(d))
    assert d[i] < 1e-9, f"no vertex at ({x}, {y})"
    return int(G.vertex_ids[i])


class TestGenGrid:
    def test_rect_counts_and_measures(self):
        G = gen_grid(0.25, rect=(0.0, 0.0, 1.0, 1.0))
        assert G.n_vertices == 25
        # 20 horizontal + 20 vertical + 16 + 16 diagonal edges
        assert G.n_edges == 72
        assert np.allclose(G.mu, 0.25 ** 2)
        assert G.total_measure() == pytest.approx(25 / 16)
        assert np.all(G.edge_measures == 1.0)
        lens = sorted(set(np.round(G.edge_lengths, 12)))
        assert lens == pytest.approx([0.25, 0.25 * math.sqrt(2)])

    def test_corner_distance_uses_diagonals(self):
        G = gen_grid(0.25, rect=(0.0, 0.0, 1.0, 1.0))
        a = vid_at(G, 0.0, 0.0)
        b = vid_at(G, 1.0, 1.0)
        assert shortest_path(G, a, b).length == pytest.approx(math.sqrt(2))

    def test_disc_membership(self):
        G = gen_grid(0.25, disc=(0.0, 0.0, 1.0))
        assert G.n_vertices == 49
        r = np.hypot(G.pos[:, 0], G.pos[:, 1])
        assert np.all(r <= 1.0 + 1e-9)
        # boundary lattice points on the circle are kept
        vid_at(G, 1.0, 0.0)
        vid_at(G, 0.0, -1.0)

    def test_validation(self):
        with pytest.raises(InputError):
            gen_grid(0.25)
        with pytest.raises(InputError):
            gen_grid(0.25, rect=(0, 0, 1, 1), disc=(0, 0, 1))
        with pytest.raises(InputError):
            gen_grid(0.0, rect=(0, 0, 1, 1))
        with pytest.raises(InputError):
            gen_grid(0.25, rect=(0, 0, 0, 1))
        with pytest.raises(InputError):
            gen_grid(0.25, disc=(0, 0, -1.0))

    def test_numbers_are_read_as_mesh_spec_reads_them(self):
        for h, rect in ((True, (0, 0, 1, 1)), (0.25, ("0", 0, 1, 1))):
            with pytest.raises(InputError):
                gen_grid(h, rect=rect)
            with pytest.raises(InputError):
                MeshSpec.from_dict({"kind": "grid", "h": h, "rect": list(rect)}).build()

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "grid", "h": 1e-5, "rect": [0.0, 0.0, 1.0, 1.0]},
            {"kind": "simplicial", "points": [[0, 0], [1, 0]], "segments": [[0, 1]], "h": 1e-9},
            {"kind": "simplicial", "points": [[0, 0], [1e308, 0], [-1e308, 0]],
             "segments": [[0, 1], [1, 2]], "h": 0.25},
        ],
        ids=["grid", "simplicial-fine", "simplicial-far"],
    )
    def test_size_guard(self, spec):
        with pytest.raises(SizeError):
            MeshSpec.from_dict(spec).build()


class TestGenCusp:
    def test_named_profiles(self):
        f = cusp_profile("exp")
        assert f(np.asarray([1.0]))[0] == pytest.approx(1.0)
        assert f(np.asarray([0.5]))[0] == pytest.approx(math.exp(-1.0))
        # doubling the argument blows the width ratio up as exp(1/(2t))
        t = 0.1
        ratio = f(np.asarray([2 * t]))[0] / f(np.asarray([t]))[0]
        assert ratio == pytest.approx(math.exp(1.0 / (2 * t)))
        g = cusp_profile("t2")
        assert g(np.asarray([0.3]))[0] == pytest.approx(0.09)
        flat = cusp_profile("flat")
        assert np.all(flat(np.asarray([0.2, 0.9])) == 1.0)
        with pytest.raises(InputError):
            cusp_profile("nope")

    def test_profile_validation(self):
        with pytest.raises(InputError, match="psi\\(1\\)"):
            gen_cusp(lambda t: 0.5 * np.ones_like(np.asarray(t, dtype=float)), 0.25)
        with pytest.raises(InputError, match="positive"):
            gen_cusp(lambda t: np.asarray(t, dtype=float) - 0.5, 0.25)
        with pytest.raises(InputError, match="nondecreasing"):
            gen_cusp(lambda t: 2.0 - np.asarray(t, dtype=float), 0.25)

    def test_sample_profiles(self):
        samples = [(0.25, 0.0625), (0.5, 0.25), (1.0, 1.0)]
        G = gen_cusp(samples, 0.25)
        assert G.n_vertices > 0
        with pytest.raises(InputError):
            gen_cusp([(0.5, 0.2), (0.5, 0.3), (1.0, 1.0)], 0.25)
        with pytest.raises(InputError):
            gen_cusp([(0.5, 0.2), (0.9, 0.5)], 0.25)
        with pytest.raises(InputError):
            gen_cusp([], 0.25)

    def test_total_measure_matches_area(self):
        # the domain is a ball of radius sqrt(5) at (3, 0) plus the strip
        # under psi(x) = x^2; compare mesh mass with the exact area
        h = 1.0 / 32.0
        G = gen_cusp("t2", h)
        r = math.sqrt(5.0)

        def width(x):
            strip = x * x if 0.0 < x < 1.0 else 0.0
            ball = math.sqrt(max(5.0 - (x - 3.0) ** 2, 0.0)) if abs(x - 3.0) < r else 0.0
            return 2.0 * max(strip, ball)

        area, _ = quad(width, 0.0, 3.0 + r, points=[3.0 - r, 1.0], limit=200)
        assert G.total_measure() == pytest.approx(area, rel=0.03)
        assert np.all(G.mu >= 0.0)

    def test_tip_cells_carry_tiny_measure(self):
        # near the exp cusp tip the channel is far thinner than a cell, and
        # the cell mass must reflect the真 width, not the cell area
        h = 1.0 / 16.0
        G = gen_cusp("exp", h)
        v = vid_at(G, h, 0.0)
        m = float(G.mu[G.index_of(v)])
        assert 0.0 < m < 0.01 * h * h
        # probe centers on the axis exist for downstream doubling runs
        vid_at(G, 1.0 / 8.0, 0.0)
        vid_at(G, 3.0, 0.0)


class TestCollapsed:
    BOX = (0.0, 0.0, 2.0, 1.0)
    E = [(0.5, 0.5), (1.5, 0.5)]

    def test_quotient_shortcut(self):
        # continuum quotient metric: min(|x-y|, d(x,E) + d(E,y));
        # for (0,0)->(2,1) the route through E wins: 2*sqrt(1/2) = sqrt(2)
        h = 0.1
        G = gen_collapsed(self.E, self.BOX, h)
        a = vid_at(G, 0.0, 0.0)
        b = vid_at(G, 2.0, 1.0)
        d = shortest_path(G, a, b).length
        assert abs(d - math.sqrt(2)) <= 2 * h
        # the collapse makes it strictly shorter than the plain grid route
        P = gen_grid(h, rect=self.BOX)
        dp = shortest_path(P, vid_at(P, 0.0, 0.0), vid_at(P, 2.0, 1.0)).length
        assert dp == pytest.approx(1.0 + math.sqrt(2))
        assert d < dp - 0.9

    def test_direct_route_when_shorter(self):
        G = gen_collapsed(self.E, self.BOX, 0.1)
        a = vid_at(G, 0.0, 0.0)
        c = vid_at(G, 1.0, 0.0)
        assert shortest_path(G, a, c).length == pytest.approx(1.0)

    def test_collapsed_vertex_properties(self):
        G = gen_collapsed(self.E, self.BOX, 0.25)
        k = G.n_vertices - 1
        ki = G.index_of(k)
        assert G.mu[ki] == 0.0
        assert tuple(G.pos[ki]) == pytest.approx((1.0, 0.5))
        plain = np.delete(np.arange(G.n_vertices), ki)
        assert np.allclose(G.mu[plain], 0.25 ** 2)
        # 45 lattice points, 17 inside the h-halo of E
        assert G.n_vertices == 45 - 17 + 1

    def test_parallel_edges_keep_min_length(self):
        h = 0.25
        G = gen_collapsed(self.E, self.BOX, h)
        k = G.n_vertices - 1
        v = vid_at(G, 0.25, 0.25)
        links = [e for e in G.edges() if {e.a, e.b} == {v, k}]
        assert len(links) == 1
        assert links[0].length == pytest.approx(h)

    def test_multi_collapse_two_continua(self):
        G = gen_multi_collapse(
            [[(0.25, 0.25)], [(1.75, 0.75)]], self.BOX, 0.1
        )
        k0, k1 = G.n_vertices - 2, G.n_vertices - 1
        assert G.mu[G.index_of(k0)] == 0.0
        assert G.mu[G.index_of(k1)] == 0.0
        assert tuple(G.pos[G.index_of(k0)]) == pytest.approx((0.25, 0.25))
        assert tuple(G.pos[G.index_of(k1)]) == pytest.approx((1.75, 0.75))

    def test_overlap_rejected(self):
        with pytest.raises(InputError, match="overlap"):
            gen_multi_collapse(
                [[(0.5, 0.5)], [(0.6, 0.5)]], (0.0, 0.0, 1.0, 1.0), 0.25
            )

    def test_validation(self):
        with pytest.raises(InputError):
            gen_collapsed([(3.0, 0.5)], self.BOX, 0.25)
        with pytest.raises(InputError):
            gen_multi_collapse([], self.BOX, 0.25)
        with pytest.raises(InputError):
            gen_collapsed(self.E, self.BOX, -0.25)
        with pytest.raises(InputError):
            gen_collapsed(self.E, (0.0, 0.0, 0.0, 1.0), 0.25)
        with pytest.raises(InputError):
            gen_collapsed([], self.BOX, 0.25)


@st.composite
def complexes(draw):
    """A valid simplicial spec with 1-D, 2-D or 3-D points on an eighth grid
    (signed zeros included), twins that merge only after rounding to 9
    decimals, repeated and reversed segments, a segment on a triangle side,
    triangles sharing a side and atoms on any point, on the mesh or off it."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-8, 8).map(lambda k: k / 8) | st.just(-0.0)
    pts = draw(st.lists(st.tuples(*[coord] * dim).map(list), min_size=3, max_size=6,
                        unique_by=tuple))
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)):
        pts.append([c + draw(st.sampled_from([2e-11, -3e-10])) for c in pts[k]])
    index = st.integers(0, len(pts) - 1)
    pairs = st.lists(index, min_size=2, max_size=2, unique=True)
    segments = draw(st.lists(pairs, max_size=3))
    if segments and draw(st.booleans()):
        segments += [segments[0][::-1], segments[0]]
    triangles = []
    if dim > 1:
        triangles = draw(st.lists(st.lists(index, min_size=3, max_size=3, unique=True),
                                  max_size=2))
        if triangles and draw(st.booleans()):
            a, b, c = triangles[0]
            segments.append([b, a])
            triangles.append([c, b, draw(index.filter(lambda k: k not in (b, c)))])
    if not segments and not triangles:
        segments = [[0, 1]]
    atoms = draw(st.lists(st.tuples(index, st.sampled_from([0.5, 1.25, 3.0])).map(list),
                          max_size=3))
    h = draw(st.sampled_from([0.1, 0.2, 0.3, 0.45, 1.0]))
    return {"points": pts, "segments": segments, "triangles": triangles, "atoms": atoms,
            "h": h}


class TestSimplicial:
    L_SPEC = {
        "points": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
        "segments": [(0, 1), (1, 2)],
        "h": 0.25,
    }

    def test_l_complex_counts_and_measure(self):
        G = gen_simplicial(self.L_SPEC)
        assert G.n_vertices == 9
        assert G.n_edges == 8
        assert G.total_measure() == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(G.edge_lengths, 0.25)
        # the shared corner merged into one vertex
        vid_at(G, 1.0, 0.0)
        d = shortest_path(G, vid_at(G, 0.0, 0.0), vid_at(G, 1.0, 1.0)).length
        assert d == pytest.approx(2.0)

    def test_triangle_counts_and_area(self):
        spec = {
            "points": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            "triangles": [(0, 1, 2)],
            "h": 0.5,
        }
        G = gen_simplicial(spec)
        # longest side sqrt(2) at h = 0.5 subdivides 3 times
        assert G.n_vertices == 10
        assert G.n_edges == 18
        assert G.total_measure() == pytest.approx(0.5, abs=1e-12)

    def test_shared_side_glues(self):
        spec = {
            "points": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
            "triangles": [(0, 1, 2), (1, 3, 2)],
            "h": 0.75,
        }
        G = gen_simplicial(spec)
        assert G.n_vertices == 9
        assert G.total_measure() == pytest.approx(1.0, abs=1e-12)
        # the shared midpoint appears once
        vid_at(G, 0.5, 0.5)

    def test_triangle_area_in_3d(self):
        spec = {
            "points": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
            "triangles": [(0, 1, 2)],
            "h": 0.5,
        }
        G = gen_simplicial(spec)
        assert G.total_measure() == pytest.approx(0.5, abs=1e-12)

    def test_atoms(self):
        spec = dict(self.L_SPEC, atoms={2: 0.5})
        G = gen_simplicial(spec)
        assert G.total_measure() == pytest.approx(2.5, abs=1e-12)
        v = vid_at(G, 1.0, 1.0)
        # endpoint share of the last link plus the atom
        assert G.mu[G.index_of(v)] == pytest.approx(0.125 + 0.5)

    @settings(max_examples=150, deadline=None)
    @given(spec=complexes())
    def test_writes_the_per_point_builders_file(self, spec, tmp_path_factory):
        try:
            G = gen_simplicial(spec)
        except InputError:  # one point twinned twice alike: a zero-length segment
            return
        out = tmp_path_factory.mktemp("simplicial")
        save_graph(G, out / "array.json")
        save_graph(simplicial_reference(spec), out / "reference.json")
        assert (out / "array.json").read_bytes() == (out / "reference.json").read_bytes()

    @pytest.mark.parametrize("spec", [
        {"h": 0.2, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0], [2, 2, 2]],
         "segments": [[0, 1], [1, 3], [3, 1], [4, 3]], "triangles": [[0, 1, 2], [1, 3, 2]],
         "atoms": [[2, 0.5], [4, 1.25]]},
        {"h": 0.01, "points": [[0, 0], [1, 0], [-0.5, 0.8], [-0.5, -0.8]],
         "segments": [[0, 1], [0, 2], [0, 3]]},
        {"h": 0.1, "points": [[0, 0], [1, 0], [0, 1], [1, 1]],
         "triangles": [[0, 1, 2], [1, 3, 2]], "segments": [[1, 2]]},
    ], ids=["3d-battery", "star", "square"])
    def test_larger_meshes_match_the_per_point_builder(self, spec, tmp_path):
        save_graph(gen_simplicial(spec), tmp_path / "array.json")
        save_graph(simplicial_reference(spec), tmp_path / "reference.json")
        assert (tmp_path / "array.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_far_apart_simplices_stay_apart(self):
        # rounding these coordinates to 9 decimals overflows; they key as they are
        spec = {"points": [[1e300, 0], [1e300, 1], [2e300, 0], [2e300, 1]],
                "segments": [[0, 1], [2, 3]], "h": 0.25}
        G = gen_simplicial(spec)
        assert (G.n_vertices, G.n_edges) == (10, 8)
        assert len(components(G)) == 2
        assert G.to_dict() == simplicial_reference(spec).to_dict()

    def test_peak_memory_at_h_0_004(self):
        """The unit triangle and one side (63,438 points): the edges come
        from the up cells' sides only and the build tables are freed before
        the graph is made, so the peak stays near 34 MB (65 MB when every
        cell listed its six sides and the tables outlived the build)."""
        spec = {"points": [[0, 0], [1, 0], [0, 1]], "segments": [[0, 1]],
                "triangles": [[0, 1, 2]], "h": 0.004}
        tracemalloc.start()
        try:
            G = gen_simplicial(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.n_vertices == 63438
        assert peak < 42e6

    def test_validation(self):
        with pytest.raises(InputError):
            gen_simplicial({"points": [(0, 0)], "h": 0.25})
        with pytest.raises(InputError):
            gen_simplicial(dict(self.L_SPEC, segments=[(0, 0)]))
        with pytest.raises(InputError):
            gen_simplicial(dict(self.L_SPEC, segments=[(0, 7)]))
        with pytest.raises(InputError):
            gen_simplicial(dict(self.L_SPEC, triangles=[(0, 1, 1)]))
        with pytest.raises(InputError):
            gen_simplicial(dict(self.L_SPEC, atoms={7: 1.0}))
        with pytest.raises(InputError):
            gen_simplicial(dict(self.L_SPEC, atoms={2: 0.0}))
        with pytest.raises(InputError):
            gen_simplicial({"segments": [(0, 1)], "h": 0.25})
        with pytest.raises(InputError):
            gen_simplicial({"points": [(0, 0), (1, 0)], "segments": [(0, 1)]})
        with pytest.raises(InputError):
            gen_simplicial(
                {"points": [(0, 0), (1, 0, 0)], "segments": [(0, 1)], "h": 0.25}
            )
        with pytest.raises(InputError, match="segments"):
            gen_simplicial(dict(self.L_SPEC, segments=[(0.0, 1)]))
        with pytest.raises(InputError, match="atoms"):
            gen_simplicial(dict(self.L_SPEC, atoms=[(True, 1.0)]))
        with pytest.raises(InputError, match="atom points"):
            gen_simplicial(dict(self.L_SPEC, atoms=[(2.0, 1.0)]))
        with pytest.raises(InputError, match="points"):
            gen_simplicial(dict(self.L_SPEC, points=[(0, 0), ("1", 0), (1, 1)]))


class TestCarpet:
    def test_level_one_counts(self):
        G = gen_carpet(1)
        assert G.n_vertices == 8
        assert G.n_edges == 12
        assert G.total_measure() == pytest.approx(1.0, abs=1e-12)
        xs = sorted(set(np.round(G.pos[:, 0], 12)))
        assert xs == pytest.approx([1 / 6, 1 / 2, 5 / 6])
        # the center cell is removed
        d = np.hypot(G.pos[:, 0] - 0.5, G.pos[:, 1] - 0.5)
        assert np.min(d) > 0.3

    def test_level_two_counts(self):
        G = gen_carpet(2)
        assert G.n_vertices == 64
        assert G.total_measure() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(G.mu, 1.0 / 64.0)

    def test_level_three_holes(self):
        G = gen_carpet(3)
        assert G.n_vertices == 512
        inside = (
            (G.pos[:, 0] > 1 / 3) & (G.pos[:, 0] < 2 / 3)
            & (G.pos[:, 1] > 1 / 3) & (G.pos[:, 1] < 2 / 3)
        )
        assert not np.any(inside)

    def test_negligible_all_disconnects_essential_metric(self):
        G = gen_carpet(2, negligible_mode="all")
        assert np.all(G.edge_measures == 0.0)
        assert len(components(G)) == 1
        assert len(components(G, edge_filter="positive")) == G.n_vertices
        a, b = int(G.vertex_ids[0]), int(G.vertex_ids[-1])
        assert np.isfinite(shortest_path(G, a, b).length)
        assert essential_distance(G, a, b) == math.inf

    def test_negligible_predicate(self):
        seen = []

        def cut(e):
            seen.append(e)
            return (e["ax"] < 0.5) != (e["bx"] < 0.5)

        G = gen_carpet(1, negligible_mode=cut)
        expected = []
        for e in G.edges():
            (ax, ay), (bx, by) = G.pos[G.index_of(e.a)].tolist(), G.pos[G.index_of(e.b)].tolist()
            expected.append({"a": e.a, "b": e.b, "len": e.length,
                             "ax": ax, "ay": ay, "bx": bx, "by": by})
        assert [list(d.items()) for d in seen] == [list(d.items()) for d in expected]
        assert {tuple(map(type, d.values())) for d in seen} == {(int, int) + (float,) * 5}
        for e in G.edges():
            pa = G.pos[G.index_of(e.a)]
            pb = G.pos[G.index_of(e.b)]
            expected = 0.0 if (pa[0] < 0.5) != (pb[0] < 0.5) else 1.0
            assert e.mu_edge == expected
        assert len(components(G)) == 1
        assert len(components(G, edge_filter="positive")) == 2

    def test_validation(self):
        with pytest.raises(InputError):
            gen_carpet(0)
        with pytest.raises(InputError):
            gen_carpet(1.5)
        with pytest.raises(SizeError):
            gen_carpet(7)
        with pytest.raises(InputError):
            gen_carpet(1, negligible_mode="bogus")


class TestMeshSpec:
    def test_grid_round_trip(self):
        spec = MeshSpec.from_dict({"kind": "grid", "h": 0.25, "rect": [0, 0, 1, 1]})
        assert spec.kind == "grid"
        assert spec.h == 0.25
        G = spec.build()
        H = gen_grid(0.25, rect=(0, 0, 1, 1))
        assert G.to_dict() == H.to_dict()

    def test_carpet_spec_with_negligible_mode(self):
        spec = MeshSpec.from_dict(
            {"kind": "carpet", "level": 2, "negligible_mode": "all"}
        )
        G = spec.build()
        assert G.n_vertices == 64
        assert np.all(G.edge_measures == 0.0)

    def test_cusp_spec_variants(self):
        a = MeshSpec.from_dict({"kind": "cusp", "h": 0.25, "psi": "t2"}).build()
        samples = [[0.25, 0.0625], [0.5, 0.25], [0.75, 0.5625], [1.0, 1.0]]
        b = MeshSpec.from_dict(
            {"kind": "cusp", "h": 0.25, "psi_samples": samples}
        ).build()
        assert a.n_vertices > 0 and b.n_vertices > 0

    def test_collapsed_and_simplicial_specs(self):
        g1 = MeshSpec.from_dict(
            {"kind": "collapsed", "h": 0.25, "e": [[0.5, 0.5], [1.5, 0.5]],
             "box": [0, 0, 2, 1]}
        ).build()
        assert g1.mu[g1.index_of(g1.n_vertices - 1)] == 0.0
        g2 = MeshSpec.from_dict(
            {"kind": "multi_collapse", "h": 0.1,
             "e_list": [[[0.25, 0.25]], [[1.75, 0.75]]], "box": [0, 0, 2, 1]}
        ).build()
        assert g2.mu[g2.index_of(g2.n_vertices - 1)] == 0.0
        g3 = MeshSpec.from_dict(
            {"kind": "simplicial", "h": 0.25,
             "points": [[0, 0], [1, 0], [1, 1]], "segments": [[0, 1], [1, 2]]}
        ).build()
        assert g3.n_vertices == 9

    def test_validation(self):
        with pytest.raises(InputError):
            MeshSpec.from_dict({"h": 0.25})
        with pytest.raises(InputError):
            MeshSpec.from_dict({"kind": "fancy", "h": 0.25}).build()
        with pytest.raises(InputError):
            MeshSpec.from_dict({"kind": "grid", "rect": [0, 0, 1, 1]}).build()
        with pytest.raises(InputError):
            MeshSpec.from_dict({"kind": "cusp", "h": 0.25}).build()

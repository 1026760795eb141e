"""Lipschitz extension operators: McShane, truncation, Nagata and
Whitney covers, Whitney extension."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgraph import (
    CertifyError,
    InputError,
    VectorField,
    as_vector_field,
    gen_grid,
    lipschitz_constant,
    mcshane_extend,
    nagata_cover,
    truncate_extend,
    vector_lipschitz_constant,
    whitney_cover,
    whitney_extend,
)

from conftest import brute_force_distance, make_graph, path_graph, random_geometric_graph


class TestMcShane:
    def test_midpoint_by_hand(self):
        # a-m-b with unit edges, data 0 and 1: lip = 1/2, Tu(m) = 0.5
        G = path_graph(3)
        out = mcshane_extend(G, [0, 2], {0: 0.0, 2: 1.0})
        assert out[1] == pytest.approx(0.5)

    def test_formula_oracle(self, rng):
        G = random_geometric_graph(rng, 12)
        ids = [int(v) for v in G.vertex_ids]
        omega = ids[:4]
        u = {v: float(rng.normal()) for v in omega}
        lip = lipschitz_constant(G, u)
        out = mcshane_extend(G, omega, u)
        for x in ids:
            want = min(u[y] + lip * brute_force_distance(G, x, y) for y in omega)
            if x in omega:
                want = u[x]
            assert out[x] == pytest.approx(want, abs=1e-10)

    def test_restriction_exact(self, rng):
        G = random_geometric_graph(rng, 20)
        omega = [0, 3, 7, 11]
        u = {v: float(rng.normal()) for v in omega}
        out = mcshane_extend(G, omega, u)
        for v in omega:
            assert out[v] == u[v]

    def test_lip_preserved(self, rng):
        for _ in range(10):
            n = int(rng.integers(8, 40))
            G = random_geometric_graph(rng, n)
            k = int(rng.integers(2, n // 2 + 2))
            omega = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
            u = {v: float(rng.normal()) for v in omega}
            out = mcshane_extend(G, omega, u)
            assert lipschitz_constant(G, out) == pytest.approx(
                lipschitz_constant(G, u), abs=1e-9
            )

    def test_constant_data(self):
        G = path_graph(5)
        out = mcshane_extend(G, [2], {2: 4.25})
        assert all(v == 4.25 for v in out.values())

    def test_monotone_at_common_slope(self, rng):
        # raising data pointwise can lower its Lipschitz constant, which
        # makes the raw operator non-monotone; at an unchanged slope
        # (constant shift) monotonicity and translation equivariance hold
        G = random_geometric_graph(rng, 15)
        omega = [0, 5, 10]
        u = {v: float(rng.normal()) for v in omega}
        up = {v: u[v] + 0.75 for v in omega}
        lo = mcshane_extend(G, omega, u)
        hi = mcshane_extend(G, omega, up)
        assert all(hi[v] == pytest.approx(lo[v] + 0.75, abs=1e-12) for v in lo)
        assert all(lo[v] <= hi[v] + 1e-12 for v in lo)

    def test_unreachable_gets_inf(self):
        G = make_graph([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1, 1.0)])
        out = mcshane_extend(G, [0], {0: 1.0})
        assert out[1] == 1.0
        assert out[2] == np.inf

    def test_essential_metric(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0, 0.0), (1, 2, 1.0), (0, 2, 3.0)],
        )
        # essential route 0-1 goes 0-2-1 (length 4): lip = 1/4
        out = mcshane_extend(G, [0, 1], {0: 0.0, 1: 1.0}, metric_choice="essential")
        assert out[2] == pytest.approx(0.75)

    def test_validation(self):
        G = path_graph(3)
        with pytest.raises(InputError):
            mcshane_extend(G, [], {})
        with pytest.raises(InputError):
            mcshane_extend(G, [0], {})
        with pytest.raises(InputError):
            mcshane_extend(G, [9], {9: 0.0})
        with pytest.raises(InputError):
            mcshane_extend(G, [0], {0: np.nan})
        with pytest.raises(InputError):
            mcshane_extend(G, [0, 0], {0: 1.0})


def overflow_path():
    """The path 0-1-2-3 of lengths 1, 1, 2, with data at its ends whose
    difference, 3.4e308, is past the float range; the slope is 8.5e307."""
    G = make_graph([(v, 1.0) for v in range(4)], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)])
    return G, {0: 1.7e308, 3: -1.7e308}


class TestOverflowingDifferences:
    """Slopes whose differences overflow are finite where the slope is."""

    def test_scalar_slope(self):
        G, u = overflow_path()
        assert lipschitz_constant(G, u) == 8.5e307
        assert lipschitz_constant(G, u, metric=lambda x, y: 4.0) == 8.5e307
        # the keys are whole components: the edge-slope route
        edge = make_graph([(0, 1.0), (1, 1.0)], [(0, 1, 4.0)])
        assert lipschitz_constant(edge, {0: 1.7e308, 1: -1.7e308}) == 8.5e307

    @pytest.mark.parametrize("norm", ["max", "euclidean"])
    def test_vector_slope(self, norm):
        G, u = overflow_path()
        assert vector_lipschitz_constant(G, as_vector_field(u, norm)) == 8.5e307

    def test_a_slope_past_the_float_range_is_inf(self):
        G, _ = overflow_path()
        u = {0: 1.7e308, 1: -1.7e308}
        assert lipschitz_constant(G, u) == math.inf
        assert lipschitz_constant(G, u, metric=lambda x, y: 1.0) == math.inf
        assert vector_lipschitz_constant(G, as_vector_field(u)) == math.inf

    def test_mcshane_extension(self):
        G, u = overflow_path()
        out = mcshane_extend(G, [0, 3], u)
        assert out[0] == u[0] and out[3] == u[3]
        assert out[1] == pytest.approx(8.5e307, rel=1e-15)
        assert out[2] == 0.0
        assert lipschitz_constant(G, out) == pytest.approx(8.5e307, rel=1e-15)
        # a value past the float range still reads inf
        out = mcshane_extend(G, [0, 1], {0: 1.7e308, 1: 1.6e308})
        assert out[2] == 1.7e308 and out[3] == math.inf


class TestTruncate:
    def test_clamps_overshoot(self):
        # data on two close vertices, a far vertex overshoots the sup-norm
        G = path_graph(12)
        u = {0: 0.0, 1: 1.0}
        plain = mcshane_extend(G, [0, 1], u)
        assert plain[11] == pytest.approx(11.0)
        out = truncate_extend(G, [0, 1], u)
        assert out[11] == 1.0
        assert max(abs(v) for v in out.values()) == 1.0

    def test_restriction_and_norm_exact(self, rng):
        for _ in range(6):
            G = random_geometric_graph(rng, 25)
            omega = sorted(int(v) for v in rng.choice(25, size=6, replace=False))
            u = {v: float(rng.normal()) for v in omega}
            out = truncate_extend(G, omega, u)
            m = max(abs(x) for x in u.values())
            assert max(abs(x) for x in out.values()) == m
            for v in omega:
                assert out[v] == u[v]
            assert lipschitz_constant(G, out) == pytest.approx(
                lipschitz_constant(G, u), abs=1e-9
            )

    def test_inside_band_is_identity(self):
        G = path_graph(3)
        plain = mcshane_extend(G, [0, 2], {0: 0.0, 2: 1.0})
        clamped = truncate_extend(G, [0, 2], {0: 0.0, 2: 1.0})
        assert plain == clamped

    def test_unreachable_clamps_to_norm(self):
        G = make_graph([(0, 1.0), (1, 1.0)], [])
        out = truncate_extend(G, [0], {0: -2.0})
        assert out[1] == 2.0


class TestNagataCover:
    def test_line_multiplicity(self):
        G = path_graph(12)
        cov = nagata_cover(G, s=1.0)
        assert cov.n <= 1
        assert cov.c == 2.0
        ids = sorted(v for block in cov.sets for v in block)
        assert ids == list(range(12))
        # blocks pairwise disjoint with diameter <= 2s
        seen = set()
        for block in cov.sets:
            assert not (set(block) & seen)
            seen |= set(block)
            diam = max(
                brute_force_distance(G, a, b) for a in block for b in block
            )
            assert diam <= 2.0 + 1e-9

    def test_single_point(self):
        G = make_graph([(0, 1.0)], [])
        cov = nagata_cover(G, s=1.0)
        assert cov.sets == ((0,),)
        assert cov.n == 0

    def test_grid_multiplicity_size_independent(self):
        G16 = gen_grid(1.0, rect=(0, 0, 15, 15))
        G32 = gen_grid(1.0, rect=(0, 0, 31, 31))
        c16 = nagata_cover(G16, s=2.0)
        c32 = nagata_cover(G32, s=2.0)
        assert c16.n == c32.n

    def test_target_flag(self):
        G = gen_grid(1.0, rect=(0, 0, 7, 7))
        cov = nagata_cover(G, s=2.0, target_n=0)
        assert cov.exceeded_target
        cov_ok = nagata_cover(G, s=2.0, target_n=cov.n)
        assert not cov_ok.exceeded_target

    def test_validation(self):
        with pytest.raises(InputError):
            nagata_cover(path_graph(3), s=0.0)
        with pytest.raises(InputError):
            nagata_cover(path_graph(3), s=1.0, points=[99])


class TestWhitneyCover:
    def _hole_instance(self):
        G = gen_grid(1 / 8, rect=(0, 0, 1, 1))
        cen = np.array([0.5, 0.5])
        omega = [
            int(v)
            for v, p in zip(G.vertex_ids, G.pos)
            if np.linalg.norm(p - cen) <= 0.2
        ]
        return G, omega

    def test_line_blocks_are_dyadic_runs(self):
        G = path_graph(20)
        cov = whitney_cover(G, [0])
        for block, base in zip(cov.blocks, cov.base_dists):
            ds = sorted(float(v) for v in block)
            k = math.floor(math.log2(ds[0]))
            assert base == pytest.approx(ds[0])
            for d in ds:
                assert 2**k <= d < 2 ** (k + 1)

    def test_blocks_partition_exterior(self):
        G, omega = self._hole_instance()
        cov = whitney_cover(G, omega)
        covered = sorted(v for b in cov.blocks for v in b)
        exterior = sorted(set(int(v) for v in G.vertex_ids) - set(omega))
        assert covered == exterior
        assert len(set(covered)) == len(covered)
        assert cov.excluded == ()

    def test_diameter_and_anchor_bounds(self):
        G, omega = self._hole_instance()
        cov = whitney_cover(G, omega)
        for block, anchor, base in zip(cov.blocks, cov.anchors, cov.base_dists):
            assert anchor in set(omega)
            diam = max(
                brute_force_distance(G, a, b) for a in block for b in block
            )
            assert diam <= cov.alpha * base + 1e-9
            d_anchor = min(brute_force_distance(G, anchor, b) for b in block)
            assert d_anchor < (2 - cov.delta) * base + 1e-9

    def test_partition_of_unity(self):
        G, omega = self._hole_instance()
        cov = whitney_cover(G, omega)
        exterior = set(int(v) for v in G.vertex_ids) - set(omega)
        for v in exterior:
            support = cov.sigma[v]
            assert 1 <= len(support) <= cov.multiplicity
            total = sum(w for _, w in support)
            assert total > 0
            weights = [w / total for _, w in support]
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= 0 for w in weights)

    def test_bumps_edgewise_lipschitz(self):
        G, omega = self._hole_instance()
        cov = whitney_cover(G, omega)

        def sigma_val(vid, bi):
            for b, w in cov.sigma.get(vid, ()):
                if b == bi:
                    return w
            return 0.0

        blocks_touched = set()
        for sup in cov.sigma.values():
            blocks_touched |= {bi for bi, _ in sup}
        for e in G.edges():
            for bi in blocks_touched:
                assert abs(sigma_val(e.a, bi) - sigma_val(e.b, bi)) <= e.length + 1e-9

    def test_omega_vertices_carry_no_bumps(self):
        G, omega = self._hole_instance()
        cov = whitney_cover(G, omega)
        for v in omega:
            assert v not in cov.sigma

    def test_all_omega_gives_empty_cover(self):
        G = path_graph(4)
        cov = whitney_cover(G, [0, 1, 2, 3])
        assert cov.blocks == ()
        assert cov.sigma == {}

    def test_unreachable_exterior_excluded(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0)],
        )
        cov = whitney_cover(G, [0])
        assert cov.excluded == (2,)
        assert sorted(v for b in cov.blocks for v in b) == [1]

    def test_validation(self):
        G = path_graph(4)
        with pytest.raises(InputError):
            whitney_cover(G, [])
        with pytest.raises(InputError):
            whitney_cover(G, [99])
        with pytest.raises(InputError):
            whitney_cover(G, [0], alpha=0.0)
        with pytest.raises(InputError):
            whitney_cover(G, [0], beta=-1.0)


class TestVectorField:
    def test_norms(self):
        vf = VectorField({0: (3.0, -4.0)}, norm="max")
        assert vf.norm_of((3.0, -4.0)) == 4.0
        ve = VectorField({0: (3.0, -4.0)}, norm="euclidean")
        assert ve.norm_of((3.0, -4.0)) == 5.0
        assert vf.sup_norm() == 4.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("vec, norm", [
        ((1e300, 0.0), 1e300), ((1e-200, 0.0), 1e-200), ((0.0, -1.7e308), 1.7e308),
        ((5e-324, 0.0), 5e-324), ((1.7e308, 1.7e308), math.inf),
    ])
    def test_euclidean_norm_neither_overflows_nor_underflows(self, vec, norm):
        assert VectorField({0: vec}, "euclidean").sup_norm() == norm

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
        min_size=1, max_size=6)))
    def test_euclidean_norm_is_the_plain_one_where_that_is_normal(self, rows):
        rows = np.array(rows)
        with np.errstate(over="ignore", under="ignore"):
            plain = np.sum(rows * rows, axis=1)
        normal = np.isfinite(plain) & (plain >= np.finfo(float).tiny)
        got = VectorField({}, "euclidean")._norms(rows)[normal]
        assert got.tobytes() == np.sqrt(plain[normal]).tobytes()

    def test_as_vector_field_scalars(self):
        vf = as_vector_field({0: 1.0, 1: -2.0})
        assert vf.dim == 1
        assert vf.values[1] == (-2.0,)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            VectorField({0: (1.0,), 1: (1.0, 2.0)})

    def test_bad_norm_rejected(self):
        with pytest.raises(InputError):
            VectorField({0: (1.0,)}, norm="manhattan")

    def test_vector_lipschitz_matches_scalar(self, rng):
        G = random_geometric_graph(rng, 10)
        u = {int(v): float(rng.normal()) for v in G.vertex_ids}
        vf = as_vector_field(u)
        assert vector_lipschitz_constant(G, vf) == pytest.approx(
            lipschitz_constant(G, u), rel=1e-12
        )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("metric", [None, "essential"])
    def test_vector_lipschitz_rejects_non_finite(self, bad, metric):
        # the first key in id order with a non-finite coordinate is named,
        # with no RuntimeWarning on the way
        G = path_graph(5)
        vf = VectorField({4: (math.nan, 0.0), 0: (0.0, 1.0), 2: (1.0, bad)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"^vector field not finite at vertex 2$"):
                vector_lipschitz_constant(G, vf, metric)


class TestWhitneyExtend:
    def _instance(self, rng, dim=2):
        G = gen_grid(1 / 8, rect=(0, 0, 1, 1))
        cen = np.array([0.5, 0.5])
        omega = [
            int(v)
            for v, p in zip(G.vertex_ids, G.pos)
            if np.linalg.norm(p - cen) <= 0.2
        ]
        f = {v: tuple(float(x) for x in rng.normal(size=dim)) for v in omega}
        cover = whitney_cover(G, omega)
        return G, omega, as_vector_field(f), cover

    def test_boundary_reproduced(self, rng):
        G, omega, f, cover = self._instance(rng)
        F = whitney_extend(G, omega, f, cover)
        for v in omega:
            assert F.values[v] == f.values[v]

    def test_constant_field_extends_constant(self, rng):
        G, omega, _, cover = self._instance(rng)
        f = as_vector_field({v: (2.5, -1.0) for v in omega})
        F = whitney_extend(G, omega, f, cover)
        for vec in F.values.values():
            assert vec == pytest.approx((2.5, -1.0), abs=1e-12)

    def test_sup_norm_bound(self, rng):
        G, omega, f, cover = self._instance(rng)
        F = whitney_extend(G, omega, f, cover)
        assert F.sup_norm() <= f.sup_norm() + 1e-12

    def test_linearity(self, rng):
        G, omega, f, cover = self._instance(rng)
        g_raw = {v: tuple(float(x) for x in rng.normal(size=2)) for v in omega}
        g = as_vector_field(g_raw)
        fg = as_vector_field(
            {v: tuple(a + b for a, b in zip(f.values[v], g_raw[v])) for v in omega}
        )
        Ff = whitney_extend(G, omega, f, cover)
        Fg = whitney_extend(G, omega, g, cover)
        Ffg = whitney_extend(G, omega, fg, cover)
        for v in Ffg.values:
            want = tuple(a + b for a, b in zip(Ff.values[v], Fg.values[v]))
            assert Ffg.values[v] == pytest.approx(want, abs=1e-12)
        half = as_vector_field(
            {v: tuple(0.5 * a for a in f.values[v]) for v in omega}
        )
        Fh = whitney_extend(G, omega, half, cover)
        for v in Fh.values:
            want = tuple(0.5 * a for a in Ff.values[v])
            assert Fh.values[v] == pytest.approx(want, abs=1e-12)

    def test_single_anchor_line(self):
        G = path_graph(10)
        cover = whitney_cover(G, [0])
        F = whitney_extend(G, [0], as_vector_field({0: (7.0,)}), cover)
        assert set(F.values) == set(range(10))
        for vec in F.values.values():
            assert vec == (7.0,)

    def test_excluded_vertices_omitted(self):
        G = make_graph(
            [(0, 1.0), (1, 1.0), (2, 1.0)],
            [(0, 1, 1.0)],
        )
        cover = whitney_cover(G, [0])
        F = whitney_extend(G, [0], as_vector_field({0: (1.0,)}), cover)
        assert 2 not in F.values
        assert F.values[1] == (1.0,)

    def test_cover_mismatch_refused(self):
        G = path_graph(6)
        cover = whitney_cover(G, [0])
        with pytest.raises(CertifyError):
            whitney_extend(G, [0, 1], as_vector_field({0: (1.0,), 1: (2.0,)}), cover)

    def test_missing_anchor_data_refused(self, rng):
        G, omega, f, cover = self._instance(rng)
        partial = {v: f.values[v] for v in omega[:-1]}
        with pytest.raises(InputError):
            whitney_extend(G, omega, VectorField(partial), cover)

"""Acceptance gate: one test per shipped behavioral guarantee.

Each test checks every clause of its guarantee at the stated tolerance
and records a PASS/FAIL line (with the measured values) that the
terminal summary prints at the end of the run.
"""

import functools
import json
import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    brute_force_distance,
    distance_matrix,
    l_complex,
    make_graph,
    path_graph,
    random_geometric_graph,
    record_criterion,
)
from mmgraph import (
    AMLEProblem,
    InputError,
    as_vector_field,
    c0_constant,
    check_amle_local,
    comparison_check,
    essential_distance,
    gen_carpet,
    gen_collapsed,
    gen_cusp,
    gen_grid,
    graph_from_dict,
    infinity_harmonic_extend,
    lipschitz_constant,
    nagata_cover,
    poincare_constant,
    quasiconvexity_constant,
    solve_amle,
    truncate_extend,
    whitney_cover,
    whitney_extend,
)
from mmgraph.analysis import doubling_ratios
from mmgraph.cli import main as cli_main


def criterion(num, title):
    """Record the outcome (and measured detail) of an acceptance test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                record_criterion(num, False, f"{title}: {type(exc).__name__}: {exc}")
                raise
            record_criterion(num, True, f"{title}: {detail}")

        return wrapper

    return deco


def vid_at(G, x, y):
    d = np.hypot(G.pos[:, 0] - x, G.pos[:, 1] - y)
    i = int(np.argmin(d))
    assert d[i] < 1e-9, f"no vertex at ({x}, {y})"
    return int(G.vertex_ids[i])


@criterion(1, "norm-preserving extension keeps lip and sup-norm")
def test_c01_extension_preserves_constants():
    rng = np.random.default_rng(1001)
    worst_lip = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        G = random_geometric_graph(rng, n)
        m = int(rng.integers(2, max(3, n // 2)))
        omega = sorted(int(v) for v in rng.choice(n, size=m, replace=False))
        u = {v: float(rng.normal()) for v in omega}
        Eu = truncate_extend(G, omega, u, "graph")
        lip_u = lipschitz_constant(G, u)
        lip_E = lipschitz_constant(G, Eu)
        worst_lip = max(worst_lip, abs(lip_E - lip_u))
        assert abs(lip_E - lip_u) <= 1e-9, f"lip drift {abs(lip_E - lip_u)}"
        sup_u = max(abs(x) for x in u.values())
        sup_E = max(abs(x) for x in Eu.values())
        assert sup_E == sup_u, f"sup-norm changed: {sup_E} != {sup_u}"
        assert all(Eu[v] == u[v] for v in omega)
    return f"50 random graphs, max lip deviation {worst_lip:.2e}, sup-norm exact"


@criterion(2, "partition of unity sums to 1 with bounded overlap")
def test_c02_whitney_partition():
    G = gen_grid(1.0 / 16.0, rect=(0.0, 0.0, 1.0, 1.0))
    d = np.hypot(G.pos[:, 0] - 0.5, G.pos[:, 1] - 0.5)
    omega = [int(v) for v, x in zip(G.vertex_ids, d) if x <= 0.15]
    cover = whitney_cover(G, omega)
    assert not cover.excluded

    n = max(nagata_cover(G, 2.0 ** k).n for k in range(-4, 1))

    worst_sum = 0.0
    for vid, entries in cover.sigma.items():
        total = sum(w for _, w in entries)
        assert total > 0, f"vertex {vid}: nonpositive bump total"
        worst_sum = max(worst_sum, abs(sum(w / total for _, w in entries) - 1.0))
        assert worst_sum <= 1e-12, f"vertex {vid}: partition sum off by {worst_sum}"
        assert 1 <= len(entries) <= n + 1, (
            f"vertex {vid}: support size {len(entries)} outside [1, {n + 1}]"
        )

    def sigma_value(vid, block_i):
        for bi, w in cover.sigma.get(vid, ()):
            if bi == block_i:
                return w
        return 0.0

    for e in G.edges():
        touched = {bi for v in (e.a, e.b) for bi, _ in cover.sigma.get(v, ())}
        for bi in touched:
            jump = abs(sigma_value(e.a, bi) - sigma_value(e.b, bi))
            assert jump <= e.length + 1e-9, (
                f"bump {bi} jumps {jump} over edge of length {e.length}"
            )

    rng = np.random.default_rng(22)
    worst_ratio = 0.0
    for _ in range(20):
        f = {v: tuple(rng.normal(size=3)) for v in omega}
        vf = as_vector_field(f)
        F = whitney_extend(G, omega, vf, cover)
        assert F.sup_norm() <= (n + 1) * vf.sup_norm() + 1e-12
        worst_ratio = max(worst_ratio, F.sup_norm() / vf.sup_norm())
    return (
        f"multiplicity {cover.multiplicity} <= n+1 = {n + 1}, partition sum "
        f"deviation {worst_sum:.1e}, sup-norm ratio <= {worst_ratio:.3f} "
        f"on 20 vector fields"
    )


@criterion(3, "solver is exact on a path and matches the star oracle")
def test_c03_amle_path_and_star():
    G = path_graph(11, edge_len=0.1)
    sol = solve_amle(AMLEProblem(G, (0, 10), {0: 0.0, 10: 1.0}), tol=1e-12)
    assert sol.converged
    dev = max(abs(sol.u[k] - k / 10.0) for k in range(11))
    assert dev <= 1e-8, f"path deviation {dev}"

    lens = [0.7, 1.3, 0.4, 2.2]
    g = {1: 0.0, 2: 1.0, 3: -0.5, 4: 0.8}
    star = make_graph(
        [(i, 1.0) for i in range(5)],
        [(0, i + 1, lens[i]) for i in range(4)],
    )
    sol2 = solve_amle(AMLEProblem(star, (1, 2, 3, 4), g), tol=1e-12)
    assert sol2.converged

    def imbalance(t):
        return max((g[i + 1] - t) / lens[i] for i in range(4)) - max(
            (t - g[i + 1]) / lens[i] for i in range(4)
        )

    lo, hi = min(g.values()), max(g.values())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    star_dev = abs(sol2.u[0] - oracle)
    assert star_dev <= 1e-4, f"star center off oracle by {star_dev}"
    return f"path deviation {dev:.1e}, star center vs oracle {star_dev:.1e}"


@criterion(4, "corner value 0.5 and solution slope 0.5 on the bent segment")
def test_c04_l_complex_pipeline():
    G = l_complex(1.0 / 64.0)
    a = vid_at(G, 1.0, 0.0)
    b = vid_at(G, 0.0, 1.0)
    corner = vid_at(G, 0.0, 0.0)
    omega = [int(v) for v in G.vertex_ids if int(v) not in (a, b)]
    sol = infinity_harmonic_extend(G, omega, {a: 0.0, b: 1.0}, tol=1e-12)
    assert sol.converged and not sol.degenerate_vertices
    corner_dev = abs(sol.u[corner] - 0.5)
    assert corner_dev <= 1e-3, f"corner value off by {corner_dev}"
    lip = lipschitz_constant(G, sol.u, metric="essential")
    assert abs(lip - 0.5) <= 0.01, f"solution Lipschitz constant {lip}"
    return f"corner deviation {corner_dev:.1e}, solution lip {lip:.4f}"


@criterion(5, "essential distance matches brute force; detour factor <= sqrt(2)")
def test_c05_essential_distance():
    base = gen_collapsed([(0.5, 0.5), (1.5, 0.5)], (0.0, 0.0, 2.0, 1.0), 0.25)
    payload = base.to_dict()
    p = vid_at(base, 0.0, 0.0)
    q = vid_at(base, 2.0, 1.0)
    payload["edges"].append({"a": p, "b": q, "len": 0.5, "mu_edge": 0.0})
    G = graph_from_dict(payload)

    rng = np.random.default_rng(55)
    ids = [int(v) for v in G.vertex_ids]
    pairs = [(p, q)] + [
        tuple(int(x) for x in rng.choice(ids, size=2, replace=False))
        for _ in range(40)
    ]
    for x, y in pairs:
        got = essential_distance(G, x, y)
        want = brute_force_distance(G, x, y, edge_filter=lambda e: e.mu_edge > 0)
        assert got == want, f"essential d({x},{y}) = {got} != brute force {want}"

    D = distance_matrix(G)
    De = distance_matrix(G, mask=G.positive_edge_mask())
    assert np.all(D <= De + 1e-12), "graph metric exceeds essential metric"
    shortcut_gain = De[G.index_of(p), G.index_of(q)] - D[G.index_of(p), G.index_of(q)]
    assert shortcut_gain > 0.5, "zero-measure shortcut did not separate the metrics"

    rep = quasiconvexity_constant(
        l_complex(1.0 / 64.0), ambient="euclidean", R=math.inf,
        metric_choice="essential",
    )
    assert rep.C <= math.sqrt(2) * 1.05, f"detour factor {rep.C}"
    return (
        f"41 pairs exact, d <= ess d everywhere, bent-segment detour factor "
        f"{rep.C:.4f} <= {math.sqrt(2) * 1.05:.4f}"
    )


@criterion(6, "cusp domain fails doubling at the tip; smooth control does not")
def test_c06_cusp_non_doubling():
    probes = (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)

    def probe_ratios(profile):
        G = gen_cusp(profile, 1.0 / 256.0)
        out = []
        for t in probes:
            c = vid_at(G, t, 0.0)
            rep = doubling_ratios(G, [c], [t / 2.0])
            out.append(rep.rows[0].ratio)
        return out

    sharp = probe_ratios("exp")
    assert sharp[0] < sharp[1] < sharp[2], f"ratios not increasing: {sharp}"
    assert sharp[2] > 100.0, f"smallest-probe ratio {sharp[2]} <= 100"
    control = probe_ratios("t2")
    assert all(r < 50.0 for r in control), f"control ratios too large: {control}"
    return (
        f"exp ratios {[round(r, 1) for r in sharp]} increasing and > 100; "
        f"t^2 control {[round(r, 2) for r in control]} < 50"
    )


@criterion(7, "oscillation across a gap is invisible below scale, infinite above")
def test_c07_poincare_up_to_scale():
    verts = [(i, 1.0, (i * 0.1, 0.0)) for i in range(11)]
    verts += [(11 + i, 1.0, (2.0 + i * 0.1, 0.0)) for i in range(11)]
    edges = [(i, i + 1, 0.1) for i in range(10)]
    edges += [(11 + i, 12 + i, 0.1) for i in range(10)]
    edges += [(10, 11, 1.0, 0.0)]
    G = make_graph(verts, edges)
    u = {v: (1.0 if v >= 11 else 0.0) for v in range(22)}
    rho = {v: 0.0 for v in range(22)}
    small = poincare_constant(G, u, rho, lam=2.0, r=0.4)
    assert small.best_C == 0.0, f"sub-scale constant {small.best_C} != 0"
    large = poincare_constant(G, u, rho, lam=2.0, r=2.0)
    assert math.isinf(large.best_C), f"super-scale constant {large.best_C} finite"
    return f"best C = {small.best_C} at r=0.4, {large.best_C} at r=2"


@criterion(8, "quasiconvexity-upgrade constant: exact values, domain, monotonicity")
def test_c08_constant_ledger():
    for R in (0.1, 1.0, 10.0):
        assert c0_constant(1.0, R) == 1.0, f"C0(1, {R}) != 1"
    assert c0_constant(2.0, 0.1) == 3.0, f"C0(2, 0.1) = {c0_constant(2.0, 0.1)}"

    A_grid = np.linspace(1.0, 3.0, 20)
    R_grid = np.linspace(0.01, 0.6, 20)
    vals = {}
    defined = 0
    for i, A in enumerate(A_grid):
        for j, R in enumerate(R_grid):
            in_domain = 2 * Fraction(float(R)) * (Fraction(float(A)) - 1) < 1
            try:
                v = c0_constant(float(A), float(R))
            except InputError:
                assert not in_domain, f"spurious domain error at A={A}, R={R}"
                continue
            assert in_domain, f"missing domain error at A={A}, R={R}"
            vals[i, j] = v
            defined += 1
    for (i, j), v in vals.items():
        if (i + 1, j) in vals:
            assert vals[i + 1, j] >= v, f"not monotone in A at {i},{j}"
        if (i, j + 1) in vals:
            assert vals[i, j + 1] >= v, f"not monotone in R at {i},{j}"
    return f"exact anchors hold, {defined}/400 grid cells defined, monotone in A and R"


@criterion(9, "all-negligible carpet: metric collapse and non-unique extension")
def test_c09_carpet_degeneracy():
    G = gen_carpet(3, negligible_mode="all")
    ids = [int(v) for v in G.vertex_ids]
    De = distance_matrix(G, mask=G.positive_edge_mask())
    off = ~np.eye(len(ids), dtype=bool)
    assert np.all(np.isinf(De[off])), "some essential distance finite"
    assert essential_distance(G, ids[0], ids[-1]) == math.inf

    boundary = ids[:4]
    g = {v: float(k) for k, v in enumerate(boundary)}
    omega = [v for v in ids if v not in g]
    sol = infinity_harmonic_extend(G, omega, g)
    assert sol.converged
    assert set(sol.degenerate_vertices) == set(omega), "degeneracy not reported"
    assert all(math.isnan(sol.u[v]) for v in omega)

    prob = AMLEProblem(G, tuple(boundary), g, metric_choice="essential")
    fills = []
    for c in (0.0, 3.7):
        u = dict(g)
        u.update({v: c for v in omega})
        res = check_amle_local(u, prob)
        assert set(res) == set(omega)
        assert all(r == 0.0 for r in res.values()), f"fill {c} has residual"
        fills.append(u)
    assert fills[0] != fills[1]
    return (
        f"{len(ids)}x{len(ids)} essential distances infinite, {len(omega)} "
        f"degenerate vertices reported, two distinct fills both exactly local-0"
    )


@criterion(10, "solution independent of start; ordered data gives ordered solutions")
def test_c10_uniqueness_and_comparison():
    rng = np.random.default_rng(77)
    tol = 1e-11
    worst_gap = 0.0
    for _ in range(30):
        G = random_geometric_graph(rng, 100)
        bd = sorted(int(v) for v in rng.choice(100, size=35, replace=False))
        g1 = {v: float(rng.normal()) for v in bd}
        prob1 = AMLEProblem(G, tuple(bd), g1)
        lo = solve_amle(prob1, tol=tol, init="min")
        hi = solve_amle(prob1, tol=tol, init="max")
        assert lo.converged and hi.converged
        gap = max(abs(lo.u[v] - hi.u[v]) for v in range(100))
        worst_gap = max(worst_gap, gap)
        assert gap <= 10 * tol, f"init-dependent solution: gap {gap}"

        g2 = {v: g1[v] + abs(float(rng.normal())) for v in bd}
        sol2 = solve_amle(AMLEProblem(G, tuple(bd), g2), tol=tol)
        assert sol2.converged
        assert comparison_check(lo, sol2, tol=tol), "comparison principle violated"
    return f"30 problems, worst min/max-init gap {worst_gap:.2e} <= {10 * tol:.0e}"


@criterion(11, "reports byte-identical across 1, 4, and 8 threads")
def test_c11_determinism_across_threads():
    grid_spec = '{"kind": "grid", "h": 0.05, "rect": [0, 0, 1, 1]}'
    big_spec = '{"kind": "grid", "h": 0.02, "rect": [0, 0, 1, 1]}'

    def run_battery(root: Path) -> dict[str, bytes]:
        root.mkdir(parents=True)
        g = root / "g.json"
        big = root / "big.json"
        p11 = root / "p11.json"
        from mmgraph import save_graph

        save_graph(path_graph(11, edge_len=0.1), p11)
        b_csv = root / "b.csv"
        b_csv.write_text("vertex_id,value\n0,0.0\n10,1.0\n")
        u_csv = root / "u.csv"
        u_csv.write_text(
            "vertex_id,value\n" + "".join(f"{i},{i * 0.1}\n" for i in range(11))
        )
        rho_csv = root / "rho.csv"
        rho_csv.write_text(
            "vertex_id,value\n" + "".join(f"{i},1.0\n" for i in range(11))
        )
        f_csv = root / "f.csv"
        f_csv.write_text("vertex_id,v0,v1\n0,1.0,-0.5\n1,0.25,2.0\n21,0.0,1.0\n")
        battery = (
            ("gen", "--spec", grid_spec, "--out", g, "--report", root / "gen.json"),
            ("gen", "--spec", big_spec, "--out", big, "--report", root / "gen2.json"),
            ("audit", "--graph", g, "--report", root / "audit.json"),
            ("dist", "--graph", g, "--source", "0", "--target", "440",
             "--report", root / "dist.json"),
            ("essdist", "--graph", g, "--source", "0,1", "--target", "230",
             "--report", root / "essdist.json"),
            ("qc", "--graph", big, "--R", "inf", "--seed", "9",
             "--report", root / "qc.json", "--csv", root / "qc.csv"),
            ("doubling", "--graph", g, "--centers", "0,220,440", "--scales",
             "0.1,0.2,0.4", "--report", root / "doubling.json",
             "--csv", root / "doubling.csv"),
            ("pi-check", "--graph", p11, "--u", u_csv, "--rho", rho_csv,
             "--lam", "2.0", "--r", "1.0", "--report", root / "pi.json",
             "--csv", root / "pi.csv"),
            ("extend", "--graph", p11, "--boundary", b_csv, "--truncate",
             "--certify", "--out", root / "ext.csv", "--report", root / "ext.json"),
            ("whitney", "--graph", g, "--boundary", f_csv, "--certify",
             "--out", root / "wf.csv", "--report", root / "w.json"),
            ("amle", "--graph", p11, "--boundary", b_csv, "--whole-boundary",
             "--certify", "--out", root / "sol.csv", "--report", root / "amle.json"),
        )
        for argv in battery:
            code = cli_main([str(a) for a in argv])
            assert code == 0, f"{argv[0]} exited {code}"
        return {
            q.name: q.read_bytes()
            for q in sorted(root.iterdir())
            if q.suffix in (".json", ".csv")
        }

    old = os.environ.get("MMGRAPH_THREADS")
    outputs = {}
    try:
        with tempfile.TemporaryDirectory() as td:
            for threads in ("1", "4", "8"):
                os.environ["MMGRAPH_THREADS"] = threads
                outputs[threads] = run_battery(Path(td) / f"t{threads}")
    finally:
        if old is None:
            os.environ.pop("MMGRAPH_THREADS", None)
        else:
            os.environ["MMGRAPH_THREADS"] = old

    assert outputs["1"].keys() == outputs["4"].keys() == outputs["8"].keys()
    diffs = [
        name
        for name in outputs["1"]
        if not (outputs["1"][name] == outputs["4"][name] == outputs["8"][name])
    ]
    assert not diffs, f"artifacts differ across thread counts: {diffs}"
    n = len(outputs["1"])
    return f"{n} artifacts (reports, CSVs, graphs) byte-identical across 1/4/8 threads"

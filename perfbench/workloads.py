"""The three workloads: seeded inputs, one pass of program calls, checks.

A workload's ``setup`` turns a seed into inputs (meshes, fields, CSVs);
the program only ever sees those generated inputs.  ``run`` makes one
pass of calls in a closed loop (each call starts when the previous one
returned), timing the program calls per stage and checking every output
against the references in ``oracle``.  Reference values are cached per
run, because a pass repeats the same calls on the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import networkx as nx
import numpy as np

from oracle import (
    CheckFailed,
    GraphFile,
    KnownDefect,
    close,
    fsum_over,
    in_band,
    inside,
    local_residual,
    neighbours,
    nx_graph,
    oscillation,
    pair_distance,
    require,
    set_diameter,
    sssp,
)

LAM, R_POINCARE = 2.0, 0.1
HAJ_C, HAJ_R = 1.5, 0.05
AMLE_TOL = 1e-8
NAGATA_S = 0.1


class Pass:
    """One pass: program time per stage and the outcome of each operation.

    An operation is one group of program calls with its output check.  It
    fails when a call raises, a CLI exit code is not 0, or a check fails;
    the pass then goes on with the next operation.  Outputs that match a
    documented defect of the program are listed in ``known``, not failed.
    """

    def __init__(self, tracer=None, corrupt=()):
        self.stage_s: dict[str, float] = {}
        self.rung_s: dict[str, tuple[int, float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.known: list[str] = []
        self.tracer = tracer
        self.corrupt = set(corrupt)

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # counted in error_rate; the pass goes on
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def time(self, stage: str, fn, *args, **kwargs):
        scope = self.tracer.span("bench." + stage) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                return fn(*args, **kwargs)
        finally:
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + time.perf_counter() - t0

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


@dataclass
class Mesh:
    """A generated graph with the benchmark's own copy of its arrays."""

    graph: object
    ids: np.ndarray
    pos: np.ndarray
    mu: dict
    a: np.ndarray
    b: np.ndarray
    length: np.ndarray
    mu_edge: np.ndarray
    refs: dict = field(default_factory=dict)

    @classmethod
    def of(cls, G) -> "Mesh":
        edges = list(G.edges())
        return cls(
            graph=G,
            ids=np.asarray(G.vertex_ids).copy(),
            pos=np.asarray(G.pos).copy(),
            mu={int(v): float(m) for v, m in zip(G.vertex_ids, G.mu)},
            a=np.asarray([e.a for e in edges], dtype=np.int64),
            b=np.asarray([e.b for e in edges], dtype=np.int64),
            length=np.asarray([e.length for e in edges]),
            mu_edge=np.asarray([e.mu_edge for e in edges]),
        )

    def xy(self, vid: int) -> np.ndarray:
        return self.pos[int(np.searchsorted(self.ids, vid))]

    def ref(self, metric: str) -> nx.Graph:
        """networkx graph of the graph or essential metric (built once)."""
        if metric not in self.refs:
            keep = None if metric == "graph" else self.mu_edge > 0
            self.refs[metric] = nx_graph(self.a, self.b, self.length, keep, self.ids)
        return self.refs[metric]

    def nbrs(self, metric: str) -> dict:
        key = "nbrs-" + metric
        if key not in self.refs:
            keep = None if metric == "graph" else self.mu_edge > 0
            self.refs[key] = neighbours(self.a, self.b, self.length, keep)
        return self.refs[key]


def walled_grid(mg, h: float, rng) -> tuple[Mesh, float]:
    """Unit-square grid whose edges across a vertical wall have measure 0.

    The wall runs midway between the lattice column at x = 0.5 and the one
    left of it; edges inside a seeded gap 0.1 wide keep measure 1, so the
    essential metric stays connected through the gap only.
    """
    G = mg.MeshSpec.from_dict({"kind": "grid", "h": h, "rect": [0, 0, 1, 1]}).build()
    m = Mesh.of(G)
    wall = (math.floor(0.5 / h + 1e-9) - 0.5) * h
    gap_lo = float(rng.uniform(0.1, 0.8))
    ia, ib = np.searchsorted(m.ids, m.a), np.searchsorted(m.ids, m.b)
    xa, xb, ya, yb = m.pos[ia, 0], m.pos[ib, 0], m.pos[ia, 1], m.pos[ib, 1]
    cross = (np.minimum(xa, xb) < wall) & (np.maximum(xa, xb) > wall)
    in_gap = (np.minimum(ya, yb) >= gap_lo) & (np.maximum(ya, yb) <= gap_lo + 0.1)
    m.mu_edge = np.where(cross & ~in_gap, 0.0, 1.0)
    m.graph = mg.MetricMeasureGraph.from_arrays(
        m.ids, G.mu, m.pos, m.a, m.b, m.length, m.mu_edge
    )
    return m, wall


def on_square_boundary(pos: np.ndarray) -> np.ndarray:
    return (np.min(pos, axis=1) < 1e-9) | (np.max(pos, axis=1) > 1 - 1e-9)


def boundary_data(rng, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Seeded nonlinear AMLE boundary data.

    The Gauss-Seidel sweep count depends sharply on the shape of the data
    (it ranged over +-20% for freely drawn sines), so the seed only shifts
    the phase a little: sweep counts then stay within a few percent and
    timings compare across seeds.
    """
    return np.sin(3.5 * x + rng.uniform(0, 0.05)) + y ** 2 + 0.5 * x * y


def as_field(ids, values) -> dict[int, float]:
    return {int(v): float(x) for v, x in zip(ids, values)}


class Inputs(SimpleNamespace):
    """A workload's generated inputs, plus reference values cached per run."""

    def __init__(self, **inputs):
        super().__init__(cache={}, **inputs)

    def memo(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]


def check_measure(value: float, mu: dict, dist: dict, r: float, what: str) -> bool:
    """True when ``value`` is mu of the open ball under the exact predicate;
    False when it only matches up to boundary rounding; raises otherwise."""
    exact, definite, possible = inside(dist, r)
    if close(value, fsum_over(mu, exact), rel=1e-12):
        return True
    require(
        in_band(value, fsum_over(mu, definite), fsum_over(mu, possible)),
        f"{what}: measure {value} != reference {fsum_over(mu, exact)}",
    )
    return False


# -- diagnose ---------------------------------------------------------------------


class Diagnose:
    """Analysis and the distance kernel on a walled grid and a cusp."""

    name = "diagnose"
    threads = 1
    stages = ("poincare_s", "qc_s", "hajlasz_s", "geodesic_s", "doubling_s")
    sizes = {
        "full": dict(h=1 / 36, cusp_h=1 / 16, pairs=200, centres=64, rows=100, sources=10),
        "tiny": dict(h=1 / 10, cusp_h=1 / 4, pairs=10, centres=4, rows=20, sources=3),
    }

    def __init__(self, mg):
        self.mg = mg

    def setup(self, seed: int, size: str, work: str) -> Inputs:
        mg, cfg = self.mg, self.sizes[size]
        rng = np.random.default_rng(seed)
        m, wall = walled_grid(mg, cfg["h"], rng)
        x, y = m.pos[:, 0], m.pos[:, 1]
        jump, amp = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.3)
        k1, k2, ph = rng.uniform(1, 3), rng.uniform(1, 3), rng.uniform(0, 2 * math.pi)
        u = as_field(m.ids, jump * (x > wall) + amp * np.sin(2 * math.pi * (k1 * x + k2 * y) + ph))
        rho = as_field(m.ids, 0.5 + rng.random(m.ids.size))
        cusp = Mesh.of(mg.MeshSpec.from_dict(
            {"kind": "cusp", "psi": "exp", "h": cfg["cusp_h"]}).build())
        tip = int(cusp.ids[np.lexsort((cusp.ids, cusp.pos[:, 0]))[0]])
        others = cusp.ids[cusp.ids != tip]
        centres = [tip] + sorted(int(v) for v in rng.choice(others, cfg["centres"], replace=False))
        pairs = []
        while len(pairs) < cfg["pairs"]:
            a, b = (int(v) for v in rng.choice(m.ids, 2))
            if a != b:
                pairs.append((a, b))
        radii = [R_POINCARE / 2 ** k for k in range(4)]
        rows = [(int(c), radii[int(k)]) for c, k in zip(
            rng.choice(m.ids, cfg["rows"]), rng.integers(0, 4, cfg["rows"]))]
        return Inputs(
            mesh=m, u=u, rho=rho, cusp=cusp, centres=centres,
            scales=[2 * cfg["cusp_h"], 4 * cfg["cusp_h"], 8 * cfg["cusp_h"]],
            pairs=pairs, rows=rows,
            sources=sorted(int(v) for v in rng.choice(m.ids[:-1], cfg["sources"], replace=False)),
        )

    def run(self, inp: Inputs, p: Pass) -> None:
        mg, G = self.mg, inp.mesh.graph
        with p.op("poincare"):
            rep = p.time("poincare_s", mg.poincare_constant, G, inp.u, inp.rho,
                         lam=LAM, r=R_POINCARE)
            if "poincare" in p.corrupt:
                # A real oscillation on a zero-diameter ball is not the
                # known round-off defect and must fail.
                rows = list(rep.rows)
                k = next(i for i, r in enumerate(rows) if math.isinf(r.C))
                rows[k] = replace(rows[k], oscillation=1e-3)
                rep = replace(rep, rows=tuple(rows))
            self.check_poincare(inp, rep, p)
        for metric in ("graph", "essential"):
            with p.op(f"qc.{metric}"):
                rep = p.time("qc_s", mg.quasiconvexity_constant, G, "euclidean",
                             math.inf, metric)
                self.check_qc(inp, rep, metric)
        with p.op("hajlasz"):
            g = p.time("hajlasz_s", mg.hajlasz_gradient_from_upper, G, inp.rho, HAJ_C, HAJ_R)
            bad = p.time("hajlasz_s", mg.verify_hajlasz, G, inp.u, g, HAJ_R)
            self.check_hajlasz(inp, g, bad)
        for a, b in inp.pairs:
            with p.op("geodesic"):
                path = p.time("geodesic_s", mg.shortest_path, G, a, b, edge_filter="positive")
                d = p.time("geodesic_s", mg.essential_distance, G, a, b)
                self.check_geodesic(inp, a, b, path, d)
        with p.op("doubling"):
            rep = p.time("doubling_s", mg.doubling_ratios, inp.cusp.graph, inp.centres, inp.scales)
            self.check_doubling(inp, rep)

    # checks

    def check_poincare(self, inp: Inputs, rep, p: Pass) -> None:
        m = inp.mesh
        rows = {(r.center, r.radius): r for r in rep.rows}
        require(rep.balls_checked == len(rep.rows) == 4 * m.ids.size,
                f"{rep.balls_checked} balls for {m.ids.size} centres")
        checked = set(inp.rows) | {k for k, r in rows.items() if math.isinf(r.C)}
        bad, known = [], []
        for key in sorted(checked):
            try:
                require(key in rows, f"no row for ball {key}")
                self.check_ball(inp, rows[key])
            except CheckFailed as exc:
                bad.append(str(exc))
            except KnownDefect as exc:
                known.append(str(exc))
        require(not bad, f"{len(bad)} of {len(checked)} checked balls disagree, first {bad[:1]}")
        if known:
            p.known.append(f"poincare: {len(known)} one-vertex balls get C = inf where the "
                           f"exact C is 0, first {known[0]}")

    def check_ball(self, inp: Inputs, row) -> None:
        m, c, rad = inp.mesh, row.center, row.radius
        what = f"ball({c}, {rad})"
        dist = inp.memo(("ball", c, rad), lambda: sssp(m.ref("graph"), c, LAM * rad * (1 + 1e-9)))
        if not check_measure(row.measure, m.mu, dist, rad, what):
            return  # membership differs only by boundary rounding
        members = inside(dist, rad)[0]
        osc = oscillation(m.mu, inp.u, members)
        require(close(row.oscillation, osc, rel=1e-9, abs_=1e-15),
                f"{what}: oscillation {row.oscillation}, reference {osc}")
        exact, definite, possible = inside(dist, LAM * rad)
        sup_rho = max(inp.rho[v] for v in exact)
        if row.sup_rho != sup_rho:
            require(max(inp.rho[v] for v in definite) <= row.sup_rho
                    <= max(inp.rho[v] for v in possible),
                    f"{what}: sup rho {row.sup_rho}, reference {sup_rho}")
            sup_rho = row.sup_rho
        if osc == 0:
            want = 0.0
            if (math.isinf(row.C) and len(members) == 1 and row.diameter == 0
                    and 0 < row.oscillation <= 1e-15):
                # poincare_constant rounds the mean of a one-vertex ball
                # to a tiny nonzero oscillation and divides it by the
                # zero diameter; every other field of the row is right.
                raise KnownDefect(f"{what}: C = inf, reference 0.0 "
                                  f"(oscillation {row.oscillation:.3g} from round-off)")
        else:
            diam = inp.memo(("diam", c, rad),
                            lambda: set_diameter(m.ref("graph"), members, 2 * rad))
            require(close(row.diameter, diam), f"{what}: diameter {row.diameter}, reference {diam}")
            den = diam * sup_rho
            want = math.inf if den <= 0 else osc / den
        require(close(row.C, want), f"{what}: C = {row.C}, reference {want}")

    def check_qc(self, inp: Inputs, rep, metric: str) -> None:
        m = inp.mesh
        n = m.ids.size
        require(rep.exhaustive == (n <= 2000), f"exhaustive = {rep.exhaustive} at n = {n}")
        if rep.exhaustive:
            require(rep.samples == n * (n - 1) // 2, f"{rep.samples} pairs scanned")
        require(rep.C >= 1, f"C = {rep.C} < 1")
        ref = m.ref(metric)
        if rep.worst_pair is not None:
            a, b = rep.worst_pair
            amb = float(np.linalg.norm(m.xy(a) - m.xy(b)))
            want = inp.memo(("pair", metric, a, b), lambda: pair_distance(ref, a, b)) / amb
            require(close(rep.C, want), f"C = {rep.C}, reference {want}")
        by_source = {r.source: r for r in rep.rows}
        for s in inp.sources:
            dist = inp.memo(("sssp", metric, s), lambda: sssp(ref, s))
            targets = m.ids[m.ids > s]
            amb = np.linalg.norm(m.pos[np.searchsorted(m.ids, targets)] - m.xy(s), axis=1)
            ratios = np.asarray([dist.get(int(t), math.inf) for t in targets]) / amb
            want = float(np.max(ratios))
            require(s in by_source and close(by_source[s].ratio, want),
                    f"worst ratio from {s}: reference {want}")

    def check_hajlasz(self, inp: Inputs, g: dict, bad: list) -> None:
        m = inp.mesh
        require(set(g) == set(int(v) for v in m.ids), "gradient misses vertices")
        reach = HAJ_C * HAJ_R
        found: dict[int, set] = {}
        for rec in bad:
            found.setdefault(rec["x"], set()).add(rec["y"])
        for x in inp.sources:
            dist = inp.memo(("haj", x), lambda: sssp(m.ref("graph"), x, reach * (1 + 1e-9)))
            exact, definite, possible = inside(dist, reach, closed=True)
            want = HAJ_C * max(inp.rho[v] for v in exact)
            if g[x] != want:
                lo = HAJ_C * max(inp.rho[v] for v in definite)
                hi = HAJ_C * max(inp.rho[v] for v in possible)
                require(lo <= g[x] <= hi, f"g({x}) = {g[x]}, reference {want}")
            sure, maybe = set(), set()
            for y, d in dist.items():
                if y <= x:
                    continue
                lhs = abs(inp.u[y] - inp.u[x])
                rhs = d * (g[x] + g[y])
                slack = 1e-12 * (1 + rhs)
                if d < HAJ_R * (1 - 1e-12) and lhs > rhs + 1e-9 + slack:
                    sure.add(y)
                if d < HAJ_R * (1 + 1e-12) and lhs > rhs + 1e-9 - slack:
                    maybe.add(y)
            got = found.get(x, set())
            require(sure <= got <= maybe, f"violations from {x}: {sorted(got ^ sure)[:5]}")

    def check_geodesic(self, inp: Inputs, a: int, b: int, path, d: float) -> None:
        ref = inp.mesh.ref("essential")
        want = inp.memo(("pair", "essential", a, b), lambda: pair_distance(ref, a, b))
        require(close(path.length, want, rel=1e-12), f"path {a}-{b}: {path.length} != {want}")
        require(close(d, want, rel=1e-12), f"essential_distance {a}-{b}: {d} != {want}")
        seq = path.vertex_sequence
        if math.isfinite(want):
            require(seq[0] == a and seq[-1] == b, f"path {a}-{b} has wrong ends")
            require(all(ref.has_edge(x, y) for x, y in zip(seq, seq[1:])),
                    f"path {a}-{b} leaves the essential graph")
            walked = math.fsum(ref[x][y]["weight"] for x, y in zip(seq, seq[1:]))
            require(close(walked, path.length, rel=1e-12), f"path {a}-{b} length mismatch")

    def check_doubling(self, inp: Inputs, rep) -> None:
        cusp = inp.cusp
        keys = list(itertools.product(inp.centres, inp.scales))
        require([(r.center, r.r) for r in rep.rows] == keys, "doubling rows out of order")
        reach = 2 * max(inp.scales) * (1 + 1e-9)
        for row in rep.rows:
            c = row.center
            dist = inp.memo(("dbl", c), lambda: sssp(cusp.ref("graph"), c, reach))
            check_measure(row.inner_measure, cusp.mu, dist, row.r, f"B({c}, {row.r})")
            check_measure(row.outer_measure, cusp.mu, dist, 2 * row.r, f"B({c}, {2 * row.r})")
            want = row.outer_measure / row.inner_measure if row.inner_measure > 0 else math.inf
            require(row.ratio == want, f"doubling ratio at {c}, {row.r}")


# -- solve ---------------------------------------------------------------------------


class Solve:
    """AMLE and the extension operators on a walled grid."""

    name = "solve"
    threads = 1
    stages = ("amle_s", "extend_s", "whitney_s", "nagata_s")
    sizes = {"full": dict(h=1 / 32), "tiny": dict(h=1 / 10)}

    def __init__(self, mg):
        self.mg = mg

    def setup(self, seed: int, size: str, work: str) -> Inputs:
        rng = np.random.default_rng(seed)
        m, _ = walled_grid(self.mg, self.sizes[size]["h"], rng)
        x, y = m.pos[:, 0], m.pos[:, 1]
        bd_mask = on_square_boundary(m.pos)
        bd = tuple(int(v) for v in m.ids[bd_mask])
        g = as_field(m.ids[bd_mask], boundary_data(rng, x, y)[bd_mask])
        cx, cy = rng.uniform(0.3, 0.7, 2)
        om_mask = (x - cx) ** 2 + (y - cy) ** 2 < 0.15 ** 2
        omega = [int(v) for v in m.ids[om_mask]]
        k2, k3, ph = rng.uniform(1, 4), rng.uniform(1, 4), rng.uniform(0, 2 * math.pi)
        gg = as_field(m.ids[~om_mask], (np.cos(k2 * x) * y + 0.5 * x)[~om_mask])
        vf = {int(v): (float(np.sin(k3 * xv + ph)), float(np.cos(k2 * yv)))
              for v, xv, yv in zip(m.ids[om_mask], x[om_mask], y[om_mask])}
        return Inputs(mesh=m, bd=bd, g=g, omega=omega, gg=gg, vf=vf)

    def run(self, inp: Inputs, p: Pass) -> None:
        mg, m = self.mg, inp.mesh
        G = m.graph
        interior = [int(v) for v in m.ids if int(v) not in inp.g]
        with p.op("amle.graph"):
            prob = p.time("amle_s", mg.AMLEProblem, G, inp.bd, inp.g, "graph")
            sol = p.time("amle_s", mg.solve_amle, prob, tol=AMLE_TOL)
            local = p.time("amle_s", mg.check_amle_local, sol.u, prob)
            if "amle" in p.corrupt:
                sol.u[interior[len(interior) // 2]] += 1e-3
            self.check_amle(sol, inp.g, interior, m.nbrs("graph"))
            require(max(local.values()) <= 10 * AMLE_TOL, "check_amle_local above 10 tol")
        with p.op("amle.bracket"):
            prob = p.time("amle_s", mg.AMLEProblem, G, inp.bd, inp.g, "essential")
            lo = p.time("amle_s", mg.solve_amle, prob, tol=AMLE_TOL, init="min")
            hi = p.time("amle_s", mg.solve_amle, prob, tol=AMLE_TOL, init="max")
            ordered = p.time("amle_s", mg.comparison_check, lo, hi)
            for sol in (lo, hi):
                self.check_amle(sol, inp.g, interior, m.nbrs("essential"))
            require(ordered, "min-init solution exceeds max-init solution")
            gap = max(abs(lo.u[v] - hi.u[v]) for v in interior)
            require(gap <= 10 * AMLE_TOL, f"min/max bracket gap {gap} > 10 tol")
        with p.op("amle.interior"):
            sol = p.time("amle_s", mg.infinity_harmonic_extend, G, inp.omega, inp.gg, tol=AMLE_TOL)
            require(all(sol.u[v] == val for v, val in inp.gg.items()), "data changed outside Omega")
            self.check_amle(sol, inp.gg, inp.omega, m.nbrs("essential"))
        with p.op("extend"):
            ext = p.time("extend_s", mg.truncate_extend, G, inp.bd, inp.g)
            lip_bd = p.time("extend_s", mg.lipschitz_constant, G, inp.g)
            lip_ext = p.time("extend_s", mg.lipschitz_constant, G, ext)
            self.check_extension(inp, ext, lip_bd, lip_ext)
        with p.op("whitney"):
            cover = p.time("whitney_s", mg.whitney_cover, G, inp.omega)
            F = p.time("whitney_s", mg.whitney_extend, G, inp.omega, inp.vf, cover)
            lip = p.time("whitney_s", mg.vector_lipschitz_constant, G, F)
            self.check_whitney(inp, cover, F, lip)
        with p.op("nagata"):
            nc = p.time("nagata_s", mg.nagata_cover, G, NAGATA_S)
            self.check_nagata(inp, nc)

    @staticmethod
    def check_amle(sol, data: dict, interior, nbrs) -> None:
        require(sol.converged and sol.residual <= AMLE_TOL,
                f"residual {sol.residual} after {sol.iterations} sweeps")
        require(not sol.degenerate_vertices, "unexpected degenerate vertices")
        require(all(sol.u[v] == val for v, val in data.items() if v in sol.u),
                "solution differs from the boundary data")
        res = local_residual(sol.u, interior, nbrs)
        require(res <= 10 * AMLE_TOL, f"recomputed local residual {res} > 10 tol")

    def check_extension(self, inp: Inputs, ext: dict, lip_bd: float, lip_ext: float) -> None:
        m, g = inp.mesh, inp.g
        require(all(ext[v] == val for v, val in g.items()), "extension changes the data")
        require(lip_ext <= lip_bd + 1e-9, f"Lipschitz {lip_ext} > data {lip_bd}")
        sup = max(abs(v) for v in g.values())
        require(max(abs(v) for v in ext.values()) == sup, "sup-norm not preserved")

        def brute_lip():
            ref, best = m.ref("graph"), 0.0
            for x in g:
                dist = sssp(ref, x)
                best = max([best] + [abs(g[x] - g[y]) / dist[y] for y in g if y != x])
            return best

        want = inp.memo("lip_bd", brute_lip)
        require(close(lip_bd, want), f"data Lipschitz {lip_bd}, reference {want}")
        ea = np.asarray([ext[int(v)] for v in m.a])
        eb = np.asarray([ext[int(v)] for v in m.b])
        require(bool(np.all(np.abs(ea - eb) <= lip_bd * m.length + 1e-9)),
                "an edge is steeper than the data's Lipschitz constant")

    def check_whitney(self, inp: Inputs, cover, F, lip: float) -> None:
        m, om = inp.mesh, set(inp.omega)
        exterior = {int(v) for v in m.ids} - om
        members = [v for block in cover.blocks for v in block]
        require(len(members) == len(set(members)) and set(members) == exterior,
                "blocks do not partition the exterior")
        require(set(cover.sigma) == exterior, "partition of unity misses vertices")
        sizes = [len(s) for s in cover.sigma.values()]
        require(cover.multiplicity == max(sizes), f"multiplicity {cover.multiplicity} != {max(sizes)}")
        require(all(w > 0 for s in cover.sigma.values() for _, w in s), "nonpositive weight")
        require(all(F.values[v] == tuple(inp.vf[v]) for v in om), "extension changes the data")
        for vid, support in cover.sigma.items():
            total = math.fsum(w for _, w in support)
            for k in range(2):
                want = math.fsum(w / total * inp.vf[cover.anchors[bi]][k] for bi, w in support)
                require(close(F.values[vid][k], want, rel=1e-12),
                        f"F({vid}) is not the partition-of-unity average")
        def sup(values):
            return max(max(abs(c) for c in v) for v in values)

        require(sup(F.values.values()) <= sup(inp.vf.values()) + 1e-12,
                "Whitney extension exceeds the data sup-norm")
        require(math.isfinite(lip) and lip > 0, f"vector Lipschitz constant {lip}")

    def check_nagata(self, inp: Inputs, nc) -> None:
        m = inp.mesh
        pts = [v for s in nc.sets for v in s]
        require(sorted(pts) == sorted(int(v) for v in m.ids), "cover sets do not partition")
        for s in nc.sets:
            diam = inp.memo(("nagata", s), lambda: set_diameter(m.ref("graph"), s, 2 * NAGATA_S))
            require(diam <= 2 * NAGATA_S + 1e-9, f"cover set diameter {diam} > 2s")
        require(nc.probe_stats["probes"] == m.ids.size and nc.n >= 0, "probe statistics")


# -- cli ---------------------------------------------------------------------------------


class Cli:
    """The mmgraph CLI end to end, called in-process through ``cli.main``."""

    name = "cli"
    threads = 2
    stages = ("gen_s", "query_s", "extend_s", "qc_s", "amle_s")
    sizes = {
        "full": dict(ladder=[1 / 32, 1 / 64, 1 / 128], cusp_h=1 / 16, carpet=4,
                     collapsed_h=1 / 64, extend_h=1 / 48),
        "tiny": dict(ladder=[1 / 8, 1 / 16, 1 / 32], cusp_h=1 / 8, carpet=2,
                     collapsed_h=1 / 16, extend_h=1 / 12),
    }

    def __init__(self, mg):
        self.mg = mg

    def setup(self, seed: int, size: str, work: str) -> Inputs:
        mg, cfg = self.mg, self.sizes[size]
        rng = np.random.default_rng(seed)
        specs = [(f"grid{round(1 / h)}", {"kind": "grid", "h": h, "rect": [0, 0, 1, 1]})
                 for h in cfg["ladder"]]
        e = [[round(float(c), 6) for c in rng.uniform(0.2, 0.8, 2)] for _ in range(2)]
        specs += [
            ("cusp", {"kind": "cusp", "psi": "exp", "h": cfg["cusp_h"]}),
            ("carpet", {"kind": "carpet", "level": cfg["carpet"], "negligible_mode": "all"}),
            ("collapsed", {"kind": "collapsed", "h": cfg["collapsed_h"], "e": e,
                           "box": [0, 0, 1, 1]}),
        ]
        ends = {name: tuple(float(f) for f in rng.random(2)) for name, _ in specs}
        extend_spec = {"kind": "grid", "h": cfg["extend_h"], "rect": [0, 0, 1, 1]}
        files = {}
        for spec, key in ((extend_spec, "extend"), (specs[0][1], "amle")):
            G = mg.MeshSpec.from_dict(spec).build()
            pos, ids = G.pos, G.vertex_ids
            sel = on_square_boundary(pos)
            if key == "extend":
                c = rng.uniform(0.3, 0.7, 2)
                sel |= np.max(np.abs(pos - c), axis=1) < 0.1
            data = as_field(ids[sel], boundary_data(rng, pos[:, 0], pos[:, 1])[sel])
            path = os.path.join(work, f"{key}_boundary.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("vertex_id,value\n")
                fh.writelines(f"{v},{val!r}\n" for v, val in sorted(data.items()))
            files[key] = (path, data)
        return Inputs(specs=specs, ends=ends, work=work, files=files,
                      extend_spec=extend_spec, small=specs[0][0],
                      ladder=[s[0] for s in specs[:3]])

    def cli(self, p: Pass, stage: str, argv: list[str]) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = p.time(stage, self.mg.cli.main, argv)
            except SystemExit as exc:
                rc = exc.code
        require(rc == 0, f"mmgraph {argv[0]} exited {rc}: {err.getvalue().strip()[:200]}")

    def run(self, inp: Inputs, p: Pass) -> None:
        work = inp.work
        report = os.path.join(work, "report.json")
        for name, spec in inp.specs:
            gpath = os.path.join(work, f"{name}.json")
            start = p.wall_s
            with p.op(f"gen.{name}"):
                self.cli(p, "gen_s", ["gen", "--spec", json.dumps(spec), "--out", gpath,
                                      "--report", report])
                self.check_gen(inp, name, gpath, read_json(report))
            with p.op(f"audit.{name}"):
                self.cli(p, "query_s", ["audit", "--graph", gpath, "--report", report])
                self.check_audit(inp, name, read_json(report))
            with p.op(f"essdist.{name}"):
                ref, src, _ = self.ends(inp, name)
                out = os.path.join(work, "essdist.csv")
                self.cli(p, "query_s", ["essdist", "--graph", gpath, "--source", str(src),
                                        "--out", out])
                got = read_values(out)
                want = inp.memo(("ess", name), lambda: sssp(ref.essential, src))
                require(len(got) == ref.n_vertices, "essdist row count")
                require(all(close(got[v], want.get(v, math.inf), rel=1e-12) for v in ref.ids),
                        f"essdist on {name} disagrees with the reference")
            with p.op(f"dist.{name}"):
                ref, src, tgt = self.ends(inp, name)
                self.cli(p, "query_s", ["dist", "--graph", gpath, "--source", str(src),
                                        "--target", str(tgt), "--report", report])
                self.check_dist(inp, name, ref, src, tgt, read_json(report))
            if ("graph", name) in inp.cache:
                p.rung_s[name] = (inp.cache[("graph", name)].n_vertices, p.wall_s - start)
        self.run_tasks(inp, p, report)

    @staticmethod
    def ends(inp: Inputs, name: str):
        """The parsed graph and the seeded source and target ids on it."""
        ref = inp.cache[("graph", name)]
        f_src, f_tgt = inp.ends[name]
        n = ref.n_vertices
        return ref, ref.ids[int(f_src * n)], ref.ids[int(f_tgt * n)]

    def run_tasks(self, inp: Inputs, p: Pass, report: str) -> None:
        work = inp.work
        grid = os.path.join(work, "extend_grid.json")
        small = os.path.join(work, f"{inp.small}.json")
        with p.op("gen.extend_grid"):
            self.cli(p, "gen_s", ["gen", "--spec", json.dumps(inp.extend_spec), "--out", grid,
                                  "--report", report])
            self.check_gen(inp, "extend_grid", grid, read_json(report))
        with p.op("extend"):
            path, data = inp.files["extend"]
            out = os.path.join(work, "extend.csv")
            self.cli(p, "extend_s", ["extend", "--graph", grid, "--boundary", path, "--truncate",
                                     "--certify", "--out", out, "--report", report])
            self.check_extend(inp.cache[("graph", "extend_grid")], data, read_values(out),
                              read_json(report))
        with p.op("qc"):
            self.cli(p, "qc_s", ["qc", "--graph", small, "--report", report,
                                 "--csv", os.path.join(work, "qc.csv")])
            self.check_qc(inp, read_json(report))
        with p.op("amle"):
            path, data = inp.files["amle"]
            out = os.path.join(work, "amle.csv")
            self.cli(p, "amle_s", ["amle", "--graph", small, "--boundary", path,
                                   "--whole-boundary", "--certify", "--tol", repr(AMLE_TOL),
                                   "--out", out, "--report", report])
            u = read_values(out)
            ref = inp.cache[("graph", inp.small)]
            interior = [v for v in ref.ids if v not in data]
            if "amle" in p.corrupt:
                u[interior[len(interior) // 2]] += 1e-3
            rep = read_json(report)
            require(rep["converged"] and rep["certified"] and rep["residual"] <= AMLE_TOL
                    and rep["local_residual"] <= 10 * AMLE_TOL, f"amle report {rep}")
            require(all(u[v] == val for v, val in data.items()), "amle changes the data")
            nbrs = inp.memo(("nbrs", inp.small), lambda: neighbours(ref.a, ref.b, ref.len))
            res = local_residual(u, interior, nbrs)
            require(res <= 10 * AMLE_TOL, f"recomputed local residual {res} > 10 tol")

    # checks

    def check_gen(self, inp: Inputs, name: str, path: str, rep: dict) -> None:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        first = inp.cache.setdefault(("sha", name), digest)
        require(digest == first, f"{name}: graph file differs between passes")
        ref = inp.memo(("graph", name), lambda: GraphFile(path))
        require(rep["n_vertices"] == ref.n_vertices and rep["n_edges"] == ref.n_edges,
                f"{name}: report counts disagree with the file")
        require(close(rep["total_measure"], math.fsum(ref.mu.values()), rel=1e-12),
                f"{name}: total measure")

    def check_audit(self, inp: Inputs, name: str, rep: dict) -> None:
        ref = inp.cache[("graph", name)]
        comps = inp.memo(("comps", name), lambda: (
            nx.number_connected_components(ref.graph),
            nx.number_connected_components(ref.essential)))
        want = {
            "n_vertices": ref.n_vertices,
            "n_edges": ref.n_edges,
            "negligible_edge_count": int(np.sum(ref.mu_edge == 0)),
            "components_graph_metric": comps[0],
            "components_essential_metric": comps[1],
            "zero_measure_vertices": sum(1 for x in ref.mu.values() if x <= 0),
            "valid": True,
        }
        got = {k: rep.get(k) for k in want}
        require(got == want, f"audit of {name}: {got} != {want}")

    def check_dist(self, inp, name, ref: GraphFile, src, tgt, rep) -> None:
        want = inp.memo(("dist", name), lambda: pair_distance(ref.graph, src, tgt))
        require(close(rep["distance"], want, rel=1e-12), f"dist on {name}: {rep['distance']} != {want}")
        seq = rep["path"]
        require(seq[0] == src and seq[-1] == tgt, f"dist path on {name} has wrong ends")
        require(all(ref.graph.has_edge(x, y) for x, y in zip(seq, seq[1:])),
                f"dist path on {name} is not a path")
        walked = math.fsum(ref.graph[x][y]["weight"] for x, y in zip(seq, seq[1:]))
        require(close(walked, rep["distance"], rel=1e-12), f"dist path length on {name}")

    @staticmethod
    def check_extend(ref: GraphFile, data: dict, out: dict, rep: dict) -> None:
        require(rep.get("certified") is True, "extend not certified")
        require(all(out[v] == val for v, val in data.items()), "extension changes the data")
        sup = max(abs(v) for v in data.values())
        require(max(abs(v) for v in out.values()) == sup == rep["sup_norm"],
                "sup-norm not preserved")
        lip = rep["lip_boundary"]
        require(rep["lip_extension"] <= lip + 1e-9, "extension Lipschitz above the data's")
        ea = np.asarray([out[int(v)] for v in ref.a])
        eb = np.asarray([out[int(v)] for v in ref.b])
        require(bool(np.all(np.abs(ea - eb) <= lip * ref.len + 1e-9)),
                "an edge is steeper than the data's Lipschitz constant")

    def check_qc(self, inp: Inputs, rep: dict) -> None:
        ref = inp.cache[("graph", inp.small)]
        n = ref.n_vertices
        require(rep["exhaustive"] and rep["samples"] == n * (n - 1) // 2,
                f"qc scanned {rep['samples']} pairs")
        a, b = rep["worst_pair"]
        amb = math.dist(ref.pos[a], ref.pos[b])
        want = inp.memo(("qcpair", a, b), lambda: pair_distance(ref.graph, a, b)) / amb
        require(rep["C"] >= 1 and close(rep["C"], want), f"qc C = {rep['C']}, reference {want}")


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_values(path: str) -> dict[int, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {int(r[0]): float(r[1]) for r in rows[1:]}


WORKLOADS = {w.name: w for w in (Diagnose, Solve, Cli)}

"""Metric and measure diagnostics on metric measure graphs.

The central object is the essential metric: the shortest-path metric of
the subgraph of positive-measure edges.  Deleting the zero-measure edges
is the worst case over families of negligible curves on a finite graph,
so the essential distance always dominates the plain graph distance.

The rest of the module measures quantitative regularity: quasiconvexity
constants against an ambient metric, doubling ratios, a weak (1, inf)
Poincare constant up to a scale, and the pointwise transfers between
upper-gradient style data and Hajlasz gradients.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph import Ball, Metric, MetricMeasureGraph, _distance_rows
from .util import InputError, LENGTH_TOL

#: Scalar and gradient fields are plain mappings vertex id -> value.
ScalarField = Mapping[int, float]
GradientField = Mapping[int, float]


@dataclass(frozen=True)
class NegligibleMark:
    """Indices of the zero-measure edges of a graph."""

    edge_indices: tuple[int, ...]


def _csv_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([x if isinstance(x, int) else repr(float(x)) for x in row])
    return buf.getvalue()


@dataclass(frozen=True)
class QCRow:
    """Worst pair found from one source vertex: ratio = chosen / ambient."""

    source: int
    target: int
    ambient: float
    chosen: float
    ratio: float


@dataclass(frozen=True)
class QuasiconvexityReport:
    """Measured quasiconvexity constant for pairs within ambient radius R.

    ``C`` is the largest chosen-metric/ambient ratio seen (``inf`` when a
    finite-ambient pair is disconnected in the chosen metric), and
    ``worst_pair`` realizes it.  When ``exhaustive`` is false the scan was
    a seeded random sample and ``C`` is only a lower bound.  ``rows``
    holds the worst pair per scanned source vertex; the full pair set is
    quadratic and is not retained.
    """

    C: float
    R: float
    worst_pair: tuple[int, int] | None
    samples: int
    exhaustive: bool
    metric_choice: str
    seed: int | None = None
    rows: tuple[QCRow, ...] = ()

    def to_dict(self) -> dict:
        return {
            "C": self.C,
            "R": self.R,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "samples": self.samples,
            "exhaustive": self.exhaustive,
            "metric_choice": self.metric_choice,
            "seed": self.seed,
        }

    def to_csv(self) -> str:
        return _csv_table(
            ("source", "target", "ambient", "chosen", "ratio"),
            [(r.source, r.target, r.ambient, r.chosen, r.ratio) for r in self.rows],
        )


@dataclass(frozen=True)
class DoublingRow:
    center: int
    r: float
    inner_measure: float
    outer_measure: float
    ratio: float


@dataclass(frozen=True)
class DoublingReport:
    """Ratios mu(B(c, 2r)) / mu(B(c, r)), one row per (center, r)."""

    rows: tuple[DoublingRow, ...]

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "center": row.center,
                    "r": row.r,
                    "inner_measure": row.inner_measure,
                    "outer_measure": row.outer_measure,
                    "ratio": row.ratio,
                }
                for row in self.rows
            ]
        }

    def to_csv(self) -> str:
        return _csv_table(
            ("center", "r", "inner_measure", "outer_measure", "ratio"),
            [
                (r.center, r.r, r.inner_measure, r.outer_measure, r.ratio)
                for r in self.rows
            ],
        )


@dataclass(frozen=True)
class PoincareRow:
    """One checked ball.  ``C`` is nan for skipped zero-measure balls;
    ``diameter`` is nan when the oscillation vanished and the diameter was
    never needed."""

    center: int
    radius: float
    measure: float
    oscillation: float
    sup_rho: float
    diameter: float
    C: float


@dataclass(frozen=True)
class PoincareReport:
    """Best constant for the weak (1, inf) Poincare inequality up to scale r.

    ``best_C`` is the supremum over sampled balls of radius <= r of
    (mu-weighted mean of |u - u_B|) / (diam(B) * max rho over lam*B).
    Zero-measure balls are skipped and counted.  ``rows`` holds one entry
    per checked ball.
    """

    lam: float
    r: float
    best_C: float
    witness_ball: Ball | None
    radii: tuple[float, ...]
    exhaustive_radii: bool
    balls_checked: int
    skipped_zero_measure: int
    rows: tuple[PoincareRow, ...] = ()

    def to_dict(self) -> dict:
        wb = None
        if self.witness_ball is not None:
            wb = {
                "center": self.witness_ball.center,
                "radius": self.witness_ball.radius,
                "members": list(self.witness_ball.members),
                "measure": self.witness_ball.measure,
            }
        return {
            "lambda": self.lam,
            "r": self.r,
            "best_C": self.best_C,
            "witness_ball": wb,
            "radii": list(self.radii),
            "exhaustive_radii": self.exhaustive_radii,
            "balls_checked": self.balls_checked,
            "skipped_zero_measure": self.skipped_zero_measure,
        }

    def to_csv(self) -> str:
        return _csv_table(
            (
                "center", "radius", "measure", "oscillation", "sup_rho",
                "diameter", "C",
            ),
            [
                (
                    r.center, r.radius, r.measure, r.oscillation, r.sup_rho,
                    r.diameter, r.C,
                )
                for r in self.rows
            ],
        )


# -- essential metric ------------------------------------------------------


def negligible_edges(G: MetricMeasureGraph) -> NegligibleMark:
    """Mark the edges whose measure is zero."""
    idx = np.nonzero(~G.positive_edge_mask())[0]
    return NegligibleMark(tuple(int(i) for i in idx))


def essential_metric(G: MetricMeasureGraph) -> MetricMeasureGraph:
    """The graph with every zero-measure edge deleted (vertices kept)."""
    return G.subgraph_edges(G.positive_edge_mask())


def essential_distance(G: MetricMeasureGraph, x: int, y: int) -> float:
    """Shortest-path distance using only positive-measure edges.

    Dominates the plain graph distance, since deleting edges can only
    lengthen shortest paths; ``inf`` when nothing positive connects.
    """
    xi, yi = G.index_of(x), G.index_of(y)
    if xi == yi:
        return 0.0
    dist = G.distances_from([x], mask="essential", min_only=True)
    return float(dist[yi])


# -- quasiconvexity --------------------------------------------------------


def _ambient_rows(G, ambient, source_idx: np.ndarray) -> np.ndarray:
    if ambient == "euclidean":
        if G.pos is None:
            raise InputError("euclidean ambient needs vertex positions")
        diff = G.pos[source_idx][:, None, :] - G.pos[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2))
    if callable(ambient):
        ids = G.vertex_ids
        out = np.empty((source_idx.size, ids.size))
        for r, si in enumerate(source_idx):
            for c, vid in enumerate(ids):
                out[r, c] = ambient(int(ids[si]), int(vid))
        return out
    raise InputError(f"unknown ambient {ambient!r}")


def quasiconvexity_constant(
    G: MetricMeasureGraph,
    ambient: str | Callable[[int, int], float] = "euclidean",
    R: float = math.inf,
    metric_choice: Metric = "graph",
    seed: int = 0,
    max_pairs: int = 100_000,
    exhaustive_limit: int = 2000,
) -> QuasiconvexityReport:
    """Largest chosen-metric/ambient ratio over pairs within ambient radius R.

    Exhaustive over all pairs up to ``exhaustive_limit`` vertices; beyond
    that a seeded sample of ``max_pairs`` pairs is scanned and the result
    is a lower bound.  Distinct vertices at ambient distance zero are an
    input error (the ambient must be a metric).
    """
    n = G.n_vertices
    if n == 0:
        raise InputError("quasiconvexity of an empty graph")
    metric = G._metric(metric_choice)  # a predicate is evaluated once
    if not (R > 0):
        raise InputError("R must be positive")
    ids = G.vertex_ids

    def worst_from(i: int, cols: np.ndarray, dist: np.ndarray):
        """Pairs scanned from vertex index ``i`` to ``cols`` and the worst row;
        ``dist`` is the chosen metric's distance row of ``i``."""
        amb = _ambient_rows(G, ambient, np.asarray([i]))[0][cols]
        zero_amb = amb <= 0
        if np.any(zero_amb):
            j = cols[np.nonzero(zero_amb)[0][0]]
            raise InputError(
                f"ambient distance 0 between distinct vertices "
                f"{int(ids[i])} and {int(ids[j])}"
            )
        within = amb < R
        cols, amb = cols[within], amb[within]
        if cols.size == 0:
            return 0, None
        dist = dist[cols]
        k = int(np.argmax(dist / amb))
        row = QCRow(
            source=int(ids[i]), target=int(ids[cols[k]]),
            ambient=float(amb[k]), chosen=float(dist[k]),
            ratio=float(dist[k] / amb[k]),
        )
        return cols.size, row

    exhaustive = n <= exhaustive_limit
    if exhaustive:
        src = np.arange(n - 1)
        targets = (np.arange(i + 1, n) for i in src)
    else:
        rng = np.random.default_rng(seed)
        n_src = min(n, max(1, int(math.isqrt(max_pairs) * 2)))
        per_src = max(1, max_pairs // n_src)
        src = np.sort(rng.choice(n, size=n_src, replace=False))

        def sampled(i: int, child: np.random.Generator) -> np.ndarray:
            tgt = child.integers(0, n, size=per_src)
            return tgt[tgt != i]

        targets = map(sampled, src, rng.spawn(n_src))

    best = 1.0
    worst: tuple[int, int] | None = None
    samples = 0
    rows: list[QCRow] = []
    for i, cols, dist in zip(src, targets, _distance_rows(G, src, metric)):
        cnt, row = worst_from(int(i), cols, dist)
        samples += cnt
        if row is not None:
            rows.append(row)
            if row.ratio > best:
                best, worst = row.ratio, (row.source, row.target)
    return QuasiconvexityReport(
        C=best, R=float(R), worst_pair=worst, samples=samples,
        exhaustive=exhaustive, metric_choice=metric_choice,
        seed=None if exhaustive else seed, rows=tuple(rows),
    )


# -- doubling ---------------------------------------------------------------


def doubling_ratios(
    G: MetricMeasureGraph,
    centers: Sequence[int],
    scales: Sequence[float],
) -> DoublingReport:
    """Measure ratios mu(B(c, 2r)) / mu(B(c, r)) on open balls.

    The ratio is ``inf`` when the inner ball has measure zero.  One row
    per (center, r), in the given order.
    """
    if len(centers) == 0 or len(scales) == 0:
        raise InputError("need at least one center and one scale")
    for r in scales:
        if not (r > 0) or not np.isfinite(r):
            raise InputError(f"scales must be positive and finite, got {r}")

    idx = [G.index_of(c) for c in centers]
    rows: list[DoublingRow] = []
    for c, dist in zip(centers, _distance_rows(G, idx, limit=2.0 * max(scales))):
        for r in scales:
            inner = float(G.mu[dist < r].sum())
            outer = float(G.mu[dist < 2.0 * r].sum())
            ratio = outer / inner if inner > 0 else math.inf
            rows.append(DoublingRow(int(c), float(r), inner, outer, ratio))
    return DoublingReport(tuple(rows))


# -- Poincare ----------------------------------------------------------------


def poincare_constant(
    G: MetricMeasureGraph,
    u: ScalarField,
    rho: GradientField,
    lam: float,
    r: float,
    radii: Sequence[float] | None = None,
    exhaustive_radii: bool = False,
) -> PoincareReport:
    """Best constant in the weak (1, inf) Poincare inequality up to scale r.

    For every center and sampled radius <= r, compares the mu-weighted
    mean oscillation of ``u`` over the ball against diam(B) times the sup
    of ``rho`` over the lam-inflated ball.  A positive oscillation against
    a zero denominator yields ``inf``; zero-measure balls are skipped and
    counted.  Default radii are r, r/2, r/4, r/8; ``exhaustive_radii``
    scans every distinct center-to-vertex distance <= r instead.
    """
    if not (r > 0) or not np.isfinite(r):
        raise InputError("scale r must be positive and finite")
    if not (lam >= 1):
        raise InputError("lambda must be >= 1")
    uvals = _total_field(G, u, "u")
    rvals = _total_field(G, rho, "rho", allow_inf=True)
    if np.any(rvals < 0):
        raise InputError("rho must be nonnegative")
    if radii is None:
        radii = [r, r / 2, r / 4, r / 8]
    else:
        radii = [float(x) for x in radii]
        if any(not (0 < x <= r * (1 + 1e-9)) for x in radii):
            raise InputError("explicit radii must lie in (0, r]")
    ids = G.vertex_ids
    # no radius exceeds rmax and a ball of radius rad has diameter below
    # 2 * rad, so one table out to max(lam, 2) * rmax holds every ball,
    # every lam-inflated ball and every distance between ball members
    rmax = r * (1 + 1e-12) + 1e-300 if exhaustive_radii else max(radii)
    table = _distance_table(G, max(lam, 2.0) * rmax)
    indptr, cols, dists = table

    best = 0.0
    witness: Ball | None = None
    rows: list[PoincareRow] = []
    skipped = 0
    for ci in range(G.n_vertices):
        cid = int(ids[ci])
        near, dist = cols[indptr[ci]:indptr[ci + 1]], dists[indptr[ci]:indptr[ci + 1]]
        mu, u_near, rho_near = G.mu[near], uvals[near], rvals[near]
        if exhaustive_radii:
            dvals = np.unique(dist[(dist > 0) & (dist <= r)])
            local_radii = [float(d) * (1 + 1e-12) + 1e-300 for d in dvals]
        else:
            local_radii = radii
        diams = None
        for rad in local_radii:
            inside = dist < rad
            w = mu[inside]
            m = float(w.sum())
            if m <= 0:
                skipped += 1
                rows.append(
                    PoincareRow(cid, float(rad), 0.0, math.nan, math.nan,
                                math.nan, math.nan)
                )
                continue
            uu = u_near[inside]
            seen = uu[w > 0]
            if seen.min() == seen.max():
                # u is constant where the ball has mass: the exact mean
                # oscillation is 0, which the rounded mean may miss
                num = 0.0
            else:
                ub = float((w * uu).sum() / m)
                num = float((w * np.abs(uu - ub)).sum() / m)
            sup_rho = float(np.max(rho_near[dist < lam * rad]))
            if num <= 0:
                rows.append(PoincareRow(cid, float(rad), m, 0.0, sup_rho, math.nan, 0.0))
                continue
            if diams is None:
                # every ball around ci is a prefix of its nearest-first order
                nearest = near[np.argsort(dist, kind="stable")]
                reach = np.count_nonzero(dist < max(local_radii))
                diams = _prefix_diameters(table, nearest[:reach])
            diam = float(diams[np.count_nonzero(inside) - 1])
            den = diam * sup_rho
            val = math.inf if den <= 0 else num / den
            rows.append(PoincareRow(cid, float(rad), m, num, sup_rho, diam, val))
            if val > best:
                best = val
                witness = Ball(
                    center=cid,
                    radius=float(rad),
                    members=tuple(int(ids[k]) for k in near[inside]),
                    measure=m,
                    closed=False,
                )
    return PoincareReport(
        lam=float(lam),
        r=float(r),
        best_C=best,
        witness_ball=witness,
        radii=tuple(float(x) for x in radii) if not exhaustive_radii else (),
        exhaustive_radii=exhaustive_radii,
        balls_checked=len(rows),
        skipped_zero_measure=skipped,
        rows=tuple(rows),
    )


def _distance_table(G: MetricMeasureGraph, limit: float):
    """Sparse rows of the distances within ``limit`` from every vertex:
    ``(indptr, cols, dists)`` in CSR form, int32 columns in increasing
    order, each vertex's own 0 included."""
    n = G.n_vertices
    sizes = np.zeros(n + 1, dtype=np.int64)
    cols, dists = [np.empty(0, np.int32)], [np.empty(0)]
    for i, row in enumerate(_distance_rows(G, np.arange(n), limit=limit)):
        near = np.flatnonzero(np.isfinite(row))
        sizes[i + 1] = near.size
        cols.append(near.astype(np.int32))
        dists.append(row[near])
    return np.cumsum(sizes), np.concatenate(cols), np.concatenate(dists)


def _prefix_diameters(table, members: np.ndarray) -> np.ndarray:
    """``out[k]`` is the diameter of ``members[:k + 1]``, the largest
    distance the members' table rows give among them (``inf`` for a pair
    the table misses)."""
    indptr, cols, dists = table
    k = members.size
    starts = indptr[members]
    lens = indptr[members + 1] - starts
    # positions in ``cols`` of every entry of the members' rows
    at = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    pos = np.full(indptr.size - 1, -1, dtype=np.int64)
    pos[members] = np.arange(k)
    j = pos[cols[at]]
    among = j >= 0
    D = np.full((k, k), math.inf)
    D[np.repeat(np.arange(k), lens)[among], j[among]] = dists[at[among]]
    D = np.maximum(D, D.T)
    return np.maximum.accumulate(np.tril(D).max(axis=1))


def _total_field(G, f: Mapping[int, float], name: str, allow_inf=False) -> np.ndarray:
    out = np.empty(G.n_vertices)
    for i, vid in enumerate(G.vertex_ids):
        try:
            v = float(f[int(vid)])
        except KeyError:
            raise InputError(f"{name} missing value at vertex {int(vid)}") from None
        if math.isnan(v) or (not allow_inf and math.isinf(v)):
            raise InputError(f"{name} has a non-finite value at vertex {int(vid)}")
        out[i] = v
    return out


# -- Hajlasz transfers -------------------------------------------------------


def hajlasz_gradient_from_upper(
    G: MetricMeasureGraph,
    rho: GradientField,
    C: float,
    R: float,
) -> dict[int, float]:
    """Pointwise Hajlasz gradient from upper-gradient style data.

    On a (C, R)-quasiconvex space, curve estimates against ``rho`` give
    the Hajlasz bound with the gradient z -> C * sup of rho over the
    closed ball of radius C*R around z; this is that transfer on the
    graph.
    """
    if not (C >= 1):
        raise InputError("quasiconvexity constant C must be >= 1")
    if not (R > 0):
        raise InputError("scale R must be positive")
    rvals = _total_field(G, rho, "rho", allow_inf=True)
    reach = C * R
    rows = _distance_rows(G, np.arange(G.n_vertices), limit=reach)
    return {
        int(vid): float(C * np.max(rvals[dist <= reach]))
        for vid, dist in zip(G.vertex_ids, rows)
    }


def verify_hajlasz(
    G: MetricMeasureGraph,
    u: ScalarField,
    g: GradientField,
    R: float,
    tol: float = LENGTH_TOL,
) -> list[dict]:
    """Violations of |u(x) - u(y)| <= d(x, y) (g(x) + g(y)) for d(x, y) < R.

    Returns one record per violating pair beyond the absolute tolerance,
    sorted by vertex ids; empty means the bound holds up to scale R.
    """
    if not (R > 0):
        raise InputError("scale R must be positive")
    uvals = _total_field(G, u, "u")
    gvals = _total_field(G, g, "g", allow_inf=True)
    ids = G.vertex_ids
    n = G.n_vertices
    out: list[dict] = []
    for i, dist in enumerate(_distance_rows(G, np.arange(n - 1), limit=R)):
        cols = np.arange(i + 1, n)
        d = dist[cols]
        sel = d < R
        cols, d = cols[sel], d[sel]
        lhs = np.abs(uvals[cols] - uvals[i])
        rhs = d * (gvals[cols] + gvals[i])
        bad = lhs > rhs + tol
        for k in np.nonzero(bad)[0]:
            out.append(
                {
                    "x": int(ids[i]),
                    "y": int(ids[cols[k]]),
                    "distance": float(d[k]),
                    "lhs": float(lhs[k]),
                    "rhs": float(rhs[k]),
                }
            )
    return out


def local_to_global_gradient(
    g: GradientField, u_norm: float, R: float
) -> dict[int, float]:
    """Upgrade an up-to-scale-R Hajlasz gradient to a global one.

    Pairs beyond distance R are covered by the trivial bound
    |u(x) - u(y)| <= 2 ||u||_inf <= d(x, y) * 2 ||u||_inf / R, so the
    pointwise maximum with ||u||_inf / R works at every scale.
    """
    if not (u_norm >= 0):
        raise InputError("u_norm must be nonnegative")
    if not (R > 0):
        raise InputError("scale R must be positive")
    floor = u_norm / R
    return {int(k): float(max(v, floor)) for k, v in g.items()}


# -- quantitative constants --------------------------------------------------


def c0_constant(A: float, R: float) -> float:
    """Quasiconvexity constant produced by the Hajlasz-to-thickness argument.

    For gradient comparison factor A >= 1 at scale R: equals 1 when A = 1;
    otherwise (4R(A-1) + A) / (1 - 2R(A-1)), defined only while
    2R(A-1) < 1.  Outside that domain the construction gives no bound and
    this raises an input error.
    """
    if not (A >= 1):
        raise InputError("A must be >= 1")
    if not (R > 0) or not np.isfinite(R):
        raise InputError("R must be positive and finite")
    if A == 1:
        return 1.0
    # floats are binary rationals, so evaluating the formula over Fraction
    # is exact and the result rounds once
    a = Fraction(float(A))
    r = Fraction(float(R))
    t = 2 * r * (a - 1)
    if t >= 1:
        raise InputError(f"c0_constant undefined: 2R(A-1) = {float(t)} >= 1")
    return float((4 * r * (a - 1) + a) / (1 - t))

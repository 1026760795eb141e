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

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import graph
from .graph import Ball, Metric, MetricMeasureGraph, _distance_blocks, _sparse_blocks, _values
from .util import InputError, LENGTH_TOL, fields_dict, table_text

#: Scalar and gradient fields are plain mappings vertex id -> value.
ScalarField = Mapping[int, float]
GradientField = Mapping[int, float]


@dataclass(frozen=True)
class NegligibleMark:
    """Indices of the zero-measure edges of a graph."""

    edge_indices: tuple[int, ...]


def _rows_csv(row_type: type, rows: Sequence) -> str:
    """The table of dataclass rows: one column per field of ``row_type``,
    in declaration order, headed by the field names."""
    names = [f.name for f in fields(row_type)]
    return table_text(names, [[getattr(row, name) for row in rows] for name in names])


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
    quadratic and is not retained.  ``metric_choice`` is the one given, but
    an edge predicate is kept as the bool edge mask it selects.
    """

    C: float
    R: float
    worst_pair: tuple[int, int] | None
    samples: int
    exhaustive: bool
    metric_choice: str | np.ndarray | None
    seed: int | None = None
    rows: tuple[QCRow, ...] = ()

    def to_dict(self) -> dict:
        return fields_dict(self, "rows")

    def to_csv(self) -> str:
        return _rows_csv(QCRow, self.rows)


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
        return {"rows": [fields_dict(row) for row in self.rows]}

    def to_csv(self) -> str:
        return _rows_csv(DoublingRow, self.rows)


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
        """The fields but ``rows``; ``lam`` is written as ``"lambda"`` and
        the witness ball without ``closed``."""
        wb = self.witness_ball
        body = fields_dict(self, "rows", "lam", "witness_ball")
        body.update({"lambda": self.lam,
                     "witness_ball": None if wb is None else fields_dict(wb, "closed")})
        return body

    def to_csv(self) -> str:
        return _rows_csv(PoincareRow, self.rows)


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


def _ambient_block(G, ambient, src: np.ndarray, tgt: np.ndarray, scanned: np.ndarray):
    """Ambient distances from the sources ``src`` (a column of vertex
    indices) to ``tgt`` (one row of targets, or a row per source), read
    only where ``scanned``.  A callable is evaluated at those pairs alone."""
    if ambient == "euclidean":
        if G.pos is None:
            raise InputError("euclidean ambient needs vertex positions")
        # summed per coordinate in order: the floats of a sum over the
        # last axis of the squared differences
        total = np.zeros(scanned.shape)
        for ps, pt in zip(G.pos[src[:, 0]].T, G.pos.T):
            diff = ps[:, None] - pt[tgt]
            total += np.square(diff, out=diff)
        return np.sqrt(total, out=total)
    if callable(ambient):
        ids = G.vertex_ids
        r, c = np.nonzero(scanned)
        a = ids[src[r, 0]].tolist()
        b = ids[np.broadcast_to(tgt, scanned.shape)[r, c]].tolist()
        out = np.full(scanned.shape, math.nan)
        out[r, c] = np.fromiter(map(ambient, a, b), float, count=r.size)
        return out
    raise InputError(f"unknown ambient {ambient!r}")


def _worst_pairs(G, ambient, R, chunk, tgt, scanned, chosen):
    """The number of pairs within ambient radius R that ``scanned`` marks
    among the sources ``chunk`` and ``tgt`` (a row of targets, or a row
    per source), and the worst pair of each source that has one, the
    first on a tie.  ``chosen`` holds the chosen metric's distances of
    the same pairs."""
    ids = G.vertex_ids
    targets = np.broadcast_to(tgt, scanned.shape)
    amb = _ambient_block(G, ambient, chunk[:, None], tgt, scanned)
    bad = scanned & ~(amb > 0)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        value = float(amb[r, c])
        raise InputError(
            f"ambient distance {'0' if value == 0 else repr(value)} between "
            f"distinct vertices {int(ids[chunk[r]])} and {int(ids[targets[r, c]])}"
        )
    within = scanned & (amb < R)
    ratio = np.full(amb.shape, -math.inf)
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        np.divide(chosen, amb, out=ratio, where=within)
    counts = np.count_nonzero(within, axis=1)
    hit = np.flatnonzero(counts)
    k = ratio[hit].argmax(axis=1)
    worst = map(
        QCRow,
        ids[chunk[hit]].tolist(), ids[targets[hit, k]].tolist(), amb[hit, k].tolist(),
        chosen[hit, k].tolist(), ratio[hit, k].tolist(),
    )
    return int(counts.sum()), list(worst)


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
    is a lower bound.  Distinct vertices at an ambient distance that is
    not positive (zero, negative or NaN) are an input error: the ambient
    must be a metric.  A callable ambient is evaluated once per scanned
    pair.
    """
    n = G.n_vertices
    if n == 0:
        raise InputError("quasiconvexity of an empty graph")
    metric = G._metric(metric_choice)  # a predicate is evaluated once
    if not (R > 0):
        raise InputError("R must be positive")
    if not graph._id_type(type(max_pairs)) or not (max_pairs >= 1):
        raise InputError("max_pairs must be a positive integer")

    exhaustive = n <= exhaustive_limit
    if exhaustive:
        src = np.arange(n - 1)
    else:
        rng = np.random.default_rng(seed)
        n_src = min(n, max(1, int(math.isqrt(max_pairs) * 2)))
        per_src = max(1, max_pairs // n_src)
        src = np.sort(rng.choice(n, size=n_src, replace=False))
        children = iter(rng.spawn(n_src))

    best = 1.0
    worst: tuple[int, int] | None = None
    samples = 0
    rows: list[QCRow] = []
    for chunk, dist in _distance_blocks(G, src, metric):
        # one block per kernel call: a row per source, a column per target
        if exhaustive:
            tgt = np.arange(chunk[0] + 1, n)[None, :]
            scanned = tgt > chunk[:, None]
            chosen = dist[:, chunk[0] + 1:]
        else:
            tgt = np.stack([next(children).integers(0, n, size=per_src) for _ in chunk])
            scanned = tgt != chunk[:, None]
            chosen = np.take_along_axis(dist, tgt, axis=1)
        count, worst_rows = _worst_pairs(G, ambient, R, chunk, tgt, scanned, chosen)
        samples += count
        for row in worst_rows:
            rows.append(row)
            if row.ratio > best:
                best, worst = row.ratio, (row.source, row.target)
    return QuasiconvexityReport(
        C=best, R=float(R), worst_pair=worst, samples=samples,
        exhaustive=exhaustive, metric_choice=metric if callable(metric_choice) else metric_choice,
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
    scales = graph._floats(list(scales), "scales").tolist()
    if len(centers) == 0 or len(scales) == 0:
        raise InputError("need at least one center and one scale")
    for r in scales:
        if not (isinstance(r, float) and 0 < r < math.inf):
            raise InputError(f"scales must be positive and finite, got {r}")

    idx = [G.index_of(c) for c in centers]
    rows: list[DoublingRow] = []
    for chunk, block in _distance_blocks(G, idx, limit=2.0 * max(scales)):
        # one dense row per listed center, a repeated one included
        for c, dist in zip(G.vertex_ids[chunk].tolist(), block):
            for r in scales:
                inner = float(G.mu[dist < r].sum())
                outer = float(G.mu[dist < 2.0 * r].sum())
                ratio = outer / inner if inner > 0 else math.inf
                rows.append(DoublingRow(c, float(r), inner, outer, ratio))
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

    Measure and oscillation are sums over the members in id order, and
    diam(B) is the largest distance between two members, read from both
    ends of each pair.  Only pairs in a shell are read: the member f
    farthest from the center, at distance e, bounds diam(B) below by its
    largest distance lb to a member, and by the triangle inequality
    through the center only members at distance about lb - e or more can
    end a longer pair (``_diameters``).  Balls are scanned in blocks of
    centers, with no loop per center or radius.
    """
    if not (r > 0) or not np.isfinite(r):
        raise InputError("scale r must be positive and finite")
    if not (lam >= 1):
        raise InputError("lambda must be >= 1")
    ids = G.vertex_ids
    uvals = _values(u, ids.tolist(), "u")
    rvals = _values(rho, ids.tolist(), "rho", allow_inf=True)
    if np.any(rvals < 0):
        raise InputError("rho must be nonnegative")
    if radii is None:
        radii = [r, r / 2, r / 4, r / 8]
    else:
        radii = [float(x) for x in radii]
        if not radii:
            raise InputError("explicit radii must be nonempty")
        if any(not (0 < x <= r * (1 + 1e-9)) for x in radii):
            raise InputError("explicit radii must lie in (0, r]")
    # no radius exceeds rmax and a ball of radius rad has diameter below
    # 2 * rad, so one table out to max(lam, 2) * rmax holds every ball,
    # every lam-inflated ball and every distance between ball members
    rmax = r * (1 + 1e-12) + 1e-300 if exhaustive_radii else max(radii)
    table = _distance_table(G, max(lam, 2.0) * rmax)
    indptr, keys, dists = table

    best = 0.0
    witness: Ball | None = None
    rows: list[PoincareRow] = []
    skipped = 0
    for lo, hi in _runs(np.diff(indptr)):
        cols = _poincare_block(table, lo, hi, G.mu, uvals, rvals, lam, r,
                               None if exhaustive_radii else radii)
        center, rad, m, C = cols[0], cols[1], cols[2], cols[6]
        rows += map(PoincareRow, ids[center].tolist(), *(c.tolist() for c in cols[1:]))
        skipped += int(np.count_nonzero(m == 0))
        # C > 0 only on rows that needed a diameter; the first maximum wins
        score = np.where(C > 0, C, 0.0)
        j = int(np.argmax(score)) if score.size else 0
        if score.size and score[j] > best:
            near = slice(indptr[center[j]], indptr[center[j] + 1])
            members = ids[keys[near][dists[near] < rad[j]] % ids.size]
            best = float(score[j])
            witness = Ball(int(ids[center[j]]), float(rad[j]), tuple(members.tolist()),
                           float(m[j]), closed=False)
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


def _poincare_block(table, lo, hi, mu, uvals, rvals, lam, r, radii):
    """Columns center index, radius, measure, oscillation, sup_rho,
    diameter and C of the balls around the centers ``lo .. hi - 1``, in
    report order; ``radii`` None takes every distinct distance in (0, r]."""
    indptr, keys, dists = table
    p0, p1 = indptr[lo], indptr[hi]
    near = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
    order = np.lexsort((dists[p0:p1], near))  # each row nearest first, ties by id
    near, d, cols = near[order], dists[p0:p1][order], keys[p0:p1][order] % (indptr.size - 1)
    if radii is None:
        new = np.r_[True, (d[1:] != d[:-1]) | (near[1:] != near[:-1])] & (d > 0) & (d <= r)
        center, rad = near[new], d[new] * (1 + 1e-12) + 1e-300
    else:
        center, rad = np.repeat(np.arange(lo, hi), len(radii)), np.tile(radii, hi - lo)
    # a ball and its lam-inflated ball are prefixes of the center's row
    first = indptr[center] - p0
    k, klam = np.searchsorted(
        _pair_keys(near, d), _pair_keys(np.r_[center, center], np.r_[rad, lam * rad])
    ).reshape(2, -1) - first
    m, osc, sup_rho, diam = np.full((4, rad.size), math.nan)
    for a, b in _runs(k + klam):
        m[a:b], osc[a:b] = _mean_oscillations(cols, first[a:b], k[a:b], mu, uvals)
        sup_rho[a:b] = _segment_max(rvals[cols[_ranges(first[a:b], klam[a:b])]], klam[a:b])
        need = a + np.flatnonzero((m[a:b] > 0) & ~(osc[a:b] <= 0))
        if need.size:
            diam[need] = _diameters(table, cols, d, first[need], k[need])
    skip, level = m <= 0, osc <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        C = np.where(diam * sup_rho <= 0, math.inf, osc / (diam * sup_rho))
    osc[level], C[level] = 0.0, 0.0
    m[skip], osc[skip], sup_rho[skip], C[skip] = 0.0, math.nan, math.nan, math.nan
    return center, rad, m, osc, sup_rho, diam, C


def _mean_oscillations(cols, first, k, mu, uvals):
    """Measure and mu-weighted mean oscillation of ``u`` of each ball
    ``cols[first:first + k]``, summed in id order.  The balls of one size
    make one 2-D array, whose row sums are bit-equal to the 1-D sums of
    single balls (``np.add.reduceat`` is not)."""
    m, osc = np.empty((2, k.size))
    by_size = np.argsort(k, kind="stable")
    sizes, at = np.unique(k[by_size], return_index=True)
    for size, balls in zip(sizes.tolist(), np.split(by_size, at[1:])):
        members = np.sort(cols[first[balls, None] + np.arange(size)], axis=1)
        w, uu = mu[members], uvals[members]
        m[balls] = w.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (w * uu).sum(axis=1) / m[balls]
            osc[balls] = (w * np.abs(uu - mean[:, None])).sum(axis=1) / m[balls]
        # u constant where the ball has mass: the exact mean oscillation
        # is 0, which the rounded mean may miss
        seen = w > 0
        level = np.where(seen, uu, math.inf).min(1) == np.where(seen, uu, -math.inf).max(1)
        osc[balls[level]] = 0.0
    return m, osc


def _diameters(table, cols, d, first, k):
    """Diameter of each ball ``cols[first:first + k]``, whose distances
    ``d`` from the center increase: the largest distance the table gives
    between two members, either way round (``inf`` for a missed pair)."""
    n = table[0].size - 1
    at, ball, last = _ranges(first, k), np.repeat(np.arange(k.size), k), first + k - 1
    f, e, t = cols[last][ball], d[last], cols[at]
    lb = _segment_max(np.maximum(_lookup(table, f, t), _lookup(table, t, f)), k)
    # A search gives D(x, y), the float sum from x of the lengths along
    # one path, and no more than that sum along any other path from x.
    # A float sum of at most 2n nonnegative terms is within a factor
    # 1 -+ g of the exact sum, g = 2nu / (1 - 2nu), u = 2**-53.  Along the
    # path a -> c -> b through the center c, for members a and b:
    #     D(a, b) <= (1 + g) / (1 - g) (D(c, a) + D(c, b)) <= (1 + 3g)(D(c, a) + e),
    # so D(a, b) > lb needs D(c, a) > lb / (1 + 3g) - e >= lb - e - 3g lb,
    # and the same of b.  The slack 8nu (lb + e) covers 3g lb and the
    # rounding of the threshold itself, which is relative to lb and e, not
    # to lb - e.  The same path bounds every pair of members by
    # 2 rad (1 + 3g), inside the table's limit of 2 rad (1 + 1e-9) while
    # n < 10**6, so the table misses no pair of members; lb = inf (a
    # missed pair) leaves the shell empty and the diameter inf.
    with np.errstate(invalid="ignore"):
        inside = d[at] >= ((lb - e) - n * 2.0**-50 * (lb + e))[ball]
    shell, size = cols[at[inside]], np.bincount(ball[inside], minlength=k.size)
    start, pairs = np.cumsum(size) - size, size * size
    offset, total = np.cumsum(pairs) - pairs, int(pairs.sum())
    # the ordered pairs of each shell, in chunks that may split a ball
    step = _budget()
    for q0 in range(0, total, step):
        q = np.arange(q0, min(q0 + step, total))
        owner = np.searchsorted(offset, q, "right") - 1
        i, j = np.divmod(q - offset[owner], size[owner])
        pair = _lookup(table, shell[start[owner] + i], shell[start[owner] + j])
        np.maximum.at(lb, owner, pair)
    return lb


def _distance_table(G: MetricMeasureGraph, limit: float):
    """Sparse rows of the distances within ``limit`` from every vertex, in
    CSR form ``(indptr, keys, dists)``: row ``i`` holds ``d(i, j)`` under
    the key ``i * n + j``.  The keys increase, so each row's columns do and
    a pair is found by ``searchsorted``; each vertex's own 0 is included."""
    n = G.n_vertices
    key = np.int32 if n * n < 2**31 else np.int64
    keys, dists = [np.empty(0, key)], [np.empty(0)]
    for row, col, d in _sparse_blocks(G, np.arange(n), limit):
        keys.append((row * n + col).astype(key))
        dists.append(d)
    # one column at a time, so the pieces of one go before the next is joined
    keys = np.concatenate(keys)
    return np.searchsorted(keys, np.arange(n + 1) * n), keys, np.concatenate(dists)


def _lookup(table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``d(a, b)`` from row ``a`` of the table, ``inf`` where it misses ``b``.
    Sorted keys searched among the rows asked for keep the search in cache;
    keys in the table's own type spare converting all of its keys."""
    indptr, keys, dists = table
    want = (a * (indptr.size - 1) + b).astype(keys.dtype)
    lo, hi = indptr[a.min()], indptr[a.max() + 1]
    order = np.argsort(want)
    at = np.empty_like(order)
    at[order] = np.searchsorted(keys[lo:hi], want[order]) + lo
    at = np.minimum(at, hi - 1)
    return np.where(keys[at] == want, dists[at], math.inf)


def _pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairs ``(a, b)`` as complex numbers, which numpy orders, sorts and
    searches lexicographically."""
    z = np.empty(a.shape, complex)
    z.real, z.imag = a, b
    return z


def _ranges(first: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``first[i] .. first[i] + k[i] - 1``."""
    return np.repeat(first - np.cumsum(k) + k, k) + np.arange(k.sum())


def _segment_max(values: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The maximum of each run of ``k[i] >= 1`` consecutive values."""
    return np.maximum.reduceat(values, np.cumsum(k) - k)


def _budget() -> int:
    """Entries per block of the Poincare scan: a block keeps about eight
    temporaries per entry, so an eighth of a kernel call's entries."""
    return max(1, graph._CHUNK_ENTRIES // 8)


def _runs(sizes: np.ndarray):
    """Consecutive runs ``(lo, hi)`` of ``range(len(sizes))`` whose sizes
    add up to at most ``_budget()``; an item above it is a run of its own."""
    ends, budget, lo = np.cumsum(sizes), _budget(), 0
    while lo < ends.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + budget, "right")))
        yield lo, hi
        lo = hi


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
    rvals = _values(rho, G.vertex_ids.tolist(), "rho", allow_inf=True)
    reach = C * R
    sups = [np.empty(0)]
    for row, col, d in _sparse_blocks(G, np.arange(G.n_vertices), reach):
        kept = d <= reach
        row, col = row[kept], col[kept]
        # one run per row, none empty: every row keeps its own 0
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        sups.append(np.maximum.reduceat(rvals[col], starts))
    return dict(zip(G.vertex_ids.tolist(), (C * np.concatenate(sups)).tolist()))


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
    ids = G.vertex_ids
    uvals = _values(u, ids.tolist(), "u")
    gvals = _values(g, ids.tolist(), "g", allow_inf=True)
    out: list[dict] = []
    for x, y, d in _sparse_blocks(G, np.arange(G.n_vertices - 1), R):
        keep = (y > x) & (d < R)
        x, y, d = x[keep], y[keep], d[keep]
        lhs = np.abs(uvals[y] - uvals[x])
        rhs = d * (gvals[y] + gvals[x])
        bad = lhs > rhs + tol
        out.extend(
            {"x": a, "y": b, "distance": dist, "lhs": left, "rhs": right}
            for a, b, dist, left, right in zip(
                ids[x[bad]].tolist(), ids[y[bad]].tolist(), d[bad].tolist(),
                lhs[bad].tolist(), rhs[bad].tolist(),
            )
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
    ids = graph._sorted_ids(g)
    return dict(zip(ids, np.maximum(_values(g, ids, "g", allow_inf=True), floor).tolist()))


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

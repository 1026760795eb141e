"""Discrete infinity-harmonic boundary problems (AMLE).

At an interior vertex x the discrete infinity-Laplace condition balances
the steepest ascent against the steepest descent among neighbors:

    max_a (u(a) - u(x)) / len(x, a)  ==  max_b (u(x) - u(b)) / len(x, b).

Given fixed neighbor values the balance condition has a closed-form
solution,

    t* = max_i min_j (l_j u_i + l_i u_j) / (l_i + l_j),

over ordered neighbor pairs (i, j): the left side of the balance is
decreasing in t and the right side increasing, so t <= t* is equivalent
to some i beating every j, which unfolds to the max-min above.  The
solver sweeps these exact local solves in Gauss-Seidel fashion: interior
vertices are greedily colored so neighbors never share a color, and each
sweep updates one color class at a time against the newest values.
Simultaneous (Jacobi) updates are avoided on purpose; they can lock into
exact period-two cycles on weighted graphs.  Sequential exact solves are
monotone in the neighbor values, so plain sweeps started from the
constant min and max fills bracket every other start and converge
monotonically to the unique solution.  Plain sweeps are the tests'
oracle; the solver over-relaxes them first (see below).

A pair's coefficients depend only on its two lengths, and its value is
non-decreasing in u_i and in u_j, since rounding is monotone and the
coefficients are nonnegative.  So over groups I, J of neighbors with
equal lengths the max-min is taken at the largest u_i of each I and the
smallest u_j of each J, by the same float expression:

    t* = max_I min_J (l_J max_{i in I} u_i + l_I min_{j in J} u_j) / (l_I + l_J).

Each color class is split into buckets of k vertices whose rows have g
length groups of at most s members, solved at once by min and max over
one broadcast (g, g, k) table; on the diagonal lattices of the grid,
cusp and carpet meshes g <= 2 where the degree is up to 8.  Padding a
group by a repeated member, or a row by a repeated group, changes no max
or min, so every t* stays bit-identical to solving that vertex alone
over all its (d, d) pairs, up to the sign of a zero where values tie at
0.0 and -0.0 (see ``_Sweep``).

The solver stops at the first sweep whose largest imbalance is at most
``tol``, but it evaluates that full residual only when it can change the
outcome.  Each full residual keeps a few of the rows above ``tol`` as
witnesses; after a sweep, the witnesses' imbalance is computed by the
same float arithmetic, row for row, as in the full residual, so while
one of them is above ``tol`` the full residual is too and need not run.
It runs, and renews the witnesses, once none is above ``tol`` or
``max_iter`` is reached; under plain sweeps the iterates, the sweep
count and the reported residual are those of testing after every sweep.
A row's imbalance is max(s) + min(s) of its slopes s; a row whose slopes
overflow is summed at a power-of-two scale, so it reads inf only when
its imbalance does.

The sweeps start over-relaxed: each vertex moves past its balance point
to u + ``_OMEGA`` (t* - u), clamped to [min g, max g], where the maximum
principle puts the solution.  Relaxed iterates are not monotone in the
neighbor values, so the min/max bracket above holds for plain sweeps
only.  The solver drops to plain sweeps for good once the full residual
reaches ``tol``, or finds no new low within ``_WINDOW`` sweeps (a stall;
meanwhile it runs at least every quarter window).  So the default solve
ends on plain sweeps, or on a start that meets ``tol``, and stops on the
same certified test.

Under ``metric_choice = "essential"`` only positive-measure edges
participate; interior vertices with no positive-measure route to the
boundary are degenerate: the solver never invents values for them and
lists them instead.  That is the regime where any boundary-respecting
field is as infinity-harmonic as any other, and ``check_amle_local``
reports residual zero for all of them.  ``infinity_harmonic_extend``
meets it when no positive-measure edge leaves Omega: its problem is then
the whole complement, a ``solve_amle`` with nothing active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .extension import mcshane_extend
from .graph import Metric, MetricMeasureGraph, _values, _vertex_set
from .util import InputError


@dataclass(frozen=True)
class AMLEProblem:
    """An infinity-harmonic boundary problem on a metric measure graph."""

    graph: MetricMeasureGraph
    boundary: tuple[int, ...]
    g: dict[int, float]
    metric_choice: Metric = "graph"

    def __post_init__(self):
        self.graph._metric(self.metric_choice)  # rejects an unknown metric spelling
        bd, _ = _vertex_set(self.graph, self.boundary, "boundary")
        g = _values(self.g, bd, "boundary data")
        object.__setattr__(self, "boundary", tuple(bd))
        object.__setattr__(self, "g", dict(zip(bd, g.tolist())))


@dataclass(frozen=True)
class AMLESolution:
    """Solver output: the field, convergence data, and degenerate vertices.

    ``u`` equals the boundary data exactly on the boundary and is NaN on
    degenerate vertices.  ``residual`` is the largest local slope
    imbalance over non-degenerate interior vertices.
    """

    u: dict[int, float]
    residual: float
    iterations: int
    converged: bool
    degenerate_vertices: tuple[int, ...]
    tol: float
    problem: AMLEProblem = field(repr=False)


#: Rows whose imbalance ``solve_amle`` re-evaluates after every sweep in
#: place of the full residual, while one of them stays above ``tol``.
_WITNESSES = 32

#: Over-relaxation factor of ``solve_amle``'s sweeps until it drops to 1.
_OMEGA = 1.5

#: Sweeps within which the full residual must reach a new low while
#: ``_OMEGA`` is on; it runs at least every quarter window then.
_WINDOW = 256


def _row_edges(starts: np.ndarray, ends: np.ndarray, rows: np.ndarray):
    """Flat edge positions of the given rows (at least one), and where each
    row starts among them."""
    cnt = ends[rows] - starts[rows]
    at = np.cumsum(cnt) - cnt
    return np.repeat(starts[rows] - at, cnt) + np.arange(at[-1] + cnt[-1]), at


def _imbalance(u, owner, nbr, lens, starts) -> np.ndarray:
    """Signed slope imbalance max(s) + min(s) of each row.

    The slopes are s = (u[nbr] - u[owner]) / lens, and a row is the run of
    edges from its entry in ``starts`` to the next (none is empty).  The
    max down-slope is -min(s), so |max(s) + min(s)| is the row's residual.
    A row whose slopes or sum overflow is summed again on its slopes
    scaled by 2**-m, m the row's largest slope exponent, and scaled back:
    powers of two keep every rounding, so such a row reads inf only where
    its imbalance overflows, never NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = (u[nbr] - u[owner]) / lens
        imb = np.maximum.reduceat(s, starts) + np.minimum.reduceat(s, starts)
        bad = np.flatnonzero(~np.isfinite(imb))
        if bad.size:
            pos, at = _row_edges(starts, np.append(starts[1:], s.size), bad)
            a, b = u[nbr[pos]], u[owner[pos]]
            diff = a - b
            half = np.isinf(diff)  # then a and b are large, and halving is exact
            diff[half] = a[half] * 0.5 - b[half] * 0.5
            dm, de = np.frexp(diff)
            lm, le = np.frexp(lens[pos])
            e = de.astype(np.int64) - le + half  # s = (dm / lm) * 2**e
            m = np.maximum.reduceat(np.where(dm != 0, e, -(1 << 30)), at)  # 0 has no exponent
            t = np.ldexp(dm / lm, e - np.repeat(m, np.diff(np.append(at, pos.size))))
            imb[bad] = np.ldexp(np.maximum.reduceat(t, at) + np.minimum.reduceat(t, at), m)
    return imb


#: A row shape joins the wider bucket above it when padding adds at most
#: this many table entries, about the cost of one more bucket's numpy calls.
_PAD_ENTRIES = 2048


class _Sweep:
    """Vectorized incidence structure for the relaxation sweeps.

    Its rows are the active vertices' rows of the metric's CSR (see
    ``MetricMeasureGraph._csr``), so only the metric's edges take part.
    Flat neighbor arrays serve the residual.  For the local solves the
    active vertices are greedily colored in index order, and a row's
    neighbors are sorted into groups of equal edge length: g groups of
    at most s members.  Each color class is split by (g, s) into buckets
    ``(verts, nb, ci, cj)``: ``nb`` has shape (s, g, k) and holds the
    groups of the bucket's k vertices, with group lengths ``l``; ``ci``
    and ``cj`` have shape (g, g, k) and hold l_I / (l_I + l_J) and
    l_J / (l_I + l_J) at [J, I].  A group smaller than s is padded by
    repeating its last member, a row with fewer than g groups by
    repeating its last group and its length.

    A plain ``relax`` is bit-identical to solving every vertex on its own
    over all its (d, d) neighbor pairs.  The pair value
    ``cj * u_i + ci * u_j`` depends on i and j only through u_i, u_j and
    their groups, and it is non-decreasing in u_i and in u_j, since the
    coefficients are nonnegative and rounding is monotone.  So over the
    members of groups I and J its min is the value at the largest u_i of
    I and the smallest u_j of J, the same float expression:

        max_i min_j t[j, i] == max_I min_J (c_JI max_I u + c_IJ min_J u).

    Padding repeats a member (no max or min changes) or a row and a
    column of the (g, g) table, and the vertices of one class share no
    edge, so their buckets can be written in any order.  Where neighbor
    values tie at 0.0 and -0.0, a result may be the other zero than the
    (d, d) table's; the two compare equal.
    """

    def __init__(self, csr, active_idx: np.ndarray):
        sub = csr[active_idx]
        # scipy's int32 indices would be cast to intp on every sweep
        indptr, nbr = sub.indptr.astype(np.intp), sub.indices.astype(np.intp)
        deg = np.diff(indptr)
        self.starts, self.ends = indptr[:-1], indptr[1:]
        self.nbr = nbr
        self.owner = np.repeat(active_idx, deg)
        self.lens = sub.data
        self.screen = None
        # greedy coloring in row order; a neighbor's rank is its row, or n
        # when it is not active, so ``j < k`` picks the rows colored so far
        n, ptr = active_idx.size, indptr.tolist()
        rank = np.full(csr.shape[0], n)
        rank[active_idx] = np.arange(n)
        ranks = rank[nbr].tolist()
        color: list[int] = []
        for k in range(n):
            used = {color[j] for j in ranks[ptr[k]:ptr[k + 1]] if j < k}
            c = 0
            while c in used:
                c += 1
            color.append(c)
        color_arr = np.asarray(color)
        # each row's neighbors sorted by length, in groups of equal length
        row = np.repeat(np.arange(n), deg)
        order = np.lexsort((sub.data, row))
        lens, nbs = sub.data[order], nbr[order]
        new = np.diff(lens, prepend=np.nan) != 0
        new[self.starts] = True
        head = np.flatnonzero(new)  # each group's first edge
        size = np.diff(np.append(head, lens.size))
        groups = np.bincount(row[head], minlength=n)
        first = np.cumsum(groups) - groups  # each row's first group
        # a row's shape (g, s) is divmod(key, m), so keys sort by g, then s
        m = np.max(size) + 1
        key = groups * m + np.maximum.reduceat(size, first)
        self.buckets = []
        for c in range(max(color) + 1):
            rows = np.flatnonzero(color_arr == c)
            shapes, ks = np.unique(key[rows], return_counts=True)
            width, top = np.empty_like(shapes), shapes[-1]
            for q in range(shapes.size - 1, -1, -1):
                (g, s), (G, S) = divmod(shapes[q], m), divmod(top, m)
                if s > S or ks[q] * (G * (G + S) - g * (g + s)) > _PAD_ENTRIES:
                    top = shapes[q]
                width[q] = top
            width = width[np.searchsorted(shapes, key[rows])]
            for w in np.unique(width):
                part = rows[width == w]
                G, S = divmod(w, m)
                grp = first[part] + np.minimum(np.arange(G)[:, None], groups[part] - 1)
                at = head[grp] + np.minimum(np.arange(S)[:, None, None], size[grp] - 1)
                L = lens[head[grp]]
                den = L[None] + L[:, None]
                self.buckets.append(
                    (active_idx[part], nbs[at], L[None] / den, L[:, None] / den)
                )

    def residual(self, u: np.ndarray, tol: float) -> float:
        """Largest |max up-slope - max down-slope| over the active rows.

        Keeps the ``_WITNESSES`` largest rows whose imbalance is above
        ``tol`` or NaN as the witnesses that ``witnessed`` evaluates.
        """
        imb = np.abs(_imbalance(u, self.owner, self.nbr, self.lens, self.starts))
        hot = np.flatnonzero(~(imb <= tol))
        if hot.size > _WITNESSES:  # NaN partitions above inf
            hot = hot[np.argpartition(imb[hot], -_WITNESSES)[-_WITNESSES:]]
        self.screen = None
        if hot.size:
            pos, starts = _row_edges(self.starts, self.ends, hot)
            self.screen = (self.owner[pos], self.nbr[pos], self.lens[pos], starts)
        return float(np.max(imb))

    def witnessed(self, u: np.ndarray, tol: float) -> bool:
        """True when a witness row's imbalance is above ``tol`` or NaN.

        Each witness row is evaluated by the same arithmetic as in
        ``residual``, so the full residual is then above ``tol`` or NaN.
        """
        if self.screen is None:
            return False
        return not np.all(np.abs(_imbalance(u, *self.screen)) <= tol)

    def relax(self, u: np.ndarray, *over: float) -> None:
        """One sweep.  Plain, each vertex takes its exact balance point t*;
        with ``over = (omega, lo, hi)`` it takes u + omega (t* - u) clamped
        to [lo, hi]."""
        for verts, nb, ci, cj in self.buckets:
            U = u[nb]
            t = cj * U.max(axis=0)
            t += ci * U.min(axis=0)[:, None]
            t = t.min(axis=0).max(axis=0)
            if over:
                omega, lo, hi = over
                old = u[verts]
                t -= old
                t *= omega
                t += old
                np.minimum(t, hi, out=t)
                np.maximum(t, lo, out=t)
            u[verts] = t


def _split(problem: AMLEProblem) -> tuple[np.ndarray, np.ndarray]:
    """The boundary's indices (it is sorted, as ``vertex_ids``) and the interior mask."""
    bidx = np.searchsorted(problem.graph.vertex_ids, problem.boundary)
    interior = np.ones(problem.graph.n_vertices, dtype=bool)
    interior[bidx] = False
    return bidx, interior


def solve_amle(
    problem: AMLEProblem,
    tol: float = 1e-10,
    max_iter: int = 10 ** 6,
    init: str | Mapping[int, float] = "mcshane",
) -> AMLESolution:
    """Gauss-Seidel relaxation for the discrete infinity-harmonic problem.

    Each iteration sweeps the interior once, replacing every vertex value
    by the exact balance point of its neighbors, one color class at a
    time so no two adjacent vertices ever update against stale values.
    The first sweeps over-relax that step.  Relaxed iterates are not
    monotone, so the exact min/max bracket (module docstring) holds for
    plain sweeps only: the solutions from the ``min`` and ``max`` fills
    agree at convergence, and ``comparison_check`` orders them up to its
    ``tol``.  Once the residual reaches ``tol`` or stalls the sweeps are
    plain, so a solve that converges ends on plain sweeps.  Stops when the
    largest local slope imbalance is at most ``tol``; on hitting
    ``max_iter`` first, returns the last iterate with ``converged =
    False``.  ``init`` selects the starting interior fill:
    the range-clamped McShane extension (default), the constant min or
    max of the boundary data, or an explicit field.
    """
    if not (tol > 0):
        raise InputError("tol must be positive")
    G = problem.graph
    ids = G.vertex_ids
    metric = G._metric(problem.metric_choice)
    bidx, interior = _split(problem)
    reach = np.isfinite(G.distances_from(list(problem.boundary), mask=metric, min_only=True))
    active_idx = np.flatnonzero(interior & reach)

    u = np.full(G.n_vertices, math.nan)
    u[bidx] = list(problem.g.values())
    gmin = min(problem.g.values())
    gmax = max(problem.g.values())
    if isinstance(init, str):
        if init == "mcshane":
            # the extension lists every vertex in index order; clamped as
            # min(gmax, max(gmin, t)), so a NaN goes to gmin
            t = mcshane_extend(G, problem.boundary, problem.g, metric)
            t = np.fromiter(t.values(), float, G.n_vertices)[active_idx]
            t = np.where(t > gmin, t, gmin)
            u[active_idx] = np.where(t < gmax, t, gmax)
        elif init == "min":
            u[active_idx] = gmin
        elif init == "max":
            u[active_idx] = gmax
        else:
            raise InputError(f"unknown init {init!r}")
    else:
        u[active_idx] = _values(init, ids[active_idx].tolist(), "init field")

    residual, iterations = 0.0, 0
    if active_idx.size:  # else there is nothing to sweep
        sweep = _Sweep(G._csr(metric), active_idx)
        # over-relaxed sweeps while ``over``, unless a step could overflow;
        # a relaxed step never leaves [gmin, gmax]
        relaxed = _OMEGA != 1 and math.isfinite(_OMEGA * (gmax - gmin))
        over = (_OMEGA, gmin, gmax) if relaxed else ()
        # the lowest full residual and its sweep; the sweep of the last one
        best, low, last = math.inf, 0, 0
        while True:
            due = bool(over) and iterations - last >= _WINDOW // 4
            # a witness above tol certifies that the residual is above tol
            if due or iterations >= max_iter or not sweep.witnessed(u, tol):
                residual, last = sweep.residual(u, tol), iterations
                # a relaxed sweep's iterate gets plain sweeps to stop on
                if iterations >= max_iter or residual <= tol and not (over and iterations):
                    break
                if residual < best:
                    best, low = residual, iterations
                if residual <= tol or iterations - low >= _WINDOW:
                    over = ()  # plain sweeps for good: they make the stop
            sweep.relax(u, *over)
            iterations += 1

    return AMLESolution(
        u=dict(zip(ids.tolist(), u.tolist())),
        residual=residual,
        iterations=iterations,
        converged=residual <= tol,
        degenerate_vertices=tuple(ids[interior & ~reach].tolist()),
        tol=float(tol),
        problem=problem,
    )


def check_amle_local(u: Mapping[int, float], problem: AMLEProblem) -> dict[int, float]:
    """Per-interior-vertex slope imbalance |max up-slope - max down-slope|.

    Requires ``u`` to equal the boundary data exactly and to be a finite
    number at every interior vertex with an edge and at its neighbours;
    ``InputError`` names the first missing or bad value, boundary first,
    then in id order.  Interior vertices
    with no edges under the problem's metric choice get residual 0 (the
    balance condition is vacuous there, the degenerate regime); every
    other vertex reads inf only when its imbalance is past the float range.
    """
    G = problem.graph
    ids = G.vertex_ids
    for v, x in zip(problem.boundary, _values(u, problem.boundary, "u").tolist()):
        if x != problem.g[v]:
            raise InputError(f"u differs from boundary data at vertex {v}")
    rows = np.flatnonzero(_split(problem)[1])
    sub = G._csr(problem.metric_choice)[rows]
    owner, heads = np.repeat(rows, np.diff(sub.indptr)), sub.indices
    # the interior rows with edges and their neighbours, in id order
    read = np.unique(np.concatenate([owner, heads]))
    val = np.full(G.n_vertices, math.nan)
    val[read] = _values(u, ids[read].tolist(), "u")
    res = np.zeros(rows.size)
    edged = np.diff(sub.indptr) > 0
    if edged.any():
        starts = sub.indptr[:-1][edged]
        res[edged] = np.abs(_imbalance(val, owner, heads, sub.data, starts))
    return dict(zip(ids[rows].tolist(), res.tolist()))


def comparison_check(
    u1: AMLESolution, u2: AMLESolution, tol: float | None = None
) -> bool:
    """True when u1 <= u2 + tol pointwise (degenerate vertices skipped).

    The two solutions must come from the same graph, boundary, and metric
    choice, with boundary data g1 <= g2; anything else is an input error.
    """
    p1, p2 = u1.problem, u2.problem
    if p1.graph is not p2.graph or p1.boundary != p2.boundary:
        raise InputError("comparison_check needs solutions of matching problems")
    G = p1.graph
    if not np.array_equal(G.edge_mask(p1.metric_choice), G.edge_mask(p2.metric_choice)):
        raise InputError("comparison_check needs a common metric choice")
    for v in p1.boundary:
        if p1.g[v] > p2.g[v]:
            raise InputError("comparison_check requires g1 <= g2 on the boundary")
    if tol is None:
        tol = max(u1.tol, u2.tol)
    # a NaN on either side compares false
    a = np.fromiter(u1.u.values(), float, len(u1.u))
    b = np.fromiter(map(u2.u.__getitem__, u1.u), float, len(u1.u))
    return not np.any(a > b + tol)


def infinity_harmonic_extend(
    G: MetricMeasureGraph,
    omega: Sequence[int],
    g: Mapping[int, float],
    tol: float = 1e-10,
    max_iter: int = 10 ** 6,
) -> AMLESolution:
    """Infinity-harmonic extension of g across Omega via the essential metric.

    The boundary is the ring of complement vertices joined to Omega by a
    positive-measure edge; the problem is solved on the induced subgraph
    of Omega plus that ring under the essential metric, and g is copied
    outside Omega.  When no positive-measure edge leaves Omega the problem
    is the whole complement on ``G``: nothing is active, and the whole of
    Omega is degenerate and reported as such, the regime where extension
    data transfers with no uniqueness.
    """
    om, omega_idx = _vertex_set(G, omega, "Omega")
    ids = G.vertex_ids
    outside = np.ones(G.n_vertices, dtype=bool)
    outside[omega_idx] = False
    comp = ids[outside].tolist()
    if not comp:
        raise InputError("Omega covers the whole graph; nothing to extend from")
    g = dict(zip(comp, _values(g, comp, "g").tolist()))
    near = np.zeros(G.n_vertices, dtype=bool)
    near[G._csr("essential")[omega_idx].indices] = True
    ring = ids[near & outside].tolist()
    if ring:
        H, boundary, init = G.subgraph_vertices(om + ring), ring, "mcshane"
    else:  # the whole complement: nothing is active, and the start is never read
        H, boundary, init = G, comp, "min"
    sub = AMLEProblem(H, tuple(boundary), g, "essential")
    sol = solve_amle(sub, tol=tol, max_iter=max_iter, init=init)
    return replace(sol, u={**g, **{v: sol.u[v] for v in om}})

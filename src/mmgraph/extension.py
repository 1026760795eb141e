"""Lipschitz extension machinery.

Scalar extension is the classical inf-convolution: for boundary data u on
a vertex set Omega with Lipschitz constant L (in the chosen metric),

    Tu(x) = min over y in Omega of  u(y) + L * d(x, y),

computed in one multi-source shortest-path pass.  Truncating at the
sup-norm of the data preserves both the Lipschitz constant and the norm.

Vector-valued (and general Banach-target) data extends through a
Whitney-type cover of the exterior instead: blocks sized proportionally
to their distance from Omega, a Lipschitz partition of unity subordinate
to slightly inflated blocks, and one anchor value per block.  The cover
construction certifies its own invariants and refuses to extend over a
broken cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .graph import (
    Metric,
    MetricMeasureGraph,
    _chunk_sources,
    _distance_blocks,
    _distance_rows,
    _floats,
    _max_slope,
    _values,
    _vertex_set,
    lipschitz_constant,
)
from .util import CertifyError, InputError, LENGTH_TOL


@dataclass(frozen=True)
class NagataCover:
    """Greedy cover of a point set at scale s.

    Sets have diameter <= c*s by construction (c = 2: the cells of
    ``_greedy_net`` at separation s).  ``n`` is the empirically certified
    multiplicity minus one: no probe set of diameter <= s met more than
    n + 1 members.  The certification is by probing, not proof; probe
    statistics are recorded.
    """

    sets: tuple[tuple[int, ...], ...]
    s: float
    c: float
    n: int
    probe_stats: dict
    exceeded_target: bool

    def to_dict(self) -> dict:
        return {
            "sets": [list(d) for d in self.sets],
            "s": self.s,
            "c": self.c,
            "n": self.n,
            "probe_stats": dict(self.probe_stats),
            "exceeded_target": self.exceeded_target,
        }


@dataclass(frozen=True)
class WhitneyData:
    """Whitney-type cover of the exterior of Omega.

    Blocks are the cells of ``_greedy_net`` on each dyadic annulus;
    ``base_dists[i]`` is d(B_i, Omega), and diam(B_i) <= alpha *
    base_dists[i].  Anchors are nearest Omega vertices with
    d(z_i, B_i) < (2 - delta) * base.
    ``sigma`` holds the partition-of-unity weights
    sigma_i(x) = max(0, delta * base_i - d(B_i, x)) per exterior vertex,
    where delta = beta / (2 (beta + 1)); ``multiplicity`` is the largest
    support count, the n + 1 of the construction.
    """

    blocks: tuple[tuple[int, ...], ...]
    anchors: tuple[int, ...]
    base_dists: tuple[float, ...]
    alpha: float
    beta: float
    delta: float
    multiplicity: int
    sigma: dict[int, tuple[tuple[int, float], ...]]
    excluded: tuple[int, ...]
    omega: frozenset[int]

    def to_dict(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "anchors": list(self.anchors),
            "base_dists": list(self.base_dists),
            "alpha": self.alpha,
            "beta": self.beta,
            "delta": self.delta,
            "multiplicity": self.multiplicity,
            "excluded": list(self.excluded),
        }


@dataclass(frozen=True)
class VectorField:
    """Vector values on vertices with a fixed norm for size/Lipschitz audits."""

    values: dict[int, tuple[float, ...]]
    norm: str = "max"

    def __post_init__(self):
        dims = {len(v) for v in self.values.values()}
        if len(dims) > 1:
            raise InputError("vector field entries must share one dimension")
        if self.norm not in ("max", "euclidean"):
            raise InputError(f"unknown norm {self.norm!r}")

    @property
    def dim(self) -> int:
        for v in self.values.values():
            return len(v)
        return 0

    def _norms(self, rows: np.ndarray) -> np.ndarray:
        """The norm of each row of a 2-D array."""
        if self.norm == "max":
            return np.max(np.abs(rows), axis=1, initial=0.0)
        return np.sqrt(np.sum(rows * rows, axis=1))

    def norm_of(self, vec: Sequence[float]) -> float:
        """The norm of one vector, whose entries must be numbers (no
        strings or booleans, see ``graph._numbers``); a NaN entry gives NaN."""
        return float(self._norms(_floats([vec], "vector entries").reshape(1, -1))[0])

    def sup_norm(self) -> float:
        """The largest norm of an entry; ``InputError`` names the first
        vertex, in the field's order, whose entry is not a vector of
        numbers or has a NaN coordinate (see ``graph._values``)."""
        if not self.values:
            return 0.0
        rows = _values(self.values, list(self.values), "vector field", allow_inf=True, vector=True)
        return float(np.max(self._norms(rows)))


def as_vector_field(f: Mapping[int, object], norm: str = "max") -> VectorField:
    """Wrap scalar or sequence values as a VectorField.

    A scalar, a string among them, becomes a 1-tuple.  Entries are not
    converted here: the operators read them as numbers (``graph._values``),
    and an entry that is not one is an ``InputError`` naming its vertex.
    """
    return VectorField({k: (v,) if np.ndim(v) == 0 else tuple(v) for k, v in f.items()}, norm)


# -- scalar extension -------------------------------------------------------


def mcshane_extend(
    G: MetricMeasureGraph,
    omega: Sequence[int],
    u: Mapping[int, float],
    metric_choice: Metric = "graph",
) -> dict[int, float]:
    """Largest-slope-preserving extension of scalar data on Omega.

    Computes L = Lipschitz constant of u on Omega in the chosen metric,
    then Tu(x) = min over Omega of u(y) + L d(x, y).  The restriction to
    Omega equals u exactly; vertices at infinite distance from all of
    Omega receive +inf, and so does a reachable vertex where L d(x, y)
    overflows the float range.  Scalar targets only: the inf-convolution
    has no vector analog, which is what the Whitney route is for.
    """
    om, om_idx = _vertex_set(G, omega, "Omega")
    vals = _values(u, om, "boundary data")
    # resolved once: lipschitz_constant would read an edge predicate as a distance
    metric = G._metric(metric_choice)
    lip = lipschitz_constant(G, dict(zip(om, vals)), metric)
    csr = G._csr(metric)
    n = G.n_vertices
    # only Omega vertices in x's own component compete at x; offsetting by
    # each component's smallest value keeps every weight at most the
    # distance to that minimum, so no weight overflows when L is tiny
    n_comp, labels = connected_components(csr, directed=False)
    floor = np.full(n_comp, math.inf)
    np.minimum.at(floor, labels[om_idx], vals)
    floor = floor[labels]
    if lip > 0:
        # one search from a virtual source n joined to each y in Omega by
        # an edge of weight (u(y) - floor) / L; explicit zeros stay edges
        aug = csr_matrix(
            (
                np.concatenate([csr.data, (vals - floor[om_idx]) / lip]),
                np.concatenate([csr.indices, om_idx]),
                np.append(csr.indptr, csr.nnz + om_idx.size),
            ),
            shape=(n + 1, n + 1),
        )
        d = dijkstra(aug, directed=True, indices=n)[:n]
        # inf * 0 on Omega if L overflowed; L * d past the float range is inf
        with np.errstate(invalid="ignore", over="ignore"):
            tu = floor + lip * d
    else:
        tu = floor
    tu[om_idx] = vals
    return {int(v): float(x) for v, x in zip(G.vertex_ids, tu)}


def truncate_extend(
    G: MetricMeasureGraph,
    omega: Sequence[int],
    u: Mapping[int, float],
    metric_choice: Metric = "graph",
) -> dict[int, float]:
    """McShane extension clamped to the sup-norm of the boundary data.

    Eu = max(-M, min(M, Tu)) with M = max |u| over Omega; this keeps the
    Lipschitz constant of Tu and restores the exact sup-norm equality
    (unreachable vertices clamp to M as well, the literal value of the
    formula at +inf).
    """
    omega = list(omega)
    tu = mcshane_extend(G, omega, u, metric_choice)  # equal to u on Omega
    m = max(abs(tu[v]) for v in omega)
    return {k: float(min(m, max(-m, v))) for k, v in tu.items()}


# -- greedy nets: Nagata and Whitney covers ----------------------------------


def _greedy_net(
    G: MetricMeasureGraph, cols: np.ndarray, sep: float
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Nearest-center cells of the greedy sep-separated net of the points
    ``cols`` (vertex indices, scanned in order).

    A point becomes a center when no earlier center lies within sep of it,
    and every point joins its nearest center, the first on ties.  Only
    centers' rows are read: each kernel call searches the next uncovered
    points, truncated at sep + LENGTH_TOL, which keeps every distance
    below sep as an untruncated search gives it (``_distance_blocks``).

    Returns each point's cell, each cell's points (positions in ``cols``,
    in order; cells in the order their centers were chosen) and each
    cell's reach 2 far (1 + n 2**-49), far its largest member distance:
    by the path through the center, no search reports a distance between
    members above it (``analysis._diameters``).
    """
    ids, step = G.vertex_ids, _chunk_sources(G.n_vertices)
    mind = np.full(cols.size, math.inf)  # distance to the point's center
    assign = np.zeros(cols.size, dtype=np.int64)
    centers, at = 0, 0
    while (todo := at + np.flatnonzero(mind[at:] >= sep)[:step]).size:
        rows = G.distances_from(ids[cols[todo]].tolist(), limit=sep + LENGTH_TOL)
        for i, row in zip(todo.tolist(), np.atleast_2d(rows)):
            if mind[i] >= sep:
                d = row[cols]
                won = (d < sep) & (d < mind)
                mind[won], assign[won] = d[won], centers
                centers += 1
        at = int(todo[-1]) + 1
    members = np.split(np.argsort(assign, kind="stable"), np.cumsum(np.bincount(assign))[:-1])
    far = np.array([mind[m].max() for m in members])
    return assign, members, 2.0 * far * (1.0 + G.n_vertices * 2.0**-49)


def _diameter(G: MetricMeasureGraph, idx: np.ndarray, limit: float) -> float:
    """Largest distance among ``idx`` on rows truncated at ``limit`` (inf past it)."""
    return max(float(np.max(r[idx])) for r in _distance_rows(G, idx, limit=limit))


def nagata_cover(
    G: MetricMeasureGraph,
    s: float,
    target_n: int | None = None,
    points: Sequence[int] | None = None,
) -> NagataCover:
    """Greedy scale-s cover of a vertex set with empirical multiplicity.

    The sets are the cells of ``_greedy_net`` at separation s over the
    points in id order; a cell reaching past 2s + LENGTH_TOL is refused
    if its exact diameter is.  Multiplicity is certified by probing every
    closed ball of radius s/2, from one pass truncated at s/2: each such
    probe has diameter <= s, and the recorded n + 1 is the largest member
    count any probe met.
    """
    if not (s > 0) or not np.isfinite(s):
        raise InputError("scale s must be positive and finite")
    pts, cols = _vertex_set(G, G.vertex_ids.tolist() if points is None else points, "points")
    assign, members, reach = _greedy_net(G, cols, s)
    for c in np.flatnonzero(reach > 2.0 * s + LENGTH_TOL).tolist():
        diam = _diameter(G, cols[members[c]], math.inf)
        if diam > 2.0 * s + LENGTH_TOL:
            raise CertifyError(f"cover set diameter {diam} exceeds 2s = {2 * s}")

    counts = []  # per probe, the number of cells it meets
    for _, rows in _distance_blocks(G, cols, limit=s / 2.0):
        owner, j = (rows[:, cols] <= s / 2.0).nonzero()
        met = np.zeros((len(rows), len(members)), dtype=bool)
        met[owner, assign[j]] = True
        counts.append(met.sum(axis=1))
    counts = np.concatenate(counts)
    probe_max = int(counts.max())
    return NagataCover(
        sets=tuple(tuple(pts[j] for j in m.tolist()) for m in members),
        s=float(s),
        c=2.0,
        n=max(0, probe_max - 1),
        probe_stats={
            "probe_family": "closed balls of radius s/2",
            "probes": len(pts),
            "max_multiplicity": probe_max,
            "witness_center": pts[int(np.argmax(counts))],
        },
        exceeded_target=target_n is not None and probe_max > target_n + 1,
    )


def whitney_cover(
    G: MetricMeasureGraph,
    omega: Sequence[int],
    alpha: float = 2.0,
    beta: float = 0.5,
) -> WhitneyData:
    """Whitney-type cover of the exterior of Omega.

    Exterior vertices are grouped by dyadic annuli 2^k <= d(x, Omega) <
    2^(k+1), and the blocks of annulus k are the cells of ``_greedy_net``
    at separation alpha * 2^(k-1), which gives diam(B_i) <= alpha *
    d(B_i, Omega) directly.  Every invariant is validated; violations
    raise instead of degrading.  Exterior vertices unreachable from Omega
    are excluded and recorded.  Besides one search from Omega and the
    net's searches from its centers per annulus, each block makes one
    min-only search truncated at d(B_i, Omega), read for both its anchor
    and its weights (delta < 1/2), and one from its anchor for the
    proximity audit; a block reaching past its bound is audited too.
    """
    om, om_idx = _vertex_set(G, omega, "Omega")
    if not (alpha > 0) or not (beta > 0):
        raise InputError("alpha and beta must be positive")
    delta = beta / (2.0 * (beta + 1.0))
    ids = G.vertex_ids
    D = G.distances_from(om, min_only=True)
    ext = np.ones(G.n_vertices, dtype=bool)
    ext[om_idx] = False
    live = ext & np.isfinite(D)
    level = np.frexp(D)[1] - 1  # 2^level <= D < 2^(level+1), exactly
    blocks: list[tuple[int, ...]] = []
    anchors: list[int] = []
    bases: list[float] = []
    # per block its weights' vertices, block and values; the empty first
    # part keeps the columns typed when no vertex is live
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    for k in np.unique(level[live]).tolist():
        ann = np.flatnonzero(live & (level == k))
        _, cells, reaches = _greedy_net(G, ann, alpha * 2.0 ** (k - 1))
        for cell, reach in zip(cells, reaches.tolist()):
            bi, pts = len(blocks), ann[cell]
            base = float(np.min(D[pts]))
            blocks.append(tuple(ids[pts].tolist()))
            bases.append(base)
            row = G.distances_from(blocks[bi], limit=base, min_only=True)
            # anchor: the Omega vertex nearest to the block, smallest id on ties
            dom = row[om_idx]
            anchors.append(om[int(np.argmax(dom <= np.min(dom) + 1e-15))])
            near = np.flatnonzero((row < delta * base) & ext)
            parts.append((near, np.full(near.size, bi), delta * base - row[near]))
            # no search reports two members further apart than the reach
            bound = alpha * base + LENGTH_TOL
            if reach > bound:
                diam = _diameter(G, pts, bound)
                if diam > bound:
                    raise CertifyError(
                        f"block {bi} diameter {diam} exceeds alpha*d = {alpha * base}"
                    )
            arow = G.distances_from([anchors[bi]], limit=2.0 * base, min_only=True)
            d_anchor = float(np.min(arow[pts]))
            if not d_anchor < (2.0 - delta) * base + LENGTH_TOL:
                raise CertifyError(
                    f"block {bi} anchor at distance {d_anchor}, bound {(2.0 - delta) * base}"
                )

    # partition-of-unity weights of each live vertex, in block order
    vert, blk, weight = (np.concatenate(col) for col in zip(*parts))
    count = np.bincount(vert, minlength=G.n_vertices)
    empty = live & (count == 0)
    if empty.any():
        vid = int(ids[np.argmax(empty)])
        raise CertifyError(f"exterior vertex {vid} has empty partition support")
    order = np.lexsort((blk, vert))
    pairs = list(zip(blk[order].tolist(), weight[order].tolist()))
    ends = np.cumsum(count[live]).tolist()
    sigma = {v: tuple(pairs[a:b]) for v, a, b in zip(ids[live].tolist(), [0] + ends[:-1], ends)}
    return WhitneyData(
        blocks=tuple(blocks), anchors=tuple(anchors), base_dists=tuple(bases),
        alpha=float(alpha), beta=float(beta), delta=float(delta),
        multiplicity=int(count.max()), sigma=sigma,
        excluded=tuple(ids[ext & ~np.isfinite(D)].tolist()), omega=frozenset(om),
    )


def whitney_extend(
    G: MetricMeasureGraph,
    omega: Sequence[int],
    f: VectorField | Mapping[int, object],
    cover: WhitneyData,
) -> VectorField:
    """Extend vector data on Omega through a Whitney cover.

    F(x) = sum_i sigma_bar_i(x) f(z_i) over the blocks supporting x, a
    convex combination of anchor values, so the output sup-norm never
    exceeds (multiplicity) x -- indeed not even 1 x -- the data sup-norm.
    Refuses (CertifyError) if the cover does not match Omega or its
    partition data is broken.  Vertices excluded from the cover (no path
    to Omega) are omitted from the output.
    """
    om, _ = _vertex_set(G, omega, "Omega")
    vf = f if isinstance(f, VectorField) else as_vector_field(f)
    if cover.omega != frozenset(om):
        raise CertifyError("cover was built for a different Omega")
    vals = _values(vf.values, om, "boundary data", vector=True)
    for z in cover.anchors:
        if z not in vf.values:
            raise InputError(f"anchor {z} lacks boundary data")
    for bi, members in enumerate(cover.blocks):
        if not members:
            raise CertifyError(f"block {bi} is empty")
    dim = vf.dim
    out: dict[int, tuple[float, ...]] = dict(zip(om, map(tuple, vals.tolist())))
    for vid, entries in cover.sigma.items():
        total = sum(w for _, w in entries)
        if not (total > 0):
            raise CertifyError(f"partition of unity vanishes at vertex {vid}")
        acc = np.zeros(dim)
        for bi, w in entries:
            acc += (w / total) * np.asarray(vf.values[cover.anchors[bi]], dtype=float)
        out[vid] = tuple(float(x) for x in acc)
    return VectorField(out, vf.norm)


def vector_lipschitz_constant(
    G: MetricMeasureGraph,
    vf: VectorField,
    metric: Metric = None,
) -> float:
    """Largest norm(f(x) - f(y)) / d(x, y) over pairs in the field's domain."""
    keys, idx = _vertex_set(G, vf.values, "vector field")
    vals = _values(vf.values, keys, "vector field", vector=True)
    return _max_slope(G, idx, vals, vf._norms, metric)

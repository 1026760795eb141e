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

from .graph import Metric, MetricMeasureGraph, _max_slope, lipschitz_constant
from .util import CertifyError, InputError, LENGTH_TOL


@dataclass(frozen=True)
class NagataCover:
    """Greedy cover of a point set at scale s.

    Sets have diameter <= c*s by construction (c = 2: nearest-center
    cells of an s-separated net).  ``n`` is the empirically certified
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

    Blocks are per-dyadic-annulus nearest-center cells; ``base_dists[i]``
    is d(B_i, Omega), and diam(B_i) <= alpha * base_dists[i].  Anchors
    are nearest Omega vertices with d(z_i, B_i) < (2 - delta) * base.
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
        return float(self._norms(np.asarray(vec, dtype=float).reshape(1, -1))[0])

    def sup_norm(self) -> float:
        return max((self.norm_of(v) for v in self.values.values()), default=0.0)


def as_vector_field(f: Mapping[int, object], norm: str = "max") -> VectorField:
    """Wrap scalar or sequence values as a VectorField."""
    vals: dict[int, tuple[float, ...]] = {}
    for k, v in f.items():
        if isinstance(v, (int, float)):
            vals[int(k)] = (float(v),)
        else:
            vals[int(k)] = tuple(float(x) for x in v)
    return VectorField(vals, norm)


# -- scalar extension -------------------------------------------------------


def _check_omega(G: MetricMeasureGraph, omega, u) -> list[int]:
    om = sorted(int(v) for v in omega)
    if not om:
        raise InputError("Omega must be nonempty")
    seen = set()
    for v in om:
        G.index_of(v)
        if v in seen:
            raise InputError(f"duplicate vertex {v} in Omega")
        seen.add(v)
        if u is not None:
            if v not in u:
                raise InputError(f"boundary data missing at vertex {v}")
            if not np.isfinite(u[v]):
                raise InputError(f"boundary data not finite at vertex {v}")
    return om


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
    om = _check_omega(G, omega, u)
    # resolved once: lipschitz_constant would read an edge predicate as a distance
    metric = G._metric(metric_choice)
    vals = np.asarray([float(u[v]) for v in om])
    lip = lipschitz_constant(G, dict(zip(om, vals)), metric)
    csr = G._csr(metric)
    n = G.n_vertices
    om_idx = np.asarray([G.index_of(v) for v in om], dtype=np.int64)
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
    om = _check_omega(G, omega, u)
    tu = mcshane_extend(G, om, u, metric_choice)
    m = max(abs(float(u[v])) for v in om)
    return {k: float(min(m, max(-m, v))) for k, v in tu.items()}


# -- Nagata covers -----------------------------------------------------------


def nagata_cover(
    G: MetricMeasureGraph,
    s: float,
    target_n: int | None = None,
    points: Sequence[int] | None = None,
) -> NagataCover:
    """Greedy scale-s cover of a vertex set with empirical multiplicity.

    Centers form an s-separated net (scanned in id order), every point
    joins its nearest center (ties to the smallest center id), so sets
    have radius < s and diameter <= 2s.  Multiplicity is certified by
    probing every closed ball of radius s/2: each such probe has diameter
    <= s, and the recorded n + 1 is the largest member count any probe
    met.
    """
    if not (s > 0) or not np.isfinite(s):
        raise InputError("scale s must be positive and finite")
    if points is None:
        pts = [int(v) for v in G.vertex_ids]
    else:
        pts = sorted(int(v) for v in points)
        if len(set(pts)) != len(pts):
            raise InputError("duplicate points")
        for v in pts:
            G.index_of(v)
    if not pts:
        raise InputError("need at least one point")
    k = len(pts)
    dmat = G.distance_matrix(pts)
    cols = np.asarray([G.index_of(v) for v in pts], dtype=np.int64)
    dmat = dmat[:, cols]

    mind = np.full(k, math.inf)
    center_rows: list[int] = []
    for i in range(k):
        if mind[i] >= s:
            center_rows.append(i)
            np.minimum(mind, dmat[i], out=mind)
    dist_to_centers = dmat[center_rows]
    assign = np.argmin(dist_to_centers, axis=0)

    sets: list[tuple[int, ...]] = []
    for ci in range(len(center_rows)):
        rows = [j for j in range(k) if assign[j] == ci]
        sets.append(tuple(pts[j] for j in rows))
        diam = float(np.max(dmat[np.ix_(rows, rows)]))
        if diam > 2.0 * s + LENGTH_TOL:
            raise CertifyError(f"cover set diameter {diam} exceeds 2s = {2 * s}")

    probe_max = 0
    probe_witness = None
    for j in range(k):
        members = dmat[j] <= s / 2.0
        count = int(np.unique(assign[members]).size)
        if count > probe_max:
            probe_max = count
            probe_witness = pts[j]
    n = max(0, probe_max - 1)
    exceeded = target_n is not None and probe_max > target_n + 1
    return NagataCover(
        sets=tuple(sets),
        s=float(s),
        c=2.0,
        n=n,
        probe_stats={
            "probe_family": "closed balls of radius s/2",
            "probes": k,
            "max_multiplicity": probe_max,
            "witness_center": probe_witness,
        },
        exceeded_target=exceeded,
    )


# -- Whitney covers ----------------------------------------------------------


def whitney_cover(
    G: MetricMeasureGraph,
    omega: Sequence[int],
    alpha: float = 2.0,
    beta: float = 0.5,
) -> WhitneyData:
    """Whitney-type cover of the exterior of Omega.

    Exterior vertices are grouped by dyadic annuli of distance to Omega
    and clustered by a greedy net at separation alpha * 2^(k-1) within
    annulus k, which gives diam(B_i) <= alpha * d(B_i, Omega) directly.
    Every invariant is validated; violations raise instead of degrading.
    Exterior vertices unreachable from Omega are excluded and recorded.
    """
    om = _check_omega(G, omega, None)
    if not (alpha > 0) or not (beta > 0):
        raise InputError("alpha and beta must be positive")
    delta = beta / (2.0 * (beta + 1.0))
    omset = frozenset(om)
    ids = G.vertex_ids
    n = G.n_vertices
    D = G.distances_from(om, min_only=True)
    om_idx = np.asarray([G.index_of(v) for v in om], dtype=np.int64)

    ext_idx = [i for i in range(n) if int(ids[i]) not in omset]
    excluded = tuple(int(ids[i]) for i in ext_idx if not np.isfinite(D[i]))
    live = [i for i in ext_idx if np.isfinite(D[i])]
    if not live:
        return WhitneyData(
            blocks=(), anchors=(), base_dists=(), alpha=alpha, beta=beta,
            delta=delta, multiplicity=0, sigma={}, excluded=excluded,
            omega=omset,
        )

    levels = sorted({int(math.floor(math.log2(D[i]))) for i in live})
    blocks: list[tuple[int, ...]] = []
    anchors: list[int] = []
    bases: list[float] = []
    for k in levels:
        lo, hi = 2.0 ** k, 2.0 ** (k + 1)
        ann = [i for i in live if lo <= D[i] < hi]
        sep = alpha * 2.0 ** (k - 1)
        mind = np.full(len(ann), math.inf)
        owner = np.full(len(ann), -1, dtype=np.int64)
        n_centers = 0
        for j, i in enumerate(ann):
            if mind[j] >= sep:
                row = G.distances_from([int(ids[i])], limit=sep, min_only=True)
                for jj, ii in enumerate(ann):
                    dv = row[ii]
                    if dv < mind[jj]:
                        mind[jj] = dv
                        owner[jj] = n_centers
                n_centers += 1
        for ci in range(n_centers):
            members = [ann[j] for j in range(len(ann)) if owner[j] == ci]
            base = float(min(D[i] for i in members))
            blocks.append(tuple(int(ids[i]) for i in members))
            bases.append(base)
            # anchor: the Omega vertex nearest to the block, smallest id on ties
            brow = G.distances_from(
                [int(ids[i]) for i in members], limit=base, min_only=True
            )
            dom = brow[om_idx]
            near = float(np.min(dom))
            anchors.append(om[int(np.nonzero(dom <= near + 1e-15)[0][0])])

    # invariant audits: block diameter and anchor proximity
    for bi, members in enumerate(blocks):
        base = bases[bi]
        midx = [G.index_of(v) for v in members]
        if len(members) > 1:
            rows = np.atleast_2d(
                G.distances_from(list(members), limit=alpha * base + LENGTH_TOL)
            )
            diam = float(np.max(rows[:, midx]))
            if diam > alpha * base + LENGTH_TOL:
                raise CertifyError(
                    f"block {bi} diameter {diam} exceeds alpha*d = {alpha * base}"
                )
        arow = G.distances_from([anchors[bi]], limit=2.0 * base, min_only=True)
        d_anchor = float(np.min(arow[midx]))
        if not d_anchor < (2.0 - delta) * base + LENGTH_TOL:
            raise CertifyError(
                f"block {bi} anchor at distance {d_anchor}, "
                f"bound {(2.0 - delta) * base}"
            )

    # partition-of-unity weights
    sigma_lists: dict[int, list[tuple[int, float]]] = {int(ids[i]): [] for i in live}
    for bi, members in enumerate(blocks):
        radius = delta * bases[bi]
        row = G.distances_from(list(members), limit=radius, min_only=True)
        close = np.nonzero(row < radius)[0]
        for i in close:
            vid = int(ids[i])
            if vid in omset:
                continue
            sigma_lists.setdefault(vid, []).append((bi, float(radius - row[i])))

    multiplicity = 0
    sigma: dict[int, tuple[tuple[int, float], ...]] = {}
    for i in live:
        vid = int(ids[i])
        entries = tuple(sorted(sigma_lists.get(vid, [])))
        if not entries:
            raise CertifyError(f"exterior vertex {vid} has empty partition support")
        sigma[vid] = entries
        multiplicity = max(multiplicity, len(entries))

    return WhitneyData(
        blocks=tuple(blocks),
        anchors=tuple(anchors),
        base_dists=tuple(bases),
        alpha=float(alpha),
        beta=float(beta),
        delta=float(delta),
        multiplicity=multiplicity,
        sigma=sigma,
        excluded=excluded,
        omega=omset,
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
    om = _check_omega(G, omega, None)
    vf = f if isinstance(f, VectorField) else as_vector_field(f)
    if cover.omega != frozenset(om):
        raise CertifyError("cover was built for a different Omega")
    for v in om:
        if v not in vf.values:
            raise InputError(f"boundary data missing at vertex {v}")
    for z in cover.anchors:
        if z not in vf.values:
            raise InputError(f"anchor {z} lacks boundary data")
    for bi, members in enumerate(cover.blocks):
        if not members:
            raise CertifyError(f"block {bi} is empty")
    dim = vf.dim
    out: dict[int, tuple[float, ...]] = {}
    for v in om:
        vec = vf.values[v]
        if len(vec) != dim:
            raise InputError("boundary data dimensions disagree")
        if not np.all(np.isfinite(vec)):
            raise InputError(f"boundary data not finite at vertex {v}")
        out[v] = tuple(float(x) for x in vec)
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
    keys = sorted(vf.values)
    if not keys:
        raise InputError("empty vector field")
    vals = np.asarray([vf.values[k] for k in keys], dtype=float)
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise InputError(f"non-finite value at vertex {keys[int(np.argmax(bad))]}")
    return _max_slope(G, keys, vals, vf._norms, metric)

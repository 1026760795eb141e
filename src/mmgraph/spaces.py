"""Mesh generators for the example space families.

Every generator returns a validated :class:`MetricMeasureGraph` whose
edges include the lattice diagonals, so graph distances track the
ambient Euclidean metric within a small factor.  Vertex measures are
cell areas (clipped to the domain where it is curved), edge lengths are
Euclidean, and edge measures are 1 except where a generator's
negligible mode marks them 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph import MetricMeasureGraph, _id_type, _spec_array
from .util import InputError, SizeError

_MAX_LATTICE = 30_000_000
_CUSP_CENTER = (3.0, 0.0)
_CUSP_RADIUS_SQ = 5.0

#: The lattice neighbours (i + di, j + dj) that each point (i, j) has an
#: edge to, with the edge's length in mesh steps: the two axes, then the
#: two diagonals.
_STENCIL = ((1, 0, 1.0), (0, 1, 1.0), (1, 1, math.sqrt(2.0)), (1, -1, math.sqrt(2.0)))


def _stencil_edges(node: np.ndarray, h: float):
    """Endpoints and lengths of the lattice edges of mesh step ``h``
    between the points where ``node``, an (nx, ny) array of vertex
    numbers, is not -1: offset by offset of ``_STENCIL``, each in
    row-major order of the first endpoint."""
    nx, ny = node.shape
    ea, eb, elen = [], [], []
    for di, dj, steps in _STENCIL:
        a = node[max(0, -di):nx - max(0, di), max(0, -dj):ny - max(0, dj)]
        b = node[max(0, di):nx - max(0, -di), max(0, dj):ny - max(0, -dj)]
        both = (a >= 0) & (b >= 0)
        ea.append(a[both])
        eb.append(b[both])
        elen.append(np.full(ea[-1].size, h * steps))
    return np.concatenate(ea), np.concatenate(eb), np.concatenate(elen)


def _lattice_graph(
    x0: float,
    y0: float,
    keep: np.ndarray,
    h: float,
    mu: np.ndarray,
    mu_edge_val: float = 1.0,
) -> MetricMeasureGraph:
    """Grid-with-diagonals graph on the kept lattice points.

    ``keep`` and ``mu`` are (nx, ny) arrays over lattice point (i, j) at
    position (x0 + i h, y0 + j h).  Vertex ids are the row-major rank
    among kept points.
    """
    idx = np.full(keep.shape, -1, dtype=np.int64)
    idx[keep] = np.arange(int(keep.sum()))
    n = int(keep.sum())
    if n == 0:
        raise InputError("domain contains no lattice points at this h")
    ii, jj = np.nonzero(keep)
    pos = np.column_stack([x0 + ii * h, y0 + jj * h])
    ids = idx[keep]
    ea, eb, elen = _stencil_edges(idx, h)
    return MetricMeasureGraph.from_arrays(
        ids=ids,
        mu=mu[keep],
        pos=pos,
        edge_a=ea,
        edge_b=eb,
        edge_len=elen,
        edge_mu=np.full(ea.size, float(mu_edge_val)),
    )


def _lattice_dims(x0, x1, y0, y1, h) -> tuple[int, int]:
    sx, sy = (x1 - x0) / h, (y1 - y0) / h
    if not sx * sy < _MAX_LATTICE:  # also false for an infinite or NaN span
        raise SizeError("lattice exceeds the supported size")
    nx = int(math.floor(sx + 1e-9)) + 1
    ny = int(math.floor(sy + 1e-9)) + 1
    if nx * ny > _MAX_LATTICE:
        raise SizeError(f"lattice of {nx}x{ny} points exceeds the supported size")
    return nx, ny


def _step(h) -> float:
    """The mesh step ``h``, which must be a positive number."""
    h = _spec_array(h, "mesh step h", ()).item()
    if not h > 0:
        raise InputError("mesh step h must be positive and finite")
    return h


def gen_grid(
    h: float,
    rect: Sequence[float] | None = None,
    disc: Sequence[float] | None = None,
) -> MetricMeasureGraph:
    """Uniform mesh of an axis-aligned rectangle or a disc.

    Vertex measure is the cell area h^2; edges join lattice neighbors
    including diagonals and carry measure 1.
    """
    h = _step(h)
    if (rect is None) == (disc is None):
        raise InputError("give exactly one of rect or disc")
    if rect is not None:
        x0, y0, x1, y1 = _spec_array(rect, "rect", (4,)).tolist()
        if not (x1 > x0 and y1 > y0):
            raise InputError("rect must have positive extent")
        nx, ny = _lattice_dims(x0, x1, y0, y1, h)
        keep = np.ones((nx, ny), dtype=bool)
    else:
        cx, cy, r = _spec_array(disc, "disc", (3,)).tolist()
        if not (r > 0):
            raise InputError("disc radius must be positive")
        k = float(np.ceil(r / h))  # math.ceil raises on an infinite r / h
        x0, y0 = cx - k * h, cy - k * h
        nx, ny = _lattice_dims(x0, cx + r, y0, cy + r, h)
        xs = x0 + np.arange(nx) * h
        ys = y0 + np.arange(ny) * h
        keep = (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 <= r * r + 1e-12
    mu = np.full(keep.shape, h * h)
    return _lattice_graph(x0, y0, keep, h, mu)


# -- cusp domain -------------------------------------------------------------


def cusp_profile(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Named cusp width profiles on (0, 1], normalized so psi(1) = 1."""
    if name == "exp":
        return lambda t: np.exp(1.0 - 1.0 / np.maximum(t, 1e-300))
    if name == "t2":
        return lambda t: np.asarray(t) ** 2
    if name == "flat":
        return lambda t: np.ones_like(np.asarray(t, dtype=float))
    raise InputError(f"unknown cusp profile {name!r}")


def _psi_callable(psi) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(psi, str):
        return cusp_profile(psi)
    if callable(psi):
        def wrapped(t):
            t = np.asarray(t, dtype=float)
            out = psi(t)
            out = np.asarray(out, dtype=float)
            if out.shape != t.shape:
                out = np.asarray([psi(float(x)) for x in t.ravel()]).reshape(t.shape)
            return out
        return wrapped
    samples = _spec_array(psi, "psi samples", (None, 2))
    if not len(samples):
        raise InputError("psi samples must be nonempty")
    ts, vs = samples[np.lexsort(samples.T[::-1])].T
    if np.any(ts <= 0) or ts[-1] > 1.0 + 1e-12:
        raise InputError("psi samples must lie in (0, 1]")
    if np.any(np.diff(ts) <= 0):
        raise InputError("psi sample abscissae must be strictly increasing")
    if abs(ts[-1] - 1.0) > 1e-9 or abs(vs[-1] - 1.0) > 1e-9:
        raise InputError("psi samples must end at psi(1) = 1")

    def interp(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, ts, vs, left=vs[0], right=vs[-1])

    return interp


def gen_cusp(psi, h: float) -> MetricMeasureGraph:
    """Mesh of a ball with an outward cusp glued along x = 1.

    The domain is B((3, 0), sqrt 5) union {(x, y): 0 < x < 1, |y| < psi(x)}
    for a positive, nondecreasing width profile with psi(1) = 1 (named
    profile, callable, or sample list).  Vertex measures integrate the
    exact cell-domain overlap, which keeps the measure faithful even
    where the cusp is far thinner than the mesh step.
    """
    h = _step(h)
    f = _psi_callable(psi)
    r = math.sqrt(_CUSP_RADIUS_SQ)
    cx, cy = _CUSP_CENTER
    x0 = 0.0
    y0 = -float(np.ceil((cy + r) / h)) * h
    nx, ny = _lattice_dims(x0, cx + r, y0, cy + r, h)
    xs = x0 + np.arange(nx) * h
    ys = y0 + np.arange(ny) * h

    col = np.zeros(nx)
    strip = (xs > 0) & (xs < 1.0)
    vals = f(xs[strip])
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise InputError("psi must be positive and finite on (0, 1)")
    if np.any(np.diff(vals) < -1e-9):
        raise InputError("psi must be nondecreasing")
    end = f(np.asarray([1.0]))[0]
    if abs(end - 1.0) > 1e-6:
        raise InputError(f"psi(1) must equal 1, got {end}")
    col[strip] = vals

    ball_half = np.zeros(nx)
    inball = (xs - cx) ** 2 < _CUSP_RADIUS_SQ
    ball_half[inball] = np.sqrt(_CUSP_RADIUS_SQ - (xs[inball] - cx) ** 2)
    half_width = np.maximum(col, ball_half)
    keep = np.abs(ys[None, :]) < half_width[:, None]

    # cell measures: integrate the vertical overlap of each cell with the
    # domain across the cell's x-extent (midpoint rule, 8 nodes)
    nodes = (np.arange(8) + 0.5) / 8.0 - 0.5
    mu = np.zeros((nx, ny))
    ii, jj = np.nonzero(keep)
    xv = xs[ii]
    yv = ys[jj]
    acc = np.zeros(ii.size)
    for t in nodes:
        X = xv + t * h
        w_strip = np.zeros_like(X)
        s = (X > 0) & (X < 1.0)
        if np.any(s):
            w_strip[s] = f(X[s])
        w_ball = np.zeros_like(X)
        b = (X - cx) ** 2 < _CUSP_RADIUS_SQ
        w_ball[b] = np.sqrt(_CUSP_RADIUS_SQ - (X[b] - cx) ** 2)
        Y = np.maximum(w_strip, w_ball)
        over = np.minimum(yv + h / 2, Y) - np.maximum(yv - h / 2, -Y)
        acc += np.maximum(over, 0.0)
    mu[ii, jj] = acc * (h / 8.0)
    return _lattice_graph(x0, y0, keep, h, mu)


# -- collapsing quotients ----------------------------------------------------


def _polyline_distances(px: np.ndarray, py: np.ndarray, pts: np.ndarray) -> np.ndarray:
    d2 = np.full(px.shape, np.inf)
    if pts.shape[0] == 1:
        return np.sqrt((px - pts[0, 0]) ** 2 + (py - pts[0, 1]) ** 2)
    for k in range(pts.shape[0] - 1):
        p, q = pts[k], pts[k + 1]
        vx, vy = q[0] - p[0], q[1] - p[1]
        den = vx * vx + vy * vy
        if den == 0:
            t = np.zeros_like(px)
        else:
            t = np.clip(((px - p[0]) * vx + (py - p[1]) * vy) / den, 0.0, 1.0)
        dx = px - (p[0] + t * vx)
        dy = py - (p[1] + t * vy)
        np.minimum(d2, dx * dx + dy * dy, out=d2)
    return np.sqrt(d2)


def _collapse(
    x0: float,
    y0: float,
    h: float,
    S_labels: np.ndarray,
    n_collapsed: int,
    E_positions: list[tuple[float, float]],
) -> MetricMeasureGraph:
    """Contract each labeled lattice set to a single measure-0 vertex.

    ``S_labels`` is (nx, ny): -1 for ordinary points, or the index of the
    continuum the point collapses into.  Of parallel edges the shortest
    is kept, and edges are ordered by their (smaller, larger) endpoints.
    """
    plain = S_labels < 0
    k = int(plain.sum())
    node_of = k + S_labels
    node_of[plain] = np.arange(k)

    ii, jj = np.nonzero(plain)
    pos = np.zeros((k + n_collapsed, 2))
    pos[:k, 0] = x0 + ii * h
    pos[:k, 1] = y0 + jj * h
    for c, (ex, ey) in enumerate(E_positions):
        pos[k + c] = (ex, ey)
    mu = np.zeros(k + n_collapsed)
    mu[:k] = h * h

    na, nb, elen = _stencil_edges(node_of, h)
    keep = na != nb
    ea, eb, elen = np.minimum(na, nb)[keep], np.maximum(na, nb)[keep], elen[keep]
    order = np.lexsort((elen, eb, ea))
    ea, eb, elen = ea[order], eb[order], elen[order]
    first = np.r_[True, (ea[1:] != ea[:-1]) | (eb[1:] != eb[:-1])]
    return MetricMeasureGraph.from_arrays(
        ids=np.arange(k + n_collapsed),
        mu=mu,
        pos=pos,
        edge_a=ea[first],
        edge_b=eb[first],
        edge_len=elen[first],
        edge_mu=np.ones(np.count_nonzero(first)),
    )


def gen_collapsed(
    E: Sequence, box: Sequence[float], h: float
) -> MetricMeasureGraph:
    """Grid mesh of a box with the h-neighborhood of E contracted.

    All lattice points within h of the polyline E become one vertex of
    measure zero; edges into the contracted set keep their Euclidean
    length, shortest parallel edge winning.  The resulting graph metric
    approximates the quotient metric min(|x - y|, d(x, E) + d(E, y)).
    """
    return gen_multi_collapse([E], box, h)


def gen_multi_collapse(
    E_list: Sequence[Sequence], box: Sequence[float], h: float
) -> MetricMeasureGraph:
    """Like :func:`gen_collapsed` for several pairwise-disjoint continua."""
    h = _step(h)
    if not isinstance(E_list, (list, tuple)) or not E_list:
        raise InputError("e_list must be a nonempty list of continua")
    x0, y0, x1, y1 = _spec_array(box, "box", (4,)).tolist()
    if not (x1 > x0 and y1 > y0):
        raise InputError("box must have positive extent")
    nx, ny = _lattice_dims(x0, x1, y0, y1, h)
    xs = x0 + np.arange(nx) * h
    ys = y0 + np.arange(ny) * h
    px, py = np.meshgrid(xs, ys, indexing="ij")

    labels = np.full((nx, ny), -1, dtype=np.int64)
    centroids: list[tuple[float, float]] = []
    for c, E in enumerate(E_list):
        # an empty continuum captures no lattice points
        pts = _spec_array(E, f"continuum {c}", (None, 2))
        if np.any(pts < (x0, y0)) or np.any(pts > (x1, y1)):
            raise InputError("continuum extends outside the box")
        inside = _polyline_distances(px, py, pts) <= h + 1e-12
        if not np.any(inside):
            raise InputError("continuum captures no lattice points at this h")
        if np.any(labels[inside] >= 0):
            raise InputError("continua overlap at mesh scale h")
        labels[inside] = c
        centroids.append((float(pts[:, 0].mean()), float(pts[:, 1].mean())))
    return _collapse(x0, y0, h, labels, len(E_list), centroids)


# -- simplicial complexes ----------------------------------------------------


def gen_simplicial(spec: Mapping) -> MetricMeasureGraph:
    """Mesh a complex of 1- and 2-simplices with Hausdorff-share measures.

    ``spec`` holds ``points`` (a list of coordinate lists), ``segments``
    and ``triangles`` (lists of point index lists), optional ``atoms``
    (a list of ``[i, m]`` pairs, or a mapping from int ``i`` to ``m``, each
    adding mass ``m`` at point ``i``), and the mesh step ``h``.
    Coordinates, masses and ``h`` are numbers and indices are ints;
    strings and booleans are refused.  Segments subdivide into chains
    whose vertex measures split the length; triangles triangulate
    regularly, each small triangle crediting a third of its area to its
    corners.  Mesh points equal after rounding to 9 decimals merge into
    one vertex at the first one's position, so simplices glue where their
    boundaries coincide (triangles sharing a full side need equal
    subdivision counts, which equal side lengths give).  A complex
    of more than 30,000,000 mesh points, counted before merging, is a
    ``SizeError``.
    """
    h = _step(spec.get("h"))
    pts = _spec_array(spec.get("points"), "points", (None, None))
    if not len(pts):
        raise InputError("points must be nonempty")
    atoms = spec.get("atoms", [])
    atoms = list(atoms.items()) if isinstance(atoms, Mapping) else atoms
    masses = _spec_array(atoms, "atoms", (None, 2))[:, 1].tolist()
    if not all(m > 0 for m in masses):
        raise InputError("atom mass must be positive")
    simplices = {
        "segment": _spec_array(spec.get("segments", []), "segments", (None, 2), np.int64),
        "triangle": _spec_array(spec.get("triangles", []), "triangles", (None, 3), np.int64),
        "atom": _spec_array([i for i, _ in atoms], "atom points", (None,), np.int64)[:, None],
    }
    for name, S in simplices.items():
        T = np.sort(S, axis=1)
        bad = (T[:, 0] < 0) | (T[:, -1] >= len(pts)) | np.any(T[:, 1:] == T[:, :-1], axis=1)
        if bad.any():
            raise InputError(f"bad {name} {tuple(S[bad.argmax()].tolist())}")
    segments, triangles = simplices["segment"].tolist(), simplices["triangle"].tolist()
    if not segments and not triangles:
        raise InputError("complex has no simplices")
    dim = pts.shape[1]
    if triangles and dim not in (2, 3):
        raise InputError("triangles need 2D or 3D points")

    # every simplex's length and subdivision count, before any point is built;
    # points too far apart for a float give an infinite length, refused below
    with np.errstate(over="ignore"):
        seg_len = [np.linalg.norm(pts[b] - pts[a]) for a, b in segments]
        sides = [[np.linalg.norm(pts[j] - pts[i]) for i, j in ((a, b), (b, c), (c, a))]
                 for a, b, c in triangles]
        steps = np.asarray(seg_len + [max(s) for s in sides]) / h
    if min(seg_len, default=1.0) <= 0:
        raise InputError("zero-length segment")
    if min(map(min, sides), default=1.0) <= 0:
        raise InputError("degenerate triangle")
    if not np.isfinite(steps).all():
        raise SizeError("a simplex spans more mesh steps than a float holds")
    subdiv = [max(1, round(x)) for x in steps.tolist()]
    size = sum(n + 1 for n in subdiv[:len(seg_len)])
    size += sum((n + 1) * (n + 2) // 2 for n in subdiv[len(seg_len):])
    if size > _MAX_LATTICE:
        raise SizeError(f"complex of over {_MAX_LATTICE} mesh points exceeds the supported size")

    # each simplex's lattice points, and its small simplices as rows of point
    # numbers: the segments' links, then per triangle lattice point (a, b) its
    # up cell (a, b), (a + 1, b), (a, b + 1) and its down cell, if it has one
    seg_len, seg_n = np.asarray(seg_len), np.asarray(subdiv[:len(seg_len)], dtype=np.int64)
    points = [pts[a] + (pts[b] - pts[a]) * (np.arange(n + 1) / n)[:, None]
              for (a, b), n in zip(segments, seg_n.tolist())]
    start = int(np.sum(seg_n + 1))
    tails = np.delete(np.arange(start), np.cumsum(seg_n + 1) - 1)  # all but chain ends
    links, cells = np.c_[tails, tails + 1], [np.empty((0, 3), np.int64)]
    shares = [np.repeat(seg_len / (2 * seg_n), 2 * seg_n)]
    for (a_i, b_i, c_i), n in zip(triangles, subdiv[len(seg_len):]):
        A, u, v = pts[a_i], pts[b_i] - pts[a_i], pts[c_i] - pts[a_i]
        if dim == 2:
            area = abs(float(u[0] * v[1] - u[1] * v[0])) / 2.0
        else:
            area = float(np.linalg.norm(np.cross(u, v))) / 2.0
        shares.append(np.full(3 * n * n, area / (n * n) / 3.0))
        a, b = np.nonzero(np.tri(n + 1, dtype=bool)[::-1])  # a + b <= n, in order
        points.append(A + u * (a / n)[:, None] + v * (b / n)[:, None])
        i = np.flatnonzero(a + b < n)
        j = i + n + 1 - a[i]  # the point (a + 1, b)
        down = a[i] + b[i] < n - 1
        cell = np.c_[i, j, i + 1, j, i + 1, j + 1].reshape(-1, 3)
        cells.append(start + cell[np.c_[np.ones_like(down), down].ravel()])
        start += a.size
    cells = np.concatenate(cells)
    points = np.concatenate(points + [pts[simplices["atom"][:, 0]]])

    # points equal after rounding to 9 decimals are one vertex, numbered by
    # first appearance; a coordinate too large to round is its own key
    with np.errstate(over="ignore"):
        key = np.round(points, 9)
    key = np.where(np.isfinite(key), key, points)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    vid = np.argsort(np.argsort(first))[inverse.ravel()]
    pos = points[np.sort(first)]
    corners = np.r_[links.ravel(), cells.ravel(), start:len(points)]
    mu = np.bincount(vid[corners], np.concatenate(shares + [masses]))

    # edges are the small simplices' sides; the first one listed gives the length
    ends = vid[np.r_[links, cells[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)]]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    listed = np.flatnonzero(lo != hi)
    e = listed[np.unique(lo[listed] * len(pos) + hi[listed], return_index=True)[1]]
    d = pos[hi[e]] - pos[lo[e]]
    length = np.sqrt(d[:, None, :] @ d[:, :, None]).ravel()  # np.linalg.norm's BLAS dot
    on_link = e < len(links)
    length[on_link] = np.repeat(seg_len / seg_n, seg_n)[e[on_link]]
    return MetricMeasureGraph.from_arrays(
        ids=np.arange(len(pos), dtype=np.int64), mu=mu, pos=pos,
        edge_a=lo[e], edge_b=hi[e], edge_len=length, edge_mu=np.ones(e.size),
    )


# -- Sierpinski carpet --------------------------------------------------------


def gen_carpet(
    level: int,
    negligible_mode: str | Callable[[dict], bool] = "none",
) -> MetricMeasureGraph:
    """Level-k Sierpinski carpet as a grid graph on retained cells.

    Cells carry the self-similar measure 8^-k; edges join retained cells
    through faces and corners.  ``negligible_mode`` sets edge measures:
    ``"none"`` leaves them all 1, ``"all"`` zeroes every one (emulating
    the regime where the space carries no curve family of positive
    measure, so the essential metric disconnects), or a predicate on
    edge dicts marks a custom subset negligible.
    """
    if not _id_type(type(level)) or level < 1:
        raise InputError("carpet level must be a positive integer")
    if level > 6:
        raise SizeError("carpet level above 6 exceeds the supported size")
    m = 3 ** level
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    keep = np.ones((m, m), dtype=bool)
    for ell in range(level):
        p = 3 ** ell
        keep &= ~(((ii // p) % 3 == 1) & ((jj // p) % 3 == 1))
    s = 3.0 ** (-level)
    mu = np.full((m, m), 8.0 ** (-level))
    G = _lattice_graph(s / 2.0, s / 2.0, keep, s, mu)
    if negligible_mode == "none":
        return G
    if negligible_mode == "all":
        emu = np.zeros(G.n_edges)
    elif callable(negligible_mode):
        # carpet vertex ids are their indices
        ia, ib = G._edge_ia, G._edge_ib
        rows = zip(ia.tolist(), ib.tolist(), G.edge_lengths.tolist(),
                   *G.pos[ia].T.tolist(), *G.pos[ib].T.tolist())
        keys = ("a", "b", "len", "ax", "ay", "bx", "by")
        emu = [0.0 if negligible_mode(dict(zip(keys, row))) else 1.0 for row in rows]
    else:
        raise InputError(f"unknown negligible_mode {negligible_mode!r}")
    return MetricMeasureGraph.from_arrays(
        ids=G.vertex_ids,
        mu=G.mu,
        pos=G.pos,
        edge_a=G.vertex_ids[G._edge_ia],
        edge_b=G.vertex_ids[G._edge_ib],
        edge_len=G.edge_lengths,
        edge_mu=np.asarray(emu, dtype=np.float64),
    )


# -- mesh specs ---------------------------------------------------------------


@dataclass(frozen=True)
class MeshSpec:
    """Mesh request as given: kind, step, domain data, negligible mode."""

    kind: str
    h: float | None
    params: dict = field(default_factory=dict)
    negligible_mode: str = "none"

    @classmethod
    def from_dict(cls, d: Mapping) -> "MeshSpec":
        if "kind" not in d:
            raise InputError("mesh spec needs a 'kind'")
        params = {k: v for k, v in d.items() if k not in ("kind", "h", "negligible_mode")}
        return cls(
            kind=str(d["kind"]),
            h=d.get("h"),
            params=params,
            negligible_mode=str(d.get("negligible_mode", "none")),
        )

    def build(self) -> MetricMeasureGraph:
        k = self.kind
        p = self.params
        if k == "grid":
            return gen_grid(self.h, rect=p.get("rect"), disc=p.get("disc"))
        if k == "cusp":
            psi = p.get("psi", p.get("psi_samples"))
            if psi is None:
                raise InputError("cusp spec needs 'psi' or 'psi_samples'")
            return gen_cusp(psi, self.h)
        if k == "collapsed":
            return gen_collapsed(self._need("e"), self._need("box"), self.h)
        if k == "multi_collapse":
            return gen_multi_collapse(self._need("e_list"), self._need("box"), self.h)
        if k == "simplicial":
            return gen_simplicial(dict(p, h=self.h))
        if k == "carpet":
            return gen_carpet(self._need("level"), self.negligible_mode)
        raise InputError(f"unknown mesh kind {self.kind!r}")

    def _need(self, name: str):
        if name not in self.params:
            raise InputError(f"mesh kind {self.kind!r} needs {name!r}")
        return self.params[name]

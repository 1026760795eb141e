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

from .graph import MetricMeasureGraph
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
    nx = int(math.floor((x1 - x0) / h + 1e-9)) + 1
    ny = int(math.floor((y1 - y0) / h + 1e-9)) + 1
    if nx < 1 or ny < 1:
        raise InputError("degenerate domain")
    if nx * ny > _MAX_LATTICE:
        raise SizeError(f"lattice of {nx}x{ny} points exceeds the supported size")
    return nx, ny


def gen_grid(
    h: float,
    rect: Sequence[float] | None = None,
    disc: Sequence[float] | None = None,
) -> MetricMeasureGraph:
    """Uniform mesh of an axis-aligned rectangle or a disc.

    Vertex measure is the cell area h^2; edges join lattice neighbors
    including diagonals and carry measure 1.
    """
    if not (h > 0) or not np.isfinite(h):
        raise InputError("mesh step h must be positive and finite")
    if (rect is None) == (disc is None):
        raise InputError("give exactly one of rect or disc")
    if rect is not None:
        x0, y0, x1, y1 = map(float, rect)
        if not (x1 > x0 and y1 > y0):
            raise InputError("rect must have positive extent")
        nx, ny = _lattice_dims(x0, x1, y0, y1, h)
        keep = np.ones((nx, ny), dtype=bool)
    else:
        cx, cy, r = map(float, disc)
        if not (r > 0):
            raise InputError("disc radius must be positive")
        x0 = cx - math.ceil(r / h) * h
        y0 = cy - math.ceil(r / h) * h
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
    samples = sorted((float(t), float(v)) for t, v in psi)
    if not samples:
        raise InputError("psi samples must be nonempty")
    ts = np.asarray([t for t, _ in samples])
    vs = np.asarray([v for _, v in samples])
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
    if not (h > 0) or not np.isfinite(h):
        raise InputError("mesh step h must be positive and finite")
    f = _psi_callable(psi)
    r = math.sqrt(_CUSP_RADIUS_SQ)
    cx, cy = _CUSP_CENTER
    x0 = 0.0
    y0 = -math.ceil((cy + r) / h) * h
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


def _polyline_distances(px: np.ndarray, py: np.ndarray, E: Sequence) -> np.ndarray:
    pts = np.asarray(E, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise InputError("E must be a nonempty list of 2D points")
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
    if not (h > 0) or not np.isfinite(h):
        raise InputError("mesh step h must be positive and finite")
    if not E_list:
        raise InputError("need at least one continuum")
    x0, y0, x1, y1 = map(float, box)
    if not (x1 > x0 and y1 > y0):
        raise InputError("box must have positive extent")
    nx, ny = _lattice_dims(x0, x1, y0, y1, h)
    xs = x0 + np.arange(nx) * h
    ys = y0 + np.arange(ny) * h
    px = np.repeat(xs, ny).reshape(nx, ny)
    py = np.tile(ys, nx).reshape(nx, ny)

    labels = np.full((nx, ny), -1, dtype=np.int64)
    centroids: list[tuple[float, float]] = []
    for c, E in enumerate(E_list):
        try:
            pts = np.asarray(E, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad continuum points: {exc}") from exc
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise InputError("each continuum must be a nonempty list of 2D points")
        if np.any(pts[:, 0] < x0) or np.any(pts[:, 0] > x1) or np.any(
            pts[:, 1] < y0
        ) or np.any(pts[:, 1] > y1):
            raise InputError("continuum extends outside the box")
        dist = _polyline_distances(px, py, E)
        inside = dist <= h + 1e-12
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

    ``spec`` holds ``points`` (coordinate list), ``segments`` and
    ``triangles`` (index tuples), optional ``atoms`` (point index ->
    added mass), and the mesh step ``h``.  Segments subdivide into chains
    whose vertex measures split the length; triangles triangulate
    regularly, each small triangle crediting a third of its area to its
    corners.  Mesh vertices merge by exact position, so simplices glue
    where their boundaries coincide (triangles sharing a full side need
    equal subdivision counts, which equal side lengths give).  A vertex
    atom adds point mass at a designated original point.
    """
    try:
        pts = [tuple(float(c) for c in p) for p in spec["points"]]
        h = float(spec["h"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad simplicial spec: {exc}") from exc
    if not (h > 0):
        raise InputError("mesh step h must be positive")
    if not pts:
        raise InputError("points must be nonempty")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise InputError("points must share one dimension")
    segments = [tuple(int(i) for i in s) for s in spec.get("segments", [])]
    triangles = [tuple(int(i) for i in t) for t in spec.get("triangles", [])]
    for s in segments:
        if len(s) != 2 or any(not 0 <= i < len(pts) for i in s) or s[0] == s[1]:
            raise InputError(f"bad segment {s}")
    for t in triangles:
        if len(t) != 3 or any(not 0 <= i < len(pts) for i in t) or len(set(t)) != 3:
            raise InputError(f"bad triangle {t}")
    if not segments and not triangles:
        raise InputError("complex has no simplices")

    key_of = {}
    positions: list[tuple[float, ...]] = []
    measures: list[float] = []

    def vertex_at(p: np.ndarray) -> int:
        key = tuple(np.round(np.asarray(p, dtype=float), 9))
        vid = key_of.get(key)
        if vid is None:
            vid = len(positions)
            key_of[key] = vid
            positions.append(tuple(float(c) for c in p))
            measures.append(0.0)
        return vid

    edge_len: dict[tuple[int, int], float] = {}

    def add_edge(a: int, b: int, length: float) -> None:
        if a == b:
            return
        key = (min(a, b), max(a, b))
        edge_len.setdefault(key, length)

    for a_i, b_i in segments:
        A = np.asarray(pts[a_i])
        B = np.asarray(pts[b_i])
        L = float(np.linalg.norm(B - A))
        if L <= 0:
            raise InputError("zero-length segment")
        n = max(1, round(L / h))
        chain = [vertex_at(A + (B - A) * (i / n)) for i in range(n + 1)]
        for i in range(n):
            add_edge(chain[i], chain[i + 1], L / n)
            measures[chain[i]] += L / (2 * n)
            measures[chain[i + 1]] += L / (2 * n)

    for a_i, b_i, c_i in triangles:
        A, B, C = (np.asarray(pts[i]) for i in (a_i, b_i, c_i))
        sides = [np.linalg.norm(B - A), np.linalg.norm(C - B), np.linalg.norm(A - C)]
        if min(sides) <= 0:
            raise InputError("degenerate triangle")
        n = max(1, round(float(max(sides)) / h))
        u, v = B - A, C - A
        if dim == 2:
            area = abs(float(u[0] * v[1] - u[1] * v[0])) / 2.0
        else:
            area = float(np.linalg.norm(np.cross(u, v))) / 2.0
        cell = area / (n * n)
        grid_ids = {}
        for a in range(n + 1):
            for b in range(n + 1 - a):
                p = A + (B - A) * (a / n) + (C - A) * (b / n)
                grid_ids[(a, b)] = vertex_at(p)
        for a in range(n):
            for b in range(n - a):
                v0, v1, v2 = grid_ids[(a, b)], grid_ids[(a + 1, b)], grid_ids[(a, b + 1)]
                for v in (v0, v1, v2):
                    measures[v] += cell / 3.0
                if b < n - a - 1:
                    v3 = grid_ids[(a + 1, b + 1)]
                    for v in (v1, v2, v3):
                        measures[v] += cell / 3.0
        for (a, b), vid in grid_ids.items():
            for da, db in ((1, 0), (0, 1), (-1, 1)):
                other = grid_ids.get((a + da, b + db))
                if other is not None:
                    pa = np.asarray(positions[vid])
                    pb = np.asarray(positions[other])
                    add_edge(vid, other, float(np.linalg.norm(pb - pa)))

    atoms = spec.get("atoms", {})
    for key, mass in (atoms.items() if isinstance(atoms, Mapping) else atoms):
        idx = int(key)
        if not 0 <= idx < len(pts):
            raise InputError(f"atom references unknown point {idx}")
        if not (float(mass) > 0):
            raise InputError("atom mass must be positive")
        measures[vertex_at(np.asarray(pts[idx]))] += float(mass)

    keys = sorted(edge_len)
    return MetricMeasureGraph.from_arrays(
        ids=np.arange(len(positions), dtype=np.int64),
        mu=np.asarray(measures),
        pos=np.asarray(positions),
        edge_a=np.asarray([a for a, _ in keys], dtype=np.int64),
        edge_b=np.asarray([b for _, b in keys], dtype=np.int64),
        edge_len=np.asarray([edge_len[k] for k in keys]),
        edge_mu=np.ones(len(keys)),
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
    if not _is_int(level) or level < 1:
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
        emu = []
        for e in G.edges():
            pa = G.pos[G.index_of(e.a)]
            pb = G.pos[G.index_of(e.b)]
            info = {
                "a": e.a, "b": e.b, "len": e.length,
                "ax": float(pa[0]), "ay": float(pa[1]),
                "bx": float(pb[0]), "by": float(pb[1]),
            }
            emu.append(0.0 if negligible_mode(info) else 1.0)
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
    """Declarative mesh request: kind, step, domain data, negligible mode."""

    kind: str
    h: float | None
    params: dict = field(default_factory=dict)
    negligible_mode: str = "none"

    @classmethod
    def from_dict(cls, d: Mapping) -> "MeshSpec":
        if "kind" not in d:
            raise InputError("mesh spec needs a 'kind'")
        h = d.get("h")
        if h is not None and not _is_real(h):
            raise InputError(f"mesh step h must be a number, got {h!r}")
        params = {k: v for k, v in d.items() if k not in ("kind", "h", "negligible_mode")}
        return cls(
            kind=str(d["kind"]),
            h=None if h is None else float(h),
            params=params,
            negligible_mode=str(d.get("negligible_mode", "none")),
        )

    def build(self) -> MetricMeasureGraph:
        k = self.kind
        p = self.params
        if k == "grid":
            rect, disc = p.get("rect"), p.get("disc")
            return gen_grid(
                self._h(),
                rect=None if rect is None else self._numbers("rect", 4),
                disc=None if disc is None else self._numbers("disc", 3),
            )
        if k == "cusp":
            psi = p.get("psi", p.get("psi_samples"))
            if psi is None:
                raise InputError("cusp spec needs 'psi' or 'psi_samples'")
            return gen_cusp(psi, self._h())
        if k == "collapsed":
            return gen_collapsed(self._need("e"), self._numbers("box", 4), self._h())
        if k == "multi_collapse":
            return gen_multi_collapse(
                self._need("e_list"), self._numbers("box", 4), self._h()
            )
        if k == "simplicial":
            spec = dict(p)
            spec["h"] = self._h()
            return gen_simplicial(spec)
        if k == "carpet":
            return gen_carpet(self._need("level"), self.negligible_mode)
        raise InputError(f"unknown mesh kind {self.kind!r}")

    def _h(self) -> float:
        if self.h is None:
            raise InputError(f"mesh kind {self.kind!r} needs 'h'")
        return self.h

    def _need(self, name: str):
        if name not in self.params:
            raise InputError(f"mesh kind {self.kind!r} needs {name!r}")
        return self.params[name]

    def _numbers(self, name: str, count: int) -> list[float]:
        val = self._need(name)
        if (
            not isinstance(val, (list, tuple, np.ndarray))
            or len(val) != count
            or not all(_is_real(x) for x in val)
        ):
            raise InputError(f"{name!r} must be a list of {count} numbers, got {val!r}")
        return [float(x) for x in val]


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, (float, np.floating))

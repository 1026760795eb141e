"""Span tracing of mmgraph's public functions, installed from outside.

``Tracer.install()`` replaces each traced function at every place its
name is bound inside the ``mmgraph`` package (``cli`` imports
``load_graph`` by name, ``amle`` imports ``mcshane_extend``, and so on),
so calls are seen whichever module makes them.  ``uninstall()`` puts the
original objects back.  Nothing under ``src/`` is edited.

Each call records a span (id, parent id, name, start, end, counts) in
memory.  The parent is the innermost open span of the calling context.
``util.ordered_map`` runs each item of its caller's work in a span of
its own, ``<caller>#item``, opened explicitly under the map's span,
because context variables do not cross into ``ThreadPoolExecutor``
threads.  Item time counts as the caller's self time, so the map's own
self time is its pool overhead.
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

MODULES = ("graph", "spaces", "analysis", "util", "extension", "amle", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    thread: int = 0
    counts: dict = field(default_factory=dict)


def _arg(sig_names, defaults, args, kwargs, name):
    i = sig_names.index(name)
    if i < len(args):
        return args[i]
    return kwargs.get(name, defaults.get(name))


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def _count_distances(get, result):
    limit = get("limit")
    arrays = result if isinstance(result, tuple) else (result,)
    dist = np.asarray(arrays[0])
    return {
        "sources": len(get("source_ids")),
        "truncated": int(limit is not None and math.isfinite(limit)),
        "out_bytes": sum(np.asarray(a).nbytes for a in arrays),
        "entries": int(dist.size),
        "finite": int(np.count_nonzero(np.isfinite(dist))),
    }


def _file_bytes(get, _result):
    return {"bytes": os.path.getsize(get("path"))}


# name -> (module, attribute path, counter or None).  An attribute path
# with a dot is a method on a class.
TARGETS: dict[str, tuple[str, str, Callable | None]] = {
    "graph.distances_from": ("graph", "MetricMeasureGraph.distances_from", _count_distances),
    "graph.shortest_path": ("graph", "shortest_path", None),
    "graph.lipschitz_constant": (
        "graph", "lipschitz_constant", lambda get, r: {"pairs": _pairs(len(get("u")))}
    ),
    "graph.components": ("graph", "components", None),
    "graph.load_graph": ("graph", "load_graph", _file_bytes),
    "graph.save_graph": ("graph", "save_graph", _file_bytes),
    "spaces.MeshSpec.build": ("spaces", "MeshSpec.build", None),
    "spaces.gen_grid": ("spaces", "gen_grid", None),
    "spaces.gen_cusp": ("spaces", "gen_cusp", None),
    "spaces.gen_collapsed": ("spaces", "gen_collapsed", None),
    "spaces.gen_multi_collapse": ("spaces", "gen_multi_collapse", None),
    "spaces.gen_simplicial": ("spaces", "gen_simplicial", None),
    "spaces.gen_carpet": ("spaces", "gen_carpet", None),
    "analysis.poincare_constant": (
        "analysis", "poincare_constant", lambda get, r: {"balls": r.balls_checked}
    ),
    "analysis.quasiconvexity_constant": (
        "analysis", "quasiconvexity_constant", lambda get, r: {"pairs": r.samples}
    ),
    "analysis.hajlasz_gradient_from_upper": ("analysis", "hajlasz_gradient_from_upper", None),
    "analysis.verify_hajlasz": ("analysis", "verify_hajlasz", None),
    "analysis.doubling_ratios": ("analysis", "doubling_ratios", None),
    "util.ordered_map": ("util", "ordered_map", lambda get, r: {"items": len(get("items"))}),
    "extension.mcshane_extend": ("extension", "mcshane_extend", None),
    "extension.whitney_cover": (
        "extension", "whitney_cover", lambda get, r: {"blocks": len(r.blocks)}
    ),
    "extension.whitney_extend": ("extension", "whitney_extend", None),
    "extension.vector_lipschitz_constant": (
        "extension", "vector_lipschitz_constant",
        lambda get, r: {"pairs": _pairs(len(get("vf").values))},
    ),
    "extension.nagata_cover": ("extension", "nagata_cover", None),
    "amle.solve_amle": ("amle", "solve_amle", lambda get, r: {"sweeps": r.iterations}),
    "amle.check_amle_local": ("amle", "check_amle_local", None),
    "amle.infinity_harmonic_extend": ("amle", "infinity_harmonic_extend", None),
    "cli.main": ("cli", "main", None),
    "cli.read_scalar_csv": ("cli", "read_scalar_csv", None),
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """Open a span under ``parent``, or under the calling context's span."""
        sp = Span(next(self._ids), _current.get() if parent is None else parent,
                  name, 0.0, thread=threading.get_ident())
        self.spans.append(sp)
        self._by_id[sp.id] = sp
        token = _current.set(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            _current.reset(token)

    def _wrap(self, name: str, orig: Callable, counter: Callable | None) -> Callable:
        sig = inspect.signature(orig)
        names = list(sig.parameters)
        defaults = {k: p.default for k, p in sig.parameters.items()
                    if p.default is not inspect.Parameter.empty}
        is_map = name == "util.ordered_map"

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                if is_map:
                    args, kwargs = self._bind_items(sp, names, args, kwargs)
                result = orig(*args, **kwargs)
            if counter is not None:
                sp.counts.update(counter(
                    lambda key: _arg(names, defaults, args, kwargs, key), result
                ))
            return result

        traced.__wrapped__ = orig
        return traced

    def _bind_items(self, map_span: Span, names, args, kwargs):
        """Wrap ordered_map's ``fn`` so each item runs in a span under the map."""
        caller = self._by_id.get(map_span.parent)
        item_name = (caller.name if caller else map_span.name) + "#item"
        fn_pos = names.index("fn")
        fn = args[fn_pos] if fn_pos < len(args) else kwargs["fn"]

        def in_span(x):
            with self.span(item_name, parent=map_span.id):
                return fn(x)

        if fn_pos < len(args):
            args = args[:fn_pos] + (in_span,) + args[fn_pos + 1:]
        else:
            kwargs = dict(kwargs, fn=in_span)
        return args, kwargs

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {m: getattr(self.package, m) for m in MODULES}
        holders = [self.package] + list(mods.values())
        for name, (mod, attr, counter) in TARGETS.items():
            owner = mods[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, counter))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, counter)
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._set(holder, key, wrapped)

    def _set(self, holder, key, value) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, orig = self._restore.pop()
            setattr(holder, key, orig)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "name": sp.name,
                    "start": sp.start, "end": sp.end, "thread": sp.thread,
                    "counts": sp.counts,
                }) + "\n")


# -- aggregation ---------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children may overlap when they ran on worker threads, so their
    intervals are merged before they are subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        lo_edge = sp.start
        for a, b in sorted(children.get(sp.id, ())):
            a, b = max(a, lo_edge), min(b, sp.end)
            if b > a:
                covered += b - a
                lo_edge = b
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Raw per-function sums over a set of spans: calls, self_s, counts.

    All ``spaces.*`` spans fold into ``spaces.build``; its call count is
    the number of outermost ``spaces`` spans.  ``<caller>#item`` spans add
    their self time to the caller.
    """
    selfs = self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    tot: dict[str, float] = {}

    def add(key, val):
        tot[key] = tot.get(key, 0.0) + val

    for sp in spans:
        name = sp.name
        if name.endswith("#item"):
            add(name[: -len("#item")] + ".self_s", selfs[sp.id])
            continue
        if name.startswith("spaces."):
            parent = by_id.get(sp.parent)
            name = "spaces.build"
            if parent is None or not parent.name.startswith("spaces."):
                add(name + ".calls", 1)
        else:
            add(name + ".calls", 1)
        add(name + ".self_s", selfs[sp.id])
        for key, val in sp.counts.items():
            add(f"{name}.{key}", val)
    return tot


#: Per-layer metrics: name -> (unit, better).  ``layer_metrics`` computes
#: all but the last two, which need the untraced passes as well.
PER_LAYER: dict[str, tuple[str, str]] = {
    "graph.distances_from.calls": ("count", "lower"),
    "graph.distances_from.sources": ("count", "lower"),
    "graph.distances_from.self_s": ("s", "lower"),
    "graph.distances_from.truncated_share": ("fraction", "higher"),
    "graph.distances_from.out_mb": ("MB", "lower"),
    "graph.distances_from.finite_share": ("fraction", "higher"),
    "graph.shortest_path.calls": ("count", "lower"),
    "graph.shortest_path.self_s": ("s", "lower"),
    "graph.lipschitz_constant.calls": ("count", "lower"),
    "graph.lipschitz_constant.pairs": ("count", "lower"),
    "graph.lipschitz_constant.self_s": ("s", "lower"),
    "graph.components.self_s": ("s", "lower"),
    "graph.load_graph.self_s": ("s", "lower"),
    "graph.load_graph.mb": ("MB", "lower"),
    "graph.save_graph.self_s": ("s", "lower"),
    "graph.save_graph.mb": ("MB", "lower"),
    "spaces.build.calls": ("count", "lower"),
    "spaces.build.self_s": ("s", "lower"),
    "analysis.poincare_constant.self_s": ("s", "lower"),
    "analysis.poincare_constant.balls": ("count", "lower"),
    "analysis.quasiconvexity_constant.self_s": ("s", "lower"),
    "analysis.quasiconvexity_constant.pairs": ("count", "lower"),
    "analysis.hajlasz_gradient_from_upper.self_s": ("s", "lower"),
    "analysis.verify_hajlasz.self_s": ("s", "lower"),
    "analysis.doubling_ratios.self_s": ("s", "lower"),
    "util.ordered_map.calls": ("count", "lower"),
    "util.ordered_map.items": ("count", "lower"),
    "util.ordered_map.self_s": ("s", "lower"),
    "extension.mcshane_extend.self_s": ("s", "lower"),
    "extension.whitney_cover.self_s": ("s", "lower"),
    "extension.whitney_cover.blocks": ("count", "lower"),
    "extension.whitney_extend.self_s": ("s", "lower"),
    "extension.vector_lipschitz_constant.self_s": ("s", "lower"),
    "extension.vector_lipschitz_constant.pairs": ("count", "lower"),
    "extension.nagata_cover.self_s": ("s", "lower"),
    "amle.solve_amle.self_s": ("s", "lower"),
    "amle.solve_amle.sweeps": ("count", "lower"),
    "amle.solve_amle.sweep_ms": ("ms", "lower"),
    "amle.check_amle_local.self_s": ("s", "lower"),
    "amle.infinity_harmonic_extend.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.read_scalar_csv.self_s": ("s", "lower"),
    "cli.ladder_exponent": ("exponent", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tot: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from summed ``layer_totals``."""

    def ratio(num: str, den: str) -> float:
        return tot.get(num, 0.0) / tot[den] if tot.get(den) else 0.0

    kernel = "graph.distances_from."
    derived = {
        kernel + "truncated_share": ratio(kernel + "truncated", kernel + "calls"),
        kernel + "finite_share": ratio(kernel + "finite", kernel + "entries"),
        kernel + "out_mb": tot.get(kernel + "out_bytes", 0.0) / 1e6,
        "graph.load_graph.mb": tot.get("graph.load_graph.bytes", 0.0) / 1e6,
        "graph.save_graph.mb": tot.get("graph.save_graph.bytes", 0.0) / 1e6,
        "amle.solve_amle.sweep_ms": 1e3 * ratio("amle.solve_amle.self_s", "amle.solve_amle.sweeps"),
    }
    names = list(PER_LAYER)[:-2]
    return {k: derived[k] if k in derived else tot.get(k, 0.0) for k in names}

"""Command-line front end.

Subcommands wire the generators, metric analysis, extension operators,
and the AMLE solver into reproducible runs.  Every JSON report carries
the schema version and the seed; nothing time- or host-dependent is
written, so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 2 invalid input or usage, 3 certification or
invariant failure, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Mapping, Sequence

import numpy as np

from . import amle as amle_mod
from . import analysis, extension, spaces
from .graph import (
    _distance_blocks,
    _read_back,
    _vertex_set,
    component_count,
    lipschitz_constant,
    load_graph,
    save_graph,
)
from .util import (
    SCHEMA_VERSION,
    CertifyError,
    InputError,
    dump_json,
    fields_dict,
    json_ready,
    parse_float_list,
    parse_int_list,
    read_table,
    table_text,
)


# -- I/O helpers ---------------------------------------------------------------


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_report(args, payload: dict) -> None:
    """Write ``payload`` to ``--report`` with the envelope every report
    carries: the subcommand, the seed and the schema version."""
    body = dict(payload, command=args.subcommand, seed=args.seed,
                schema_version=SCHEMA_VERSION)
    buf = io.StringIO()
    dump_json(json_ready(body), buf)
    _write_text(args.report, buf.getvalue())


def _write_analysis(args, report) -> None:
    """The report of an analysis and, under ``--csv``, its per-row table."""
    _write_report(args, report.to_dict())
    if args.csv:
        _write_text(args.csv, report.to_csv())


def _scalar_csv(values: Mapping[int, float]) -> str:
    ids = sorted(values)
    return table_text(("vertex_id", "value"), (ids, [float(values[vid]) for vid in ids]))


def _vector_csv(values: Mapping[int, tuple]) -> str:
    ids = sorted(values)
    rows = np.array([values[vid] for vid in ids], dtype=np.float64)
    return table_text(["vertex_id"] + [f"v{k}" for k in range(rows.shape[1])], [ids, *rows.T])


def read_scalar_csv(path: str) -> dict[int, float]:
    """Read a vertex_id,value table (header optional)."""
    return {vid: x for vid, (x,) in read_table(path, 2).items()}


def read_vector_csv(path: str) -> dict[int, tuple]:
    """Read a vertex_id,v0,...,v{d-1} table (header optional)."""
    return {vid: tuple(x) for vid, x in read_table(path).items()}


def _load_spec(text: str) -> dict:
    if text.lstrip().startswith("{"):
        raw = text
    else:
        with open(text, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        d = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad mesh spec JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise InputError("mesh spec must be a JSON object")
    return d


# -- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = spaces.MeshSpec.from_dict(_load_spec(args.spec))
    G = spec.build()
    save_graph(G, args.out)
    if args.report:
        _write_report(args, {"kind": spec.kind, "n_vertices": G.n_vertices,
                             "n_edges": G.n_edges, "total_measure": G.total_measure()})
    return 0


def _dist_common(args, metric: str) -> int:
    G = load_graph(args.graph)
    sources = parse_int_list(args.source)
    if args.target is not None:
        # a search per source would name a bad first source before a bad target
        G.index_of(sources[0])
        yi = G.index_of(args.target)
        # every source's row from batched searches; the first source with
        # the strictly smallest distance wins, as in a scan of the list
        best = None
        for chunk, rows in _distance_blocks(G, [G.index_of(s) for s in sources], metric):
            k = int(np.argmin(rows[:, yi]))
            if best is None or rows[k, yi] < best[1][yi]:
                best = (int(chunk[k]), rows[k])
        xi, d = best
        path = _read_back(G, metric, d, xi, yi) if d[yi] < math.inf else []
        _write_report(
            args,
            {
                "metric": metric,
                "source": int(G.vertex_ids[xi]),
                "target": args.target,
                "distance": float(d[yi]),
                "path": G.vertex_ids[path].tolist(),
            },
        )
        return 0
    d = G.distances_from(sources, mask=metric, min_only=True)
    # vertex indices are in id order, so the row is already sorted by id
    _write_text(args.out, table_text(("vertex_id", "value"), (G.vertex_ids, d)))
    return 0


def cmd_dist(args) -> int:
    return _dist_common(args, "graph")


def cmd_essdist(args) -> int:
    return _dist_common(args, "essential")


def cmd_qc(args) -> int:
    G = load_graph(args.graph)
    report = analysis.quasiconvexity_constant(
        G,
        ambient="euclidean",
        R=args.R,
        metric_choice=args.metric,
        seed=args.seed,
        max_pairs=args.max_pairs,
    )
    _write_analysis(args, report)
    return 0


def cmd_doubling(args) -> int:
    G = load_graph(args.graph)
    centers = parse_int_list(args.centers)
    scales = parse_float_list(args.scales)
    report = analysis.doubling_ratios(G, centers, scales)
    _write_analysis(args, report)
    return 0


def cmd_pi_check(args) -> int:
    G = load_graph(args.graph)
    u = read_scalar_csv(args.u)
    rho = read_scalar_csv(args.rho)
    radii = parse_float_list(args.radii) if args.radii else None
    report = analysis.poincare_constant(G, u, rho, lam=args.lam, r=args.r, radii=radii,
                                        exhaustive_radii=args.exhaustive_radii)
    _write_analysis(args, report)
    return 0


def cmd_extend(args) -> int:
    G = load_graph(args.graph)
    data = read_scalar_csv(args.boundary)
    omega = sorted(data)
    if args.truncate:
        out = extension.truncate_extend(G, omega, data, metric_choice=args.metric)
    else:
        out = extension.mcshane_extend(G, omega, data, metric_choice=args.metric)
    _write_text(args.out, _scalar_csv(out))
    finite_part = {v: x for v, x in out.items() if np.isfinite(x)}
    # from reachability: an overflowed value is +inf too, but reachable
    reach = G.distances_from(omega, mask=args.metric, min_only=True)
    unreachable = [int(v) for v in G.vertex_ids[np.isinf(reach)]]
    payload = {
        "metric": args.metric,
        "truncated": bool(args.truncate),
        "omega_size": len(omega),
        "lip_boundary": lipschitz_constant(G, data, metric=args.metric),
        "lip_extension": lipschitz_constant(G, finite_part, metric=args.metric),
        "sup_norm": max(abs(v) for v in finite_part.values()),
        "unreachable": unreachable,
    }
    if args.certify:
        tol = 1e-9
        if payload["lip_extension"] > payload["lip_boundary"] + tol:
            raise CertifyError(
                "extension Lipschitz constant exceeds the boundary constant: "
                f"{payload['lip_extension']} > {payload['lip_boundary']}"
            )
        bad = [v for v in omega if out[v] != data[v]]
        if bad:
            raise CertifyError(f"extension disagrees with data on {bad[:5]}")
        payload["certified"] = True
    if args.report:
        _write_report(args, payload)
    return 0


def cmd_whitney(args) -> int:
    G = load_graph(args.graph)
    if args.boundary:
        f = read_vector_csv(args.boundary)
        omega = sorted(f)
    elif args.omega:
        f = None
        omega = parse_int_list(args.omega)
    else:
        raise InputError("whitney needs --boundary or --omega")
    cover = extension.whitney_cover(G, omega, alpha=args.alpha, beta=args.beta)
    payload = cover.to_dict()
    if f is not None:
        vf = extension.as_vector_field(f, norm=args.norm)
        F = extension.whitney_extend(G, omega, vf, cover)
        _write_text(args.out, _vector_csv(F.values))
        lip_data = extension.vector_lipschitz_constant(G, vf)
        lip_ext = extension.vector_lipschitz_constant(G, F)
        payload.update(
            sup_norm_data=vf.sup_norm(), sup_norm_extension=F.sup_norm(), lip_data=lip_data,
            lip_extension=lip_ext, expansion_factor=lip_ext / lip_data if lip_data > 0 else None,
        )
    if args.certify:
        _certify_whitney(G, cover)
        payload["certified"] = True
    _write_report(args, payload)
    return 0


def _certify_whitney(G, cover) -> None:
    """Independent audit: partition sums, bump Lipschitz bound, support counts."""
    weights = {}
    for vid, support in cover.sigma.items():
        total = sum(w for _, w in support)
        if not support or total <= 0:
            raise CertifyError(f"vertex {vid}: empty or zero bump support")
        if not 1 <= len(support) <= cover.multiplicity:
            raise CertifyError(
                f"vertex {vid}: support size outside [1, {cover.multiplicity}]"
            )
        weights[vid] = dict(support)
    for e in G.edges():
        if e.a in cover.omega and e.b in cover.omega:
            continue
        wa, wb = weights.get(e.a, {}), weights.get(e.b, {})
        for bi in {*wa, *wb}:
            jump = abs(wa.get(bi, 0.0) - wb.get(bi, 0.0))
            if jump > e.length + 1e-9:
                raise CertifyError(
                    f"bump {bi} jumps by {jump} over an edge of length {e.length}"
                )


def cmd_amle(args) -> int:
    G = load_graph(args.graph)
    data = read_scalar_csv(args.boundary)
    if args.whole_boundary:
        metric = args.metric or "graph"
        problem = amle_mod.AMLEProblem(
            graph=G,
            boundary=tuple(sorted(data)),
            g=dict(data),
            metric_choice=metric,
        )
        sol = amle_mod.solve_amle(
            problem, tol=args.tol, max_iter=args.max_iter, init=args.init
        )
    else:
        # the interface construction extends across the vertices the CSV
        # does not cover, and is an essential-metric notion by definition
        metric = args.metric or "essential"
        if metric != "essential":
            raise InputError(
                "amle without --whole-boundary always uses the essential "
                "metric; pass --whole-boundary to solve under the graph metric"
            )
        known = set(_vertex_set(G, data, "boundary")[0])
        omega = [int(v) for v in G.vertex_ids if int(v) not in known]
        sol = amle_mod.infinity_harmonic_extend(
            G, omega, dict(data), tol=args.tol, max_iter=args.max_iter
        )
    _write_text(args.out, _scalar_csv(sol.u))
    payload = dict(fields_dict(sol, "u", "problem"), metric=metric)
    if args.certify and sol.converged:
        res = None
        if not sol.degenerate_vertices:
            per_vertex = amle_mod.check_amle_local(dict(sol.u), sol.problem)
            res = max(per_vertex.values(), default=0.0)
        if res is not None and res > 10 * sol.tol:
            raise CertifyError(f"local AMLE residual {res} exceeds 10x tol")
        payload["certified"] = True
        if res is not None:
            payload["local_residual"] = res
    if args.report:
        _write_report(args, payload)
    return 0 if sol.converged else 4


def cmd_audit(args) -> int:
    G = load_graph(args.graph)
    neg = analysis.negligible_edges(G)
    payload = {
        "n_vertices": G.n_vertices,
        "n_edges": G.n_edges,
        "total_measure": G.total_measure(),
        "has_positions": G.pos is not None,
        "negligible_edge_count": len(neg.edge_indices),
        "components_graph_metric": component_count(G),
        "components_essential_metric": component_count(G, "positive"),
        "zero_measure_vertices": int(np.sum(G.mu <= 0)),
        "valid": True,
    }
    _write_report(args, payload)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, graph: bool = True) -> None:
    if graph:
        p.add_argument("--graph", required=True, help="input graph JSON path")
    p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    p.add_argument(
        "--report", default=None, help="report JSON path ('-' or omitted: stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmgraph",
        description="metric measure graph analysis, extension, and AMLE runs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a mesh graph from a spec")
    p.add_argument("--spec", required=True, help="mesh spec JSON path or inline JSON")
    p.add_argument("--out", required=True, help="output graph JSON path")
    _add_common(p, graph=False)
    p.set_defaults(func=cmd_gen)

    for name, fn in (("dist", cmd_dist), ("essdist", cmd_essdist)):
        p = sub.add_parser(name, help=f"{name}: shortest-path distances")
        _add_common(p)
        p.add_argument("--source", required=True, help="source id or comma list")
        p.add_argument("--target", type=int, default=None, help="single target id")
        p.add_argument("--out", default=None, help="distance CSV path (no --target)")
        p.set_defaults(func=fn)

    p = sub.add_parser("qc", help="quasiconvexity constant vs Euclidean ambient")
    _add_common(p)
    p.add_argument(
        "--R", type=float, default=np.inf, help="pair distance cutoff (default inf)"
    )
    p.add_argument("--metric", default="graph", help="graph or essential")
    p.add_argument("--max-pairs", type=int, default=100_000)
    p.add_argument("--csv", default=None, help="per-source worst-pair CSV path")
    p.set_defaults(func=cmd_qc)

    p = sub.add_parser("doubling", help="ball measure doubling ratios")
    _add_common(p)
    p.add_argument("--centers", required=True, help="comma list of center ids")
    p.add_argument("--scales", required=True, help="comma list of radii")
    p.add_argument("--csv", default=None, help="per-ball CSV path")
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("pi-check", help="weak (1,inf)-Poincare constant")
    _add_common(p)
    p.add_argument("--u", required=True, help="function CSV (vertex_id,value)")
    p.add_argument("--rho", required=True, help="upper gradient CSV")
    p.add_argument("--lam", type=float, required=True, help="ball dilation factor")
    p.add_argument("--r", type=float, required=True, help="scale cutoff")
    p.add_argument("--radii", default=None, help="comma list of ball radii")
    p.add_argument("--exhaustive-radii", action="store_true")
    p.add_argument("--csv", default=None, help="per-ball CSV path")
    p.set_defaults(func=cmd_pi_check)

    p = sub.add_parser("extend", help="McShane Lipschitz extension")
    _add_common(p)
    p.add_argument("--boundary", required=True, help="data CSV (vertex_id,value)")
    p.add_argument("--metric", default="graph", help="graph or essential")
    p.add_argument(
        "--truncate",
        action="store_true",
        help="clamp to the data sup-norm (norm-preserving extension)",
    )
    p.add_argument("--out", default=None, help="extension CSV path")
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("whitney", help="Whitney cover and extension")
    _add_common(p)
    p.add_argument("--boundary", default=None, help="vector data CSV")
    p.add_argument("--omega", default=None, help="comma list of ids (cover only)")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--norm", default="max", help="max or euclidean")
    p.add_argument("--out", default=None, help="extension CSV path")
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=cmd_whitney)

    p = sub.add_parser("amle", help="infinity-harmonic (AMLE) extension")
    _add_common(p)
    p.add_argument("--boundary", required=True, help="data CSV (vertex_id,value)")
    p.add_argument(
        "--metric",
        default=None,
        help="graph or essential (default: essential, or graph with "
        "--whole-boundary)",
    )
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10**6)
    p.add_argument("--init", default="mcshane", help="mcshane, min, or max")
    p.add_argument(
        "--whole-boundary",
        action="store_true",
        help="treat the CSV rows as the exact boundary set (skip the "
        "positive-measure interface construction)",
    )
    p.add_argument("--out", default=None, help="solution CSV path")
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=cmd_amle)

    p = sub.add_parser("audit", help="validate a graph and summarize invariants")
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertifyError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""mmgraph benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload diagnose|solve|cli --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; the program is imported from ``src/``
of the same checkout.  The workload's inputs are generated from the seed
(set-up, repeated and timed), then passes of program calls run in a
closed loop until the next pass would end after ``--seconds``.  Every
output of every pass is checked against an independent reference.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the passes); with ``--trace 1`` it
carries the per-layer metrics from the traced passes, which alternate
with untraced ones so that the tracing overhead can be reported.  The
lines before it are a human-readable table.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: MMGRAPH_THREADS per workload: only cli turns the ordered_map pool on.
THREADS = {"diagnose": 1, "solve": 1, "cli": 2}
#: Native thread pools are pinned to one thread so no run uses more
#: threads than the two cores of the reference machine.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUPS = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the benchmark's own tests")
    ap.add_argument("--corrupt", action="append", default=[], choices=("amle", "poincare"),
                    help="perturb an output before it is checked (self-test)")
    return ap.parse_args(argv)


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ladder_exponent(passes, names) -> float:
    """Log-log slope of per-rung CLI time against n over the grid ladder."""
    import numpy as np

    pts = []
    for name in names:
        rungs = [p.rung_s[name] for p in passes if name in p.rung_s]
        if rungs:
            pts.append((rungs[0][0], statistics.median(t for _, t in rungs)))
    if len(pts) < 2:
        return 0.0
    n, t = np.log([x for x, _ in pts]), np.log([y for _, y in pts])
    return float(np.polyfit(n, t, 1)[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mmgraph" / "__init__.py").is_file():
        print(f"perfbench: no mmgraph sources under {src}", file=sys.stderr)
        return 2
    os.environ["MMGRAPH_THREADS"] = str(THREADS[args.workload])
    for var in PINNED:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    import mmgraph
    import mmgraph.cli  # noqa: F401  (traced like the other modules)

    if Path(mmgraph.__file__).resolve().parent != (src / "mmgraph").resolve():
        print(f"perfbench: imported mmgraph from {mmgraph.__file__}", file=sys.stderr)
        return 2

    from spans import PER_LAYER, Tracer, layer_metrics, layer_totals
    from workloads import WORKLOADS, Pass

    wl = WORKLOADS[args.workload](mmgraph)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(1 if args.trace else SETUPS):
            t0 = time.perf_counter()
            inp = wl.setup(args.seed, args.size, str(work))
            setup_s.append(time.perf_counter() - t0)

        tracer = Tracer(mmgraph) if args.trace else None
        segments = []  # span index ranges: the traced setup, then each traced pass
        if tracer:
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    inp = wl.setup(args.seed, args.size, str(work))
            finally:
                tracer.uninstall()
            segments.append((0, len(tracer.spans)))

        # The warm-up pass fills the program's lazy caches and the
        # benchmark's reference values; it is checked but not timed.
        start = time.perf_counter()
        warm = Pass(None, args.corrupt)
        wl.run(inp, warm)
        passes, traced, durations = [], [], [time.perf_counter() - start]
        while True:
            on = bool(tracer) and (len(passes) + len(traced)) % 2 == 1
            p = Pass(tracer if on else None, args.corrupt)
            first = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            if on:
                tracer.install()
            try:
                wl.run(inp, p)
            finally:
                if on:
                    tracer.uninstall()
            durations.append(time.perf_counter() - t0)
            (traced if on else passes).append(p)
            if on:
                segments.append((first, len(tracer.spans)))
            if tracer and not traced:
                continue
            if time.perf_counter() - start + min(durations[1:]) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    every = [warm] + passes + traced
    attempted = sum(p.attempted for p in every)
    failures = Counter(f for p in every for f in p.failures)
    for msg, count in failures.most_common(20):
        print(f"perfbench: FAILED x{count}: {msg}", file=sys.stderr)
    failed = sum(failures.values())
    known = Counter(k for p in every for k in p.known)
    for msg, count in known.most_common(20):
        print(f"perfbench: KNOWN DEFECT, not counted as failed, x{count}: {msg}",
              file=sys.stderr)

    med = statistics.median
    rows = [("setup_s", "s", setup_s), ("wall_s", "s", [p.wall_s for p in passes])]
    rows += [(s, "s", [p.stage_s.get(s, 0.0) for p in passes]) for s in wl.stages]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  traced {len(traced)}  MMGRAPH_THREADS={THREADS[args.workload]}")
    print("  pass durations with checks (first is the warm-up): "
          + " ".join(f"{d:.2f}" for d in durations))
    for name, unit, vals in rows:
        hp = high_percentile(vals)
        tail = f"p{hp[0]} {hp[1]:.6g}" if hp else "p-high n/a"
        print(f"  {name:<24} {med(vals):12.6g} {unit:<8} n={len(vals):<3} {tail}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  {'peak_rss_mb':<24} {peak_rss_mb:12.6g} MB")
    print(f"  {'error_rate':<24} {failed / attempted:12.6g} fraction"
          f"  ({failed} of {attempted} operations failed)")
    print(f"  {'known_defect_rate':<24} {sum(known.values()) / attempted:12.6g} fraction"
          f"  ({sum(known.values())} operations hit the documented Poincare defect)")

    if tracer:
        sums = [layer_totals(tracer.spans[a:b]) for a, b in segments]
        keys = set().union(*sums)
        tot = {k: sums[0].get(k, 0.0) + med([s.get(k, 0.0) for s in sums[1:]]) for k in keys}
        values = layer_metrics(tot)
        values["cli.ladder_exponent"] = ladder_exponent(passes, getattr(inp, "ladder", []))
        values["trace.overhead_s"] = med([p.wall_s for p in traced]) - med(
            [p.wall_s for p in passes])
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        print("  per layer (traced setup + median traced pass):")
        for k, m in metrics.items():
            print(f"    {k:<44} {m['value']:12.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": med(setup_s), "unit": "s"},
            "wall_s": {"value": med([p.wall_s for p in passes]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload's inputs, then measure rounds and
check their outputs.  run.py starts it; run that instead.

Prints READY once the inputs are ready.  With --probe it stops there (run.py
times several set-ups per run); otherwise it measures whole rounds until the
next one would end past --seconds, checks every round's outputs and prints
one JSON line of results.  With --trace 1 it alternates untraced and traced
rounds and reports per-layer totals instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import tracer  # noqa: E402  (stdlib only; must not import mmlab first)


def _import_mmlab(traced):
    """Import mmlab.cli from the checkout; return set-up layer totals."""
    if traced:
        _, import_s, scipy_s = tracer.timed_import("mmlab.cli")
    else:
        import mmlab.cli  # noqa: F401
    import mmlab
    if not os.path.abspath(mmlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mmlab was imported from {mmlab.__file__}, not from {SRC}")
    if traced:
        return {"cli.import": {"s": import_s, "scipy_s": scipy_s, "calls": 1}}
    return {}


def _measure(workload, seconds, trace):
    """Whole rounds until the next would end past `seconds`.  Traced runs
    alternate untraced and traced rounds and make at least one of each."""
    import hostspeed  # not before READY: set-up time is mmlab's alone
    clock = hostspeed.Clock()
    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = trace is not None and len(rounds) % 2 == 1
        if traced and workload.in_process:
            trace.install(tracer.TARGETS)
            try:
                rnd = workload.round(clock, False)
            finally:
                trace.uninstall()
            rnd.layers = trace.take()
        else:
            rnd = workload.round(clock, traced)
        rounds.append((traced, rnd))
        elapsed = time.perf_counter() - t_start
        if elapsed + rnd.wall > seconds and (not trace or len(rounds) >= 2):
            return rounds


def _layer_metrics(rounds, setup_layers):
    """Per-layer metrics: the mean over traced rounds, plus set-up totals."""
    traced = [r for t, r in rounds if t]
    untraced = [r for t, r in rounds if not t]
    mean = {}
    for r in traced:
        tracer.merge(mean, r.layers)
    for counters in mean.values():
        for key in counters:
            counters[key] /= len(traced)
    remainder = statistics.fmean(r.wall - tracer.self_time(r.layers) for r in traced)
    tracer.merge(mean, setup_layers)
    metrics = {}
    for layer, counters in tracer.COUNTERS.items():
        got = mean.get(layer, {})
        metrics[f"{layer}.s"] = (got.get("s", 0.0), "s")
        for c in counters:
            metrics[f"{layer}.{c}"] = (got.get(c, 0), "count")
    imp = mean.get("cli.import", {})
    metrics["cli.import_s"] = (imp.get("s", 0.0), "s")
    metrics["cli.import_scipy_s"] = (imp.get("scipy_s", 0.0), "s")
    traced_wall = statistics.median(r.corrected for r in traced)
    untraced_wall = statistics.median(r.corrected for r in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    metrics["trace.raw_wall_s"] = (statistics.fmean(r.wall for r in traced), "s")
    metrics["trace.remainder_s"] = (remainder, "s")
    return metrics, mean


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    trace = tracer.Tracer() if args.trace else None
    setup_layers = _import_mmlab(bool(trace))
    import oracles
    import workloads
    if trace:
        trace.install(tracer.GENERATOR_TARGETS)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        if trace:
            trace.uninstall()
            tracer.merge(setup_layers, trace.take())
        print("READY", flush=True)
        if args.probe:
            return 0
        rounds = _measure(workload, args.seconds, trace)
        peak_rss_mb = workload.peak_rss_mb()
        oracles.self_check()
        problems, failed = [], 0
        for _, rnd in rounds:
            failed += len(rnd.errors)
            problems += [p for p in workload.check(rnd.values) if p not in problems]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = sorted({f"{label}: {text}" for _, r in rounds for label, text in r.errors.items()})
    for line in errors + problems:
        print(f"[{args.workload}] {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(workload.ops) * len(rounds),
              "failed": failed}
    if trace:
        if not workload.in_process:
            setup_layers = {}  # cli-batch layers, imports included, come from its children
        metrics, layers = _layer_metrics(rounds, setup_layers)
        absent = sorted(set(trace.absent) | getattr(workload, "absent", set()))
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": [{"traced": t, "wall_s": r.wall,
                                   "corrected_wall_s": r.corrected, "layers": r.layers}
                                  for t, r in rounds],
                       "setup_layers": setup_layers, "mean_layers": layers,
                       "absent": absent, "errors": errors}, fh, indent=1, sort_keys=True)
        print(f"[{args.workload}] trace written to {os.path.relpath(path, ROOT)}",
              file=sys.stderr)
        if absent:
            print(f"[{args.workload}] absent from mmlab: {', '.join(absent)}", file=sys.stderr)
    else:
        metrics = {"wall_s": (statistics.median(r.corrected for _, r in rounds), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    print(f"[{args.workload}] {len(rounds)} rounds, measured median "
          f"{statistics.median(r.wall for _, r in rounds):.4f} s, corrected median "
          f"{statistics.median(r.corrected for _, r in rounds):.4f} s", file=sys.stderr)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

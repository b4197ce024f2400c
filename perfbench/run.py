"""mmlab benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; mmlab is imported from its src/.  The
workloads, their inputs and the metrics are described in perfbench/README.md.

With --trace 0 the last line of standard output reports the end-to-end
metrics: wall_s (median time of a round, the workload's fixed batch of
operations), setup_s (median over several fresh processes of the time from
process start to inputs ready) and peak_rss_mb.  Both times are corrected
for the host's speed, as hostspeed.py explains.  With --trace 1 it reports
the per-layer metrics of a traced run instead.  `correct` says whether every
operation that did not fail gave a right answer; `attempted` and `failed`
count operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("obsdist", "lazy-search", "exact", "cli-batch")
SETUP_SAMPLES = 3        # processes whose set-up is timed; the last one measures
RUN_LIMIT_S = 170        # a run that has not ended by then is stopped


def _start(cmd, deadline):
    """Start a worker and wait for its READY line; return the process and
    its set-up seconds, corrected for host speed (see hostspeed.py)."""
    kernel = hostspeed.kernel_seconds()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc, deadline)
        raise RuntimeError(f"worker did not get its inputs ready: {line!r}")
    kernel = (kernel + hostspeed.kernel_seconds()) / 2
    return proc, seconds * hostspeed.REFERENCE_S / kernel


def _stop(proc, deadline):
    """Wait for a worker until the deadline, then kill it; return its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the run's time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mmlab", "__init__.py")):
        print(f"no mmlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup = []
        # set-up time is only reported untraced; the traced run skips the probes
        for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            proc, seconds = _start(cmd + ["--probe"], deadline)
            _stop(proc, deadline)
            setup.append(seconds)
        proc, seconds = _start(cmd, deadline)
        setup.append(seconds)
        out = _stop(proc, deadline)
    except RuntimeError as e:
        print(f"[{args.workload}] {e}", file=sys.stderr)
        return 1

    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        metrics = result["metrics"]
        result["metrics"] = {"wall_s": metrics["wall_s"],
                             "setup_s": {"value": statistics.median(setup), "unit": "s"},
                             "peak_rss_mb": metrics["peak_rss_mb"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""qmink benchmark: time to verdict of seeded batches of exact identities.

    python3 qbench/run.py --workload gradient --seed 1 --seconds 27 --trace 0

Run from the root of a checkout.  The runner generates the workload's batch
from the seed, then, until the measuring time is spent, starts fresh worker
processes one after another (a closed loop: one client, one process, one
thread, items back to back).  Each worker imports qmink from ``src/``, fills
its constant caches, runs the whole batch and reports per-item times and
verdicts.  A few extra workers only do the set-up, so ``setup_s`` is a
median over many fresh processes.  Every time is reported at the reference
speed: workers time calibration slices between the items, and each pass's
item times are multiplied by their scales (see worker.py), so the drift of a
shared host's speed between and within runs cancels.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with
``trace.overhead_s`` the traced minus the untraced time to verdict.  Human
readable lines come first; the last line of standard output is the JSON
result.  The exit code is 0 when a result was printed, whether or not the
checks passed (``correct`` says that), and non-zero when the program could
not be run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 4
SETUP_PROBES = 5
TIME_LIMIT_S = 170    # every run ends well inside 180 s
TAIL_SHARE = 0.1      # share of the items beyond the reported tail percentile

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))


class RunError(RuntimeError):
    pass


def _worker(args, started):
    remaining = TIME_LIMIT_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise RunError("time limit reached before the run completed")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited with {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile) at the highest percentile with at least
    TAIL_SHARE of the samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - math.ceil(TAIL_SHARE * len(ordered))
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def item_times(passes):
    """Each item's median time over the passes, at the reference speed."""
    return [statistics.median(reference(r)[i] for r in passes)
            for i in range(len(passes[0]["item_s"]))]


def reference(result):
    """A pass's item times at the reference speed."""
    return [t * k for t, k in zip(result["item_s"], result["item_scale"])]


def verdicts(passes):
    """Each pass's time to verdict at the reference speed."""
    return [sum(reference(r)) for r in passes]


def tally(passes):
    """(attempted, failed) item counts over worker passes."""
    return (sum(len(r["passed"]) for r in passes),
            sum(r["passed"].count(False) for r in passes))


def git_commit():
    """The checked-out commit read from .git, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, digest):
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy, "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace), "inputs_sha256": digest}


def spans_path(workload):
    return os.path.join("qbench", "out", f"{workload}.spans.jsonl.gz")


def measure(args):
    """Run the worker passes; returns (setup times, untraced, traced)."""
    started = time.perf_counter()
    deadline = started + args.seconds
    setups = []
    for _ in range(SETUP_PROBES):
        probe = _worker(["setup"], started)
        setups.append(probe["setup_s"] * probe["setup_scale"])
    spans = os.path.join(ROOT, spans_path(args.workload))
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    plain, traced = [], []
    while True:
        batch = ["batch", args.workload, str(args.seed)]
        pass_started = time.perf_counter()
        if args.trace and len(traced) < len(plain):
            traced.append(_worker(batch + ["1", spans], started))
            last = traced[-1]
        else:
            plain.append(_worker(batch + ["0"], started))
            last = plain[-1]
        setups.append(last["setup_s"] * last["setup_scale"])
        enough = len(plain) >= (1 if args.trace else MIN_PASSES) and \
            len(traced) >= (1 if args.trace else 0)
        # start another pass only if it should end within the measuring time
        now = time.perf_counter()
        if enough and 2 * now - pass_started > deadline:
            return setups, plain, traced


def end_to_end(setups, plain):
    items = item_times(plain)
    tail_s, pct = tail(items)
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(verdicts(plain)),
        "items_per_s": statistics.median(
            sum(r["passed"]) / v for r, v in zip(plain, verdicts(plain))),
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    notes = [f"item_p50_ms is the median and item_tail_ms p{pct:.1f} of the "
             f"{len(items)} items' median times in {len(plain)} passes; "
             f"verdict_s and items_per_s are medians of {len(plain)} passes; "
             f"setup_s is the median of {len(setups)} fresh processes",
             "times are at the reference speed; measured verdict_s median "
             f"{statistics.median(r['verdict_s'] for r in plain):.6g} s, "
             "mean scale of the passes " + " ".join(
                 f"{v / r['verdict_s']:.3f}"
                 for r, v in zip(plain, verdicts(plain)))]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, notes


def per_layer(plain, traced, workload):
    metrics = {}
    for name, unit in tracer.metric_names():
        if name == "trace.overhead_s":
            value = statistics.median(verdicts(traced)) - \
                statistics.median(verdicts(plain))
        else:
            value = statistics.median(r["layers"].get(name, 0) for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    last = traced[-1]
    layers = last["layers"]
    extra = [f"{c} (hit_ratio {layers[f'cache.{c}.hit_ratio']:.3g}, "
             f"size {layers[f'cache.{c}.size']})"
             for c in last["caches_found"] if c not in tracer.CACHES]
    notes = [f"absent entry points: {', '.join(last['absent']) or 'none'}",
             f"caches found but not declared: {', '.join(extra) or 'none'}",
             "caches declared but not found: "
             + (", ".join(c for c in tracer.CACHES
                          if c not in last["caches_found"]) or "none"),
             f"{last.get('spans', 0)} spans written to "
             f"{spans_path(workload)}; per-layer values are medians of "
             f"{len(traced)} traced passes"]
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qmink", "__init__.py")):
        print(f"qmink sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    items = workloads.generate(args.workload, args.seed)
    env = environment(args, workloads.digest(items))
    try:
        setups, plain, traced = measure(args)
    except RunError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    runs = plain + traced
    attempted, failed = tally(runs)
    if args.trace:
        metrics, notes = per_layer(plain, traced, args.workload)
    else:
        metrics, notes = end_to_end(setups, plain)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"batch: {len(items)} items per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes; "
          "closed loop, one client, one process, one thread")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for note in notes:
        print(note)
    for r in runs:
        for index, err in r["errors"]:
            print(f"item {index} raised {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

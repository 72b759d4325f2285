"""One measured pass in a fresh process.

    python3 qbench/worker.py setup
    python3 qbench/worker.py batch WORKLOAD SEED TRACE [SPANS_PATH]

``setup`` times importing qmink and filling its constant caches.  ``batch``
does the same set-up, then runs the seeded batch of WORKLOAD item by item,
back to back, and prints one JSON object with the per-item times and
verdicts, peak RSS and, when TRACE is 1, the per-layer metrics.  The qmink
package is imported from ``src/`` of the checkout that holds this file.

On a shared host the speed of a core drifts by tens of percent within
seconds.  So the worker also times short calibration slices, a fixed piece
of pure-Python work that never touches qmink: a block around the set-up,
and after each item a number of slices in proportion to the item's time.
A scale is REF_SLICE_S over the median time of nearby slices; multiplying
a measured time by it gives the time at the reference speed, the speed at
which one slice takes REF_SLICE_S.  Each item gets its own scale, from the
slices of the two gaps before it and the two after it.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402

CAL_LOOPS = 5000        # work of one calibration slice
REF_SLICE_S = 1.4e-3    # its median time on a 2-vCPU Intel Xeon VM
CAL_BLOCK = 15          # slices before and after the set-up, and before item 0
CAL_SHARE = 0.05        # slice time after an item, as a share of the item's
CAL_REACH = 2           # gaps on each side of an item that give its scale


def calibration_slice():
    """Seconds taken by one slice of fixed work (ints and a small dict)."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(CAL_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[acc & 1023] = acc
    return time.perf_counter() - t0


def scale_of(slices):
    """Factor from measured time to time at the reference speed."""
    return REF_SLICE_S / statistics.median(slices)


def setup():
    """Import qmink and fill the constant caches; returns seconds taken."""
    t0 = time.perf_counter()
    import qmink
    from qmink import lorentz as lz, matrices as mx
    src = os.path.join(ROOT, "src", "qmink")
    if os.path.dirname(os.path.abspath(qmink.__file__)) != src:
        raise ImportError(f"qmink imported from {qmink.__file__}, not {src}")
    for gen in ("x0", "xm", "xp", "x30", "x3"):
        mx.l_matrix(gen)
    mx.projectors()
    lz.rmatrices_fourvector()
    return time.perf_counter() - t0


def timed_setup():
    """setup() between two calibration blocks: (seconds, scale)."""
    slices = [calibration_slice() for _ in range(CAL_BLOCK)]
    setup_s = setup()
    slices += [calibration_slice() for _ in range(CAL_BLOCK)]
    return setup_s, scale_of(slices)


def run_batch(workload, items, tracer=None):
    """Run the items back to back; a False verdict or an exception fails
    an item.  Returns per-item seconds, scales, verdicts and error texts;
    calibration slices run in the gaps between the items."""
    times, passed, errors = [], [], []
    gaps = [[calibration_slice() for _ in range(CAL_BLOCK)]]
    clock = time.perf_counter
    for index, spec in enumerate(items):
        if tracer is not None:
            tracer.item = index
        t0 = clock()
        try:
            ok = workloads.run_item(workload, spec) is True
            err = None
        except Exception as exc:  # the item failed; keep measuring the rest
            ok, err = False, f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        passed.append(ok)
        if err is not None:
            errors.append((index, err))
        share = CAL_SHARE * times[-1] / REF_SLICE_S
        gaps.append([calibration_slice() for _ in range(max(1, round(share)))])
    # gap i is just before item i
    scales = [scale_of([t for gap in gaps[max(0, i + 1 - CAL_REACH):
                                         i + 1 + CAL_REACH] for t in gap])
              for i in range(len(items))]
    return {"verdict_s": sum(times), "item_s": times, "item_scale": scales,
            "passed": passed, "errors": errors}


def main(argv):
    setup_s, setup_scale = timed_setup()
    if argv[0] == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    items = workloads.generate(workload, seed)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        before = tracing.cache_snapshot(tracer.mods)
        tracer.install()
    result = run_batch(workload, items, tracer)
    result["setup_s"], result["setup_scale"] = setup_s, setup_scale
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        after = tracing.cache_snapshot(tracer.mods)
        result["layers"] = tracer.layer_metrics(before, after)
        result["absent"] = tracer.absent
        result["caches_found"] = sorted(after)
        if len(argv) > 4:
            tracer.write_spans(argv[4])
            result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Determinism self-check of the benchmark's in-process workloads.

    python3 perfbench/selfcheck.py

For each of paper-suite, wide-synth and wide-proof, runs the untraced
worker twice at seed 1 and once at seed 2, and the traced worker twice
at seed 1, then requires:

  * at the same seed: out_cost, out_t_count, out_gates, the QMDD node
    counts, route.swaps_inserted and optimize.sweeps repeat exactly, and
    alloc_mwords repeats within ALLOC_TOLERANCE (the GC counters pick up
    a few kilowords of runtime bookkeeping that may vary run to run);
  * at seed 2: the same out_* (the compiled inputs are fixed; the seed
    only picks the basis inputs of the output checks);
  * no run reports a failed job.

Prints one line per comparison and exits 0 when all hold, 1 otherwise.
Takes about five minutes on a 2-core machine.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's entry-point module)

ALLOC_TOLERANCE = 0.005
EXACT_LAYERS = (
    "qmdd.allocated_nodes", "qmdd.peak_nodes",
    "qmdd.staged.allocated_nodes", "qmdd.staged.peak_nodes",
    "route.swaps_inserted", "optimize.sweeps",
)
OUTPUTS = ("out_cost", "out_t_count", "out_gates")


def worker(workload, mode, seed):
    proc, _ = run.start_worker(workload, mode, seed)
    return run.finish_worker(proc, workload)[0]


def main():
    if not run.is_checkout():
        print("selfcheck: run from the root of a qsynth checkout",
              file=sys.stderr)
        return 2
    run.build()
    ok = True

    def expect(cond, what):
        nonlocal ok
        ok &= cond
        print(("ok   " if cond else "FAIL ") + what, flush=True)

    for workload in run.IN_PROCESS:
        a = worker(workload, "pass", 1)
        b = worker(workload, "pass", 1)
        c = worker(workload, "pass", 2)
        ta = worker(workload, "trace", 1)
        tb = worker(workload, "trace", 1)
        for r, label in ((a, "first"), (b, "repeat"), (c, "seed 2"),
                         (ta, "traced"), (tb, "traced repeat")):
            expect(r["failed"] == 0, f"{workload} {label}: {r['failed']} "
                   f"failed of {r['attempted']}")
        for k in OUTPUTS:
            expect(a[k] == b[k], f"{workload} {k} repeats: {a[k]} / {b[k]}")
            expect(a[k] == c[k], f"{workload} {k} across seeds: "
                   f"{a[k]} / {c[k]}")
        for k in EXACT_LAYERS:
            x, y = ta["layers"][k], tb["layers"][k]
            expect(x == y, f"{workload} {k} repeats: {x} / {y}")
        x, y = a["alloc_mwords"], b["alloc_mwords"]
        expect(abs(x - y) <= ALLOC_TOLERANCE * x,
               f"{workload} alloc_mwords within {ALLOC_TOLERANCE:.1%}: "
               f"{x:.3f} / {y:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

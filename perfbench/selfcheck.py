"""Reduced-size self-check of the benchmark's determinism assumptions.

    python3 perfbench/selfcheck.py [--workloads a,b]

Each workload's generated calls for seed ``SEED``, shrunk by ``SCALE``, run
three times in fresh interpreters: untraced with ``--threads 1``, untraced
with ``--threads 2`` and traced with ``--threads 1``.  Every call must exit
0, and its ``--out`` tree digest and exact counters must be identical across
the three.  Prints one PASS/FAIL line per workload; exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import sys
import time

import harness
import metrics
import workloads

SEED = 1
SCALE = 0.04
VARIANTS = (("threads1", 1, False), ("threads2", 2, False), ("traced", 1, True))


def check(workload: str) -> list[str]:
    """Problems found for one workload (empty when it passes)."""
    unit_calls = workloads.calls(workload, SEED, str(harness.work_dir("inputs")), SCALE)
    seen = {}
    problems = []
    deadline = time.monotonic() + 600.0
    for label, threads, trace in VARIANTS:
        variant = [dict(call, threads=threads) for call in unit_calls]
        tag = f"selfcheck-{workload}-{label}"
        unit = harness.run_unit(tag, variant, trace, deadline,
                                 workload in workloads.SPEED_CORRECTED)
        harness.cleanup_outputs(tag)
        if "error" in unit:
            problems.append(f"{label}: {unit['error'][-500:]}")
            continue
        for j, call in enumerate(unit["calls"]):
            if call["exit"] != 0:
                problems.append(f"{label} call {j}: exit {call['exit']} {call['exception'] or ''}")
            seen[label, j] = metrics.exact_counters(call)
    for (label, j), counters in seen.items():
        ref = seen.get(("threads1", j))
        if ref is not None and counters != ref:
            diff = sorted(k for k in counters if counters[k] != ref[k])
            problems.append(f"{label} call {j} differs from threads1 in {diff}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()
    failed = 0
    for workload in args.workloads.split(","):
        problems = check(workload)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload}", flush=True)
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""kodsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload photo --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is ``src/`` of the checkout this
file sits in.  A run is a closed loop of one client: it starts one fresh
interpreter per unit, waits for it, then starts the next while the next is
expected to end within ``--seconds`` (at least one).  Before the units it
starts set-up probes that only import kodsim.

Every ``cli.main`` call is one attempted operation.  It fails on exit status
1 or 2, an uncaught exception, a dead child, or an exit status, ``--out``
digest or exact counter that differs from an earlier run of the same seed,
workload and source in this checkout (kept under
``.bench_build/perfbench/refs.json``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the units run with spans and it carries the per-layer metrics.
Set-up time, and on the sampler workloads every end-to-end time, is in
seconds at a fixed reference speed: units probe the machine's speed after
set-up and around each call (``speed.py``), because the host's speed drifts
by tens of percent over minutes.  A traced run first runs one untraced unit
of the same seed, the baseline of ``trace.overhead_s``.  The full result,
with provenance, the times as measured and the probed speeds, is written
under ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import harness
import metrics
import workloads
from harness import ROOT, WORK

PROBES = 2
# Every run must end within 180 s; units still running at this point are
# killed.
RUN_LIMIT_S = 170.0


def _git() -> dict:
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=10, check=False)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


def _load(path, default):
    try:
        return json.loads((ROOT / path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return default


def _check_calls(units: list[dict], refs: dict, key: str) -> tuple[int, int, list[str]]:
    """Attempted and failed calls.  A call's first result for ``key`` (exit
    status, exact counters, ``--out`` digest) becomes the reference every
    later result must repeat; a call that exits non-zero is failed but still
    compared, since a gate failure is as deterministic as a pass."""
    attempted = failed = 0
    problems = []
    for u, unit in enumerate(units):
        n_calls = len(unit["spec"]["calls"])
        attempted += n_calls
        if "error" in unit:
            failed += n_calls
            problems.append(f"unit {u}: {unit['error'][-300:]}")
            continue
        for j, call in enumerate(unit["calls"]):
            seen = metrics.exact_counters(call)
            seen["counts"] = call["counts"]
            seen["exit"] = call["exit"]
            ref = refs.setdefault(f"{key}|call{j}", seen)
            bad = call["exit"] != 0 or ref != seen
            if call["exit"] != 0:
                problems.append(f"unit {u} call {j}: exit {call['exit']} {call['exception'] or ''}")
            if ref != seen:
                diff = sorted(k for k in seen if seen[k] != ref.get(k))
                problems.append(f"unit {u} call {j}: differs from reference in {diff}")
            hooks = sorted(k for k in call["counts"] if k.endswith(":hook_error"))
            if hooks:
                problems.append(f"unit {u} call {j}: counter hooks raised: {hooks}")
            failed += bad
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "kodsim" / "cli.py").is_file():
        print(f"no kodsim sources under {harness.SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    trace = bool(args.trace)
    name = args.workload
    src_sha = harness.tree_sha256()
    unit_calls = workloads.calls(name, args.seed, str(harness.work_dir("inputs")))
    corrected = name in workloads.SPEED_CORRECTED
    tag = f"{name}-seed{args.seed}-trace{args.trace}"

    if not harness.bytecode_cached():
        # the first run in a checkout compiles kodsim's bytecode; users pay
        # that once, so an uncounted probe takes it
        harness.run_unit(f"{tag}-warm", [], False, deadline, corrected)
    probes = [harness.run_unit(f"{tag}-probe{i}", [], False, deadline, corrected)
              for i in range(PROBES)]
    if all("error" in p for p in probes):
        print(probes[0]["error"], file=sys.stderr)
        return 1

    checked: list[dict] = []
    if trace:
        # tracing overhead is measured against one untraced unit of the same
        # seed, run just before the traced ones
        checked.append(harness.run_unit(f"{tag}-base", unit_calls, False, deadline, corrected))
    units: list[dict] = []
    t0 = time.monotonic()
    while True:
        units.append(harness.run_unit(f"{tag}-u{len(units)}", unit_calls, trace, deadline,
                                      corrected))
        elapsed = time.monotonic() - t0
        # another unit only if it is expected to end within --seconds, so a
        # run never measures much longer than it was asked to
        if elapsed * (len(units) + 1) / len(units) > min(args.seconds, deadline - t0):
            break
    harness.cleanup_outputs(tag)
    if all("error" in u for u in units):
        print(units[0]["error"], file=sys.stderr)
        return 1

    refs = _load(WORK / "refs.json", {})
    configs = json.dumps([c["config"] for c in unit_calls], sort_keys=True).encode()
    config_sha = hashlib.sha256(configs).hexdigest()[:16]
    # the benchmark's own code is in the key too: it defines the counters
    bench_sha = harness.tree_sha256(harness.BENCH)
    key = f"{name}|seed{args.seed}|src{src_sha[:16]}|bench{bench_sha[:16]}|{config_sha}"
    attempted, failed, problems = _check_calls(checked + units, refs, key)
    (ROOT / WORK / "refs.json").write_text(json.dumps(refs, sort_keys=True), encoding="utf-8")

    ok_units = [u for u in units if "error" not in u]
    if trace:
        base_wall = None if "error" in checked[0] else metrics.unit_wall(checked[0])
        values = metrics.per_layer(units, base_wall)
        wanted = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(units, probes)
        wanted = metrics.END_TO_END

    versions = ok_units[0]["versions"]
    provenance = {
        **_git(),
        "src_sha256": src_sha,
        "bench_sha256": bench_sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **versions,
        "blas_thread_pin": harness.BLAS_PIN,
        "speed_corrected": corrected,
        "workload": name,
        "seed": args.seed,
        "trace": trace,
        "seconds": args.seconds,
        "units": len(units),
        "calls": [
            {"kind": call["kind"], "threads": call["threads"],
             **{k: c.get(k) for k in ("config_hash", "trajectories", "n_steps")}}
            for call, c in zip(unit_calls, ok_units[0]["calls"])
        ],
    }
    detail = {
        "provenance": provenance,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "metrics": values,
        "exact": [[metrics.exact_counters(c) for c in u["calls"]] for u in ok_units],
        "setup_samples_s": [p["setup_s"] for p in probes if "error" not in p]
        + [u["setup_s"] for u in ok_units],
        "probe_speed_pass_s": [p.get("speed_pass_s") for p in probes],
        "units": [
            {k: u.get(k) for k in ("setup_s", "cpu_s", "peak_rss_mb", "speed_pass_s", "error")}
            | {"calls": [{k: c.get(k) for k in ("exit", "wall_s", "digest", "bytes")}
                         for c in u.get("calls", [])]}
            for u in units
        ],
        "base_unit": [{k: c.get(k) for k in ("exit", "wall_s", "digest")}
                      for c in checked[0].get("calls", [])] if checked else None,
        "elapsed_s": time.monotonic() - started,
    }
    if trace:
        detail["layers"] = [[c.get("layers") for c in u["calls"]] for u in ok_units]
    result_path = harness.work_dir("results") / f"{tag}.json"
    (ROOT / result_path).write_text(json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")

    for problem in problems:
        print(f"problem: {problem}")
    print(f"result: {result_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

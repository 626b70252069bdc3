"""Repeat benchmark runs over seeds and summarize their spread.

    python3 perfbench/sweep.py --workloads photo,kod --seeds 1-10 \
        --trace 0 [--record perfbench/baselines/BENCH_x.json]

Runs go seed by seed, and within a seed workload by workload.  For every
workload and metric it then prints the median of the runs, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread
``(q3 - q1) / median`` that the metric's bound in ``BENCHMARK.json`` is
compared against.  ``--record`` also writes every run's metrics and result
detail (provenance included) to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    names = args.workloads.split(",")
    record = {"benchmark": bench, "trace": args.trace, "workloads": {}}
    runs: dict[str, list[dict]] = {workload: [] for workload in names}
    sweep_start = time.monotonic()
    # seeds outside, workloads inside: a slow stretch of the machine then
    # lands on every workload rather than on one workload's whole set
    for seed in _seeds(args.seeds):
        for workload in names:
            started = time.monotonic()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            last = json.loads(lines[-1])
            detail_path = next(l.split(": ", 1)[1] for l in lines if l.startswith("result: "))
            detail = json.loads((ROOT / detail_path).read_text(encoding="utf-8"))
            runs[workload].append({"seed": seed, "result": last, "detail": detail,
                                   "started_s": started - sweep_start,
                                   "elapsed_s": time.monotonic() - started})
            values = {k: round(v["value"], 4) for k, v in last["metrics"].items()}
            shown = values if args.trace == 0 else {k: values[k] for k in list(values)[:6]}
            print(f"{workload} seed {seed}: correct={last['correct']} "
                  f"failed={last['failed']}/{last['attempted']} "
                  f"{runs[workload][-1]['elapsed_s']:.1f}s {shown}", flush=True)

    worst = {}
    for workload in names:
        summary = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs[workload]])
            for name in runs[workload][0]["result"]["metrics"]
        }
        record["workloads"][workload] = {"summary": summary, "runs": runs[workload]}
        for name, s in summary.items():
            if args.trace == 0 or name in ("trace.overhead_s", "cli.main_s"):
                bound = bounds.get(name)
                note = f" (bound {bound}, spread/bound {s['spread'] / bound:.2f})" if bound else ""
                print(f"  {workload} {name}: median {s['median']:.4f} "
                      f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f}{note}")
                if bound:
                    worst[(workload, name)] = s["spread"] / bound
    if worst:
        (w, n), ratio = max(worst.items(), key=lambda kv: kv[1])
        print(f"largest spread/bound: {ratio:.2f} ({w} {n})")
    if args.record:
        path = Path(args.record)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

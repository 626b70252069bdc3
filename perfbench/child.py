"""One benchmark unit in a fresh interpreter: import kodsim, run ``cli.main``
once per call in the spec, and write a result file.

    python3 perfbench/child.py SPEC.json RESULT.json SPAWN_MONOTONIC

``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time spans interpreter launch, the kodsim
import and wrapper installation.  The machine's speed is then probed
(``speed.py``), and for a speed-corrected workload again after every
``cli.main`` call; ``cpu_s`` leaves the probes' CPU time out.  A spec with
no calls is a set-up probe.  Nothing but the CLI writes inside an ``--out``
directory; the result and trace files go elsewhere.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _tree_digest(path: str) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            digest.update(hashlib.sha256(data).digest())
            size += len(data)
    return digest.hexdigest(), size


def main(spec_path: str, result_path: str, spawned: float) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import kodsim
    import kodsim.cli

    here = os.path.dirname(os.path.abspath(kodsim.__file__))
    if os.path.dirname(here) != os.path.abspath(spec["src"]):
        print(f"kodsim imported from {here}, not from {spec['src']}", file=sys.stderr)
        return 3

    import speed
    from spans import Tracer, aggregate, nested_total_s

    tracer = Tracer(spans=spec["trace"])
    tracer.install(kodsim)
    setup_s = time.monotonic() - spawned
    # machine speed after set-up and, for a speed-corrected workload, after
    # every call
    speeds = []
    probe_cpu_s = 0.0

    def probe_speed():
        nonlocal probe_cpu_s
        pass_s, cpu_s = speed.probe()
        speeds.append(pass_s)
        probe_cpu_s += cpu_s

    probe_speed()
    calls = []
    for call in spec["calls"]:
        before = dict(tracer.counts)
        t0 = time.monotonic()
        exc = None
        try:
            code = kodsim.cli.main(call["argv"])
        except SystemExit as stop:  # argparse exits on a bad command line
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception:  # noqa: BLE001 - an uncaught exception is a failed call
            code = None
            exc = traceback.format_exc(limit=8)
        wall_s = time.monotonic() - t0
        counts = {
            k: v - before.get(k, 0) for k, v in tracer.counts.items() if v != before.get(k, 0)
        }
        calls.append({"exit": code, "exception": exc, "wall_s": wall_s, "counts": counts})
        if spec["speed_corrected"]:
            probe_speed()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    tracer.record_spans = False
    for call, record in zip(spec["calls"], calls):
        if os.path.isdir(call["out"]):
            record["digest"], record["bytes"] = _tree_digest(call["out"])
        else:
            record["digest"], record["bytes"] = None, 0
        record.update(_provenance(kodsim.cli, call))
    result = {
        "setup_s": setup_s,
        "cpu_s": usage.ru_utime + usage.ru_stime - probe_cpu_s,
        "speed_corrected": spec["speed_corrected"],
        "speed_pass_s": speeds,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "calls": calls,
        "versions": _versions(),
    }
    if spec["trace"]:
        spans = tracer.spans
        roots = sorted({s[2] for s in spans if s[3] == "cli.main"})
        table = aggregate(spans)
        writes = {"cli.write_csv", "cli.write_report"}
        for record, root in zip(calls, roots):
            record["layers"] = table.get(root, {})
            record["write_s"] = nested_total_s(spans, writes, root)
        with open(spec["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "root", "name", "thread",
                                  "t0_ns", "t1_ns", "cpu_s"], "spans": spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _provenance(cli, call: dict) -> dict:
    """Config hash, trajectory count and step count of one call's config."""
    try:
        with open(call["config"], encoding="utf-8") as fh:
            cfg = cli.resolve_config(call["kind"], json.load(fh))
        return {
            "config_hash": cfg.config_hash(),
            "trajectories": cfg.resolved.get("trajectories"),
            "n_steps": cfg.instrument_params().n_steps,
        }
    except Exception as exc:  # noqa: BLE001 - provenance must not fail the run
        return {"config_hash": None, "provenance_error": repr(exc)}


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))

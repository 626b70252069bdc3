"""Start benchmark units in fresh interpreters and collect their results."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
# Scratch space inside the checkout, relative to ROOT (children run there).
WORK = Path(".bench_build") / "perfbench"
# Each child's BLAS/OpenMP pool is pinned to one thread, so its thread count
# is the workload's --threads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    (ROOT / path).mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    # bytecode is cached as for an installed package; the thread count is
    # always passed explicitly
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("INSTRUMENT_AUTONOMY_THREADS", None)
    return env


def bytecode_cached() -> bool:
    return all(
        Path(importlib.util.cache_from_source(str(path))).is_file()
        for path in (SRC / "kodsim").glob("*.py")
    )


def tree_sha256(top: Path = SRC) -> str:
    """Digest of the Python files under ``top`` (default: kodsim's sources)."""
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_unit(tag: str, unit_calls: list[dict], trace: bool, deadline: float,
             corrected: bool) -> dict:
    """Run one unit; returns the child's result, or ``{"error": ...}``.

    Each call gets a fresh ``--out`` directory.  The child probes the
    machine's speed after set-up and, when ``corrected``, after every call
    (see ``speed.py``).  It is killed if it is still running at
    ``deadline`` (a ``time.monotonic()`` value).
    """
    spec_calls = []
    for j, call in enumerate(unit_calls):
        config = work_dir("configs") / f"{tag}-call{j}.json"
        (ROOT / config).write_text(json.dumps(call["config"], sort_keys=True), encoding="utf-8")
        out = work_dir("out") / f"{tag}-call{j}"
        shutil.rmtree(ROOT / out, ignore_errors=True)
        argv = [call["kind"], "--config", str(config), "--out", str(out),
                "--threads", str(call["threads"])]
        spec_calls.append({"argv": argv, "out": str(out), "kind": call["kind"],
                           "config": str(config)})
    spec = {
        "src": str(SRC),
        "trace": trace,
        "speed_corrected": corrected,
        "trace_file": str(work_dir("traces") / f"{tag}.json"),
        "calls": spec_calls,
    }
    spec_path = work_dir("specs") / f"{tag}.json"
    result_path = work_dir("units") / f"{tag}.json"
    log_path = work_dir("logs") / f"{tag}.log"
    (ROOT / spec_path).write_text(json.dumps(spec), encoding="utf-8")
    (ROOT / result_path).unlink(missing_ok=True)
    with open(ROOT / log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), str(result_path), repr(spawned)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 or not (ROOT / result_path).is_file():
        tail = (ROOT / log_path).read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"error": f"child exit {code}: {tail}", "spec": spec}
    result = json.loads((ROOT / result_path).read_text(encoding="utf-8"))
    result["spec"] = spec
    return result


def cleanup_outputs(tag: str) -> None:
    for path in (ROOT / WORK / "out").glob(f"{tag}-*"):
        shutil.rmtree(path, ignore_errors=True)

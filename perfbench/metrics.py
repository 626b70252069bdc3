"""End-to-end and per-layer metrics from unit results.

End-to-end metrics come from untraced units; per-layer metrics from the
span tables and counters of traced units.  Every time is a median over the
run's units; a count is exact and checked for repetition elsewhere.
``setup_s`` everywhere, and ``wall_s``, ``cpu_s`` and ``trace.overhead_s``
in a speed-corrected workload, are in seconds at the reference speed of
``speed.py``; span times are as measured.
"""

from __future__ import annotations

import statistics

import speed

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "records.stream_s": "s",
    "records.streams": "count",
    "records.us_per_stream": "us",
    "records.chi_square_s": "s",
    "photodetector.ensemble_s": "s",
    "photodetector.ensemble_self_s": "s",
    "photodetector.us_per_traj_step": "us",
    "photodetector.dense_s": "s",
    "photodetector.jumps": "count",
    "photodetector.refs_s": "s",
    "heterodyne.ensemble_s": "s",
    "heterodyne.ensemble_self_s": "s",
    "heterodyne.us_per_traj_step": "us",
    "heterodyne.dense_s": "s",
    "heterodyne.parallel_eff": "ratio",
    "heterodyne.born_pdf_s": "s",
    "heterodyne.born_pdf_calls": "count",
    "heterodyne.born_quadrature_s": "s",
    "heterodyne.kod_diffusion_s": "s",
    "heterodyne.kod_diffusion_cells": "count",
    "heterodyne.ns_per_cell_step": "ns",
    "verify.kod_halving_s": "s",
    "cli.main_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "cli.self_s": "s",
    "cli.checks": "count",
    "trace.overhead_s": "s",
}
# Printed per-layer metrics where more is better; every other one is a time
# or a work count.
HIGHER_IS_BETTER = {"heterodyne.parallel_eff", "cli.checks"}

# Counters that must repeat exactly for a seed, with the call counter each
# one is read from.
EXACT = {
    "records.streams": "records.stream",
    "photodetector.jumps": "photodetector.run_photo_ensemble:jumps",
    "heterodyne.born_pdf_calls": "heterodyne.born_pdf",
    "heterodyne.kod_diffusion_cells": "heterodyne.evolve_kod_diffusion:cells",
    "cli.checks": "cli.run:checks",
}


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def exact_counters(call: dict) -> dict:
    """The named exact counters and the ``--out`` digest of one call."""
    counts = call.get("counts", {})
    out = {name: counts.get(key, 0) for name, key in EXACT.items()}
    out["cli.bytes_written"] = call.get("bytes", 0)
    out["out_sha256"] = call.get("digest")
    return out


def _factor(probes: list[float]) -> float:
    return speed.factor(statistics.mean(probes))


def unit_wall(unit: dict) -> float:
    """Wall time of a unit's calls.  In a speed-corrected unit each call's
    time is scaled to reference speed by the probes just before and after
    it; otherwise it is as measured."""
    if not unit["speed_corrected"]:
        return sum(call["wall_s"] for call in unit["calls"])
    probes = unit["speed_pass_s"]
    return sum(
        call["wall_s"] * _factor(probes[j:j + 2]) for j, call in enumerate(unit["calls"])
    )


def unit_cpu(unit: dict) -> float:
    """The unit's CPU time (probes left out), at reference speed in a
    speed-corrected unit."""
    return unit["cpu_s"] * (_factor(unit["speed_pass_s"]) if unit["speed_corrected"] else 1.0)


def unit_setup(unit: dict) -> float:
    """The unit's set-up time at the speed probed right after it (import
    time slows with the kernel on every workload)."""
    return unit["setup_s"] * _factor(unit["speed_pass_s"][:1])


def end_to_end(units: list[dict], probes: list[dict]) -> dict:
    ok = [u for u in units if "error" not in u]
    setups = [unit_setup(u) for u in [p for p in probes if "error" not in p] + ok]
    return {
        "wall_s": median([unit_wall(u) for u in ok]),
        "setup_s": median(setups),
        "cpu_s": median([unit_cpu(u) for u in ok]),
        "peak_rss_mb": median([u["peak_rss_mb"] for u in ok]),
    }


def _unit_layers(unit: dict) -> dict:
    table: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    het = "heterodyne.run_het_ensemble"
    # wall time of the heterodyne ensembles times each call's own thread
    # count: the denominator of the parallel efficiency
    het_thread_s = 0.0
    for call in unit["calls"]:
        runs = call["counts"].get(het, 0)
        if runs:
            threads = call["counts"].get(f"{het}:threads", 0) / runs
            het_thread_s += call.get("layers", {}).get(het, {}).get("total_s", 0.0) * threads
        for name, row in call.get("layers", {}).items():
            acc = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
            for key, value in row.items():
                acc[key] += value
        for key, value in call["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m = {}
    m["records.stream_s"] = total("records.stream")
    m["records.streams"] = counts.get("records.stream", 0)
    m["records.us_per_stream"] = ratio(m["records.stream_s"], m["records.streams"], 1e6)
    m["records.chi_square_s"] = total("records.chi_square_gof")
    for layer, fn, dense in (
        ("photodetector", "run_photo_ensemble", "sample_trajectory"),
        ("heterodyne", "run_het_ensemble", "sample_het_trajectory"),
    ):
        name = f"{layer}.{fn}"
        m[f"{layer}.ensemble_s"] = total(name)
        m[f"{layer}.ensemble_self_s"] = self_s(name)
        m[f"{layer}.dense_s"] = total(f"{layer}.{dense}")
        # the batched path alone: the dense sampler runs one call per
        # trajectory, and every call of a unit has the same step count
        traj_steps = counts.get(f"{name}:traj_steps", 0)
        steps = ratio(traj_steps, counts.get(f"{name}:traj", 0))
        m[f"{layer}.us_per_traj_step"] = ratio(
            total(name) - m[f"{layer}.dense_s"],
            traj_steps - counts.get(f"{layer}.{dense}", 0) * steps,
            1e6,
        )
    m["photodetector.jumps"] = counts.get("photodetector.run_photo_ensemble:jumps", 0)
    m["photodetector.refs_s"] = sum(
        total(f"photodetector.{fn}") for fn in ("born_pmf", "ostensible_weights", "kod_poisson")
    )
    m["heterodyne.parallel_eff"] = ratio(table.get(het, {}).get("cpu_s", 0.0), het_thread_s)
    m["heterodyne.born_pdf_s"] = total("heterodyne.born_pdf")
    m["heterodyne.born_pdf_calls"] = counts.get("heterodyne.born_pdf", 0)
    m["heterodyne.born_quadrature_s"] = total("heterodyne.born_pdf_quadrature")
    m["heterodyne.kod_diffusion_s"] = total("heterodyne.evolve_kod_diffusion")
    m["heterodyne.kod_diffusion_cells"] = counts.get("heterodyne.evolve_kod_diffusion:cells", 0)
    m["heterodyne.ns_per_cell_step"] = ratio(
        m["heterodyne.kod_diffusion_s"], m["heterodyne.kod_diffusion_cells"], 1e9
    )
    m["verify.kod_halving_s"] = total("verify.kod_diffusion_halving_ratio")
    m["cli.main_s"] = total("cli.main")
    m["cli.write_s"] = sum(c.get("write_s", 0.0) for c in unit["calls"])
    m["cli.bytes_written"] = sum(c.get("bytes", 0) for c in unit["calls"])
    m["cli.self_s"] = sum(
        row["self_s"]
        for name, row in table.items()
        if name.startswith("cli.") and name not in ("cli.write_csv", "cli.write_report")
    )
    m["cli.checks"] = counts.get("cli.run:checks", 0)
    m["trace.self_cover"] = ratio(sum(r["self_s"] for r in table.values()), m["cli.main_s"])
    return m


def per_layer(units: list[dict], untraced_wall: float | None) -> dict:
    """Per-layer metrics; ``trace.overhead_s`` is the traced wall time minus
    ``untraced_wall``, the wall time of one untraced unit of the same seed
    (0 when that unit failed)."""
    rows = [_unit_layers(u) for u in units if "error" not in u]
    out = {name: median([r[name] for r in rows]) for name in rows[0]}
    wall = median([unit_wall(u) for u in units if "error" not in u])
    out["trace.overhead_s"] = wall - untraced_wall if untraced_wall is not None else 0.0
    return out

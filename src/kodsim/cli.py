"""Experiment runner: parses a JSON config, dispatches to instrument
simulations and identity verifications, writes CSV tables and plot data,
and returns a machine-readable pass/fail report.

Outputs are byte-reproducible: floats are written via ``repr`` (shortest
round-trip), JSON keys are sorted, newlines are LF, and nothing
wall-clock-dependent enters any file.  The thread count only partitions
trajectory indices, so it never changes results.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__, fock, heterodyne as het, photodetector as pd, verify
from .exceptions import ConfigError, KodsimError
from .params import InstrumentParams
from .records import Histogram, chi_square_gof, integer_edges, stream, tv_distance
from .report import Check, VerificationReport

DEFAULT_SEED = 12345
# statistical gates are anchored at the sample sizes they were calibrated
# for and loosen as 1/sqrt(N) below them
TV_A_ANCHOR = (0.01, 100_000)
TV_C_ANCHOR = (0.02, 100_000)
COV_ANCHOR = (0.03, 10_000)
P_VALUE_MIN = 1e-3

LN2 = math.log(2.0)


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where} must be a number or [re, im] pair")


# Config schemas map each key to ``(resolver, default)``, or to a nested
# schema for an object that defaults to ``{}``.  A resolver takes the raw
# value and the key's dotted name and returns the resolved value or raises
# ConfigError naming the key.


def _cast(cast, noun: str, value, where: str):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be {noun}") from None


def _list(item, value, where: str) -> list:
    try:
        values = list(value)
    except TypeError:
        raise ConfigError(f"{where} must be a list") from None
    return [item(v, f"{where}[{i}]") for i, v in enumerate(values)]


_FLOAT = partial(_cast, float, "a number")
_INT = partial(_cast, int, "an integer")
_STR = partial(_cast, str, "a string")
_FLOATS = partial(_list, _FLOAT)
_INTS = partial(_list, _INT)


def _raw(value, where: str):
    return value


def _resolve(raw, schema: dict, where: str = "") -> dict:
    """Resolve every key of ``schema`` in ``raw``; unknown keys are errors."""
    label = where or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be a JSON object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys in {label}: {', '.join(unknown)}")
    out = {}
    for key, spec in schema.items():
        name = f"{where}.{key}" if where else key
        if isinstance(spec, dict):
            out[key] = _resolve(raw.get(key, {}), spec, name)
        else:
            resolve, default = spec
            out[key] = resolve(raw.get(key, default), name)
    return out


def _count(value, where: str) -> int:
    n = _INT(value, where)
    if n < 0:
        raise ConfigError(f"{where} must be >= 0")
    return n


def _kod(value, where: str) -> str:
    if value not in ("poisson", "gaussian"):
        raise ConfigError(f"{where} must be 'poisson' or 'gaussian'")
    return value


def _amplitude(value, where: str) -> list[float]:
    alpha = _as_complex(value, where)
    return [alpha.real, alpha.imag]


def _path(value, where: str) -> str:
    path = _STR(value, where)
    if not path:
        raise ConfigError(f"{where} required for kind 'file'")
    return path


_STATES = {
    "fock": {"n": (_INT, 0)},
    "coherent": {"alpha": (_amplitude, 1.0)},
    "file": {"path": (_path, "")},
}


def _state(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in _STATES:
        raise ConfigError(f"{where}.kind must be 'fock', 'coherent' or 'file'")
    return _resolve(value, {"kind": (_raw, kind), **_STATES[kind]}, where)


def _thresholds(gates: tuple[str, ...], value, where: str) -> dict:
    """Gate overrides, kept as given; each key must be one of the kind's
    ``gates`` and its value a number."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(value) - set(gates))
    if unknown:
        known = ", ".join(gates) or "none for this kind"
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)} (gates: {known})")
    for key in value:
        _FLOAT(value[key], f"{where}.{key}")
    return dict(value)


def _groups(value, where: str) -> list[str] | None:
    if value is None:
        return None
    groups = _list(_STR, value, where)
    unknown = sorted(set(groups) - set(verify.ALL_GROUPS))
    if unknown:
        raise ConfigError(f"unknown check groups: {', '.join(unknown)}")
    return groups


_COMMON = {
    "params": {"kappa_o": (_FLOAT, 1.0), "dt": (_FLOAT, 1e-3), "T": (_FLOAT, LN2), "dim": (_INT, 40)},
    "seed": (_INT, DEFAULT_SEED),
    "sub_dim": (_INT, 20),
    "thresholds": (partial(_thresholds, ()), {}),
    "series": (_raw, []),
}
SCHEMAS = {
    "photodetect-ensemble": {
        "initial_state": (_state, {"kind": "fock", "n": 5}),
        "trajectories": (_count, 10_000),
        "n_max": (_INT, 12),
        "thresholds": (partial(_thresholds, ("tv_method_a", "tv_method_c", "p_value")), {}),
    },
    "heterodyne-ensemble": {
        "initial_state": (_state, {"kind": "coherent", "alpha": 1.0}),
        "trajectories": (_count, 10_000),
        "quad_order": (_INT, 32),
        "bins": (_INT, 8),
        "thresholds": (partial(_thresholds, ("mean_sigmas", "covariance_rel", "p_value")), {}),
    },
    "evolve-kod": {
        "kod": (_kod, "poisson"),
        "convergence": (partial(_cast, bool, "a boolean"), True),
        "n_max": (_INT, 40),
        "steps": (_INT, 1000),
        "grid": {
            "h": (_FLOAT, 0.05), "extent": (_FLOAT, 5.0), "steps": (_INT, 200),
            "sigma0_sq": (_FLOAT, 1e-3),
        },
    },
    "verify-identities": {"checks": (_groups, None)},
    "povm-convergence": {
        "kappa_T_values": (_FLOATS, [2.0, 3.0, 4.0, 5.0]),
        "photo_ns": (_INTS, [0, 1, 2]),
        "het_zetas": (_FLOATS, [0.0, 0.5]),
    },
}
KINDS = tuple(SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description (defaults applied, seed fixed)."""

    kind: str
    resolved: dict

    def instrument_params(self) -> InstrumentParams:
        p = self.resolved["params"]
        return InstrumentParams.fit_steps(p["kappa_o"], p["T"], p["dt"], p["dim"])

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def resolve_config(kind: str, raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config dict against its experiment kind's schema.

    Unknown keys are rejected at every level; numeric ranges are enforced
    by the modules the values are handed to.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")

    def same_kind(value, where: str) -> str:
        if value != kind:
            raise ConfigError(f"config kind {value!r} does not match command {kind!r}")
        return kind

    resolved = _resolve(raw, {"kind": (same_kind, kind), **_COMMON, **SCHEMAS[kind]})
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    return ExperimentConfig(kind=kind, resolved=resolved)


def build_initial_state(state: dict, dim: int) -> np.ndarray:
    """State vector or density matrix from its config description."""
    if state["kind"] == "fock":
        return fock.fock_state(dim, state["n"])
    if state["kind"] == "coherent":
        alpha = complex(state["alpha"][0], state["alpha"][1])
        if abs(alpha) ** 2 > 0.25 * dim:
            raise ConfigError(
                f"|alpha|^2 = {abs(alpha)**2:.2f} too large for truncation {dim}"
            )
        return fock.coherent_state(dim, alpha)
    data = np.load(state["path"])
    if data.ndim == 1:
        return fock.validate_state(data)
    return fock.validate_density(data)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else repr(float(value))


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def write_report(out_dir: str, report: VerificationReport) -> str:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_csv(
        os.path.join(out_dir, "checks.csv"),
        ["name", "measured", "threshold", "comparison", "passed"],
        [
            (c.name, c.measured, c.threshold, c.comparison, str(c.passed).lower())
            for c in report.checks
        ],
    )
    return path


def _scaled_gate(thresholds: dict, key: str, anchor: tuple[float, int], n: int) -> float:
    if key in thresholds:
        return float(thresholds[key])
    gate, n_anchor = anchor
    return gate * math.sqrt(n_anchor / max(n, 1))


def run_photodetect(cfg: ExperimentConfig, out_dir: str, n_threads: int) -> list[Check]:
    p = cfg.instrument_params()
    r = cfg.resolved
    initial = build_initial_state(r["initial_state"], p.dim)
    rho = initial if initial.ndim == 2 else fock.pure_density(initial)
    n_traj = r["trajectories"]
    n_max = r["n_max"]

    kod_pmf = pd.kod_poisson(p.T, p.kappa_o).pmf_array(n_max)
    born = pd.born_pmf(rho, p.T, p, n_max=n_max)
    counts = pd.run_photo_ensemble(initial, p, n_traj, r["seed"], n_threads)
    write_csv(
        os.path.join(out_dir, "counts.csv"),
        ["trajectory", "jumps"],
        ((i, int(c)) for i, c in enumerate(counts)),
    )

    checks: list[Check] = []
    if n_traj > 0:
        empirical = np.bincount(counts, minlength=n_max + 1) / n_traj
        # method C: state-independent draws, importance-weighted
        rng_c = stream(r["seed"], n_traj)
        draws = rng_c.poisson(pd.effective_mean(p.T, p.kappa_o), size=n_traj)
        w_table = pd.ostensible_weights(rho, p.T, p, n_max=n_max)
        weights = np.where(draws <= n_max, w_table[np.minimum(draws, n_max)], 0.0)
        total_w = float(np.sum(weights))
        ostensible = np.bincount(
            draws[draws <= n_max], weights=weights[draws <= n_max], minlength=n_max + 1
        ) / (total_w if total_w > 0 else 1.0)
        tv_a = tv_distance(empirical[: n_max + 1], born)
        tv_c = tv_distance(ostensible, born)
        hist = Histogram.from_samples(
            np.minimum(counts, n_max), integer_edges(n_max)
        )
        p_val = chi_square_gof(hist, born)
        thr = r["thresholds"]
        checks = [
            Check("tv-method-a-vs-born", tv_a, _scaled_gate(thr, "tv_method_a", TV_A_ANCHOR, n_traj)),
            Check("tv-method-c-vs-born", tv_c, _scaled_gate(thr, "tv_method_c", TV_C_ANCHOR, n_traj)),
            Check("chi-square-p-value", p_val, float(thr.get("p_value", P_VALUE_MIN)), comparison=">="),
        ]
    else:
        empirical = np.full(n_max + 1, None)
        ostensible = np.full(n_max + 1, None)

    write_csv(
        os.path.join(out_dir, "pmf.csv"),
        ["n", "kod_pmf", "born_pmf", "empirical_pmf", "ostensible_pmf"],
        (
            (n, kod_pmf[n], born[n], empirical[n], ostensible[n])
            for n in range(n_max + 1)
        ),
    )
    return checks


def _bin_probs_2d(rho, p: InstrumentParams, edges_re, edges_im, nodes=8):
    """Born-density probability of each rectangular bin (Gauss-Legendre)."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    n_re, n_im = edges_re.size - 1, edges_im.size - 1
    probs = np.empty((n_re, n_im))
    for i in range(n_re):
        xc = 0.5 * (edges_re[i] + edges_re[i + 1]) + 0.5 * (
            edges_re[i + 1] - edges_re[i]
        ) * gl_x
        for j in range(n_im):
            yc = 0.5 * (edges_im[j] + edges_im[j + 1]) + 0.5 * (
                edges_im[j + 1] - edges_im[j]
            ) * gl_x
            vals = het.born_pdf(
                rho, (xc[:, None] + 1j * yc[None, :]).ravel(), p.T, p
            ).reshape(nodes, nodes)
            area = (edges_re[i + 1] - edges_re[i]) * (edges_im[j + 1] - edges_im[j])
            probs[i, j] = np.einsum("i,j,ij->", gl_w, gl_w, vals) * area / (4 * np.pi)
    return probs


def run_heterodyne(cfg: ExperimentConfig, out_dir: str, n_threads: int) -> list[Check]:
    p = cfg.instrument_params()
    r = cfg.resolved
    initial = build_initial_state(r["initial_state"], p.dim)
    rho = initial if initial.ndim == 2 else fock.pure_density(initial)
    n_traj = r["trajectories"]

    total, mean_ref, cov_ref = het.born_pdf_quadrature(rho, p.T, p, r["quad_order"])
    zetas = het.run_het_ensemble(initial, p, n_traj, r["seed"], n_threads)
    write_csv(
        os.path.join(out_dir, "zetas.csv"),
        ["trajectory", "re", "im"],
        ((i, z.real, z.imag) for i, z in enumerate(zetas)),
    )

    n_bins = r["bins"]
    half = 3.5 * math.sqrt(cov_ref / 2.0)
    edges_re = mean_ref.real + np.linspace(-half, half, n_bins + 1)
    edges_im = mean_ref.imag + np.linspace(-half, half, n_bins + 1)
    mid_re = 0.5 * (edges_re[:-1] + edges_re[1:])
    mid_im = 0.5 * (edges_im[:-1] + edges_im[1:])
    area = (edges_re[1] - edges_re[0]) * (edges_im[1] - edges_im[0])
    born_mid = het.born_pdf(
        rho, (mid_re[:, None] + 1j * mid_im[None, :]).ravel(), p.T, p
    ).reshape(n_bins, n_bins)

    checks = [Check("born-density-mass", abs(total - 1.0), 1e-6)]
    if n_traj > 0:
        hist2d, _, _ = np.histogram2d(zetas.real, zetas.imag, bins=[edges_re, edges_im])
        empirical = hist2d * np.pi / (n_traj * area)
    else:
        empirical = np.full((n_bins, n_bins), None)
    write_csv(
        os.path.join(out_dir, "density.csv"),
        ["re", "im", "empirical_density", "born_density"],
        (
            (mid_re[i], mid_im[j], empirical[i, j], born_mid[i, j])
            for i in range(n_bins)
            for j in range(n_bins)
        ),
    )

    if n_traj > 0:
        mean = complex(np.mean(zetas))
        cov = float(np.mean(np.abs(zetas - mean) ** 2))
        thr = r["thresholds"]
        mean_gate = float(thr.get("mean_sigmas", 3.0)) * math.sqrt(cov_ref / n_traj)
        checks.append(Check("mean-vs-born", abs(mean - mean_ref), mean_gate))
        checks.append(
            Check(
                "covariance-vs-born",
                abs(cov / cov_ref - 1.0),
                _scaled_gate(thr, "covariance_rel", COV_ANCHOR, n_traj),
            )
        )
        probs = _bin_probs_2d(rho, p, edges_re, edges_im)
        counts_flat = np.append(hist2d.ravel(), n_traj - hist2d.sum())
        probs_flat = np.append(probs.ravel(), max(0.0, 1.0 - probs.sum()))
        hist = Histogram(integer_edges(counts_flat.size - 1), counts_flat)
        p_val = chi_square_gof(hist, probs_flat)
        checks.append(
            Check("chi-square-2d-p-value", p_val, float(thr.get("p_value", P_VALUE_MIN)), comparison=">=")
        )
    return checks


def run_evolve_kod(cfg: ExperimentConfig, out_dir: str) -> list[Check]:
    p = cfg.instrument_params()
    r = cfg.resolved
    g = r["grid"]
    if r["kod"] == "poisson":
        kod = pd.evolve_kod_poisson(p.T, p.kappa_o, n_max=r["n_max"], steps=r["steps"])
        target = verify.kod_target(kod)
        write_csv(
            os.path.join(out_dir, "kod.csv"),
            ["n", "evolved", "analytic", "abs_err"],
            (
                (n, kod.weights[n], target[n], abs(kod.weights[n] - target[n]))
                for n in range(r["n_max"] + 1)
            ),
        )
    else:
        kod = het.evolve_kod_diffusion(
            p.T, p.kappa_o, h=g["h"], extent=g["extent"], steps=g["steps"],
            sigma0_sq=g["sigma0_sq"],
        )
        ax = kod.axis()
        target = verify.kod_target(kod)
        write_csv(
            os.path.join(out_dir, "kod_grid.csv"),
            ["re", "im", "evolved", "analytic"],
            (
                (ax[i], ax[j], kod.grid[i, j], target[i, j])
                for i in range(ax.size)
                for j in range(ax.size)
            ),
        )
    return verify.kod_checks(kod, p.T, p.kappa_o, g["extent"], r["convergence"])


def run_povm_convergence(cfg: ExperimentConfig, out_dir: str) -> list[Check]:
    r = cfg.resolved
    base = r["params"]
    sweep = [("photodetector", n, f"n={n}") for n in r["photo_ns"]] + [
        ("heterodyne", zeta, f"zeta={zeta:g}") for zeta in r["het_zetas"]
    ]
    rows = []
    checks = []
    for instrument, at, label in sweep:
        defects = verify.projector_defects(
            instrument, at, r["kappa_T_values"], base["kappa_o"], base["dt"],
            base["dim"], r["sub_dim"],
        )
        rows.extend((instrument, label, kt, d) for kt, d in zip(r["kappa_T_values"], defects))
        checks.append(verify.projector_scaling_check(instrument, at, defects))
    write_csv(
        os.path.join(out_dir, "defects.csv"),
        ["instrument", "label", "kappa_T", "defect"],
        rows,
    )
    return checks


def emit_plot_data(
    report: VerificationReport, series_specs: list[dict], out_dir: str
) -> list[str]:
    """Write one two-column CSV per requested series."""
    try:
        series_specs = list(series_specs)
    except TypeError:
        raise ConfigError("series must be a list") from None
    paths = []
    for spec in series_specs:
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError("each series spec needs a 'name'")
        spec = dict(spec)
        name = spec.pop("name")
        kappa_o = _FLOAT(spec.pop("kappa_o", 1.0), "series.kappa_o")
        if not (np.isfinite(kappa_o) and kappa_o > 0.0):
            raise ConfigError(f"series.kappa_o must be a positive finite number, got {kappa_o}")
        if name in ("effective-mean", "effective-covariance"):
            t_max = _FLOAT(spec.pop("t_max", 5.0 / kappa_o), "series.t_max")
            points = _INT(spec.pop("points", 101), "series.points")
            t = np.linspace(0.0, t_max, points)
            vals = -np.expm1(-kappa_o * t)
            header = ["t", "value"]
            rows = zip(t, vals)
        elif name == "beta-cooling":
            kappa_T = _FLOATS(spec.pop("kappa_T", [0.25, 0.5, LN2, 1.0, 1.5, 2.0, 3.0]), "series.kappa_T")
            samples = _INT(spec.pop("samples", 100_000), "series.samples")
            vals = [
                het.covariance_cooling(kt / kappa_o, kappa_o, samples, stream(report.seed, 7_000 + i))[1]
                for i, kt in enumerate(kappa_T)
            ]
            header = ["kappa_T", "cov_beta"]
            rows = zip(kappa_T, vals)
        elif name in ("projector-defect-photo", "projector-defect-het"):
            kappa_T = _FLOATS(spec.pop("kappa_T", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), "series.kappa_T")
            dim = _INT(spec.pop("dim", 40), "series.dim")
            sub_dim = _INT(spec.pop("sub_dim", 20), "series.sub_dim")
            if name == "projector-defect-photo":
                instrument, at = "photodetector", _INT(spec.pop("n", 0), "series.n")
                tag = f"n{at}"
            else:
                instrument = "heterodyne"
                at = _as_complex(spec.pop("zeta", 0.5), "series.zeta")
                tag = f"zeta{abs(at):g}"
            defects = verify.projector_defects(
                instrument, at, kappa_T, kappa_o, 1e-3 / kappa_o, dim, sub_dim
            )
            name = f"{name}-{tag}"
            header = ["kappa_T", "defect"]
            rows = zip(kappa_T, defects)
        else:
            raise ConfigError(f"unknown series {name!r}")
        if spec:
            raise ConfigError(f"unknown keys in series {name!r}: {sorted(spec)}")
        path = os.path.join(out_dir, name.replace("-", "_") + ".csv")
        write_csv(path, header, rows)
        paths.append(path)
    return paths


def run(cfg: ExperimentConfig, out_dir: str, n_threads: int = 1) -> VerificationReport:
    """Execute one experiment; writes all output files into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    r = cfg.resolved
    if cfg.kind == "photodetect-ensemble":
        checks = run_photodetect(cfg, out_dir, n_threads)
    elif cfg.kind == "heterodyne-ensemble":
        checks = run_heterodyne(cfg, out_dir, n_threads)
    elif cfg.kind == "evolve-kod":
        checks = run_evolve_kod(cfg, out_dir)
    elif cfg.kind == "povm-convergence":
        checks = run_povm_convergence(cfg, out_dir)
    else:
        checks = verify.run_identity_checks(r["seed"], r["checks"])
    report = VerificationReport(
        checks=tuple(checks), seed=r["seed"], version=__version__, config_hash=cfg.config_hash()
    )
    write_report(out_dir, report)
    series = r["series"]
    if not series and cfg.kind == "povm-convergence":
        # each swept n and zeta, on the series' own default kappa_T grid
        series = [{"name": "projector-defect-photo", "n": n} for n in r["photo_ns"]] + [
            {"name": "projector-defect-het", "zeta": z} for z in r["het_zetas"]
        ]
    if series:
        emit_plot_data(report, series, out_dir)
    return report


def _default_threads() -> int:
    env = os.environ.get("INSTRUMENT_AUTONOMY_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kodsim",
        description="Continually observing instrument simulations and identity checks.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", type=str, default="out", help="output directory")
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads (INSTRUMENT_AUTONOMY_THREADS as fallback)",
        )
    args = parser.parse_args(argv)
    try:
        raw = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        cfg = resolve_config(args.kind, raw, seed_override=args.seed)
        threads = args.threads if args.threads is not None else _default_threads()
        report = run(cfg, args.out, n_threads=threads)
    except (KodsimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: {check.measured:.6g} "
            f"{check.comparison} {check.threshold:.6g}"
        )
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())

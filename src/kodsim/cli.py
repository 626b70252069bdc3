"""Experiment runner: parses a JSON config, dispatches to instrument
simulations and identity verifications, and returns a machine-readable
pass/fail report.  Each runner computes its checks and tables; :func:`run`
alone writes them, once the whole run has succeeded.

Outputs are byte-reproducible: floats are written via ``repr`` (shortest
round-trip), JSON keys are sorted, newlines are LF, and nothing
wall-clock-dependent enters any file.  The thread count only partitions
trajectory indices, so it never changes results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__, fock, heterodyne as het, photodetector as pd, verify
from .exceptions import ConfigError, DataError, DomainError, KodsimError
from .params import InstrumentParams, screened_integral
from .records import MIN_EXPECTED, STREAM_IDS, chi_square_gof, stream, tv_distance
from .report import Check, VerificationReport

DEFAULT_SEED = 12345
# Statistical gates by kind, ``key -> (gate, anchor)``: the keys a config's
# ``thresholds`` may override.  A gate with an anchor N0 is calibrated at N0
# trajectories and scales as sqrt(N0/N) at N.
GATES = {
    "photodetect-ensemble": {
        "tv_method_a": (0.01, 100_000), "tv_method_c": (0.02, 100_000), "p_value": (1e-3, None),
    },
    "heterodyne-ensemble": {
        "mean_sigmas": (3.0, None), "covariance_rel": (0.03, 10_000), "p_value": (1e-3, None),
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where} must be a number or [re, im] pair")


# Config schemas map each key to ``(resolver, default)``, or to a nested
# schema for an object that defaults to ``{}``.  A resolver takes the raw
# value and the key's dotted name and returns the resolved value or raises
# ConfigError naming the key.  A callable default is computed from the keys
# resolved before it.  A dict in place of a resolver maps each value the key
# may take to a schema, whose keys join the object's when the key takes it.


def _cast(cast, noun: str, value, where: str):
    """``cast(value)``; a boolean is no number or string, and a float cast to
    an integer must be integral."""
    try:
        if isinstance(value, bool) or (cast is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be {noun}") from None


def _list(item, value, where: str) -> list:
    """Each entry of a JSON array resolved by ``item``; a string or an object
    is no list."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list")
    return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


_FLOAT = partial(_cast, float, "a number")
_INT = partial(_cast, int, "an integer")
_STR = partial(_cast, str, "a string")


def _raw(value, where: str):
    return value


def _resolve(raw, schema: dict, where: str = "") -> dict:
    """Resolve every key of ``schema`` in ``raw``; unknown keys are errors."""
    label = where or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be a JSON object")
    schema = dict(schema)
    for key, spec in list(schema.items()):
        if isinstance(spec, tuple) and isinstance(spec[0], dict):
            variants, default = spec
            value = raw.get(key, default)
            if not (isinstance(value, str) and value in variants):
                names = ", ".join(map(repr, variants))
                raise ConfigError(f"{where + '.' if where else ''}{key} must be one of {names}")
            schema.update({key: (_raw, value), **variants[value]})
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
            if key not in raw and callable(default):
                default = default(out)
            out[key] = resolve(raw.get(key, default), name)
    return out


def _at_least(low: int, value, where: str) -> int:
    n = _INT(value, where)
    if n < low:
        raise ConfigError(f"{where} must be >= {low}")
    return n


_count = partial(_at_least, 0)


def _rate(value, where: str) -> float:
    rate = _FLOAT(value, where)
    if not (math.isfinite(rate) and rate > 0.0):
        raise ConfigError(f"{where} must be a positive finite number, got {rate}")
    return rate


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
    return _resolve(value, {"kind": (_STATES, None)}, where)


def _thresholds(gates: dict, value, where: str) -> dict:
    """Gate overrides, kept as given; each key must be one of the kind's
    ``gates`` and its value a finite number."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(value) - set(gates))
    if unknown:
        raise ConfigError(
            f"unknown keys in {where}: {', '.join(unknown)} (gates: {', '.join(gates)})")
    for key in value:
        if not math.isfinite(_FLOAT(value[key], f"{where}.{key}")):
            raise ConfigError(f"{where}.{key} must be a finite number")
    return dict(value)


def _sweep(value, where: str) -> list[float]:
    values = _list(_rate, value, where)
    if len(values) < 2 or not all(np.diff(values) > 0.0):
        raise ConfigError(f"{where} must hold two or more strictly increasing numbers")
    return values


def _groups(value, where: str) -> list[str] | None:
    if value is None:
        return None
    groups = _list(_STR, value, where)
    unknown = sorted(set(groups) - set(verify.ALL_GROUPS))
    if unknown:
        raise ConfigError(f"unknown check groups: {', '.join(unknown)}")
    return groups


_DEFECT_SWEEP = {
    "kappa_T": (partial(_list, _rate), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    "dim": (_INT, verify.DIM), "sub_dim": (_INT, verify.SUB_DIM),
}
# kappa_o is a curve's time unit; the other series sweep kappa_o T alone
_CURVE = {"kappa_o": (_rate, 1.0), "t_max": (_rate, lambda spec: 5.0 / spec["kappa_o"]),
          "points": (_count, 101)}
SERIES = {
    "effective-mean": _CURVE,
    "effective-covariance": _CURVE,
    "beta-cooling": {
        "kappa_T": (partial(_list, _rate), [0.25, 0.5, verify.LN2, 1.0, 1.5, 2.0, 3.0]),
        "samples": (partial(_at_least, 1), 100_000),
    },
    "projector-defect-photo": {**_DEFECT_SWEEP, "n": (_count, 0)},
    "projector-defect-het": {**_DEFECT_SWEEP, "zeta": (_as_complex, 0.5)},
}


def _series(value, where: str) -> tuple[dict, ...]:
    """Each plot series spec resolved against the schema of its name."""
    return tuple(_resolve(spec, {"name": (SERIES, None)}, where)
                 for spec in _list(_raw, value, where))


_COMMON = {"seed": (_count, DEFAULT_SEED), "series": (_raw, [])}
# the horizon of evolve-kod and both ensembles.  Neither ensemble reads ``dt``,
# which only sets the step grid of ``instrument_params``; it stays while the
# benchmark's ensemble configs set it
_HORIZON = {"kappa_o": (_rate, 1.0), "T": (_rate, verify.LN2)}
_PARAMS = {**_HORIZON, "dt": (_FLOAT, 1e-3), "dim": (_INT, verify.DIM)}
_KODS = {
    "poisson": {"n_max": (_INT, verify.KOD_N_MAX), "steps": (_INT, verify.KOD_STEPS)},
    "gaussian": {"grid": {
        "h": (_FLOAT, verify.KOD_H), "extent": (_FLOAT, verify.KOD_EXTENT),
        "sigma0_sq": (_FLOAT, verify.KOD_SIGMA0_SQ),
    }},
}
# Each kind holds the keys its runner reads.  evolve-kod and
# povm-convergence default to the sizes of the identity groups, so at their
# defaults they run the kod-* and projector-scaling checks
SCHEMAS = {
    "photodetect-ensemble": {
        "params": _PARAMS,
        "initial_state": (_state, {"kind": "fock", "n": 5}),
        "trajectories": (_count, 10_000),
        "n_max": (_INT, 12),
    },
    "heterodyne-ensemble": {
        "params": _PARAMS,
        "initial_state": (_state, {"kind": "coherent", "alpha": 1.0}),
        "trajectories": (_count, 10_000),
        "bins": (partial(_at_least, 1), 8),
    },
    "evolve-kod": {
        "params": _HORIZON,
        "kod": (_KODS, "poisson"),
        "convergence": (_flag, True),
    },
    "verify-identities": {"checks": (_groups, None)},
    "povm-convergence": {
        "params": {"dim": (_INT, verify.DIM)},
        "sub_dim": (_INT, verify.SUB_DIM),
        "kappa_T_values": (_sweep, verify.PROJECTOR_KAPPA_TS),
        "photo_ns": (partial(_list, _count), verify.PROJECTOR_NS),
        "het_zetas": (partial(_list, _FLOAT), verify.PROJECTOR_ZETAS),
    },
}
KINDS = tuple(SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description (defaults applied, seed fixed)."""

    kind: str
    resolved: dict
    # the plot series resolved against their schemas; ``resolved`` keeps
    # them as given, as it keeps ``thresholds``, so config hashes hold
    series: tuple[dict, ...]

    def instrument_params(self) -> InstrumentParams:
        """The ensembles' instrument.  A key that a kind's params lack takes its
        ensemble default, so the benchmark's provenance, which reads the step
        count of every call, finds one for evolve-kod too."""
        p = {key: default for key, (_, default) in _PARAMS.items()} | self.resolved["params"]
        return InstrumentParams.fit_steps(p["kappa_o"], p["T"], p["dt"], p["dim"])

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def resolve_config(kind: str, raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config dict against its experiment kind's schema.

    Unknown keys are rejected at every level; most numeric ranges are
    enforced by the modules the values are handed to.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")

    def same_kind(value, where: str) -> str:
        if value != kind:
            raise ConfigError(f"config kind {value!r} does not match command {kind!r}")
        return kind

    schema = {"kind": (same_kind, kind), **_COMMON, **SCHEMAS[kind]}
    if kind in GATES:
        schema["thresholds"] = (partial(_thresholds, GATES[kind]), {})
    resolved = _resolve(raw, schema)
    if seed_override is not None:
        resolved["seed"] = _count(seed_override, "--seed")
    return ExperimentConfig(kind, resolved, _series(resolved["series"] or [], "series"))


def build_initial_state(state: dict, dim: int) -> np.ndarray:
    """State vector or density matrix from its config description, for
    :func:`fock.density` to check."""
    if state["kind"] == "fock":
        return fock.fock_state(dim, state["n"])
    if state["kind"] == "coherent":
        alpha = complex(state["alpha"][0], state["alpha"][1])
        if abs(alpha) ** 2 > 0.25 * dim:
            raise ConfigError(
                f"|alpha|^2 = {abs(alpha)**2:.2f} too large for truncation {dim}"
            )
        return fock.coherent_state(dim, alpha)
    try:
        data = np.load(state["path"])
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"initial_state.path: cannot load {state['path']}: {exc}") from None
    if not (isinstance(data, np.ndarray) and np.issubdtype(data.dtype, np.number)):
        raise ConfigError(f"initial_state.path: {state['path']} holds no numeric array")
    if data.shape not in ((dim,), (dim, dim)):
        raise ConfigError(
            f"initial_state.path: {state['path']} has shape {data.shape}, "
            f"not ({dim},) or ({dim}, {dim}) for params.dim {dim}"
        )
    return data


CHUNK = 1024  # rows per "".join in write_csv


def _quoted(text: str | None) -> str:
    """A header name or string cell as ``csv.writer(lineterminator="\\n")``
    writes it: ``None`` as empty, and a text holding ``,``, ``"`` or ``\\n``
    in double quotes, each ``"`` doubled (``\\r`` is left bare)."""
    if text is None:
        return ""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _texts(values, memo: dict) -> list[str]:
    """One chunk of a column as its cells' text.

    A number is Python's ``repr`` of it (a float's shortest round-trip form,
    a bool as 0 or 1), keyed by bit pattern, so ``-0.0`` and ``0.0`` stay
    apart.  ``memo`` is the column's, kept across its chunks (which share one
    dtype): it maps bit patterns to their texts, so a value is formatted
    once in the whole column however far apart its cells lie.  The chunk's
    distinct values are found with a dict, not ``np.unique``: numpy's sort
    code would add its pages to the resident set of a run that sorts nothing
    else.  A string or ``None`` cell is :func:`_quoted`.
    """
    if isinstance(values, range):
        return list(map(str, values))
    if not isinstance(values, np.ndarray) or values.dtype == object:
        return [_quoted(v) for v in values]
    if values.dtype.kind == "f":
        values = values.astype(np.float64)
        bits = values.view(np.int64)
    else:
        values = bits = values.astype(np.int64) if values.dtype == bool else values
    keys = bits.tolist()
    fresh = [key for key in dict.fromkeys(keys) if key not in memo]
    texts = repr(np.array(fresh, bits.dtype).view(values.dtype).tolist())[1:-1].split(", ")
    memo.update(zip(fresh, texts))
    return list(map(memo.__getitem__, keys))


def write_csv(path: str, header: list[str], columns) -> None:
    """Write a table given as columns, ``CHUNK`` rows at a time.

    A column is a sequence of the table's rows (an array, a list of
    strings or a ``range``), or a function that maps an index array of rows
    to their values, for index and axis columns built per chunk; the
    sequences set the row count.  The bytes are those ``csv.writer`` with
    ``lineterminator="\\n"`` writes for the cells' texts (:func:`_texts`),
    in a table of two or more columns.  Each column formats a distinct bit
    pattern once in the whole table; its memo lives as long as the call.
    """
    n_rows = len(next(c for c in columns if not callable(c)))
    width = 2 * len(columns)
    memos = [{} for _ in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quoted, header)) + "\n")
        for start in range(0, n_rows, CHUNK):
            stop = min(start + CHUNK, n_rows)
            rows = np.arange(start, stop)
            # cell texts at even slots, "," and "\n" after them
            flat = [","] * (width * (stop - start))
            flat[width - 1::width] = ["\n"] * (stop - start)
            for j, c in enumerate(columns):
                flat[2 * j::width] = _texts(c(rows) if callable(c) else c[start:stop], memos[j])
            fh.write("".join(flat))


def write_report(out_dir: str, report: VerificationReport) -> str:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _gate(cfg: ExperimentConfig, key: str) -> float:
    """A gate's override if the config sets one, else its :data:`GATES` value
    at the run's trajectory count."""
    if key in cfg.resolved["thresholds"]:
        return float(cfg.resolved["thresholds"][key])
    gate, anchor = GATES[cfg.kind][key]
    return gate if anchor is None else gate * math.sqrt(anchor / cfg.resolved["trajectories"])


def _p_value(counts: np.ndarray, probs: np.ndarray, n_traj: int) -> float:
    """:func:`chi_square_gof` of binned counts against their Born
    probabilities, with one tail bin for the draws and the Born mass outside
    the bins; a run too small for its expected-count rule is a config error
    naming the trajectory count, not bad data."""
    try:
        return chi_square_gof(np.append(counts, n_traj - counts.sum()),
                              np.append(probs, max(0.0, 1.0 - probs.sum())))
    except DataError as exc:
        raise ConfigError(
            f"trajectories = {n_traj} is too few for the chi-square test, which needs "
            f"two or more bins of expected count >= {MIN_EXPECTED:g} ({exc})"
        ) from None


def _ensemble_setup(cfg: ExperimentConfig):
    """Params, the initial state's checked density matrix, trajectory count."""
    p = cfg.instrument_params()
    rho = fock.density(build_initial_state(cfg.resolved["initial_state"], p.dim))
    return p, rho, cfg.resolved["trajectories"]


# A runner maps ``(cfg, n_threads)`` to ``(checks, tables)``, a table being
# ``(file stem, header, columns)`` for :func:`write_csv`; it writes nothing.


def run_photodetect(cfg: ExperimentConfig, n_threads: int) -> tuple[list[Check], list]:
    p, rho, n_traj = _ensemble_setup(cfg)
    seed, n_max = cfg.resolved["seed"], cfg.resolved["n_max"]
    kod_pmf = pd.kod_poisson(p.T, p.kappa_o).pmf_array(n_max)
    born = pd.born_pmf(rho, p.T, p.kappa_o, n_max=n_max)
    counts = pd.run_photo_ensemble(rho, p, n_traj, seed, n_threads)
    checks: list[Check] = []
    if n_traj > 0:
        observed = np.bincount(counts, minlength=n_max + 1)[: n_max + 1]
        empirical = observed / n_traj
        # method C: state-independent draws, importance-weighted
        lam = screened_integral(p.T, p.kappa_o)
        draws = stream(seed, STREAM_IDS["method-c"]).poisson(lam, size=n_traj)
        ostensible = pd.ostensible_pmf(draws, pd.ostensible_weights(rho, p.T, p.kappa_o, n_max))
        # counts above n_max, and the Born mass there, form the tail bin
        p_val = _p_value(observed, born, n_traj)
        checks = [
            Check("tv-method-a-vs-born", tv_distance(empirical, born), _gate(cfg, "tv_method_a")),
            Check("tv-method-c-vs-born", tv_distance(ostensible, born), _gate(cfg, "tv_method_c")),
            Check("chi-square-p-value", p_val, _gate(cfg, "p_value"), comparison=">="),
        ]
    else:
        empirical = ostensible = np.full(n_max + 1, None)
    return checks, [
        ("counts", ["trajectory", "jumps"], [range(n_traj), counts]),
        ("pmf", ["n", "kod_pmf", "born_pmf", "empirical_pmf", "ostensible_pmf"],
         [range(n_max + 1), kod_pmf, born, empirical, ostensible]),
    ]


def run_heterodyne(cfg: ExperimentConfig, n_threads: int) -> tuple[list[Check], list]:
    p, rho, n_traj = _ensemble_setup(cfg)
    mean_ref, cov_ref = het.born_moments(rho, p.T, p.kappa_o)
    zetas = het.run_het_ensemble(rho, p, n_traj, cfg.resolved["seed"], n_threads)

    n_bins = cfg.resolved["bins"]
    half = 3.5 * math.sqrt(cov_ref / 2.0)
    edges_re = mean_ref.real + np.linspace(-half, half, n_bins + 1)
    edges_im = mean_ref.imag + np.linspace(-half, half, n_bins + 1)
    mid_re = 0.5 * (edges_re[:-1] + edges_re[1:])
    mid_im = 0.5 * (edges_im[:-1] + edges_im[1:])
    area = (edges_re[1] - edges_re[0]) * (edges_im[1] - edges_im[0])
    probs = het.born_bin_probs(rho, edges_re, edges_im, p.T, p.kappa_o)

    checks: list[Check] = []
    if n_traj > 0:
        hist2d, _, _ = np.histogram2d(zetas.real, zetas.imag, bins=[edges_re, edges_im])
        empirical = hist2d * np.pi / (n_traj * area)
        mean = complex(np.mean(zetas))
        cov = float(np.mean(np.abs(zetas - mean) ** 2))
        checks = [
            Check("mean-vs-born", abs(mean - mean_ref),
                  _gate(cfg, "mean_sigmas") * math.sqrt(cov_ref / n_traj)),
            Check("covariance-vs-born", abs(cov / cov_ref - 1.0), _gate(cfg, "covariance_rel")),
            Check("chi-square-2d-p-value", _p_value(hist2d.ravel(), probs.ravel(), n_traj),
                  _gate(cfg, "p_value"), comparison=">="),
        ]
    else:
        empirical = np.full((n_bins, n_bins), None)
    # both columns are bin averages of a density against d^2 zeta / pi
    born_avg = probs * np.pi / area
    return checks, [
        ("zetas", ["trajectory", "re", "im"], [range(n_traj), zetas.real, zetas.imag]),
        ("density", ["re", "im", "empirical_density", "born_density"], [
            lambda k: mid_re[k // n_bins], lambda k: mid_im[k % n_bins],
            empirical.ravel(), born_avg.ravel(),
        ]),
    ]


def run_evolve_kod(cfg: ExperimentConfig, n_threads: int) -> tuple[list[Check], list]:
    r = cfg.resolved
    T, kappa_o = r["params"]["T"], r["params"]["kappa_o"]
    if r["kod"] == "poisson":
        kod = pd.evolve_kod_poisson(T, kappa_o, n_max=r["n_max"], steps=r["steps"])
        target = verify.kod_target(kod)
        table = ("kod", ["n", "evolved", "analytic", "abs_err"], [
            range(r["n_max"] + 1), kod.weights, target, np.abs(kod.weights - target),
        ])
    else:
        g = r["grid"]
        kod = het.evolve_kod_diffusion(T, kappa_o, h=g["h"], extent=g["extent"],
                                       sigma0_sq=g["sigma0_sq"])
        ax = kod.axis()
        target = verify.kod_target(kod)
        table = ("kod_grid", ["re", "im", "evolved", "analytic"], [
            lambda k: ax[k // ax.size], lambda k: ax[k % ax.size],
            kod.grid.ravel(), target.ravel(),
        ])
    return verify.kod_checks(kod, T, kappa_o, r["convergence"]), [table]


def run_povm_convergence(cfg: ExperimentConfig, n_threads: int) -> tuple[list[Check], list]:
    r = cfg.resolved
    size = {"dim": r["params"]["dim"], "sub_dim": r["sub_dim"]}
    checks, columns = verify.projector_sweep(
        r["photo_ns"], r["het_zetas"], r["kappa_T_values"], **size)
    tables = [("defects", ["instrument", "label", "kappa_T", "defect"], columns)]
    if not cfg.series:
        # each distinct n and |zeta| (the defect reads |zeta| alone) at the run's
        # truncation, on the series' own default kappa_T grid
        ns, zetas = dict.fromkeys(r["photo_ns"]), {abs(z): z for z in r["het_zetas"]}.values()
        specs = [{"name": "projector-defect-photo", "n": n, **size} for n in ns] + [
            {"name": "projector-defect-het", "zeta": z, **size} for z in zetas
        ]
        tables += [series_table(spec, r["seed"]) for spec in _series(specs, "series")]
    return checks, tables


def run_verify_identities(cfg: ExperimentConfig, n_threads: int) -> tuple[list[Check], list]:
    return verify.run_identity_checks(cfg.resolved["seed"], cfg.resolved["checks"]), []


RUNNERS = {
    "photodetect-ensemble": run_photodetect,
    "heterodyne-ensemble": run_heterodyne,
    "evolve-kod": run_evolve_kod,
    "verify-identities": run_verify_identities,
    "povm-convergence": run_povm_convergence,
}


def series_table(spec: dict, seed: int) -> tuple[str, list[str], list]:
    """File stem, header and columns of one resolved plot series."""
    name = spec["name"]
    if name in ("effective-mean", "effective-covariance"):
        t = np.linspace(0.0, spec["t_max"], spec["points"])
        value = [screened_integral(x, spec["kappa_o"]) for x in t]
        return name, ["t", "value"], [t, np.array(value)]
    kappa_T = np.array(spec["kappa_T"], dtype=float)
    if name == "beta-cooling":
        vals = [
            het.covariance_cooling(kt, 1.0, spec["samples"],
                                   stream(seed, (STREAM_IDS["beta-cooling"], i)))[1]
            for i, kt in enumerate(spec["kappa_T"])
        ]
        return name, ["kappa_T", "cov_beta"], [kappa_T, np.array(vals, dtype=float)]
    if name == "projector-defect-photo":
        instrument, at, tag = "photodetector", spec["n"], f"n{spec['n']}"
    else:
        instrument, at, tag = "heterodyne", spec["zeta"], f"zeta{abs(spec['zeta']):g}"
    defects = verify.projector_defects(instrument, at, spec["kappa_T"], spec["dim"],
                                       spec["sub_dim"])
    return f"{name}-{tag}", ["kappa_T", "defect"], [kappa_T, np.array(defects, dtype=float)]


def run(cfg: ExperimentConfig, out_dir: str, n_threads: int = 1) -> VerificationReport:
    """Execute one experiment, then write all its files into ``out_dir``.

    The plot series and the kind's runner compute everything first, so a
    run that raises writes nothing; so do one on fewer than one thread,
    whatever its kind, and one with two tables for one file.
    """
    if n_threads < 1:
        raise DomainError(f"need n_threads >= 1, got {n_threads}")
    r = cfg.resolved
    series = [series_table(spec, r["seed"]) for spec in cfg.series]
    checks, tables = RUNNERS[cfg.kind](cfg, n_threads)
    report = VerificationReport(
        checks=tuple(checks), seed=r["seed"], version=__version__, config_hash=cfg.config_hash()
    )
    checks_table = ("checks", ["name", "measured", "threshold", "comparison", "passed"], [
        [c.name for c in checks],
        np.array([c.measured for c in checks], dtype=float),
        np.array([c.threshold for c in checks], dtype=float),
        [c.comparison for c in checks],
        [str(c.passed).lower() for c in checks],
    ])
    files = {}
    for stem, header, columns in [checks_table, *tables, *series]:
        name = stem.replace("-", "_") + ".csv"
        if name in files:
            raise ConfigError(f"two tables of the run would write {name}")
        files[name] = header, columns
    os.makedirs(out_dir, exist_ok=True)
    write_report(out_dir, report)
    for name, (header, columns) in files.items():
        write_csv(os.path.join(out_dir, name), header, columns)
    return report


def _parser() -> argparse.ArgumentParser:
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
        sp.add_argument("--threads", type=int, default=1, help="worker threads, at least 1")
    return parser


# built once, on import: every main call in a process parses with it, and
# argparse's first use (it loads the locale module) is start-up, not a run
_PARSER = _parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        raw = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        cfg = resolve_config(args.kind, raw, seed_override=args.seed)
        report = run(cfg, args.out, n_threads=args.threads)
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

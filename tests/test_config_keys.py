"""The config keys each run kind and each plot series accepts, pinned by
dotted name.

A new key is a new option: it fails here until the pin is edited on
purpose, and until README's "Config keys and defaults" or "Plot series"
tables list it.
"""

import pathlib
import re

import pytest

from kodsim import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
COMMON = {"kind", "seed", "series"}
ENSEMBLE = COMMON | {"params.kappa_o", "params.dt", "params.T", "params.dim", "thresholds"}
KEYS = {
    "photodetect-ensemble": ENSEMBLE | {
        "initial_state", "trajectories", "n_max",
        "thresholds.tv_method_a", "thresholds.tv_method_c", "thresholds.p_value",
    },
    "heterodyne-ensemble": ENSEMBLE | {
        "initial_state", "trajectories", "bins",
        "thresholds.mean_sigmas", "thresholds.covariance_rel", "thresholds.p_value",
    },
    "evolve-kod": COMMON | {
        "params.kappa_o", "params.T", "kod", "convergence", "n_max", "steps",
        "grid.h", "grid.extent", "grid.sigma0_sq",
    },
    "verify-identities": COMMON | {"checks"},
    "povm-convergence": COMMON | {
        "params.dim", "sub_dim", "kappa_T_values", "photo_ns", "het_zetas",
    },
}
CURVE = {"name", "kappa_o", "t_max", "points"}
DEFECT_SWEEP = {"name", "kappa_T", "dim", "sub_dim"}
SERIES_KEYS = {
    "effective-mean": CURVE,
    "effective-covariance": CURVE,
    "beta-cooling": {"name", "kappa_T", "samples"},
    "projector-defect-photo": DEFECT_SWEEP | {"n"},
    "projector-defect-het": DEFECT_SWEEP | {"zeta"},
}


def dotted(schema: dict, prefix: str = ""):
    """The leaf keys of a config schema, nested objects joined by dots, and
    the keys of every schema a key's value may pick."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from dotted(spec, f"{prefix}{key}.")
        else:
            yield prefix + key
            if isinstance(spec[0], dict):
                for variant in spec[0].values():
                    yield from dotted(variant, prefix)


def settable(kind: str) -> set[str]:
    """Every key a config of ``kind`` may set, and for a kind with gates
    ``thresholds`` with each gate under it."""
    gates = [f"thresholds.{gate}" for gate in cli.GATES.get(kind, {})]
    thresholds = ["thresholds", *gates] if gates else []
    return {"kind", *dotted(cli._COMMON), *dotted(cli.SCHEMAS[kind]), *thresholds}


def readme_keys() -> dict[str, set[str]]:
    """Keys of the README tables: ``"common"`` for the one every kind
    accepts, else the kind named in the line above the table."""
    section = README.read_text(encoding="utf-8").split("### Config keys and defaults")[1]
    tables: dict[str, set[str]] = {}
    owner = "common"
    for line in section.split("\n### ")[0].splitlines():
        heading = re.fullmatch(r"`([a-z-]+)`:", line)
        if heading:
            owner = heading.group(1)
        row = re.match(r"\| `([\w.]+)` \|", line)
        if row:
            tables.setdefault(owner, set()).add(row.group(1))
    return tables


def readme_series_keys() -> dict[str, set[str]]:
    """Keys of each row of the README's "Plot series" table, ``name`` with
    them: the names the row's first cell lists, each key in the second cell
    the one before its parenthesized default."""
    section = README.read_text(encoding="utf-8").split("### Plot series")[1]
    tables: dict[str, set[str]] = {}
    for line in section.split("\n### ")[0].splitlines():
        cells = line.split(" | ")
        if len(cells) == 2 and cells[0].startswith("| `"):
            keys = {"name", *re.findall(r"`(\w+)` \(", cells[1])}
            for name in re.findall(r"`([a-z-]+)`", cells[0]):
                tables[name] = keys
    return tables


def test_kinds_pinned():
    assert set(cli.KINDS) == set(KEYS)


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_config_keys_pinned(kind):
    assert settable(kind) == KEYS[kind]


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_readme_lists_the_config_keys(kind):
    tables = readme_keys()
    assert tables["common"] | tables.get(kind, set()) == KEYS[kind]


def test_series_pinned():
    assert set(cli.SERIES) == set(SERIES_KEYS)


@pytest.mark.parametrize("name", sorted(SERIES_KEYS))
def test_series_keys_pinned(name):
    assert {"name", *dotted(cli.SERIES[name])} == SERIES_KEYS[name]


@pytest.mark.parametrize("name", sorted(SERIES_KEYS))
def test_readme_lists_the_series_keys(name):
    assert readme_series_keys()[name] == SERIES_KEYS[name]

"""The config keys each run kind accepts, pinned by dotted name.

A new key is a new option: it fails here until the pin is edited on
purpose, and until README's "Config keys and defaults" tables list it.
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
        "params.kappa_o", "params.dim", "sub_dim", "kappa_T_values", "photo_ns", "het_zetas",
    },
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


def test_kinds_pinned():
    assert set(cli.KINDS) == set(KEYS)


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_config_keys_pinned(kind):
    assert settable(kind) == KEYS[kind]


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_readme_lists_the_config_keys(kind):
    tables = readme_keys()
    assert tables["common"] | tables.get(kind, set()) == KEYS[kind]

"""The config keys each run kind accepts, pinned by dotted name.

A new key is a new option: it fails here until the pin is edited on
purpose, and until README's "Config keys and defaults" tables list it.
"""

import pathlib
import re

import pytest

from kodsim import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
COMMON = {
    "kind", "params.kappa_o", "params.dt", "params.T", "params.dim", "seed", "sub_dim",
    "series", "thresholds",
}
KEYS = {
    "photodetect-ensemble": COMMON | {
        "initial_state", "trajectories", "n_max",
        "thresholds.tv_method_a", "thresholds.tv_method_c", "thresholds.p_value",
    },
    "heterodyne-ensemble": COMMON | {
        "initial_state", "trajectories", "bins",
        "thresholds.mean_sigmas", "thresholds.covariance_rel", "thresholds.p_value",
    },
    "evolve-kod": COMMON | {
        "kod", "convergence", "n_max", "steps",
        "grid.h", "grid.extent", "grid.sigma0_sq",
    },
    "verify-identities": COMMON | {"checks"},
    "povm-convergence": COMMON | {"kappa_T_values", "photo_ns", "het_zetas"},
}


def dotted(schema: dict, prefix: str = ""):
    """The leaf keys of a config schema, nested objects joined by dots."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from dotted(spec, f"{prefix}{key}.")
        else:
            yield prefix + key


def settable(kind: str) -> set[str]:
    """Every key a config of ``kind`` may set, each gate under ``thresholds``."""
    gates = {f"thresholds.{gate}" for gate in cli.GATES.get(kind, {})}
    return {"kind", "thresholds", *dotted(cli._COMMON), *dotted(cli.SCHEMAS[kind]), *gates}


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

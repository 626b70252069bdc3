"""Experiment runner: config validation, output files, reproducibility."""

import csv
import json
import math
import os

import numpy as np
import pytest

from kodsim import cli, fock, heterodyne, photodetector
from kodsim.exceptions import ConfigError


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def hash_dir(path):
    import hashlib

    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


SMALL_PHOTO = {
    "trajectories": 400,
    "params": {"dim": 12},
    "initial_state": {"kind": "fock", "n": 3},
    "n_max": 8,
}


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("photodetect-ensemble", {"trajectorees": 10})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config(
                "photodetect-ensemble", {"params": {"kappa": 1.0}}
            )
        with pytest.raises(ConfigError):
            cli.resolve_config(
                "photodetect-ensemble",
                {"initial_state": {"kind": "fock", "n": 1, "phase": 0.3}},
            )

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("evolve-kod", {"kind": "photodetect-ensemble"})

    def test_negative_trajectories_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("photodetect-ensemble", {"trajectories": -1})

    def test_bad_state_kind_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config(
                "heterodyne-ensemble", {"initial_state": {"kind": "squeezed"}}
            )

    def test_seed_override_changes_hash(self):
        a = cli.resolve_config("verify-identities", {}, seed_override=1)
        b = cli.resolve_config("verify-identities", {}, seed_override=2)
        assert a.config_hash() != b.config_hash()

    def test_distinct_configs_distinct_hashes(self):
        a = cli.resolve_config("photodetect-ensemble", dict(SMALL_PHOTO))
        changed = dict(SMALL_PHOTO)
        changed["trajectories"] = 401
        b = cli.resolve_config("photodetect-ensemble", changed)
        assert a.config_hash() != b.config_hash()

    def test_coherent_alpha_forms(self):
        pair = cli.resolve_config(
            "heterodyne-ensemble", {"initial_state": {"kind": "coherent", "alpha": [0.5, 0.5]}}
        )
        assert pair.resolved["initial_state"]["alpha"] == [0.5, 0.5]
        with pytest.raises(ConfigError):
            cli.resolve_config(
                "heterodyne-ensemble", {"initial_state": {"kind": "coherent", "alpha": "big"}}
            )


class TestInitialState:
    def test_density_file_round_trip(self, tmp_path):
        rho = 0.5 * fock.projector(10, 0) + 0.5 * fock.projector(10, 1)
        path = tmp_path / "rho.npy"
        np.save(path, rho)
        loaded = cli.build_initial_state({"kind": "file", "path": str(path)}, 10)
        assert np.array_equal(loaded, rho)

    def test_coherent_amplitude_guard(self):
        with pytest.raises(ConfigError):
            cli.build_initial_state({"kind": "coherent", "alpha": [4.0, 0.0]}, 12)


class TestRuns:
    def test_photodetect_outputs(self, tmp_path):
        cfg = cli.resolve_config("photodetect-ensemble", dict(SMALL_PHOTO), seed_override=5)
        report = cli.run(cfg, str(tmp_path))
        header, rows = read_csv(tmp_path / "pmf.csv")
        assert header == ["n", "kod_pmf", "born_pmf", "empirical_pmf", "ostensible_pmf"]
        assert len(rows) == 9
        emp = sum(float(r[3]) for r in rows)
        assert abs(emp - 1.0) < 1e-9
        assert (tmp_path / "counts.csv").exists()
        assert (tmp_path / "report.json").exists()
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["overall_pass"] == report.overall_pass
        assert data["provenance"]["seed"] == 5

    def test_zero_trajectories_emits_analytic_columns(self, tmp_path):
        cfg_dict = dict(SMALL_PHOTO)
        cfg_dict["trajectories"] = 0
        cfg = cli.resolve_config("photodetect-ensemble", cfg_dict)
        report = cli.run(cfg, str(tmp_path))
        assert report.overall_pass
        header, rows = read_csv(tmp_path / "pmf.csv")
        assert all(r[3] == "" and r[4] == "" for r in rows)
        born = np.array([float(r[2]) for r in rows])
        assert abs(born.sum() - 1.0) < 1e-9

    def test_write_csv_cell_text_pinned(self, tmp_path):
        # every cell type the runners emit, as the exact bytes on disk
        path = tmp_path / "cells.csv"
        row = (np.float64(0.1), 1.0 / 3.0, 7, np.int64(-3), True, None, "", np.float64(2e-20))
        cli.write_csv(str(path), ["a", "b", "c", "d", "e", "f", "g", "h"], [row])
        assert path.read_bytes() == (
            b"a,b,c,d,e,f,g,h\n0.1,0.3333333333333333,7,-3,1,,,2e-20\n"
        )

    def test_idempotent_reruns_byte_identical(self, tmp_path):
        cfg = cli.resolve_config("photodetect-ensemble", dict(SMALL_PHOTO), seed_override=7)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run(cfg, str(out1), n_threads=1)
        cli.run(cfg, str(out2), n_threads=3)
        assert hash_dir(out1) == hash_dir(out2)

    def test_heterodyne_run(self, tmp_path):
        cfg = cli.resolve_config(
            "heterodyne-ensemble",
            {"trajectories": 500, "params": {"dim": 12}, "quad_order": 24,
             "initial_state": {"kind": "coherent", "alpha": 1.0}},
            seed_override=3,
        )
        report = cli.run(cfg, str(tmp_path))
        assert report.overall_pass
        header, rows = read_csv(tmp_path / "zetas.csv")
        assert header == ["trajectory", "re", "im"]
        assert len(rows) == 500
        header, rows = read_csv(tmp_path / "density.csv")
        assert header == ["re", "im", "empirical_density", "born_density"]
        assert len(rows) == 64
        # binned empirical density tracks the analytic one at this scale
        gaps = [abs(float(r[2]) - float(r[3])) for r in rows]
        assert max(gaps) < 1.0

    def test_heterodyne_zero_trajectories(self, tmp_path):
        cfg = cli.resolve_config(
            "heterodyne-ensemble",
            {"trajectories": 0, "params": {"dim": 12}, "quad_order": 24},
        )
        report = cli.run(cfg, str(tmp_path))
        assert report.overall_pass
        _, rows = read_csv(tmp_path / "density.csv")
        assert all(r[2] == "" for r in rows)
        assert all(float(r[3]) >= 0.0 for r in rows)

    def test_evolve_kod_poisson_run(self, tmp_path):
        cfg = cli.resolve_config(
            "evolve-kod", {"kod": "poisson", "steps": 200, "convergence": False}
        )
        report = cli.run(cfg, str(tmp_path))
        assert report.overall_pass
        header, rows = read_csv(tmp_path / "kod.csv")
        assert header == ["n", "evolved", "analytic", "abs_err"]
        assert max(float(r[3]) for r in rows) < 1e-8

    def test_verify_identities_subset(self, tmp_path):
        cfg = cli.resolve_config(
            "verify-identities", {"checks": ["renormalization", "trace"]}, seed_override=11
        )
        report = cli.run(cfg, str(tmp_path))
        assert report.overall_pass
        assert len(report.checks) == 4
        header, rows = read_csv(tmp_path / "checks.csv")
        assert header == ["name", "measured", "threshold", "comparison", "passed"]
        assert all(r[4] == "true" for r in rows)

    def test_unknown_check_group_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("verify-identities", {"checks": ["everything"]})

    def test_verify_identities_defaults_all_green(self, tmp_path):
        # the full default suite: every identity defect below its gate
        report = cli.run(
            cli.resolve_config("verify-identities", {}), str(tmp_path)
        )
        assert report.overall_pass
        assert len(report.checks) == 20


class TestPlotSeries:
    def test_effective_mean_series(self, tmp_path):
        cfg = cli.resolve_config(
            "verify-identities",
            {"checks": ["trace"], "series": [
                {"name": "effective-mean", "points": 51},
                {"name": "effective-covariance", "points": 51},
            ]},
        )
        cli.run(cfg, str(tmp_path))
        _, rows_mean = read_csv(tmp_path / "effective_mean.csv")
        vals = [float(r[1]) for r in rows_mean]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] > 0.99
        _, rows_cov = read_csv(tmp_path / "effective_covariance.csv")
        assert rows_mean == rows_cov  # same screening law, pointwise

    def test_beta_cooling_series(self, tmp_path):
        cfg = cli.resolve_config(
            "verify-identities",
            {"checks": ["trace"],
             "series": [{"name": "beta-cooling", "samples": 100000}]},
            seed_override=9,
        )
        cli.run(cfg, str(tmp_path))
        _, rows = read_csv(tmp_path / "beta_cooling.csv")
        for kappa_T, value in ((float(r[0]), float(r[1])) for r in rows):
            expected = 1.0 / (math.exp(kappa_T) - 1.0)
            assert abs(value / expected - 1.0) < 0.03

    def test_unknown_series_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.resolve_config(
                "verify-identities",
                {"checks": ["trace"], "series": [{"name": "mystery"}]},
            )

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "effective-mean", "pointz": 5},
            {"name": "effective-mean", "points": -1},
            {"name": "projector-defect-photo", "n": 2, "sub_dim": 2},
        ],
    )
    def test_bad_series_leaves_no_file(self, tmp_path, capsys, spec):
        # a series is checked before the run, not after report.json says PASS
        cfg = {"checks": ["trace"], "series": [spec]}
        assert run_main(tmp_path, "verify-identities", cfg) == 2
        assert capsys.readouterr().err.startswith("error: ")
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "kind, cfg_dict, digest",
        [
            (
                "verify-identities",
                {"checks": ["trace"], "series": [
                    {"name": "effective-mean", "points": 51},
                    {"name": "projector-defect-het", "zeta": [0.5, 0.1], "kappa_o": 2},
                ]},
                "7b6c68b553773e12",
            ),
            ("povm-convergence", {"series": [{"name": "beta-cooling", "samples": 1000}]},
             "e6dfc015438f8ce7"),
        ],
    )
    def test_series_keep_their_hash(self, kind, cfg_dict, digest):
        # series are stored as given, so their hashes match earlier releases
        assert cli.resolve_config(kind, cfg_dict).config_hash() == digest

    @pytest.mark.parametrize("kappa_o", [0, -1.0, "nan", "inf"])
    def test_non_positive_series_rate_exits_two(self, tmp_path, capsys, kappa_o):
        cfg = {"checks": ["trace"], "series": [{"name": "effective-mean", "kappa_o": kappa_o}]}
        assert run_main(tmp_path, "verify-identities", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "series.kappa_o" in err


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"checks": ["renormalization"]}))
        code = cli.main(
            ["verify-identities", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        code = cli.main(
            ["verify-identities", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INSTRUMENT_AUTONOMY_THREADS", "3")
        assert cli._default_threads() == 3
        monkeypatch.setenv("INSTRUMENT_AUTONOMY_THREADS", "bogus")
        assert cli._default_threads() == 1


DEFAULT_HASHES = {
    "photodetect-ensemble": "763a6c70d1e9b13a",
    "heterodyne-ensemble": "e524b3ceaeaa9f2f",
    "evolve-kod": "b3af7dbb4bfdc46f",
    "verify-identities": "fcff0ce2ce4efc0b",
    "povm-convergence": "2dd970473c70bde9",
}


@pytest.mark.parametrize("kind", sorted(DEFAULT_HASHES))
def test_default_config_hash_pinned(kind):
    assert cli.resolve_config(kind, {}).config_hash() == DEFAULT_HASHES[kind]


CHECKS_HEADER = ["name", "measured", "threshold", "comparison", "passed"]
# kind, config, {file: CSV header (None for report.json)}, check names in order
OUTPUT_LAYOUTS = [
    (
        "photodetect-ensemble",
        dict(SMALL_PHOTO, trajectories=200),
        {
            "counts.csv": ["trajectory", "jumps"],
            "pmf.csv": ["n", "kod_pmf", "born_pmf", "empirical_pmf", "ostensible_pmf"],
        },
        ["tv-method-a-vs-born", "tv-method-c-vs-born", "chi-square-p-value"],
    ),
    (
        "heterodyne-ensemble",
        {"trajectories": 100, "params": {"dim": 12}, "quad_order": 16, "bins": 4},
        {
            "zetas.csv": ["trajectory", "re", "im"],
            "density.csv": ["re", "im", "empirical_density", "born_density"],
        },
        ["born-density-mass", "mean-vs-born", "covariance-vs-born", "chi-square-2d-p-value"],
    ),
    (
        "evolve-kod",
        {"kod": "poisson", "steps": 200},
        {"kod.csv": ["n", "evolved", "analytic", "abs_err"]},
        ["kod-poisson-evolution", "kod-mass", "kod-poisson-step-halving"],
    ),
    (
        "evolve-kod",
        {"kod": "gaussian", "grid": {"h": 0.2, "steps": 50}},
        {"kod_grid.csv": ["re", "im", "evolved", "analytic"]},
        ["kod-diffusion-evolution", "kod-mass", "kod-diffusion-h-halving"],
    ),
    (
        "verify-identities",
        {"checks": ["renormalization", "trace"]},
        {},
        [
            "renormalization-photodetector",
            "renormalization-heterodyne",
            "trace-identity",
            "groundstate-completeness",
        ],
    ),
    (
        "povm-convergence",
        {"kappa_T_values": [2.0, 3.0], "photo_ns": [1], "het_zetas": [0.5],
         "params": {"dim": 30}, "sub_dim": 15},
        {
            "defects.csv": ["instrument", "label", "kappa_T", "defect"],
            "projector_defect_photo_n1.csv": ["kappa_T", "defect"],
            "projector_defect_het_zeta0.5.csv": ["kappa_T", "defect"],
        },
        ["projector-scaling-photodetector-n1", "projector-scaling-heterodyne-zeta0.5"],
    ),
]


@pytest.mark.parametrize(
    "kind, cfg_dict, tables, check_names",
    OUTPUT_LAYOUTS,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(OUTPUT_LAYOUTS)],
)
def test_output_layout_pinned(tmp_path, monkeypatch, kind, cfg_dict, tables, check_names):
    def refuse(*args, **kwargs):
        raise AssertionError("a runner wrote a file")

    # the runner alone returns every table and check and writes nothing
    with monkeypatch.context() as patch:
        patch.setattr(cli, "write_csv", refuse)
        patch.setattr(cli, "write_report", refuse)
        checks, returned = cli.RUNNERS[kind](cli.resolve_config(kind, cfg_dict), 1)
    assert {f"{stem.replace('-', '_')}.csv": head for stem, head, _ in returned} == tables
    assert [c.name for c in checks] == check_names
    report = cli.run(cli.resolve_config(kind, cfg_dict), str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(["report.json", "checks.csv", *tables])
    for name, header in dict(tables, **{"checks.csv": CHECKS_HEADER}).items():
        assert read_csv(tmp_path / name)[0] == header
    assert [c.name for c in report.checks] == check_names
    data = json.loads((tmp_path / "report.json").read_text())
    assert [c["name"] for c in data["checks"]] == check_names


def run_main(tmp_path, kind, cfg_dict):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    return cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "kind, cfg_dict",
    [
        ("photodetect-ensemble", {"params": {"dim": "x"}}),
        ("photodetect-ensemble", {"trajectories": None}),
        ("povm-convergence", {"kappa_T_values": 5}),
        (
            "photodetect-ensemble",
            {"thresholds": {"p_value": "low"}, "trajectories": 10,
             "params": {"dim": 8}, "n_max": 7},
        ),
        # counts up to n_max = 12 cannot occur in 8 Fock levels
        ("photodetect-ensemble", {"trajectories": 10, "params": {"dim": 8}}),
    ],
)
def test_bad_input_exits_two_without_traceback(tmp_path, capsys, kind, cfg_dict):
    assert run_main(tmp_path, kind, cfg_dict) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_failed_run_writes_nothing(tmp_path, capsys):
    # the method-C weights of Fock 190 overflow after the ensemble has run
    cfg = {"params": {"dim": 200}, "initial_state": {"kind": "fock", "n": 190},
           "n_max": 199, "trajectories": 10}
    assert run_main(tmp_path, "photodetect-ensemble", cfg) == 2
    assert "ostensible weight overflows from n = 153" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "kind, cfg_dict, key",
    [
        ("photodetect-ensemble", {"n_max": 8.9}, "n_max"),
        ("photodetect-ensemble", {"trajectories": 99.99}, "trajectories"),
        ("photodetect-ensemble", {"trajectories": True}, "trajectories"),
        ("photodetect-ensemble", {"params": {"kappa_o": True}}, "params.kappa_o"),
        ("heterodyne-ensemble", {"initial_state": {"kind": "coherent", "alpha": True}},
         "initial_state.alpha"),
        ("evolve-kod", {"convergence": "false"}, "convergence"),
        ("evolve-kod", {"convergence": 0}, "convergence"),
        ("verify-identities", {"series": [{"name": "effective-mean", "points": 2.7}]},
         "series.points"),
    ],
)
def test_lossy_config_value_rejected(tmp_path, capsys, kind, cfg_dict, key):
    # no silent truncation to an integer, no boolean as a number, no string as a boolean
    with pytest.raises(ConfigError, match=key):
        cli.resolve_config(kind, cfg_dict)
    assert run_main(tmp_path, kind, cfg_dict) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be")


def test_integral_float_and_quoted_integer_keep_their_hash():
    cfg = {"trajectories": 1000.0, "n_max": "12", "params": {"dim": 16.0, "kappa_o": "1"}}
    plain = {"trajectories": 1000, "n_max": 12, "params": {"dim": 16, "kappa_o": 1.0}}
    for raw in (cfg, plain):
        assert cli.resolve_config("photodetect-ensemble", raw).config_hash() == "824e11583684c742"


def test_non_finite_state_file_exits_two(tmp_path, capsys):
    path = tmp_path / "nan.npy"
    np.save(path, np.array([np.nan, 1.0, 0.0, 0.0], dtype=complex))
    cfg = {"trajectories": 10, "params": {"dim": 4}, "n_max": 3,
           "initial_state": {"kind": "file", "path": str(path)}}
    assert run_main(tmp_path, "photodetect-ensemble", cfg) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "kind, cfg_dict, key",
    [
        ("photodetect-ensemble", {"thresholds": {"pvalue": 0.5}}, "pvalue"),
        ("heterodyne-ensemble", {"thresholds": {"p_value": 0.01, "mean_sigma": 4}}, "mean_sigma"),
        # a gate of the other ensemble kind is not a gate of this one
        ("photodetect-ensemble", {"thresholds": {"covariance_rel": 0.1}}, "covariance_rel"),
        ("evolve-kod", {"thresholds": {"tv_method_a": 0.1}}, "tv_method_a"),
        ("verify-identities", {"thresholds": {"p_value": 0.1}}, "p_value"),
        ("povm-convergence", {"thresholds": {"x": 1}}, "x"),
    ],
)
def test_unknown_threshold_key_rejected(tmp_path, capsys, kind, cfg_dict, key):
    with pytest.raises(ConfigError, match=key):
        cli.resolve_config(kind, cfg_dict)
    assert run_main(tmp_path, kind, cfg_dict) == 2
    assert capsys.readouterr().err.startswith("error: unknown keys in thresholds")


def test_valid_thresholds_keep_their_hash():
    # gate overrides are stored as given, so their hashes match earlier releases
    cfg = {"thresholds": {"p_value": 0.5, "tv_method_a": "0.1"}}
    assert cli.resolve_config("photodetect-ensemble", cfg).config_hash() == "23eed762740f23f8"


def test_ensembles_never_reach_dense_oracles(tmp_path, monkeypatch):
    # the dense per-step samplers are test references: both CLI ensembles
    # must finish a mixed state without them (whatever their gates say)
    reached = []

    def oracle(name):
        def refuse(*args, **kwargs):
            reached.append(name)
            raise RuntimeError(f"{name} reached from the CLI")
        return refuse

    for module, name in ((heterodyne, "sample_het_trajectory"),
                         (heterodyne, "kraus_increment"),
                         (photodetector, "sample_trajectory")):
        monkeypatch.setattr(module, name, oracle(name))
    path = tmp_path / "mixed.npy"
    rho = 0.5 * fock.pure_density(fock.coherent_state(10, 0.5)) + 0.5 * fock.projector(10, 2)
    np.save(path, rho)
    state = {"kind": "file", "path": str(path)}
    for kind, extra in (("heterodyne-ensemble", {"quad_order": 24}),
                        ("photodetect-ensemble", {"n_max": 9})):
        out = tmp_path / kind
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps(
            {"trajectories": 50, "params": {"dim": 10}, "initial_state": state, **extra}))
        cli.main([kind, "--config", str(cfg_path), "--out", str(out)])
        assert (out / "report.json").is_file()
    assert reached == []

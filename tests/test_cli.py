"""Experiment runner: config validation, output files, reproducibility."""

import ast
import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from kodsim import cli, ensemble, fock, heterodyne as het, records, stepped, verify
from kodsim.exceptions import ConfigError, DomainError
from oracles import write_csv_rows


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
        columns = [
            np.array([0.1]), np.array([1.0 / 3.0]), range(7, 8), np.array([-3]),
            np.array([True]), np.full(1, None), [""], np.array([2e-20]),
        ]
        cli.write_csv(str(path), ["a", "b", "c", "d", "e", "f", "g", "h"], columns)
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
            {"trajectories": 500, "params": {"dim": 12},
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

    def test_density_born_column_is_the_bin_average(self, tmp_path):
        # the Born column is the bin probability over the bin's area, the
        # same average as the empirical column, not the density at the midpoint
        cfg_dict = {"trajectories": 200, "params": {"dim": 12}, "bins": 5,
                    "initial_state": {"kind": "coherent", "alpha": [0.6, -0.3]}}
        cfg = cli.resolve_config("heterodyne-ensemble", cfg_dict)
        cli.run(cfg, str(tmp_path))
        p = cfg.instrument_params()
        rho = fock.density(fock.coherent_state(12, 0.6 - 0.3j))
        mean_ref, cov_ref = het.born_moments(rho, p.T, p.kappa_o)
        half = 3.5 * math.sqrt(cov_ref / 2.0)
        edges_re = mean_ref.real + np.linspace(-half, half, 6)
        edges_im = mean_ref.imag + np.linspace(-half, half, 6)
        area = (edges_re[1] - edges_re[0]) * (edges_im[1] - edges_im[0])
        probs = het.born_bin_probs(rho, edges_re, edges_im, p.T, p.kappa_o)
        _, rows = read_csv(tmp_path / "density.csv")
        assert [float(r[3]) for r in rows] == list((probs * np.pi / area).ravel())

    def test_heterodyne_zero_trajectories(self, tmp_path):
        cfg = cli.resolve_config(
            "heterodyne-ensemble",
            {"trajectories": 0, "params": {"dim": 12}},
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
        assert len(report.checks) == 22


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

    def test_stream_ids_are_pairwise_distinct(self):
        # stream() reads 7 and (7,) as one id, so ids compare as tuples; the
        # beta-cooling series' two-word ids equal no one-word id
        ids = [(i,) if isinstance(i, int) else tuple(i) for i in records.STREAM_IDS.values()]
        assert len(set(ids)) == len(ids)

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
                "faac5fb282e1b5a7",
            ),
            ("povm-convergence", {"series": [{"name": "beta-cooling", "samples": 1000}]},
             "b439132353eefe7c"),
        ],
    )
    def test_series_keep_their_hash(self, kind, cfg_dict, digest):
        # series are stored as given, so their hashes do not move with series defaults
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

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("kind", ["photodetect-ensemble", "verify-identities"])
    def test_fewer_than_one_thread_exits_two(self, tmp_path, capsys, kind, threads):
        out = tmp_path / "out"
        assert cli.main([kind, "--out", str(out), "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need n_threads >= 1, got {threads}\n"
        assert not out.exists()


DEFAULT_HASHES = {
    "photodetect-ensemble": "175155b92bdeaa01",
    "heterodyne-ensemble": "c1123cf87b6f81b2",
    "evolve-kod": "c933de7fc24c7e16",
    "verify-identities": "774007b3f4916451",
    "povm-convergence": "ef23b18d794b4797",
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
        {"trajectories": 100, "params": {"dim": 12}, "bins": 4},
        {
            "zetas.csv": ["trajectory", "re", "im"],
            "density.csv": ["re", "im", "empirical_density", "born_density"],
        },
        ["mean-vs-born", "covariance-vs-born", "chi-square-2d-p-value"],
    ),
    (
        "evolve-kod",
        {"kod": "poisson", "steps": 200},
        {"kod.csv": ["n", "evolved", "analytic", "abs_err"]},
        ["kod-poisson-evolution", "kod-mass", "kod-poisson-step-halving"],
    ),
    (
        "evolve-kod",
        {"kod": "gaussian", "grid": {"h": 0.2}},
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
    # the stream scheme is the one id of every drawn record, phase solver included
    assert sorted(data["provenance"]) == ["config_hash", "seed", "stream_scheme", "version"]
    assert data["provenance"]["stream_scheme"] == "one-stream/3"


def table_rows(columns):
    """A column table's rows, each cell the column's own element."""
    n_rows = len(next(c for c in columns if not callable(c)))
    return zip(*(c(np.arange(n_rows)) if callable(c) else c for c in columns))


# every layout, plus a table of 2 chunks and one row and runs with no
# trajectory (empty cells)
WRITER_CASES = [(kind, cfg_dict) for kind, cfg_dict, _, _ in OUTPUT_LAYOUTS] + [
    ("photodetect-ensemble", dict(SMALL_PHOTO, trajectories=2 * cli.CHUNK + 1)),
    ("photodetect-ensemble", dict(SMALL_PHOTO, trajectories=0)),
    ("heterodyne-ensemble", {"trajectories": 0, "params": {"dim": 12}, "bins": 3}),
]


@pytest.mark.parametrize(
    "kind, cfg_dict", WRITER_CASES, ids=[f"{case[0]}-{i}" for i, case in enumerate(WRITER_CASES)]
)
def test_write_csv_writes_the_row_oracle_bytes(tmp_path, kind, cfg_dict):
    # each table of a run, checks.csv and the plot series as written by
    # cli.run, against the cell-by-cell writer on the same values
    cfg = cli.resolve_config(kind, cfg_dict)
    cli.run(cfg, str(tmp_path / "run"))
    checks, tables = cli.RUNNERS[kind](cfg, 1)
    check_rows = [
        (c.name, c.measured, c.threshold, c.comparison, str(c.passed).lower()) for c in checks
    ]
    expected = {"checks.csv": (CHECKS_HEADER, check_rows)}
    for stem, header, columns in tables:
        expected[f"{stem.replace('-', '_')}.csv"] = (header, table_rows(columns))
    assert sorted([*expected, "report.json"]) == sorted(os.listdir(tmp_path / "run"))
    for name, (header, rows) in expected.items():
        write_csv_rows(str(tmp_path / name), header, rows)
        assert (tmp_path / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def test_series_tables_write_the_row_oracle_bytes(tmp_path):
    for spec in cli._series(
        [{"name": name} for name in cli.SERIES if name != "beta-cooling"]
        + [{"name": "beta-cooling", "samples": 500}], "series"
    ):
        stem, header, columns = cli.series_table(spec, 3)
        cli.write_csv(str(tmp_path / "columns.csv"), header, columns)
        write_csv_rows(str(tmp_path / "rows.csv"), header, table_rows(columns))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_quotes_strings_as_csv_writer(tmp_path):
    # header names and string cells that need quoting, or look as if they
    # might, against csv.writer with the same line terminator
    texts = ["a,b", 'say "hi"', "x\ny", "c\rd", "", None]
    columns = [texts[i:] + texts[:i] for i in range(len(texts))]
    cli.write_csv(str(tmp_path / "t.csv"), texts, columns)
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(texts)
        writer.writerows(zip(*columns))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_edge_values_write_the_row_oracle_bytes(tmp_path):
    # values a per-chunk dedupe could merge or split wrongly, over three
    # chunks, with axis columns whose chunks split a grid row
    n, side = 2 * cli.CHUNK + 1, 7
    nans = np.array([0x7FF8000000000001, -0x0008000000000002], dtype=np.int64).view(float)
    special = np.array([-0.0, 0.0, *nans, np.inf, -np.inf, 5e-324, 1e16, 0.1])
    floats = np.resize(special, n)
    floats[cli.CHUNK - 1 : cli.CHUNK + 1] = 1.0 / 3.0  # across a chunk boundary
    ints = np.resize(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1]), n)
    re_ax, im_ax = np.linspace(-1.0, 1.0, -(-n // side)), np.linspace(-1.0, 1.0, side)
    columns = [
        lambda k: re_ax[k // side], lambda k: im_ax[k % side], floats,
        np.resize(np.array([0.1, -0.0, 1e-45, 3.4e38], dtype=np.float32), n),
        np.arange(n) % 3 == 0, ints,
    ]
    header = ["re", "im", "f64", "f32", "flag", "i64"]
    cli.write_csv(str(tmp_path / "columns.csv"), header, columns)
    full = [(c(np.arange(n)) if callable(c) else c).tolist() for c in columns]
    write_csv_rows(str(tmp_path / "rows.csv"), header, zip(*full))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # the columns' own numpy elements, np.bool_ among them, give the same rows
    write_csv_rows(str(tmp_path / "elements.csv"), header, table_rows(columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "elements.csv").read_bytes()


# sizes at which 20 trajectories leave the chi-square test two bins
SMALL_SIZES = {
    "photodetect-ensemble": {"params": {"dim": 12}, "n_max": 8},
    "heterodyne-ensemble": {"params": {"dim": 12}, "bins": 2},
}


@pytest.mark.parametrize("kind", sorted(SMALL_SIZES))
def test_a_run_reads_a_few_streams_at_any_size(tmp_path, monkeypatch, kind):
    # the trajectories of a run share one stream, so 10,000 trajectories
    # read no more streams than 20 do, and each id read is in the table
    read = []

    def counted(seed, stream_id):
        read.append(stream_id)
        return records.stream(seed, stream_id)

    for module in (cli, ensemble, verify):
        monkeypatch.setattr(module, "stream", counted)
    per_run = []
    for n_traj in (20, 10_000):
        read.clear()
        cfg = cli.resolve_config(kind, dict(SMALL_SIZES[kind], trajectories=n_traj))
        cli.run(cfg, str(tmp_path / str(n_traj)))
        per_run.append(len(read))
        assert {i if isinstance(i, int) else i[0] for i in read} <= set(records.STREAM_IDS.values())
    assert per_run[0] == per_run[1] <= 2, per_run


@pytest.mark.parametrize("kind", ["photodetect-ensemble", "heterodyne-ensemble"])
def test_dt_does_not_change_the_ensembles(tmp_path, kind):
    # both ensembles draw the reduced record at the horizon, so params.dt
    # reaches only the config hash.  At kappa_o 12, dt 1e-3 used to exit 2 on
    # a weak-coupling bound that nothing read (a coherent state fills two
    # chi-square bins of 300 draws there)
    strong = {"params": {"kappa_o": 12.0}, "initial_state": {"kind": "coherent", "alpha": 1.0}}
    for case, (raw, dts) in enumerate((({"params": {}}, (1e-3, 4e-3)), (strong, (1e-3, 1e-4)))):
        tables = []
        for dt in dts:
            out = tmp_path / f"{case}-{dt}"
            params = {**raw["params"], "dim": 16, "dt": dt}
            cli.run(cli.resolve_config(kind, {**raw, "trajectories": 300, "params": params}),
                    str(out))
            tables.append({name: (out / name).read_bytes()
                           for name in os.listdir(out) if name.endswith(".csv")})
        assert len(tables[0]) == 3 and tables[0] == tables[1]


def run_main(tmp_path, kind, cfg_dict, *args):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    return cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out"), *args])


@pytest.mark.parametrize("kind", sorted(SMALL_SIZES))
def test_a_run_too_small_for_the_chi_square_test_is_a_config_error(tmp_path, capsys, kind):
    # 10 trajectories leave fewer than two bins of expected count >= 5: the
    # config names too few trajectories, it is no bad data
    cfg = dict(SMALL_SIZES[kind], trajectories=10)
    with pytest.raises(ConfigError, match="trajectories = 10 .*chi-square"):
        cli.run(cli.resolve_config(kind, cfg), str(tmp_path / "run"))
    assert run_main(tmp_path, kind, cfg) == 2
    assert "expected count >= 5" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()


# .npy files no run may take, by name
BAD_STATE_FILES = {
    "strings.npy": lambda path: np.save(path, np.array(["a", "b"])),
    "objects.npy": lambda path: np.save(path, np.array([1, None], dtype=object),
                                        allow_pickle=True),
    "junk.npy": lambda path: path.write_bytes(b"not an npy file"),
    # numeric arrays of the wrong size for params.dim 12 or 40
    "density10.npy": lambda path: np.save(path, np.eye(10) / 10.0),
    "vector10.npy": lambda path: np.save(path, np.full(10, 10**-0.5)),
}


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
        # out-of-range numbers, each refused where its value lands
        ("photodetect-ensemble", {"thresholds": {"p_value": "nan"}, "trajectories": 10,
                                  "params": {"dim": 8}, "n_max": 7}),
        ("photodetect-ensemble", {"thresholds": {"p_value": math.nan}, "trajectories": 10,
                                  "params": {"dim": 8}, "n_max": 7}),
        ("evolve-kod", {"kod": "gaussian", "grid": {"h": "nan"}}),
        ("evolve-kod", {"kod": "gaussian", "grid": {"extent": "inf"}}),
        # no quadrature order to set: the Born moments are exact
        ("heterodyne-ensemble", {"quad_order": 32, "trajectories": 10, "params": {"dim": 12}}),
        ("heterodyne-ensemble", {"bins": 0, "trajectories": 10, "params": {"dim": 12}}),
        ("heterodyne-ensemble", {"bins": -2, "trajectories": 10, "params": {"dim": 12}}),
        ("photodetect-ensemble", {"n_max": -1, "trajectories": 10, "params": {"dim": 8}}),
        ("povm-convergence", {"het_zetas": ["inf"]}),
        # state files that hold no numeric array (see BAD_STATE_FILES)
        *(("photodetect-ensemble", {"trajectories": 10, "params": {"dim": 8}, "n_max": 7,
                                    "initial_state": {"kind": "file", "path": name}})
          for name in ("strings.npy", "objects.npy", "junk.npy")),
        # a scaling check needs two or more strictly increasing kappa_T values
        ("povm-convergence", {"kappa_T_values": [2.0]}),
        ("povm-convergence", {"kappa_T_values": []}),
        ("povm-convergence", {"kappa_T_values": [3.0, 2.0]}),
        ("verify-identities", {"checks": ["trace"],
                               "series": [{"name": "beta-cooling", "samples": 0}]}),
        # a state file whose size is not params.dim
        ("heterodyne-ensemble", {"trajectories": 20, "params": {"dim": 40}, "bins": 4,
                                 "initial_state": {"kind": "file", "path": "density10.npy"}}),
        ("photodetect-ensemble", {"trajectories": 200, "params": {"dim": 12}, "n_max": 7,
                                  "initial_state": {"kind": "file", "path": "density10.npy"}}),
        ("photodetect-ensemble", {"trajectories": 200, "params": {"dim": 12}, "n_max": 7,
                                  "initial_state": {"kind": "file", "path": "vector10.npy"}}),
        # a negative seed, in the config and on the command line (a pair is a
        # config and the arguments that follow it)
        ("photodetect-ensemble", {"seed": -3, "trajectories": 10, "params": {"dim": 8},
                                  "n_max": 7}),
        ("photodetect-ensemble", ({"trajectories": 10, "params": {"dim": 8}, "n_max": 7},
                                  ("--seed", "-3"))),
        # list keys take a JSON array, not any iterable
        ("povm-convergence", {"photo_ns": "012"}),
        ("povm-convergence", {"kappa_T_values": "2345"}),
        ("povm-convergence", {"het_zetas": {"0": 1}}),
        ("verify-identities", {"checks": ["trace"],
                               "series": [{"name": "projector-defect-photo", "kappa_T": "12"}]}),
    ],
)
def test_bad_input_exits_two_without_traceback(tmp_path, capsys, monkeypatch, kind, cfg_dict):
    monkeypatch.chdir(tmp_path)
    for name, write in BAD_STATE_FILES.items():
        write(tmp_path / name)
    cfg_dict, args = cfg_dict if isinstance(cfg_dict, tuple) else (cfg_dict, ())
    assert run_main(tmp_path, kind, cfg_dict, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


SMALL_RUNS = {
    "photodetect-ensemble": {"trajectories": 50, "params": {"dim": 10}, "n_max": 6,
                             "initial_state": {"kind": "fock", "n": 3}},
    "heterodyne-ensemble": {"trajectories": 20, "params": {"dim": 10}, "bins": 4,
                            "initial_state": {"kind": "coherent", "alpha": 0.5}},
}


@pytest.mark.parametrize("from_file", [False, True], ids=["vector", "file"])
@pytest.mark.parametrize("kind", sorted(SMALL_RUNS))
def test_ensemble_run_takes_the_state_in_once(tmp_path, monkeypatch, kind, from_file):
    # one run checks its state once, and every reference and the sampler
    # then read that one density matrix
    calls = []

    def density(state):
        calls.append(state)
        return checked(state)

    checked = fock.density
    monkeypatch.setattr(fock, "density", density)
    cfg_dict = dict(SMALL_RUNS[kind])
    if from_file:
        path = tmp_path / "mixed.npy"
        np.save(path, 0.5 * fock.projector(10, 0) + 0.5 * fock.projector(10, 2))
        cfg_dict["initial_state"] = {"kind": "file", "path": str(path)}
    cli.run(cli.resolve_config(kind, cfg_dict), str(tmp_path / "out"))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", sorted(SMALL_RUNS))
def test_intakes_reject_a_half_norm_vector(tmp_path, kind):
    # the state's one intake, fock.density, refuses a vector of norm 0.5
    path = tmp_path / "half.npy"
    np.save(path, 0.5 * fock.fock_state(10, 1))
    cfg_dict = {**SMALL_RUNS[kind], "initial_state": {"kind": "file", "path": str(path)}}
    with pytest.raises(DomainError):
        cli.run(cli.resolve_config(kind, cfg_dict), str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_no_cli_path_imports_scipy(tmp_path):
    # the package takes its special functions from kodsim.special, and
    # importing any of scipy was most of each CLI call's start-up.  A fresh
    # interpreter imports kodsim.cli, then runs a small ensemble of each
    # instrument (at these sizes a gate may fail, exit 1) and a small KOD of
    # each kind to its verdict
    runs = [(kind, kind, cfg) for kind, cfg in sorted(SMALL_RUNS.items())] + [
        ("gaussian", "evolve-kod", {"kod": "gaussian", "convergence": False,
                                    "grid": {"h": 0.1}}),
        ("poisson", "evolve-kod", {"kod": "poisson", "convergence": False}),
    ]
    for name, _, cfg in runs:
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "import kodsim.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        f"for name, kind in {[(name, kind) for name, kind, _ in runs]!r}:\n"
        "    assert kodsim.cli.main([kind, '--config', name + '.json', '--out', name]) in (0, 1)\n"
        "    loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "    assert not loaded, (name, loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / name / "report.json").is_file() for name, _, _ in runs)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # no sum over trajectories, nodes, quadrature points or cosine modes
    # goes through BLAS, so a run writes the same bytes at 1 and 2 BLAS
    # threads; OpenBLAS reads its thread count at start-up, hence one
    # interpreter each
    cfgs = {"heterodyne-ensemble": {"params": {"dim": 40},
                                    "initial_state": {"kind": "coherent", "alpha": 1.0}},
            "verify-identities": {"checks": ["completeness", "cartan"]},
            "evolve-kod": {"kod": "gaussian"}}
    for kind, cfg in cfgs.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "import kodsim.cli\n"
        f"for kind in {sorted(cfgs)!r}:\n"
        "    code = kodsim.cli.main([kind, '--config', kind + '.json', '--out', kind + sys.argv[1]])\n"
        "    assert code == 0, kind\n"
    )
    pythonpath = os.path.dirname(os.path.dirname(cli.__file__))
    for blas in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": blas}
        proc = subprocess.run([sys.executable, "-c", script, blas], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
    for kind in cfgs:
        assert hash_dir(tmp_path / f"{kind}1") == hash_dir(tmp_path / f"{kind}2"), kind


def test_projector_scaling_follows_the_sweep_spacing(tmp_path, capsys):
    # the defects shrink by e^{-2} across a step of 2 in kappa_T; the check
    # used to compare every ratio with e^{-1}
    cfg = {"kappa_T_values": [2.0, 4.0], "photo_ns": [0], "het_zetas": [0.5]}
    assert run_main(tmp_path, "povm-convergence", cfg) == 0
    checks, _ = verify.projector_sweep([0], [0.5], [2.0, 2.5, 3.0, 3.5], 1.0, 40, 20)
    assert all(c.measured < 1.1 for c in checks)
    for values in ([2.0], [], [2.0, 2.0]):
        with pytest.raises(DomainError):
            verify.projector_sweep([0], [], values, 1.0, 40, 20)


def test_projector_scaling_rejects_a_sweep_outside_its_regime(tmp_path, capsys):
    # n = 25 at kappa_o T = 2 has n e^{-kappa_o T} = 3.4, where the defect
    # ratio is not yet e^{-kappa_o T}: the gate read 2.013 against 2.0 and the
    # run exited 1, as if the POVM had not converged
    cfg = {"params": {"dim": 60}, "sub_dim": 30, "photo_ns": [25], "het_zetas": [0.5],
           "kappa_T_values": [2.0, 3.0]}
    assert run_main(tmp_path, "povm-convergence", cfg) == 2
    assert "outside the regime" in capsys.readouterr().err
    # the same n from kappa_o T = ln 60 is inside it, and passes
    cfg["kappa_T_values"] = [math.log(60.0), math.log(60.0) + 1.0]
    assert run_main(tmp_path, "povm-convergence", cfg) == 0
    with pytest.raises(ConfigError):
        verify.projector_sweep([0, 3], [], [1.0, 2.0], 1.0, 40, 20)
    assert 2 * math.exp(-verify.PROJECTOR_KAPPA_TS[0]) <= verify.PROJECTOR_REGIME


@pytest.mark.parametrize(
    "cfg", [{"kappa_T_values": [2.2345, 3.0]}, {"params": {"kappa_o": 3.0}}]
)
def test_povm_convergence_fits_each_swept_horizon_to_the_grid(tmp_path, capsys, cfg):
    # kappa_T / kappa_o off the dt grid used to exit 2, "T = ... is not an
    # integer multiple of dt", in the sweep and in its default series alike
    # (the sweep starts above ln 4, as n = 2 needs PROJECTOR_REGIME)
    assert run_main(tmp_path, "povm-convergence", cfg) == 0
    assert capsys.readouterr().err == ""
    names = set(os.listdir(tmp_path / "out"))
    assert {"report.json", "checks.csv", "defects.csv", "projector_defect_photo_n0.csv",
            "projector_defect_het_zeta0.5.csv"} <= names


def test_povm_convergence_reads_kappa_o_T_alone(tmp_path):
    # instrument autonomy: the POVM depends on kappa_o T alone, and the
    # horizon kappa_T / kappa_o at kappa_o 2 is an exact halving, so the
    # sweep's checks and defects keep every byte
    tables = []
    for kappa_o in (1.0, 2.0):
        out = tmp_path / str(kappa_o)
        cli.run(cli.resolve_config("povm-convergence", {"params": {"kappa_o": kappa_o}}), str(out))
        tables.append([(out / name).read_bytes() for name in ("checks.csv", "defects.csv")])
    assert tables[0] == tables[1]


def test_photodetect_tail_beyond_n_max_is_one_bin(tmp_path, capsys):
    # Fock 10 with n_max = 6: about 17% of the counts exceed n_max, and the
    # Born pmf holds none of that mass in its last bin
    cfg = {"params": {"dim": 16}, "initial_state": {"kind": "fock", "n": 10}, "n_max": 6,
           "trajectories": 20000}
    run_main(tmp_path, "photodetect-ensemble", cfg)
    _, rows = read_csv(tmp_path / "out" / "checks.csv")
    passed = {row[0]: row[4] for row in rows}
    assert passed["tv-method-a-vs-born"] == "true"
    assert passed["chi-square-p-value"] == "true"


def test_default_projector_series_use_the_run_truncation(tmp_path, capsys):
    # n = 25 fits the run's sub_dim 30, not the series' default 20 (the sweep
    # starts at kappa_o T = ln 60, inside PROJECTOR_REGIME)
    cfg = {"params": {"dim": 60}, "sub_dim": 30, "photo_ns": [25], "het_zetas": [0.5],
           "kappa_T_values": [math.log(60.0), math.log(60.0) + 1.0]}
    assert run_main(tmp_path, "povm-convergence", cfg) != 2
    assert capsys.readouterr().err == ""
    header, rows = read_csv(tmp_path / "out" / "projector_defect_photo_n25.csv")
    assert header == ["kappa_T", "defect"] and len(rows) == 6


def test_failed_run_writes_nothing(tmp_path, capsys):
    # the method-C weights of Fock 190 overflow after the ensemble has run:
    # at kappa_o T = ln 2, e^lambda 190!/(190-n)! 2^{n-190} first exceeds the
    # largest double at n = 159
    cfg = {"params": {"dim": 200}, "initial_state": {"kind": "fock", "n": 190},
           "n_max": 199, "trajectories": 10}
    assert run_main(tmp_path, "photodetect-ensemble", cfg) == 2
    assert "ostensible weight overflows from n = 159" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_fock300_at_high_truncation_passes(tmp_path, capsys):
    # at d = 320 the Born bins around Fock 300 reach |zeta| ~ 30, where
    # zeta^319 overflows a double; the Born density, formed in log space,
    # stays finite there and the run passes every gate
    path = tmp_path / "fock300.npy"
    np.save(path, fock.projector(320, 300))
    cfg = {"params": {"dim": 320}, "initial_state": {"kind": "file", "path": str(path)},
           "trajectories": 200}
    assert run_main(tmp_path, "heterodyne-ensemble", cfg) == 0
    assert "overall: PASS" in capsys.readouterr().out
    _, rows = read_csv(tmp_path / "out" / "density.csv")
    assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)


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
        assert cli.resolve_config("photodetect-ensemble", raw).config_hash() == "79507284876e482b"


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
    # a kind with no gates takes no thresholds object at all
    if kind not in cli.GATES:
        key = "config: thresholds"
    with pytest.raises(ConfigError, match=key):
        cli.resolve_config(kind, cfg_dict)
    assert run_main(tmp_path, kind, cfg_dict) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown keys in ") and key in err


def test_grid_steps_key_rejected(tmp_path, capsys):
    # the Gaussian KOD is solved exactly in time, so its grid has no step count
    assert run_main(tmp_path, "evolve-kod", {"kod": "gaussian", "grid": {"steps": 50}}) == 2
    assert capsys.readouterr().err.startswith("error: unknown keys in grid: steps")


@pytest.mark.parametrize(
    "kind, cfg_dict, error",
    [
        ("verify-identities", {"checks": ["trace"], "params": {"dim": 3, "kappa_o": -1, "T": -5}},
         "config: params"),
        ("verify-identities", {"checks": ["trace"], "sub_dim": 999}, "config: sub_dim"),
        ("povm-convergence", {"params": {"T": 1e9}}, "params: T"),
        ("evolve-kod", {"params": {"dim": 2, "dt": 0.01}, "sub_dim": -4}, "config: sub_dim"),
        ("evolve-kod", {"kod": "gaussian", "n_max": 5, "steps": 1}, "config: n_max, steps"),
        ("evolve-kod", {"kod": "poisson", "grid": {"h": -1}}, "config: grid"),
        ("evolve-kod", {"thresholds": {}}, "config: thresholds"),
        ("photodetect-ensemble",
         {"sub_dim": -4, "trajectories": 100, "params": {"dim": 12}, "n_max": 8},
         "config: sub_dim"),
    ],
)
def test_a_key_the_kind_does_not_read_exits_two(tmp_path, capsys, kind, cfg_dict, error):
    # each of these ran and exited 0 while its key changed nothing
    assert run_main(tmp_path, kind, cfg_dict) == 2
    assert capsys.readouterr().err == f"error: unknown keys in {error}\n"
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_valid_thresholds_keep_their_hash():
    # gate overrides are stored as given, so their hashes do not move with the gates
    cfg = {"thresholds": {"p_value": 0.5, "tv_method_a": "0.1"}}
    assert cli.resolve_config("photodetect-ensemble", cfg).config_hash() == "0031a5d8fac79299"


@pytest.mark.parametrize(
    "kind, cfg_dict, key, check",
    [
        ("photodetect-ensemble", SMALL_PHOTO, "tv_method_a", "tv-method-a-vs-born"),
        ("heterodyne-ensemble", {"trajectories": 50, "params": {"dim": 10}, "bins": 4,
                                 "initial_state": {"kind": "coherent", "alpha": 0.5}},
         "covariance_rel", "covariance-vs-born"),
    ],
)
def test_a_threshold_override_is_the_gate_and_decides_the_verdict(
        tmp_path, capsys, kind, cfg_dict, key, check):
    # the run passes at its default gates; half its measured value, set in
    # thresholds, is the threshold checks.csv writes, and fails the run
    def row():
        return next(r for r in read_csv(tmp_path / "out" / "checks.csv")[1] if r[0] == check)

    assert run_main(tmp_path, kind, cfg_dict) == 0
    measured = float(row()[1])
    assert run_main(tmp_path, kind, {**cfg_dict, "thresholds": {key: 0.5 * measured}}) == 1
    assert row() == [check, repr(measured), repr(0.5 * measured), "<=", "false"]
    assert capsys.readouterr().out.endswith("overall: FAIL\n")
    assert not json.loads((tmp_path / "out" / "report.json").read_text())["overall_pass"]


@pytest.mark.parametrize("value", [0, -1.0, "nan", "inf"])
@pytest.mark.parametrize("key", ["kappa_o", "T"])
@pytest.mark.parametrize("kind", ["photodetect-ensemble", "heterodyne-ensemble", "evolve-kod"])
def test_a_horizon_that_is_not_positive_and_finite_exits_two(tmp_path, capsys, kind, key, value):
    # one horizon schema for all three kinds, whose error names the key: the
    # ensembles used to exit with the key-less message of InstrumentParams
    assert run_main(tmp_path, kind, {"params": {key: value}}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"params.{key} must be a positive finite number, got {float(value)}"
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# brute-force constructions that live in kodsim.stepped or tests/oracles.py
ORACLES = {
    "time_ordered_product", "time_ordered_product_het", "kraus_increment", "matrix_exp",
    "sample_trajectory", "sample_het_trajectory", "wiener_increment", "renormalize_density",
    "displacement", "exp_raising", "expm_2d", "oracle_counts", "NORM_COLLAPSE",
    "jump_table", "count_jumps", "stepped_counts", "born_coeffs", "born_table",
    "evolve_het_batch", "stepped_zetas", "per_trajectory", "fmt_cell", "write_csv_rows",
    "bisect_phase", "dense_lost_state",
}
PRODUCTION = {"fock", "ensemble", "params", "records", "photodetector", "heterodyne", "cli"}


def module_names(path):
    """Every name a module defines, imports, imports from, reads or reads as
    an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_oracles_stay_out_of_production(tmp_path, monkeypatch):
    src = pathlib.Path(cli.__file__).parent
    modules = {path.stem: set(module_names(path)) for path in src.glob("*.py")}
    assert PRODUCTION <= set(modules)
    for module in PRODUCTION:
        assert not modules[module] & ORACLES, module
    assert [m for m in modules if modules[m] & {"expm", "matrix_exp"}] == ["stepped"]

    # both CLI ensembles finish a mixed state with every dense exponential refusing
    def refuse(*args, **kwargs):
        raise AssertionError("a CLI ensemble reached a dense exponential")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    monkeypatch.setattr(stepped, "kraus_increment", refuse)
    path = tmp_path / "mixed.npy"
    rho = 0.5 * fock.density(fock.coherent_state(10, 0.5)) + 0.5 * fock.projector(10, 2)
    np.save(path, rho)
    state = {"kind": "file", "path": str(path)}
    for kind, extra in (("heterodyne-ensemble", {}), ("photodetect-ensemble", {"n_max": 9})):
        out = tmp_path / kind
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps(
            {"trajectories": 50, "params": {"dim": 10}, "initial_state": state, **extra}))
        cli.main([kind, "--config", str(cfg_path), "--out", str(out)])
        assert (out / "report.json").is_file()


@pytest.mark.parametrize(
    "kind, cfg_dict, group",
    [
        ("evolve-kod", {}, "kod-poisson"),
        ("evolve-kod", {"kod": "gaussian"}, "kod-diffusion"),
        ("povm-convergence", {}, "projector-scaling"),
    ],
)
def test_run_kinds_at_their_defaults_are_the_identity_groups(kind, cfg_dict, group):
    # the two kinds default to the identity groups' sizes, check for check
    checks, _ = cli.RUNNERS[kind](cli.resolve_config(kind, cfg_dict), 1)
    assert checks == verify.ALL_GROUPS[group](cli.DEFAULT_SEED)

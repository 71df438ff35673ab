import importlib.util
import json
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy

import granvar
from granvar import __version__, cli
from granvar.cli import main


def write_scenario(path: Path, **overrides) -> Path:
    scenario = {
        "seed": 20_20,
        "classes": [
            {"mass": 1.0, "concentration": 1.0, "radius": 0.01},
            {"mass": 1.0, "concentration": 0.0, "radius": 0.01},
        ],
        "dependence": [[0.0, 0.0], [0.0, 0.0]],
        "sample_counts": [5, 5],
    }
    scenario.update(overrides)
    scenario = {k: v for k, v in scenario.items() if v is not None}
    file = path / "scenario.json"
    file.write_text(json.dumps(scenario, indent=1))
    return file


ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_digests", ROOT / "scripts" / "golden_digests.py")
golden_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digests)
supported_subcommands = golden_digests.supported_subcommands

SCENARIOS = sorted(golden_digests.SCENARIO_DIR.glob("*.json"))
#: SHA-256 of every file the example runs write, recorded by
#: ``scripts/golden_digests.py`` together with the numpy and scipy versions.
GOLDEN = json.loads((ROOT / "tests" / "golden" / "example_scenarios.json").read_text())


def read_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# granvar=")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestEstimate:
    def test_single_class_reduction(self, tmp_path):
        config = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        rows = {r["estimator"]: r for r in read_rows(out / "estimate.csv")}
        # zero dependence: the inverse-probability estimator reduces to
        # c_s c_k m_k / M_s
        assert float(rows["variance_ht"]["value"]) == pytest.approx(0.05, rel=1e-12)
        assert float(rows["gy_reference_single_class"]["value"]) == pytest.approx(0.05)
        assert float(rows["variance_sample"]["value"]) == pytest.approx(0.025)

    def test_all_equal_concentrations_zero_rows(self, tmp_path):
        config = write_scenario(
            tmp_path,
            classes=[
                {"mass": 1.0, "concentration": 0.5},
                {"mass": 2.0, "concentration": 0.5},
            ],
            expected_counts=[4.0, 6.0],
            sample_counts=[4, 6],
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        rows = {r["estimator"]: r for r in read_rows(out / "estimate.csv")}
        assert float(rows["variance_expected"]["value"]) == pytest.approx(0.0, abs=1e-18)
        assert float(rows["variance_sample"]["value"]) == pytest.approx(0.0, abs=1e-18)

    def test_grid_scenario_writes_24_rows(self, tmp_path):
        config = write_scenario(
            tmp_path,
            sample_counts=None,
            dependence=None,
            ckk_grid={"n_k": [10, 100, 1000, 10000], "ratio": [0.1, 0.2, 0.4, 1, 2, 4]},
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "ckk_grid.csv")
        assert len(rows) == 24
        by_key = {(float(r["n_k"]), float(r["ratio"])): float(r["c_kk"]) for r in rows}
        assert by_key[(10.0, 0.1)] == pytest.approx(9.1e-2, abs=1e-3)
        assert by_key[(10.0, 4.0)] == pytest.approx(-0.5, rel=1e-12)
        assert by_key[(10000.0, 1.0)] == 0.0

    def test_seed_flag_overrides(self, tmp_path):
        config = write_scenario(tmp_path)
        out = tmp_path / "out"
        main(["estimate", "--config", str(config), "--out", str(out), "--seed", "99"])
        assert "seed=99" in (out / "estimate.csv").read_text().splitlines()[0]


class TestConfigErrors:
    def test_missing_config(self):
        assert main(["estimate"]) == 2

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "seed": 1,\n  broken\n}')
        assert main(["estimate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err  # line number of the defect

    def test_missing_seed(self, tmp_path):
        bad = tmp_path / "noseed.json"
        bad.write_text(json.dumps({"classes": [{"mass": 1, "concentration": 1}]}))
        assert main(["estimate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "pairwise_oracle.json"],
        ["intercept", "--config", "hardcore_transect.json"],
        ["estimate", "--config", "single_class_solver.json"],
        ["verify", "--quick"],
    ], ids=["simulate", "intercept", "estimate", "verify"])
    def test_negative_seed_override(self, tmp_path, capsys, argv):
        """A negative ``--seed`` is refused at ``--seed`` like a negative
        scenario seed, before the subcommand writes anything."""
        argv = [str(golden_digests.SCENARIO_DIR / a) if a.endswith(".json") else a
                for a in argv]
        out = tmp_path / "out"
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "pairwise_oracle.json"],
        ["intercept", "--config", "hardcore_transect.json"],
        ["estimate", "--config", "single_class_solver.json"],
        ["table1"],
        ["verify", "--quick"],
    ], ids=["simulate", "intercept", "estimate", "table1", "verify"])
    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one(self, tmp_path, capsys, argv, threads):
        """``--threads`` below 1 is refused at ``--threads``, before the
        subcommand writes anything."""
        argv = [str(golden_digests.SCENARIO_DIR / a) if a.endswith(".json") else a
                for a in argv]
        out = tmp_path / "out"
        assert main([*argv, "--threads", threads, "--out", str(out)]) == 2
        assert "configuration error: --threads:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, location", [
        ({"calibration": {"n_seeds": 2}}, "calibration:"),
        ({"transects": None}, "transects:"),
    ], ids=["calibration_on_hardcore", "no_transects"])
    def test_intercept_refusal_writes_nothing(self, tmp_path, capsys, edit, location):
        """``intercept`` checks every section before it computes, and writes
        nothing until every stage has succeeded."""
        scenario = json.loads((golden_digests.SCENARIO_DIR / "hardcore_transect.json").read_text())
        scenario.update(edit)
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({k: v for k, v in scenario.items() if v is not None}))
        out = tmp_path / "out"
        assert main(["intercept", "--config", str(config), "--out", str(out)]) == 2
        assert f"configuration error: {location}" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_not_utf8_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"seed": 1, "note": "caf\u00e9"}'.encode("latin-1"))
        assert main(["estimate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {bad}: not UTF-8 text:" in err

    def test_scenario_nested_too_deeply_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text('{"seed": 1, "classes": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert main(["estimate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {bad}: invalid JSON: nested too deeply" in err

    def test_wrong_dependence_shape(self, tmp_path):
        config = write_scenario(tmp_path, dependence=[[0.0]])
        assert main(["estimate", "--config", str(config)]) == 2

    def test_degenerate_dependence_in_config(self, tmp_path):
        config = write_scenario(tmp_path, dependence=[[1.0, 0.0], [0.0, 0.0]])
        assert main(["estimate", "--config", str(config)]) == 2

    def test_simulate_needs_design(self, tmp_path):
        config = write_scenario(tmp_path, replicates=10)
        assert main(["simulate", "--config", str(config)]) == 2

    def test_saturation_exit_code(self, tmp_path):
        config = write_scenario(
            tmp_path,
            classes=[{"mass": 1.0, "concentration": 1.0, "radius": 0.05}],
            dependence=None,
            sample_counts=None,
            replicates=10,
            field={"variant": "hardcore", "intensity": 500, "min_gap": 0.05,
                   "mixing": [1.0]},
            design={"variant": "window", "width": 0.1, "height": 0.1},
        )
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("field", [False, True], ids=["bernoulli", "with-field"])
    def test_failed_comparison_writes_no_csv(self, tmp_path, capsys, field):
        """Every replicate of q = 1e-9 is empty, so the estimator comparison
        exits 3 after the draw; no CSV (field.csv neither) is written."""
        config = write_scenario(
            tmp_path, dependence=None, sample_counts=None, replicates=1000,
            design={"variant": "bernoulli", "q": [1e-9, 1e-9], "class_of": [0, 0, 1, 1]},
            field={"variant": "poisson", "intensity": 50, "mixing": [0.5, 0.5]} if field else None,
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 3
        assert "too few non-empty replicates" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "calibration,location",
        [
            ({"window": 5}, "calibration.window"),
            ({"n_seeds": "abc"}, "calibration.n_seeds"),
            ({"window": [0.05]}, "calibration.window"),
            ({"replicates": 1}, "calibration.replicates"),
            ({"cluster_radius": [0.05, -0.01]}, "calibration.cluster_radius"),
            ({"n_seeds": 1}, "calibration.n_seeds"),
        ],
    )
    def test_calibration_section_validated(self, tmp_path, capsys, calibration, location):
        config = write_scenario(
            tmp_path,
            sample_counts=None,
            dependence=None,
            field={"variant": "matern_cluster", "mixing": [0.5, 0.5],
                   "parent_intensity": 40, "offspring_mean": 10, "cluster_radius": 0.05},
            transects={"count": 5, "length": 1.0},
            calibration=calibration,
        )
        assert main(["intercept", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: {location}:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command,overrides,location",
        [
            ("simulate", {"replicates": 10, "design": {
                "variant": "bernoulli", "q": [0.5, 0.5], "class_of": 5}}, "design.class_of"),
            ("simulate", {"replicates": 10, "design": {
                "variant": "pairwise_pmf", "q": [0.5, 0.5], "phi": [[1, 1], [1, 1]],
                "class_of": 5}}, "design.class_of"),
            ("simulate", {"replicates": 10, "design": {
                "variant": "pairwise_pmf", "q": [0.5, 0.5], "phi": {"a": 1},
                "class_of": [0, 1]}}, "design.phi"),
            ("estimate", {"classes": [{"id": "a", "mass": 1, "concentration": 1},
                                      {"mass": 1, "concentration": 0}]}, "classes[0].id"),
            ("estimate", {"expected_counts": [-1, 2]}, "expected_counts[0]"),
            ("estimate", {"expected_counts": [0, 0]}, "expected_counts"),
            ("estimate", {"sample_counts": [0, 0]}, "sample_counts"),
            ("estimate", {"sample_counts": [1e400, 2]}, "sample_counts[0]"),
            ("estimate", {"ckk_grid": {"n_k": [0], "ratio": [1]}}, "ckk_grid.n_k[0]"),
            ("estimate", {"ckk_grid": {"n_k": [10], "ratio": [-1]}}, "ckk_grid.ratio[0]"),
            ("estimate", {"batch": {"mass": 5, "sample_mass": 5}}, "batch.mass"),
            ("estimate", {"batch": {"mass": 100, "sample_mass": 5}}, "batch.sample_mass"),
            ("estimate", {"batch": {"mass": 9.5, "q": [0.5, 0.5]}}, "batch.mass"),
            ("simulate", {"replicates": 10, "design": {
                "variant": "pairwise_pmf", "q": [0.5, 0.5],
                "phi": [[1, float("inf")], [float("inf"), 1]], "class_of": [0, 1]}}, "design"),
            ("estimate", {"batch": {"mass": 100, "q": [0.1, 0.1], "correct": "false"}},
             "batch.correct"),
        ],
    )
    def test_malformed_values_name_their_location(
        self, tmp_path, capsys, command, overrides, location
    ):
        config = write_scenario(tmp_path, **overrides)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: {location}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value,location",
        [
            ("classes", "radius", float("nan"), "classes[0].radius"),
            ("classes", "radius", float("inf"), "classes[0].radius"),
            ("classes", "concentration", float("nan"), "classes[0].concentration"),
            ("classes", "mass", float("inf"), "classes[0].mass"),
            ("transects", "length", float("nan"), "transects.length"),
            ("transects", "orientation", float("nan"), "transects.orientation"),
            ("transects", "orientation", float("inf"), "transects.orientation"),
            ("transects", "orientation", float("-inf"), "transects.orientation"),
            ("field", "parent_intensity", float("inf"), "field.parent_intensity"),
            ("field", "width", float("inf"), "field.width"),
            ("field", "cluster_radius", float("inf"), "field.cluster_radius"),
            ("calibration", "cluster_radius", [float("nan")], "calibration.cluster_radius[0]"),
            pytest.param("field", "width", 10**400, "field.width", id="field-width-int-1e400"),
        ],
    )
    def test_non_finite_numbers_name_their_location(
        self, tmp_path, capsys, section, key, value, location
    ):
        """JSON's NaN and Infinity literals, and integers beyond a float,
        are refused where they are parsed."""
        sections = {
            "classes": [{"mass": 1.0, "concentration": 1.0, "radius": 0.01},
                        {"mass": 1.0, "concentration": 0.0, "radius": 0.01}],
            "field": {"variant": "matern_cluster", "mixing": [0.5, 0.5],
                      "parent_intensity": 40, "offspring_mean": 10, "cluster_radius": 0.05},
            "transects": {"count": 5, "length": 1.0, "orientation": 0.5},
            "calibration": {"n_seeds": 1, "replicates": 2},
        }
        if section == "classes":
            sections["classes"][0][key] = value
        else:
            sections[section][key] = value
        config = write_scenario(tmp_path, sample_counts=None, dependence=None, **sections)
        assert main(["intercept", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: {location}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "design",
        [
            {"variant": "bernoulli", "q": [0.5, 0.5], "class_of": [0, 1, 10**20]},
            {"variant": "pairwise_pmf", "q": [0.5, 0.5], "phi": [[1, 1], [1, 1]],
             "class_of": [0, 1, -2**70]},
            {"variant": "bernoulli", "q": [0.5, 0.5], "class_of": [0, 1, 2]},
        ],
        ids=["beyond-int64", "below-int64", "k"],
    )
    def test_class_id_outside_the_classes_names_its_entry(self, tmp_path, capsys, design):
        """A class id outside [0, K), even one that int64 cannot hold, is a
        configuration error (exit 2) that names its entry."""
        config = write_scenario(tmp_path, sample_counts=None, dependence=None, replicates=10,
                                design=design)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error: design.class_of[2]:" in capsys.readouterr().err

    def test_orientation_names_both_forms(self, tmp_path, capsys):
        """A string other than "random" is refused with a message that
        names both accepted forms."""
        config = write_scenario(
            tmp_path, sample_counts=None, dependence=None,
            field={"variant": "poisson", "intensity": 100, "mixing": [0.5, 0.5]},
            transects={"count": 5, "length": 1.0, "orientation": "diagonal"})
        assert main(["intercept", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: transects.orientation:" in err
        assert '"random"' in err and "radians" in err and "'diagonal'" in err

    def test_integer_literal_beyond_the_digit_limit(self, tmp_path, capsys):
        bad = tmp_path / "long.json"
        bad.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert main(["estimate", "--config", str(bad)]) == 2
        assert f"configuration error: {bad}:" in capsys.readouterr().err

    def test_batch_sample_mass_matching_the_counts_is_accepted(self, tmp_path):
        # sample_counts [5, 5] on unit masses weigh 10
        config = write_scenario(tmp_path, batch={"mass": 100, "sample_mass": 10.0})
        assert main(["estimate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "overrides,location",
        [
            ({"field": {"variant": "poisson", "intensity": 0.01, "mixing": [0.5, 0.5]},
              "design": {"variant": "window", "width": 0.1, "height": 0.1}}, "field"),
            ({"design": {"variant": "bernoulli", "q": [0.5, 0.5], "class_of": []}},
             "design.class_of"),
            ({"design": {"variant": "pairwise_pmf", "q": [0.5, 0.5],
                         "phi": [[1, 1], [1, 1]], "class_of": []}}, "design.class_of"),
        ],
    )
    def test_empty_design_names_its_key(self, tmp_path, capsys, overrides, location):
        config = write_scenario(tmp_path, sample_counts=None, dependence=None, replicates=10,
                                **overrides)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: {location}:" in capsys.readouterr().err

    def test_non_identifiable_grid_cell_is_a_model_outcome(self, tmp_path):
        config = write_scenario(tmp_path, ckk_grid={"n_k": [1], "ratio": [1]})
        assert main(["estimate", "--config", str(config), "--out", str(tmp_path / "o")]) == 3


class TestSimulate:
    def test_take_everything(self, tmp_path):
        config = write_scenario(
            tmp_path,
            replicates=50,
            design={"variant": "bernoulli", "q": [1.0, 1.0], "class_of": [0, 0, 1, 1]},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        summary = {r["key"]: r["value"] for r in read_rows(out / "summary.csv")}
        assert float(summary["v_e"]) == 0.0
        assert summary["n_empty"] == "0"

    def test_forbidden_pair_outputs(self, tmp_path):
        config = write_scenario(
            tmp_path,
            replicates=20_000,
            design={
                "variant": "pairwise_pmf",
                "q": [0.5, 0.5],
                "phi": [[1.0, 0.0], [0.0, 1.0]],
                "class_of": [0, 1],
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        pairs = {(r["i"], r["j"]): r for r in read_rows(out / "estimates.csv")}
        cross = pairs[("0", "1")]
        assert float(cross["pi_ij"]) == 0.0
        assert float(cross["pc_hat"]) == pytest.approx(1.0)

    def test_summary_counts_unestimable_dependence_cells(self, tmp_path):
        """Class 0 has one member, so its diagonal cell has no pairs."""
        config = write_scenario(
            tmp_path,
            replicates=200,
            design={"variant": "bernoulli", "q": [0.5, 0.5], "class_of": [0, 1, 1]},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        summary = {r["key"]: r["value"] for r in read_rows(out / "summary.csv")}
        assert summary["nan_dependence_cells"] == "1"
        estimates = {(r["i"], r["j"]): r for r in read_rows(out / "estimates.csv")}
        assert estimates[("0", "0")]["pc_hat"] == "nan"
        assert estimates[("1", "1")]["pc_hat"] != "nan"

    def test_estimates_header_contract(self, tmp_path):
        config = write_scenario(
            tmp_path,
            replicates=100,
            design={"variant": "bernoulli", "q": [0.5, 0.5], "class_of": [0, 1]},
        )
        out = tmp_path / "out"
        main(["simulate", "--config", str(config), "--out", str(out)])
        header = (out / "estimates.csv").read_text().splitlines()[1]
        assert header == "i,j,pi_ij,se,pc_hat,ci_lo,ci_hi"
        rep_header = (out / "replicates.csv").read_text().splitlines()[1]
        assert rep_header == "replicate,M_s,c_s,N_0,N_1"

    def test_window_over_clusters_reports_negative_dependence(self, tmp_path):
        config = write_scenario(
            tmp_path,
            replicates=400,
            field={
                "variant": "matern_cluster", "mixing": [0.5, 0.5],
                "parent_intensity": 60, "offspring_mean": 8,
                "cluster_radius": 0.08, "class_correlation": 1.0,
            },
            design={"variant": "window", "width": 0.1, "height": 0.1},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        pairs = {(r["i"], r["j"]): r for r in read_rows(out / "estimates.csv")}
        assert float(pairs[("0", "0")]["ci_hi"]) < 0.0


class TestIntercept:
    def test_single_disk_chord(self, tmp_path):
        """A dense single-particle field is impractical; use a small Poisson
        field and verify the transect CSV geometry columns are consistent."""
        config = write_scenario(
            tmp_path,
            sample_counts=None,
            dependence=None,
            field={"variant": "poisson", "intensity": 300, "mixing": [0.5, 0.5]},
            transects={"count": 10, "length": 1.0, "orientation": "random"},
        )
        out = tmp_path / "out"
        assert main(["intercept", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "transects.csv")
        assert rows, "expected at least one intersection"
        for r in rows:
            assert 0.0 < float(r["chord_length"]) <= float(r["width"]) + 1e-12
        counts = read_rows(out / "counts.csv")
        assert len(counts) == 2
        freq = read_rows(out / "frequencies.csv")
        total = sum(float(r["raw_frequency"]) for r in freq)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_width_column_per_class_writes_the_same_bytes(self, tmp_path, monkeypatch):
        """``width`` is formatted once per class when each class's widths
        are equal bit for bit, and per row otherwise, with the same bytes."""
        from granvar import cli

        config = write_scenario(
            tmp_path,
            sample_counts=None,
            dependence=None,
            classes=[{"mass": 1.0, "concentration": 1.0, "radius": 0.01},
                     {"mass": 1.0, "concentration": 0.0, "radius": 0.0123456789}],
            field={"variant": "poisson", "intensity": 300, "mixing": [0.5, 0.5]},
            transects={"count": 20, "length": 1.0, "orientation": "random"},
        )
        tables = []
        class_values = cli.class_values
        monkeypatch.setattr(cli, "class_values",
                            lambda *a: tables.append(class_values(*a)) or tables[-1])
        assert main(["intercept", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert tables[0].tolist() == [0.02, 0.0246913578]
        monkeypatch.setattr(cli, "class_values", lambda *a: None)
        assert main(["intercept", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        text = (tmp_path / "a" / "transects.csv").read_bytes()
        assert text == (tmp_path / "b" / "transects.csv").read_bytes()
        assert b",0.024691357800000001\n" in text and b",0.02\n" in text

    def test_empty_field_exit_2(self, tmp_path):
        config = write_scenario(
            tmp_path,
            sample_counts=None,
            dependence=None,
            field={"variant": "poisson", "intensity": 0.001, "mixing": [0.5, 0.5]},
            transects={"count": 5, "length": 1.0},
        )
        assert main(["intercept", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_calibration_outputs(self, tmp_path):
        config = write_scenario(
            tmp_path,
            sample_counts=None,
            dependence=None,
            field={
                "variant": "matern_cluster", "mixing": [0.5, 0.5],
                "parent_intensity": 40, "offspring_mean": 10, "cluster_radius": 0.05,
                "class_correlation": 1.0,
            },
            transects={"count": 15, "length": 1.0},
            calibration={"cluster_radius": [0.08, 0.03], "n_seeds": 4,
                         "replicates": 60, "window": [0.05, 0.05]},
        )
        out = tmp_path / "out"
        assert main(["intercept", "--config", str(config), "--out", str(out)]) == 0
        cases = read_rows(out / "calibration_cases.csv")
        assert {r["case"] for r in cases} == {"cluster_radius=0.08", "cluster_radius=0.03"}
        summary = {r["key"]: r["value"] for r in read_rows(out / "calibration_summary.csv")}
        assert "spearman" in summary
        assert summary["note_0"] == "transitions symmetrized (directional counts folded)"


class TestTable1:
    def test_prints_grid(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "9.1e-02" in out
        assert "-5.0e-01" in out

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "t"
        assert main(["table1", "--out", str(out)]) == 0
        rows = read_rows(out / "table1.csv")
        assert len(rows) == 24


class TestVerify:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS dependence_grid_reference" in out
        assert "FAIL" not in out

    def test_corrupted_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["verify", "--quick", "--config", str(bad)]) == 2


class TestDeterminism:
    def scenario(self, tmp_path):
        return write_scenario(
            tmp_path,
            replicates=300,
            field={
                "variant": "matern_cluster", "mixing": [0.5, 0.5],
                "parent_intensity": 40, "offspring_mean": 8,
                "cluster_radius": 0.06, "class_correlation": 1.0,
            },
            design={"variant": "window", "width": 0.08, "height": 0.08},
            transects={"count": 20, "length": 1.0},
        )

    @staticmethod
    def tree_bytes(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    def test_rerun_byte_identical(self, tmp_path):
        config = self.scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(b)]) == 0
        assert self.tree_bytes(a) == self.tree_bytes(b)

    def test_threads_byte_identical(self, tmp_path):
        config = self.scenario(tmp_path)
        a, b = tmp_path / "t1", tmp_path / "t8"
        assert main(["intercept", "--config", str(config), "--out", str(a),
                     "--threads", "1"]) == 0
        assert main(["intercept", "--config", str(config), "--out", str(b),
                     "--threads", "8"]) == 0
        assert self.tree_bytes(a) == self.tree_bytes(b)

    def test_numbers_have_17_significant_digits(self, tmp_path):
        config = write_scenario(tmp_path)
        out = tmp_path / "out"
        main(["estimate", "--config", str(config), "--out", str(out)])
        text = (out / "estimate.csv").read_text()
        assert "0.025000000000000001" in text  # repr-faithful float

    def test_provenance_header(self, tmp_path):
        config = write_scenario(tmp_path)
        out = tmp_path / "out"
        main(["estimate", "--config", str(config), "--out", str(out)])
        first = (out / "estimate.csv").read_text().splitlines()[0]
        assert first.startswith(f"# granvar={__version__} config=")
        assert "seed=2020" in first


def assert_golden_digests(out: Path, prefix: str) -> None:
    """Every file under ``out`` has the recorded digest, and no recorded
    file under ``prefix`` is missing.  The digests hold for the numpy and
    scipy versions they were recorded with; under others the check is
    skipped."""
    if (np.__version__, scipy.__version__) != (GOLDEN["numpy"], GOLDEN["scipy"]):
        pytest.skip(f"golden digests were recorded with numpy {GOLDEN['numpy']}, "
                    f"scipy {GOLDEN['scipy']}")
    digests = golden_digests.tree_digests(out, prefix)
    expected = {key: v for key, v in GOLDEN["digests"].items() if key.startswith(prefix + "/")}
    assert digests == expected


class TestExampleScenarios:
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
    def test_every_supported_subcommand_runs(self, path, tmp_path):
        commands = supported_subcommands(json.loads(path.read_text()))
        assert commands
        for command in commands:
            out = tmp_path / command
            argv = [command, "--config", str(path), "--out", str(out), "--threads", "1"]
            assert main(argv) == 0
            assert any(out.glob("*.csv"))
        for command in commands:
            assert_golden_digests(tmp_path / command, f"{path.stem}/{command}")

    def test_table1_digest(self, tmp_path):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert_golden_digests(tmp_path, "table1")


class TestEnvironment:
    def test_granvar_out_env(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GRANVAR_OUT", str(tmp_path / "envout"))
        config = write_scenario(tmp_path)
        assert main(["estimate", "--config", str(config)]) == 0
        assert (tmp_path / "envout" / "estimate.csv").exists()

    def test_cli_import_leaves_scipy_stats_out(self, monkeypatch):
        """Neither scipy.stats nor scipy.special loads with the CLI."""
        src = str(Path(granvar.__file__).resolve().parents[1])
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, granvar.cli; "
             "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    def test_console_script_installed(self, monkeypatch):
        # the child imports the same granvar as this process, installed or not
        src = str(Path(granvar.__file__).resolve().parents[1])
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        )
        proc = subprocess.run(
            [sys.executable, "-m", "granvar.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


class TestAllocator:
    """``main`` sets glibc's trim and mmap thresholds once per process."""

    @pytest.fixture(autouse=True)
    def fresh_process(self, monkeypatch):
        for name in MALLOC_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("glibc", "2.36"))
        cli._keep_freed_memory.cache_clear()
        yield
        cli._keep_freed_memory.cache_clear()

    @staticmethod
    def fake_libc(monkeypatch, result: int = 1, mallopt: bool = True) -> list:
        calls = []

        def fake_mallopt(param, value):
            calls.append((param, value))
            return result

        libc = types.SimpleNamespace(**({"mallopt": fake_mallopt} if mallopt else {}))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        return calls

    def test_main_sets_both_thresholds_once(self, monkeypatch, capsys):
        calls = self.fake_libc(monkeypatch)
        assert main(["table1"]) == 0
        assert main(["table1"]) == 0
        # M_TRIM_THRESHOLD to 64 MiB, M_MMAP_THRESHOLD to 32 MiB
        assert calls == [(-1, 64 * 2**20), (-3, 32 * 2**20)]
        assert cli._keep_freed_memory()

    @pytest.mark.parametrize("setting", [
        ("libc", "musl"),
        ("mallopt", None),
        ("MALLOC_MMAP_THRESHOLD_", "1048576"),
        ("MALLOC_TRIM_THRESHOLD_", "1048576"),
        ("GLIBC_TUNABLES", "glibc.pthread.rseq=0:glibc.malloc.trim_threshold=0"),
    ], ids=lambda setting: setting[0])
    def test_leaves_the_allocator_alone(self, monkeypatch, capsys, setting):
        """No call off glibc, without mallopt, or when the user set glibc's
        own malloc tunables."""
        name, value = setting
        calls = self.fake_libc(monkeypatch, mallopt=name != "mallopt")
        if name == "libc":
            monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
        elif name != "mallopt":
            monkeypatch.setenv(name, value)
        assert main(["table1"]) == 0
        assert calls == []
        assert not cli._keep_freed_memory()

    def test_other_glibc_tunables_do_not_count(self, monkeypatch):
        calls = self.fake_libc(monkeypatch)
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.pthread.rseq=0")
        assert cli._keep_freed_memory()
        assert len(calls) == 2

    def test_a_refused_setting_is_tolerated(self, monkeypatch, capsys):
        calls = self.fake_libc(monkeypatch, result=0)
        assert main(["table1"]) == 0
        assert len(calls) == 2
        assert not cli._keep_freed_memory()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_second_run_reuses_freed_memory(self, tmp_path, monkeypatch):
        """A second ``simulate`` in the same process faults in almost no
        fresh pages: the first run's freed blocks stay in the heap."""
        src = str(Path(granvar.__file__).resolve().parents[1])
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        )
        script = (
            "import resource, sys\n"
            "from granvar.cli import main\n"
            "def run(out):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(['simulate', '--config', sys.argv[1], '--out', out]) == 0\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(run(sys.argv[2]), run(sys.argv[3]))\n"
        )
        config = ROOT / "scripts" / "scenarios" / "pairwise_oracle.json"
        assert json.loads(config.read_text())["replicates"] == 100_000
        proc = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "a"),
             str(tmp_path / "b")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        first, second = map(int, proc.stdout.split())
        assert second < first / 10, (first, second)

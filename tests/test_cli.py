import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import granvar
from granvar import __version__
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

    @pytest.mark.parametrize(
        "calibration,location",
        [
            ({"window": 5}, "calibration.window"),
            ({"n_seeds": "abc"}, "calibration.n_seeds"),
            ({"window": [0.05]}, "calibration.window"),
            ({"replicates": 1}, "calibration.replicates"),
            ({"cluster_radius": [0.05, -0.01]}, "calibration.cluster_radius"),
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
            ("estimate", {"batch": {"mass": 9.5, "q": [0.5, 0.5]}}, "batch.mass"),
        ],
    )
    def test_malformed_values_name_their_location(
        self, tmp_path, capsys, command, overrides, location
    ):
        config = write_scenario(tmp_path, **overrides)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
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
        src = str(Path(granvar.__file__).resolve().parents[1])
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, granvar.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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

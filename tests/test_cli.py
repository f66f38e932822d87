import csv
import json
import math

import numpy as np
import pytest

from nlamp import (
    GridSpec,
    SplitterTriple,
    g_eff_closed,
    import_grid,
    integrate,
    wigner_coherent,
)
from nlamp import cli
from nlamp.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_NUMERIC, EXIT_OK, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTable1:
    def test_reference_row(self, tmp_path):
        assert main(["table1", "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "table1.csv")
        header, first = rows[0], rows[1]
        assert header == ["state", "n_qnd", "n_pd1", "n_pd2", "abs_mean_a", "one_minus_F", "P"]
        assert first[:4] == ["1", "1", "0", "1"]
        assert float(first[4]) == pytest.approx(0.6863, abs=2e-4)
        assert float(first[5]) == pytest.approx(4.839e-3, rel=2e-3)
        assert float(first[6]) == pytest.approx(1.3563e-3, rel=2e-4)

    def test_probabilities_sum_to_one(self, tmp_path):
        main(["table1", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "table1.csv")
        assert rows[-1][0] == "other"
        total = sum(float(row[6]) for row in rows[1:])
        assert abs(total - 1.0) < 1e-9

    def test_vacuum_input_concentrates_on_last_branch(self, tmp_path):
        main(["table1", "--alpha", "0", "--dim", "8", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "table1.csv")
        by_state = {row[0]: row for row in rows[1:]}
        assert float(by_state["8"][6]) == pytest.approx(1.0, abs=1e-12)
        assert by_state["1"][5] == "nan"
        assert float(by_state["1"][6]) == 0

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["table1", "--out", str(a)])
        main(["table1", "--out", str(b)])
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()

    def test_detector_efficiencies_rescale(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["table1", "--out", str(a)])
        main(
            ["table1", "--eta-qnd", "0.99", "--eta-pd1", "0.95", "--eta-pd2", "0.95",
             "--out", str(b)]
        )
        p_ideal = float(read_csv(a / "table1.csv")[1][6])
        p_lossy = float(read_csv(b / "table1.csv")[1][6])
        assert p_lossy == pytest.approx(p_ideal * 0.99 * 0.95 * 0.95, rel=1e-12)


class TestSweep:
    def test_weak_field_gain(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"alpha_min": 0.05, "alpha_max": 0.5, "alpha_steps": 4, "r_values": [0.05]}
            )
        )
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["alpha_abs", "r", "g_eff", "F_eff", "F_ideal", "P_succ"]
        first = rows[1]
        assert float(first[0]) == pytest.approx(0.05)
        gain_cap = 2.0 * math.sqrt(1 - 0.0025) ** 3
        assert float(first[2]) == pytest.approx(gain_cap, abs=6e-3)
        assert float(first[2]) < gain_cap
        expected = g_eff_closed(0.05, SplitterTriple.symmetric(0.05))
        assert float(first[2]) == pytest.approx(expected, abs=1e-10)

    def test_row_count(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"alpha_min": 0.1, "alpha_max": 1.0, "alpha_steps": 5, "r_values": [0.1, 0.4]}
            )
        )
        main(["sweep", "--config", str(config), "--out", str(tmp_path)])
        assert len(read_csv(tmp_path / "sweep.csv")) == 11


class TestWigner:
    def test_input_grid_matches_closed_form(self, tmp_path):
        code = main(
            ["wigner", "--branch", "input", "--grid=-4,4,-4,4,81,81", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        loaded = import_grid(tmp_path / "wigner_input.csv")
        spec = GridSpec(-4, 4, -4, 4, 81, 81)
        assert loaded.spec == spec
        np.testing.assert_allclose(
            loaded.values, wigner_coherent(0.5 + 0j, spec).values, atol=1e-12
        )

    def test_success_branch_normalization(self, tmp_path):
        code = main(["wigner", "--branch", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert abs(integrate(import_grid(tmp_path / "wigner_branch1.csv")) - 1.0) < 1e-6

    def test_unclicked_branch_is_attenuated_coherent(self, tmp_path):
        code = main(["wigner", "--branch", "5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        loaded = import_grid(tmp_path / "wigner_branch5.csv")
        t3_alpha = math.sqrt(1 - 0.16) ** 3 * 0.5
        np.testing.assert_allclose(
            loaded.values, wigner_coherent(complex(t3_alpha), loaded.spec).values, atol=1e-6
        )

    def test_zero_probability_branch_is_numeric_failure(self, tmp_path, capsys):
        code = main(["wigner", "--alpha", "0", "--branch", "1", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert "zero probability" in capsys.readouterr().err

    def test_bad_branch_selector(self, tmp_path):
        assert main(["wigner", "--branch", "9", "--out", str(tmp_path)]) == EXIT_CONFIG


class TestBranchesJson:
    def test_payload_shape(self, tmp_path):
        assert main(["branches", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "branches.json") as fh:
            payload = json.load(fh)
        assert payload["alpha"] == [0.5, 0.0]
        assert payload["r"] == [0.4, 0.4, 0.4]
        assert len(payload["branches"]) == 8
        success = payload["branches"][0]
        assert success["outcome"] == [1, 0, 1]
        assert success["defined"]
        assert success["probability"] == pytest.approx(1.3563e-3, rel=2e-4)
        norm = sum(re * re + im * im for re, im in success["amps"])
        assert norm == pytest.approx(1.0, abs=1e-10)
        total = sum(b["probability"] for b in payload["branches"])
        assert total + payload["other_probability"] == pytest.approx(1.0, abs=1e-12)


class TestOptimizeCommand:
    def test_single_threshold(self, tmp_path):
        code = main(
            ["optimize", "--geff0-min", "1.4", "--geff0-max", "1.4",
             "--geff0-step", "0.05", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "optimize.csv")
        assert rows[0] == [
            "g_eff0", "p_opt", "alpha_opt", "r_opt1", "r_opt2", "r_opt3", "f_opt", "converged"
        ]
        assert len(rows) == 2
        row = rows[1]
        assert float(row[1]) == pytest.approx(1e-3, rel=0.15)
        assert float(row[2]) == pytest.approx(0.51, abs=0.01)
        assert row[7] == "true"


    def test_thresholds_stay_within_requested_range(self, tmp_path):
        code = main(
            ["optimize", "--geff0-min", "1.05", "--geff0-max", "1.13",
             "--geff0-step", "0.05", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert [row[0] for row in read_csv(tmp_path / "optimize.csv")[1:]] == ["1.05", "1.1"]

    def test_threshold_list_size_is_limited(self, tmp_path, monkeypatch):
        def never_called(thresholds):
            raise AssertionError("the solver must not run")

        monkeypatch.setattr(cli, "optimize_sweep", never_called)
        step = str(0.9 / (cli.MAX_THRESHOLDS + 1))
        code = main(
            ["optimize", "--geff0-min", "1.05", "--geff0-max", "1.95",
             "--geff0-step", step, "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG


class TestUnusedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--r", "0.9"],
            ["optimize", "--alpha", "3"],
            ["sweep", "--r", "1.5"],
            ["sweep", "--eta-qnd", "0.1"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert not any(tmp_path.iterdir())


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alhpa": 0.5}))
        assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["table1", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_invalid_reflectivity(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"r": 1.5}))
        assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.9}))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["table1", "--config", str(config), "--alpha", "0.5", "--out", str(a)])
        main(["table1", "--out", str(b)])
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()

    def test_complex_alpha_pair(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": [0.3, 0.4]}))
        assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "table1.csv")
        # only |alpha| = 0.5 matters for the probabilities
        assert float(rows[1][6]) == pytest.approx(1.3563e-3, rel=2e-4)

import csv
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlamp import (
    GridSpec,
    SchemeConfig,
    SplitterTriple,
    enumerate_single_photon_branches,
    g_eff_closed,
    import_grid,
    integrate,
    run_branch,
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
        main(["table1", "--alpha", "0", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "table1.csv")
        by_state = {row[0]: row for row in rows[1:]}
        assert float(by_state["8"][6]) == pytest.approx(1.0, abs=1e-12)
        assert by_state["1"][5] == "nan"
        assert float(by_state["1"][6]) == 0

    @pytest.mark.parametrize("command", ["branches"])
    def test_inadequate_dimension_is_numeric_failure(self, command, tmp_path, capsys):
        # the outputs' |gamma| = 2.3 leaves 2.1e-2 of |gamma⟩ above the 11
        # levels that 10 printed ones and a QND photon need, and the message
        # names the dimension given; table1 and wigner read no dimension
        code = main([command, "--alpha", "3", "--dim", "10", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "coherent tail mass" in err
        assert "dim=10" in err and "dim=11" not in err

    @pytest.mark.parametrize("alpha", ["14", "30"])
    def test_amplitude_past_max_dim_gives_a_table(self, alpha, tmp_path):
        # |alpha| = 14 would need 1020 levels, above MAX_DIM; the table needs none
        assert main(["table1", "--alpha", alpha, "--out", str(tmp_path)]) == EXIT_OK
        probabilities = [float(row[6]) for row in read_csv(tmp_path / "table1.csv")[1:]]
        assert all(0.0 <= p <= 1.0 for p in probabilities)
        assert abs(sum(probabilities) - 1.0) < 1e-12

    def test_overflowing_amplitude_at_zero_reflectivity(self, tmp_path):
        # |alpha|^2 overflows, yet at r = 0 no photon is ever detected, and
        # the output is the input: ⟨n⟩ is not a float, but 1 - F is 0
        argv = ["table1", "--alpha", "1e200", "--r", "0", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        rows = read_csv(tmp_path / "table1.csv")[1:]
        assert [float(row[6]) for row in rows] == [0.0] * 7 + [1.0, 0.0]
        assert rows[7][5] == "0"

    @pytest.mark.parametrize("alpha", [[6e139, 8e139], [6e159, 8e159]])
    def test_huge_complex_amplitude_at_zero_reflectivity(self, alpha, tmp_path):
        # the output is the input, so 1 - F is 0 at any phase of alpha, not
        # the rounding of β − γ formed from products of size |alpha|
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": alpha, "r": 0}))
        argv = ["table1", "--config", str(config), "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        rows = read_csv(tmp_path / "table1.csv")[1:]
        assert [float(row[6]) for row in rows] == [0.0] * 7 + [1.0, 0.0]
        assert rows[7][5] == "0"

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

    @pytest.mark.parametrize("alpha_max", [40.0, 1e200])
    def test_any_finite_amplitude_gives_rows(self, alpha_max, tmp_path):
        # no truncation bounds the closed forms: a point whose probability
        # underflows has P = 0 and nan metrics
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha_max": alpha_max, "alpha_steps": 200}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")[1:]
        assert len(rows) == 600
        assert not any(math.isnan(float(row[5])) for row in rows)
        assert all(float(row[5]) == 0.0 for row in rows if math.isnan(float(row[2])))

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

    def test_output_above_sixty_levels(self, tmp_path):
        # the success branch at alpha = 2 has 61 levels
        code = main(["wigner", "--alpha", "2.0", "--branch", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert abs(integrate(import_grid(tmp_path / "wigner_branch1.csv")) - 1.0) < 1e-6

    def test_amplitude_past_max_dim(self, tmp_path):
        # |alpha| = 30 would need 4 092 levels; the closed form needs none.
        # The success branch sits at sqrt(2) gamma = 32.7
        argv = ["wigner", "--alpha", "30", "--grid=25,40,-7,7,151,141", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert abs(integrate(import_grid(tmp_path / "wigner_branch1.csv")) - 1.0) < 1e-6

    def test_overflowing_amplitude_gives_a_zero_grid(self, tmp_path):
        # rho^2 overflows on every cell, where W is 0, not 0 * inf
        argv = ["wigner", "--alpha", "1e200", "--r", "0", "--branch", "8", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        values = import_grid(tmp_path / "wigner_branch8.csv").values
        assert np.array_equal(values, np.zeros_like(values))


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

    def test_vacuum_input_is_strict_json(self, tmp_path):
        # gain and fidelities are undefined at alpha = 0; they must be null,
        # not the NaN token that RFC 8259 does not allow
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        argv = ["branches", "--alpha", "0", "--dim", "8", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        with open(tmp_path / "branches.json") as fh:
            payload = json.load(fh, parse_constant=reject)
        vacuum_row = payload["branches"][-1]
        assert vacuum_row["outcome"] == [0, 0, 0]
        assert vacuum_row["probability"] == 1.0
        assert vacuum_row["abs_mean_a"] == 0.0
        assert vacuum_row["g_eff"] is None
        assert vacuum_row["fidelity_ideal"] is None

    def test_every_entry_has_every_key(self, tmp_path):
        # at alpha = 0 branch (1, 0, 1) has probability 0; it keeps the keys
        # of a defined branch, with null values
        argv = ["branches", "--alpha", "0", "--dim", "8", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        with open(tmp_path / "branches.json") as fh:
            entries = json.load(fh)["branches"]
        keys = ["outcome", "probability", "defined", "abs_mean_a", "g_eff", "fidelity_eff",
                "fidelity_energy", "fidelity_ideal", "amps"]
        assert all(list(entry) == keys for entry in entries)
        success = entries[0]
        assert success["outcome"] == [1, 0, 1]
        assert success["probability"] == 0.0
        assert success["defined"] is False
        assert all(success[key] is None for key in keys[3:])
        assert entries[-1]["defined"] and len(entries[-1]["amps"]) == 8

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha", "0.7", "--r", "0.3"],
            ["--alpha", "0", "--dim", "8"],
            ["--alpha", "0.001", "--dim", "2"],
        ],
    )
    def test_amps_are_run_branch_outputs(self, argv, tmp_path):
        # P and metrics are the table's, and the amplitudes are those of the
        # table's closed-form states, cut to dim + n_qnd levels: run_branch's
        # outputs on the same dimension, up to rounding.  At dim 2 the Fock
        # route's truncated input reaches no pattern with n_pd1 = n_pd2 = 1,
        # so the referee there is run_branch at the default dimension
        assert main(["branches", *argv, "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "branches.json").read_text())
        alpha = complex(*payload["alpha"])
        cfg = SchemeConfig(alpha, *payload["r"], dim=payload["dim"])
        referee = cfg if payload["dim"] > 2 else SchemeConfig(alpha, *payload["r"])
        table, other = enumerate_single_photon_branches(cfg)
        assert payload["other_probability"] == other
        for entry, branch in zip(payload["branches"], table):
            assert entry["probability"] == branch.probability
            assert entry["abs_mean_a"] == (branch.mean_a_abs if branch.defined else None)
            for key in ("g_eff", "fidelity_eff", "fidelity_energy", "fidelity_ideal"):
                value = getattr(branch, key)
                assert entry[key] == (None if math.isnan(value) else value)
            assert entry["defined"] is (branch.probability > 0)
            output = run_branch(referee, branch.outcome).output
            if output is None:
                assert entry["amps"] is None
            else:
                amps = np.array([complex(*a) for a in entry["amps"]])
                assert amps.size == payload["dim"] + branch.outcome[0]
                assert np.abs(amps - output.amps[: amps.size]).max() <= 1e-14


@pytest.mark.parametrize(
    "argv",
    [
        ["table1"],
        ["branches"],
        ["sweep"],
        ["optimize"],
        ["wigner"],
        ["branches", "--alpha", "13.8", "--r", "0.1"],
        ["branches", "--alpha", "0.001", "--dim", "2"],
    ],
)
def test_no_subcommand_runs_the_fock_route(argv, tmp_path, monkeypatch):
    # every number written comes from the (u, v, gamma) algebra; the Kraus
    # steps and the Wigner wavefunction only referee it in the tests
    def refuse(*args, **kwargs):
        raise AssertionError("the Fock route ran")

    monkeypatch.setattr("nlamp.scheme._kraus", refuse)
    monkeypatch.setattr("nlamp.wigner._wavefunction", refuse)
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["table1"], "table1.csv"),
            (["branches"], "branches.json"),
            (["sweep"], "sweep.csv"),
            (["optimize", "--geff0-min", "1.4", "--geff0-max", "1.4"], "optimize.csv"),
            (["wigner", "--grid=-3,3,-3,3,11,11"], "wigner_branch1.csv"),
        ],
    )
    def test_data_file_path_is_a_directory(self, argv, name, tmp_path, capsys):
        (tmp_path / name).mkdir()
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert str(tmp_path / name) in capsys.readouterr().err


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

    def test_infeasible_threshold_writes_a_blank_row(self, tmp_path):
        # g0 just below 2 needs T > g0 / 2 at alpha_lo, beyond every r >= 1e-6
        code = main(
            ["optimize", "--geff0-min", "1.99999999", "--geff0-max", "1.99999999",
             "--geff0-step", "0.1", "--out", str(tmp_path)]
        )
        assert code == EXIT_NOT_CONVERGED
        lines = (tmp_path / "optimize.csv").read_text().splitlines()
        assert lines[1:] == ["1.99999999,,,,,,,false"]

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
            # the sweep and the table evaluate closed forms, with no
            # truncation to set
            ["sweep", "--dim", "30"],
            ["table1", "--dim", "30"],
            # a branch's W depends on alpha and r alone
            ["wigner", "--dim", "30"],
            ["wigner", "--eta-qnd", "0.5"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert not any(tmp_path.iterdir())


class TestRegisteredFlags:
    SCHEME = {"--alpha", "--r", "--eta-qnd", "--eta-pd1", "--eta-pd2"}

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("table1", SCHEME),
            ("branches", SCHEME | {"--dim"}),
            ("wigner", {"--alpha", "--r", "--grid", "--branch"}),
            ("sweep", set()),
            ("optimize", {"--geff0-min", "--geff0-max", "--geff0-step"}),
        ],
    )
    def test_each_subcommand_lists_exactly_its_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert listed == flags | {"--help", "--config", "--out"}


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

    def test_key_the_subcommand_does_not_read_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 3, "r": 0.9}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert "['alpha', 'r']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["table1", "branches", "wigner"])
    def test_amplitude_whose_magnitude_overflows(self, command, tmp_path, capsys):
        # each part is finite, |alpha| is not
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": [1.7e308, 1.7e308]}))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_complex_alpha_pair(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": [0.3, 0.4]}))
        assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "table1.csv")
        # only |alpha| = 0.5 matters for the probabilities
        assert float(rows[1][6]) == pytest.approx(1.3563e-3, rel=2e-4)


class TestMalformedValues:
    """Every malformed value is a config error found before any computation."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_flag(self, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["table1", "--alpha", value, "--out", str(out)]) == EXIT_CONFIG
        assert "alpha must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, values",
        [
            ("sweep", {"r_values": [1.5]}),
            ("sweep", {"dim": 1}),
            ("optimize", {"geff0_step": "x"}),
            ("sweep", {"alpha_steps": "x"}),
            # sweep amplitudes are magnitudes
            ("sweep", {"alpha_min": -0.5, "alpha_max": 0.5, "alpha_steps": 3, "r_values": [0.3]}),
            # a grid count must be an integer in the list form as in the string form
            ("wigner", {"grid": [-4, 4, -4, 4, 3.7, 7], "branch": "input"}),
            ("wigner", {"grid": "-4,4,-4,4,3.7,7", "branch": "input"}),
            # finite bounds whose span overflows
            ("wigner", {"grid": "1e308,-1e308,-1,1,3,3", "branch": "input"}),
            ("wigner", {"grid": [-1, 1, -1e308, 1e308, 3, 3]}),
        ],
    )
    def test_bad_config_value(self, command, values, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestSizeBounds:
    """Each size just above its bound exits 2 naming the bound, before any output.

    The values are small enough that a run without the check would finish
    quickly and exit 0.
    """

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["branches", "--dim", str(cli.MAX_DIM + 1)], "MAX_DIM"),
            # 1 008 levels derived from the amplitude, just past MAX_DIM
            # (|alpha| = 13.8 needs 995)
            (["branches", "--alpha", "13.9"], "MAX_DIM"),
            # 4 * 14^2 + 16 * 14 + 12 = 1020 levels derived from the amplitude
            (["branches", "--alpha", "14"], "MAX_DIM"),
            # the magnitude of a negative amplitude
            (["branches", "--alpha", "-14"], "MAX_DIM"),
            (["wigner", f"--grid=-6,6,-6,6,{cli.MAX_GRID_POINTS + 1},1"], "MAX_GRID_POINTS"),
            (["wigner", f"--grid=-6,6,-6,6,1,{cli.MAX_GRID_POINTS + 1}"], "MAX_GRID_POINTS"),
        ],
    )
    def test_flag_above_bound(self, argv, bound, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert bound in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, bound",
        [
            ({"alpha_steps": cli.MAX_SWEEP_POINTS // 2 + 1, "r_values": [0.1, 0.2]},
             "MAX_SWEEP_POINTS"),
        ],
    )
    def test_sweep_above_bound(self, values, bound, tmp_path, capsys, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("the sweep must not run")

        monkeypatch.setattr(cli, "gain_fidelity_sweep", never_called)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert bound in capsys.readouterr().err
        assert not out.exists()

    def test_largest_grid_is_accepted(self, tmp_path):
        grid = f"--grid=-6,6,-6,6,{cli.MAX_GRID_POINTS},1"
        assert main(["wigner", grid, "--out", str(tmp_path)]) == EXIT_OK


# Valid values are kept small so that every example runs in milliseconds.
VALID_VALUES = {
    "alpha": st.one_of(st.floats(0.0, 1.0), st.lists(st.floats(-0.7, 0.7), min_size=2, max_size=2)),
    "r": st.floats(0.0, 0.9),
    "r1": st.floats(0.0, 0.9),
    "r2": st.floats(0.0, 0.9),
    "r3": st.floats(0.0, 0.9),
    "dim": st.one_of(st.none(), st.integers(2, 40)),
    "eta_qnd": st.floats(0.0, 1.0),
    "eta_pd1": st.floats(0.0, 1.0),
    "eta_pd2": st.floats(0.0, 1.0),
    "grid": st.sampled_from(["-3,3,-3,3,5,5", [-4, 4, -4, 4, 3, 7]]),
    "branch": st.sampled_from(["input", "1", "5", "8", 2]),
    "alpha_min": st.floats(0.0, 1.0),
    "alpha_max": st.floats(0.0, 1.0),
    "alpha_steps": st.integers(1, 3),
    "r_values": st.lists(st.floats(0.0, 0.9), min_size=1, max_size=2),
    "geff0_min": st.floats(1.01, 1.99),
    "geff0_max": st.floats(1.01, 1.99),
    "geff0_step": st.floats(0.3, 1.0),
}
# wrong types, non-finite numbers, out-of-range values and sizes far past the
# CLI bounds (a dimension, a derived dimension and a grid of 10^10 cells), an
# amplitude whose square overflows, and a grid whose finite bounds span more
# than the largest float
BAD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, -1, 0, 1.5, 2.5, "x", "", True, None, [], [1, 2, 3], {},
     10**15, 1e6, 1e200, "-6,6,-6,6,100000,100000", "1e308,-1e308,-1,1,3,3"]
)


@st.composite
def command_configs(draw):
    command = draw(st.sampled_from(sorted(cli.DEFAULTS)))
    keys = sorted(cli.DEFAULTS[command]) + (["r"] if "r1" in cli.DEFAULTS[command] else [])
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
    return command, {key: draw(st.one_of(VALID_VALUES[key], BAD_VALUES)) for key in chosen}


@settings(max_examples=80, deadline=None)
@given(command_configs())
def test_any_config_ends_in_a_documented_exit_code(tmp_path_factory, command_config):
    command, values = command_config
    directory = tmp_path_factory.mktemp("property")
    config = directory / "config.json"
    config.write_text(json.dumps(values))
    code = main([command, "--config", str(config), "--out", str(directory / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_NOT_CONVERGED)

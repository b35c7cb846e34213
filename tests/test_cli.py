"""Command-line interface: parsing, config validation, end-to-end runs."""

import json
import os
from fractions import Fraction

import pytest

from recurlab.circle import IntervalSet, PowerLaw, PowerLog
from recurlab.cli import atomic_write, main, parse_config, parse_sequence, parse_system
from recurlab.errors import ConfigError
from recurlab.systems import BetaMap, IntegerCircleMap, PiecewiseLinear, Rotation, ToralLinear


class TestSystemParsing:
    def test_doubling_shortcut(self):
        assert parse_system("doubling") == IntegerCircleMap(2)

    def test_circle_map(self):
        assert parse_system("circle:5") == IntegerCircleMap(5)

    def test_beta_golden(self):
        sys_ = parse_system("beta:golden")
        assert isinstance(sys_, BetaMap)
        assert float(sys_.beta) == pytest.approx((1 + 5**0.5) / 2)

    def test_toral_matrix(self):
        sys_ = parse_system("toral:2,1;1,1")
        assert isinstance(sys_, ToralLinear)
        assert sys_.A == ((2, 1), (1, 1))

    def test_one_by_one_toral_becomes_circle_map(self):
        assert parse_system("toral:3") == IntegerCircleMap(3)

    def test_rotation(self):
        assert isinstance(parse_system("rotation:sqrt2"), Rotation)

    def test_piecewise(self):
        sys_ = parse_system("piecewise:0,1/2,2,0;1/2,1,2,-1")
        assert isinstance(sys_, PiecewiseLinear)
        assert len(sys_.branches) == 2

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            parse_system("henon:1.4,0.3")


class TestSequenceParsing:
    def test_powerlaw(self):
        seq = parse_sequence("powerlaw:1/4,1")
        assert isinstance(seq, PowerLaw)
        assert seq.exact(2) == Fraction(1, 8)

    def test_powerlog(self):
        assert isinstance(parse_sequence("powerlog:1,2"), PowerLog)

    def test_table(self):
        seq = parse_sequence("table:1/2,1/3,1/4")
        assert seq.exact(3) == Fraction(1, 4)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            parse_sequence("zeta:3")


class TestConfigFiles:
    GOOD = """\
[run]
experiment = rio
system = doubling
seq = powerlaw:1/4,1
k = 2
n = 50
samples = 500
seed = 3
"""

    def test_valid_config(self):
        cfg = parse_config(self.GOOD)
        assert cfg.experiment == "rio"
        assert cfg.system == IntegerCircleMap(2)
        assert cfg.k == 2 and cfg.N == 50 and cfg.samples == 500

    def test_all_problems_collected(self):
        bad = """\
[run]
experiment = warp
system = henon:1.4
seq = zeta:3
k = -2
bogus_key = 1
"""
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        text = "\n".join(exc.value.problems)
        assert len(exc.value.problems) >= 4
        assert "bogus_key" in text
        assert "experiment" in text
        assert "k must be positive" in text

    @pytest.mark.parametrize("head, ignored", [
        ("experiment = petrov\nseq = powerlaw:1/4,1\n",
         {"seed": "5", "budget_arcs": "1", "bins": "64"}),
        ("experiment = rio\nsystem = doubling\nseq = powerlaw:1/4,1\n",
         {"bins": "64", "alphas": "1,2", "budget_arcs": "1"}),
    ])
    def test_keys_the_experiment_ignores_rejected(self, head, ignored, tmp_path):
        text = "[run]\n" + head + "".join(f"{k} = {v}\n" for k, v in ignored.items())
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert len(exc.value.problems) == len(ignored)
        for key, problem in zip(ignored, exc.value.problems):
            assert repr(key) in problem
        cfg = tmp_path / "ignored.ini"
        cfg.write_text(text + f"out = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 1

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[other]\nx = 1\n")

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[run]\nexperiment = rio\n")
        text = "\n".join(exc.value.problems)
        assert "seq" in text and "system" in text


class TestOptions:
    """Each command accepts only the options that act on it."""

    @pytest.mark.parametrize("argv", [
        ["petrov", "--seed", "1"],
        ["--threads", "2", "nt", "gcd", "--a", "2"],
        ["petrov", "--budget-arcs", "10"],
        ["exact", "--n", "2", "--r", "1/10", "--seed", "1"],
        ["ulam", "--system", "doubling", "--seed", "1"],
        ["rio", "--system", "doubling", "--seq", "powerlaw:1/4,1", "--precision-bits", "64"],
    ])
    def test_options_that_would_be_ignored_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "recurlab: error:" in capsys.readouterr().err

    def test_precision_bits_config_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(TestConfigFiles.GOOD + "precision_bits = 64\n")
        assert "precision_bits" in "\n".join(exc.value.problems)

    def test_seed_and_budget_where_they_act(self, tmp_path):
        assert main(["ear", "--exact", "--n0", "3", "--M-horizon", "6",
                     "--budget-arcs", "10", "--out", str(tmp_path)]) == 1
        assert main(["exact", "--n", "4", "--r", "1/10", "--budget-arcs", "20",
                     "--out", str(tmp_path)]) == 0
        assert main(["orbit", "--system", "doubling", "--scan-alphas", "1",
                     "--checkpoints", "10", "--samples", "20", "--seed", "3",
                     "--out", str(tmp_path)]) == 0


class TestAtomicWrite:
    def test_writes_exact_bytes(self, tmp_path):
        target = tmp_path / "sub" / "file.json"
        atomic_write(str(target), b"payload")
        assert target.read_bytes() == b"payload"

    def test_no_temp_files_left(self, tmp_path):
        target = tmp_path / "file.json"
        atomic_write(str(target), b"one")
        atomic_write(str(target), b"two")
        assert target.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["file.json"]


class TestEndToEnd:
    def test_rio_produces_json_and_tsv(self, tmp_path, capsys):
        code = main(["rio", "--system", "doubling", "--seq", "powerlaw:1/4,1",
                     "--k", "1", "--N", "10", "--M", "200", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "rio_truncated_measure.json").read_bytes())
        assert payload["experiment"] == "rio_truncated_measure"
        assert (tmp_path / "rio_truncated_measure.tsv").exists()

    @pytest.mark.parametrize("system", ["beta:golden", "rotation:sqrt2"])
    def test_monte_carlo_commands_run_on_fixed_point_systems(self, system, tmp_path):
        runs = {
            "rio_truncated_measure.json": ["rio", "--seq", "powerlaw:1/4,1", "--k", "2",
                                           "--N", "40", "--M", "100"],
            "ear_truncated_measure.json": ["ear", "--seq", "powerlaw:1,1/2", "--n0", "2",
                                           "--M-horizon", "20", "--samples", "100"],
            "boshernitzan_scan.json": ["orbit", "--scan-alphas", "1,2",
                                       "--checkpoints", "10,100", "--samples", "50"],
        }
        for report, argv in runs.items():
            assert main(argv + ["--system", system, "--out", str(tmp_path)]) == 0
            assert json.loads((tmp_path / report).read_bytes())["config"]["system"] == system

    def test_rio_rerun_byte_identical(self, tmp_path):
        argv = ["rio", "--system", "doubling", "--seq", "powerlaw:1/4,1",
                "--k", "1", "--N", "10", "--M", "200", "--seed", "5"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a_dir)]) == 0
        assert main(argv + ["--out", str(b_dir)]) == 0
        assert ((a_dir / "rio_truncated_measure.json").read_bytes()
                == (b_dir / "rio_truncated_measure.json").read_bytes())

    def test_exact_set_roundtrip(self, tmp_path):
        set_file = tmp_path / "e3.txt"
        code = main(["exact", "--system", "doubling", "--n", "3", "--r", "1/12",
                     "--set-out", str(set_file), "--out", str(tmp_path)])
        assert code == 0
        from recurlab.exact_sets import build_recurrence_set
        loaded = IntervalSet.from_text(set_file.read_text())
        assert loaded == build_recurrence_set(2, 3, Fraction(1, 12)).set

    def test_nt_gcd_json(self, tmp_path):
        code = main(["nt", "gcd", "--a", "3", "--max", "6", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "nt_gcd.json").read_bytes())
        assert payload["identity_holds"] is True
        assert payload["cases"] == 36

    def test_nt_lattice_complete(self, tmp_path):
        code = main(["nt", "lattice", "--a", "2", "--m", "4", "--n", "2",
                     "--bound", "100", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "nt_lattice.json").read_bytes())
        assert payload["generator"] == [1, -5]
        assert payload["bruteforce_complete"] is True

    def test_nt_matrix_lattice_complete(self, tmp_path):
        code = main(["nt", "matrix-lattice", "--matrix", "1,1;1,0",
                     "--m", "3", "--n", "2", "--box", "4", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "nt_matrix-lattice.json").read_bytes())
        assert payload["bruteforce_complete"] is True

    def test_petrov_json(self, tmp_path):
        code = main(["petrov", "--a", "2", "--seq", "powerlaw:1/4,1",
                     "--N", "4,8", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "petrov.json").read_bytes())
        assert [row["N"] for row in payload["profile"]] == [4, 8]

    def test_ulam_json(self, tmp_path):
        code = main(["ulam", "--system", "doubling", "--bins", "64",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "ulam.json").read_bytes())
        assert payload["second_eigenvalue"] == pytest.approx(0.5, abs=1e-9)
        assert payload["second_eigenvalue_converged"] is True
        assert payload["c"] == pytest.approx(1.0)

    def test_orbit_csv(self, tmp_path):
        code = main(["orbit", "--system", "doubling", "--x", "1/5",
                     "--steps", "4", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "orbit.csv").read_text().strip().splitlines()
        assert lines[0] == "step,point,dist_to_start"
        assert len(lines) == 6

    def test_run_config_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nexperiment = rio\nsystem = doubling\nseq = powerlaw:1/4,1\n"
            f"k = 1\nn = 10\nsamples = 200\nseed = 4\nout = {tmp_path}\n"
        )
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "rio_truncated_measure.json").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nexperiment = nonsense\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err

    def test_bad_system_spec_exit_code(self, tmp_path, capsys):
        code = main(["rio", "--system", "lorenz", "--seq", "powerlaw:1/4,1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

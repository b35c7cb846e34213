"""Command-line interface: parsing, config validation, end-to-end runs."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from recurlab.circle import IntervalSet, PowerLaw, PowerLog
from recurlab.cli import (
    _EXPERIMENTS, atomic_write, build_parser, main, parse_config, parse_sequence, parse_system,
)
from recurlab import experiments, number_theory, ulam
from recurlab.errors import ConfigError, PrecisionBudgetError
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
        argv = parse_config(self.GOOD)
        args = build_parser().parse_args(argv)
        assert argv[0] == "rio"
        assert parse_system(args.system) == IntegerCircleMap(2)
        assert args.k == 2 and args.N == 50 and args.M == 500

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

    def test_precision_error_names_options_that_exist(self, monkeypatch, tmp_path, capsys):
        def short_of_bits(*args):
            raise PrecisionBudgetError(804, 402)

        monkeypatch.setattr(experiments, "rio_truncated_measure", short_of_bits)
        assert main(["rio", "--system", "beta:golden", "--seq", "powerlaw:1/4,1",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "needs 804 fractional bits" in err
        named = re.findall(r"(\w+) (--[\w-]+)", err)
        assert [c for c, _ in named] == ["rio", "ear", "orbit"]
        for command, option in named:
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert option in capsys.readouterr().out

    def test_seed_and_budget_where_they_act(self, tmp_path):
        assert main(["ear", "--exact", "--n0", "3", "--M-horizon", "6",
                     "--budget-arcs", "10", "--out", str(tmp_path)]) == 1
        assert main(["exact", "--n", "4", "--r", "1/10", "--budget-arcs", "20",
                     "--out", str(tmp_path)]) == 0
        assert main(["orbit", "--system", "doubling", "--scan-alphas", "1",
                     "--checkpoints", "10", "--samples", "20", "--seed", "3",
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("system, n", [("circle:5", "1"), ("doubling", "8")])
    def test_exact_piecewise_honours_the_arc_budget(self, system, n, tmp_path, capsys):
        # T^n has 5 and 256 branches, over the budget of 4
        argv = ["exact", "--system", system, "--n", n, "--r", "1/12", "--piecewise",
                "--out", str(tmp_path)]
        assert main(argv + ["--budget-arcs", "4"]) == 1
        assert "budget 4" in capsys.readouterr().err
        assert main(argv) == 0


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

    @pytest.mark.parametrize("argv,lattice", [
        (["lattice", "--a", "2", "--m", "4", "--n", "2", "--bound", "100"],
         number_theory.ScalarLattice),
        (["matrix-lattice", "--matrix", "1,1;1,0", "--m", "3", "--n", "2", "--box", "4"],
         number_theory.MatrixLattice),
    ])
    def test_nt_incomplete_bruteforce_exits_2(self, tmp_path, monkeypatch, capsys,
                                              argv, lattice):
        solve_j = lattice.solve_j
        missed = []

        def solve_j_missing_one(self, *args):
            if not missed:
                missed.append(args)
                return None
            return solve_j(self, *args)

        monkeypatch.setattr(lattice, "solve_j", solve_j_missing_one)
        code = main(["nt", *argv, "--out", str(tmp_path)])
        assert code == 2
        assert missed
        payload = json.loads((tmp_path / f"nt_{argv[0]}.json").read_bytes())
        assert payload["bruteforce_complete"] is False
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "brute-force" in err[0]

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

    def test_ulam_unconverged_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ulam, "KRYLOV_MAX", 40)
        code = main(["ulam", "--system", "circle:3", "--bins", "128",
                     "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "ulam.json").read_bytes())
        assert payload["second_eigenvalue_converged"] is False
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "KRYLOV_MAX = 40" in err[0]

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

    @pytest.mark.parametrize("argv", [
        ["ear", "--exact", "--system", "beta:golden"],
        ["ear", "--exact", "--system", "toral:2,1;1,1"],
        ["ear", "--sigma", "1", "--system", "beta:golden"],
        ["exact", "--system", "beta:golden", "--n", "3", "--r", "1/10"],
    ])
    def test_exact_paths_need_an_integer_circle_map(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_ear_exact_config_needs_an_integer_circle_map(self, tmp_path, capsys):
        cfg = tmp_path / "ear.ini"
        cfg.write_text("[run]\nexperiment = ear_exact\nsystem = beta:golden\n"
                       f"seq = powerlaw:1,2\nout = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, argv", [
        ({"experiment": "rio", "system": "doubling", "seq": "powerlaw:1/4,1", "k": "2",
          "n": "20", "samples": "100", "seed": "3"},
         ["rio", "--system", "doubling", "--seq", "powerlaw:1/4,1", "--k", "2",
          "--N", "20", "--M", "100", "--seed", "3"]),
        ({"experiment": "rio_dichotomy", "system": "circle:3", "seq": "powerlaw:1/2,1",
          "seq_conv": "powerlog:1,2", "k": "4", "n": "40", "m": "100"},
         ["rio", "--system", "circle:3", "--seq", "powerlaw:1/2,1",
          "--seq-conv", "powerlog:1,2", "--k", "4", "--N", "40", "--M", "100"]),
        ({"experiment": "ear_exact", "system": "doubling", "seq": "powerlaw:1,2",
          "n0": "2", "m_horizon": "6"},
         ["ear", "--exact", "--system", "doubling", "--seq", "powerlaw:1,2",
          "--n0", "2", "--M-horizon", "6"]),
        ({"experiment": "boshernitzan", "system": "doubling", "alphas": "1,2",
          "checkpoints": "10,100", "samples": "40", "seed": "5"},
         ["orbit", "--system", "doubling", "--scan-alphas", "1,2",
          "--checkpoints", "10,100", "--samples", "40", "--seed", "5"]),
    ])
    def test_config_and_command_line_write_the_same_bytes(self, keys, argv, tmp_path):
        cfg, cli = tmp_path / "cfg", tmp_path / "cli"
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       + f"out = {cfg}\n")
        assert main(["run", str(ini)]) == main(argv + ["--out", str(cli)]) == 0
        names = sorted(p.name for p in cli.iterdir())
        assert names and sorted(p.name for p in cfg.iterdir()) == names
        for name in names:
            assert (cfg / name).read_bytes() == (cli / name).read_bytes()

    def test_petrov_config_takes_the_command_line_horizons(self, tmp_path):
        ini = tmp_path / "petrov.ini"
        ini.write_text(f"[run]\nexperiment = petrov\nseq = powerlaw:1/4,1\nout = {tmp_path}\n")
        assert main(["run", str(ini)]) == 0
        profile = json.loads((tmp_path / "petrov.json").read_bytes())["profile"]
        assert [row["N"] for row in profile] == [8, 12, 16, 20]

    @pytest.mark.parametrize("head, missing", [
        ("experiment = exact\nsystem = doubling\n", ["n", "r"]),
        ("experiment = boshernitzan\nsystem = doubling\n", ["alphas"]),
    ])
    def test_config_names_each_missing_key(self, head, missing):
        with pytest.raises(ConfigError) as exc:
            parse_config("[run]\n" + head)
        assert len(exc.value.problems) == len(missing)
        for key, problem in zip(missing, exc.value.problems):
            assert problem.endswith(f"needs a {key}")

    VALUES = {"system": "doubling", "seq": "powerlaw:1,2", "seq_conv": "powerlog:1,2",
              "k": "2", "n": "3", "m": "10", "samples": "10", "seed": "1", "n0": "2",
              "m_horizon": "5", "h": "1/2", "a": "3", "r": "1/10", "bins": "64",
              "budget_arcs": "100", "alphas": "1,2", "checkpoints": "10,100", "out": "x"}

    @pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
    def test_every_config_key_parses_on_the_command_line(self, experiment):
        head, required, optional = _EXPERIMENTS[experiment]
        keys = sorted(required | optional | {"out"})
        argv = parse_config(f"[run]\nexperiment = {experiment}\n"
                            + "".join(f"{k} = {self.VALUES[k]}\n" for k in keys))
        assert argv[:len(head)] == head and len(argv) == len(head) + len(keys)
        args = build_parser().parse_args(argv)   # a usage error exits here
        assert args.out == "x"

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv, file, key", [
        (["petrov", "--seq", "table:0,0,0", "--N", "2"], "petrov.json", "ratio"),
        (["ulam", "--system", "doubling", "--bins", "64", "--series-seq", "table:0,0,0,0",
          "--terms", "4"], "ulam_series.json", "tail_exponent"),
    ])
    def test_non_finite_values_are_written_as_null(self, argv, file, key, tmp_path):
        assert main(argv + ["--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads((tmp_path / file).read_bytes(), parse_constant=reject)
        if key == "ratio":
            payload = payload["profile"][0]
        assert payload[key] is None

    def test_ear_sigma_reads_the_system(self, tmp_path):
        argv = ["ear", "--sigma", "1", "--n0", "4", "--M-horizon", "8"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        report = (tmp_path / "prop_ear_bound_check.json").read_bytes()
        # the bytes of the doubling default are those from before --system was read
        assert hashlib.sha256(report).hexdigest() == (
            "3b08264a7a182c2e765f7ef86fce35ca10fe54e09713e8e708093be0aafe68a4")
        assert main(argv + ["--system", "circle:3", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "prop_ear_bound_check.json").read_bytes())
        assert report["config"]["system"] == "circle:3"

    def test_bad_system_spec_exit_code(self, tmp_path, capsys):
        code = main(["rio", "--system", "lorenz", "--seq", "powerlaw:1/4,1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err


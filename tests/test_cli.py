"""Command-line interface: parsing, config validation, end-to-end runs."""

import hashlib
import io
import json
import math
import re
from fractions import Fraction

import pytest

from recurlab.circle import PowerLaw, PowerLog
from recurlab.cli import (
    _EXPERIMENTS, atomic_write, build_parser, main, parse_config, parse_sequence, parse_system,
)
from recurlab import exact_sets, experiments, number_theory, ulam
from recurlab.dynamics import write_orbit_csv
from recurlab.errors import ConfigError, PrecisionBudgetError
from recurlab.systems import BetaMap, IntegerCircleMap, PiecewiseLinear, Rotation, ToralLinear
from oracles import from_text


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

    def test_unparseable_text_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("experiment = rio\n")  # no section header
        [problem] = exc.value.problems
        assert problem.startswith("unparseable config: ")

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

    @pytest.mark.parametrize("argv", [
        ["ear", "--exact", "--sigma", "1"],
        ["ear", "--exact", "--samples", "10"],
        ["ear", "--exact", "--seed", "1"],
        ["ear", "--sigma", "1", "--samples", "10"],
        ["ear", "--sigma", "1", "--seed", "1"],
        ["ear", "--sigma", "1", "--seq", "powerlaw:1,2"],
        ["ear", "--samples", "10", "--budget-arcs", "10"],
        ["orbit", "--system", "doubling", "--checkpoints", "10"],
        ["orbit", "--system", "doubling", "--samples", "10"],
        ["orbit", "--system", "doubling", "--seed", "1"],
        ["orbit", "--system", "doubling", "--scan-alphas", "1", "--x", "1/5"],
        ["orbit", "--system", "doubling", "--scan-alphas", "1", "--steps", "8"],
        ["ulam", "--system", "doubling", "--bins", "16", "--terms", "4"],
    ])
    def test_options_that_a_mode_would_ignore_are_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the command's own usage line and prefix, not the root parser's
        assert err.startswith(f"usage: recurlab {argv[0]} [-h]")
        assert f"recurlab {argv[0]}: error:" in err and "does not use" in err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("argv, commands", [
        (["exact", "--n", "4", "--r", "1/10", "--set-out", "{tmp}/e4.txt", "--budget-arcs", "5"],
         ["exact", "ear"]),
        (["ear", "--exact", "--n0", "3", "--M-horizon", "6", "--budget-arcs", "10"],
         ["exact", "ear"]),
        (["exact", "--system", "circle:5", "--n", "1", "--r", "1/12", "--piecewise",
          "--budget-arcs", "4"], ["exact"]),
    ])
    def test_budget_errors_name_options_that_exist(self, argv, commands, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"budget {argv[-1]}" in err
        assert ("caps branches" in err) == ("--piecewise" in argv)
        named = re.findall(r"(\w+) (--[\w-]+)", err)
        assert [c for c, _ in named] == commands
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

    @pytest.mark.parametrize("alphas", ["1,1.0000001", "1,1"])
    def test_alphas_with_one_label_are_refused(self, alphas, tmp_path, capsys):
        # the report keys its medians by f"{alpha:g}": one key would hold one series
        out = tmp_path / "out"
        assert main(["orbit", "--system", "doubling", "--scan-alphas", alphas,
                     "--checkpoints", "5,10", "--samples", "3", "--out", str(out)]) == 1
        assert "error: alphas share the label 1" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nexperiment = boshernitzan\nsystem = doubling\n"
                       f"alphas = {alphas}\ncheckpoints = 5,10\nsamples = 3\nout = {out}\n")
        assert main(["run", str(cfg)]) == 1
        assert not out.exists()

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

    def test_failed_write_keeps_the_target(self, tmp_path):
        target = tmp_path / "file.json"
        atomic_write(str(target), b"one")
        with pytest.raises(TypeError):
            atomic_write(str(target), "not bytes")
        assert target.read_bytes() == b"one"
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
        loaded = from_text(set_file.read_text())
        assert loaded == build_recurrence_set(2, 3, Fraction(1, 12)).set.arcs

    def test_nt_gcd_json(self, tmp_path):
        code = main(["nt", "gcd", "--a", "3", "--max", "6", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "nt_gcd.json").read_bytes() == (
            b'{\n  "a": 3,\n  "cases": 36,\n  "identity_holds": true,\n  "max": 6\n}\n')

    def test_nt_gcd_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        gcd = number_theory.gcd_mersenne
        monkeypatch.setattr(number_theory, "gcd_mersenne",
                            lambda a, m, n: gcd(a, m, n) + ((m, n) == (4, 6)))
        code = main(["nt", "gcd", "--a", "3", "--max", "6", "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "nt_gcd.json").read_bytes())
        assert payload["identity_holds"] is False
        assert payload["cases"] == 36
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: gcd(a^m - 1, a^n - 1) != a^gcd(m, n) - 1 at a=3, m=4, n=6"]

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

    @pytest.mark.parametrize("argv", [
        ["lattice", "--a", "2", "--m", "4", "--n", "2", "--bound", "100"],
        ["matrix-lattice", "--matrix", "1,1;1,0", "--m", "3", "--n", "2", "--box", "4"],
    ])
    def test_nt_incomplete_bruteforce_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        # both kinds decide completeness by the one MatrixLattice.solve_j
        lattice = number_theory.MatrixLattice
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

    @pytest.mark.parametrize("argv,digest", [
        (["gcd", "--a", "2", "--max", "12"],
         "3b06a4b24383d0798fbefd746bbbef8b9974e83c3faeb6b761bb318088007711"),
        (["lattice", "--a", "2", "--m", "4", "--n", "2", "--bound", "200"],
         "547aaf6f56d93d17b4376bd462b602c3b5ad6c9e5e6621337ee8c4f5aa95cc97"),
        (["matrix-lattice", "--matrix", "1,1;1,0", "--m", "3", "--n", "2", "--box", "5"],
         "acefb5ee87792c73b868ff8fe39884e1a30a4bc843ca62925f44dca6b5451ef0"),
        (["matrix-lattice", "--matrix", "2,1;1,1", "--m", "6", "--n", "4", "--box", "8"],
         "52118095a3f05ce4ae0cae08914e1dd8ebcb7346488b23b119941136ad13e1a5"),
        (["matrix-lattice", "--matrix", "2,1,0;1,1,1;0,1,3", "--m", "5", "--n", "3",
          "--box", "4"],
         "811352afe299351316dd791bb4ea719898defd600a7c17a43ff62e1b519828ec"),
        (["matrix-lattice", "--matrix", "3", "--m", "4", "--n", "6", "--box", "40"],
         "d7e867747558755487a232bf4dca930ae19bc4a86514f25be37ea850fb318a74"),
        # the companion matrix of x^3 - x - 1: no eigenvalue is a root of unity
        (["matrix-lattice", "--matrix", "0,1,0;0,0,1;1,1,0", "--m", "4", "--n", "2",
          "--box", "3"],
         "942d9965e33907ed97bd6dd9f7450771ddb78d1e4db2e17ffd79360293f599e2"),
    ])
    def test_nt_report_bytes(self, argv, digest, tmp_path):
        assert main(["nt", *argv, "--out", str(tmp_path)]) == 0
        report = (tmp_path / f"nt_{argv[0]}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest

    @pytest.mark.parametrize("matrix,problem", [
        *((m, "matrix has an eigenvalue that is a root of unity (order 1)")
          for m in ("0,1;1,0", "1,1;0,1")),
        *((m, "matrix must be square and non-empty") for m in ("2,1;1", "2,1,1;1,1,0")),
    ])
    def test_nt_matrix_is_refused(self, matrix, problem, tmp_path, capsys):
        code = main(["nt", "matrix-lattice", "--matrix", matrix, "--m", "4", "--n", "2",
                     "--box", "3", "--out", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {problem}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,problem", [
        (["--a", "1", "--m", "4", "--n", "2"], "base must be >= 2, got 1"),
        (["--a", "-2", "--m", "4", "--n", "2"], "base must be >= 2, got -2"),
        (["--a", "2", "--m", "3", "--n", "3"], "degenerate equation: m and n must differ"),
        (["--a", "2", "--m", "0", "--n", "2"], "exponents must be positive"),
        (["--a", "2", "--m", "4", "--n", "2", "--bound", "500000"],
         "brute-force bound 500000 too large"),
    ])
    def test_nt_lattice_is_refused(self, argv, problem, tmp_path, capsys):
        code = main(["nt", "lattice", *argv, "--out", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {problem}\n"
        assert not list(tmp_path.iterdir())

    def test_petrov_json(self, tmp_path):
        code = main(["petrov", "--a", "2", "--seq", "powerlaw:1/4,1",
                     "--N", "4,8", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "petrov.json").read_bytes())
        assert [row["N"] for row in payload["profile"]] == [4, 8]

    @pytest.mark.parametrize("seq, n, r", [("ear:1", 1, "1"), ("powerlaw:1,1", 1, "1"),
                                           ("table:1/4,1/2,3/5", 3, "3/5")])
    def test_petrov_radius_above_a_half_is_a_usage_error(self, seq, n, r, tmp_path, capsys):
        # petrov's exact sets take r_n <= 1/2; r_1 = Delta_1 / 1 = 1 for every ear:sigma
        with pytest.raises(SystemExit) as exc:
            main(["petrov", "--a", "2", "--seq", seq, "--N", "8,12", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: recurlab petrov [-h]")
        assert f"recurlab petrov: error: --seq {seq} has r_{n} = {r}," in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("system", ["doubling", "circle:-2"])
    def test_ulam_json(self, system, tmp_path, capsys):
        code = main(["ulam", "--system", system, "--bins", "64",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "ulam.json").read_bytes())
        assert payload["second_eigenvalue"] == pytest.approx(0.5, abs=1e-9)
        assert payload["second_eigenvalue_converged"] is True
        assert payload["c"] == pytest.approx(1.0)
        # the rate of the Galerkin solve, although the 64-bin Ulam matrix is
        # nilpotent off the constants
        assert payload["decay_tau"] == -math.log(payload["second_eigenvalue"])
        assert payload["decay_flagged"] is False
        assert "tau=0.693147 " in capsys.readouterr().out

    def test_ulam_density_csv_is_the_library_dump(self, tmp_path):
        csv_path = tmp_path / "density.csv"
        code = main(["ulam", "--system", "beta:golden", "--bins", "64",
                     "--density-csv", str(csv_path), "--out", str(tmp_path)])
        assert code == 0
        buf = io.StringIO()
        ulam.write_density_csv(buf, ulam.build_ulam(BetaMap("golden"), 64))
        assert csv_path.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("spec, verdict", [
        ("powerlog:1,1", "diverging"), ("powerlaw:1,1", "diverging"),
        ("powerlaw:1/2,1/2", "diverging"), ("powerlog:1,2", "converging"),
        ("powerlaw:1,3/2", "converging"), ("ear:1", "diverging"), ("ear:0", "diverging"),
    ])
    def test_ulam_series_verdict(self, spec, verdict, tmp_path, capsys):
        code = main(["ulam", "--system", "doubling", "--bins", "384",
                     "--series-seq", spec, "--out", str(tmp_path)])
        assert code == 0
        assert f"series verdict: {verdict}\n" in capsys.readouterr().out
        payload = json.loads((tmp_path / "ulam_series.json").read_bytes())
        assert sorted(payload) == ["partial_sums", "verdict"]
        assert payload["verdict"] == verdict

    def test_ulam_series_of_a_short_table_takes_its_length(self, tmp_path, capsys):
        code = main(["ulam", "--system", "doubling", "--bins", "64",
                     "--series-seq", "table:1/2,1/4", "--out", str(tmp_path)])
        assert code == 0
        assert "series verdict: inconclusive\n" in capsys.readouterr().out
        payload = json.loads((tmp_path / "ulam_series.json").read_bytes())
        assert len(payload["partial_sums"]) == 2

    def test_ulam_terms_past_the_table_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ulam", "--system", "doubling", "--bins", "64", "--series-seq",
                  "table:1/2,1/4", "--terms", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: recurlab ulam [-h]")
        assert "recurlab ulam: error: --terms 3" in err and " 2 entries" in err
        assert not list(tmp_path.iterdir())

    def test_ulam_unconverged_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ulam, "KRYLOV_MAX", 40)
        code = main(["ulam", "--system", "circle:3", "--bins", "128",
                     "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "ulam.json").read_bytes())
        assert payload["second_eigenvalue_converged"] is False
        assert payload["decay_flagged"] is True
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "KRYLOV_MAX = 40" in err[0]

    def test_orbit_csv(self, tmp_path):
        code = main(["orbit", "--system", "doubling", "--x", "1/5",
                     "--steps", "4", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "orbit.csv").read_text().strip().splitlines()
        assert lines[0] == "step,point,dist_to_start"
        assert len(lines) == 6

    def test_orbit_csv_of_a_rational_beta_map(self, tmp_path):
        # 1/3 -> 5/6 -> 1/12 -> 5/24 -> 25/48 -> 29/96 under x -> 5x/2 mod 1
        code = main(["orbit", "--system", "beta:5/2", "--x", "1/3",
                     "--steps", "5", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "orbit.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [
            "0.333333333333333", "0.833333333333333", "0.0833333333333333",
            "0.208333333333333", "0.520833333333333", "0.302083333333333"]

    def test_orbit_csv_on_the_torus(self, tmp_path):
        # --x takes one coordinate per dimension, and the trace is the library's
        code = main(["orbit", "--system", "toral:2,1;1,1", "--x", "1/3,1/5",
                     "--steps", "8", "--out", str(tmp_path)])
        assert code == 0
        buf = io.StringIO()
        write_orbit_csv(buf, ToralLinear(((2, 1), (1, 1))), (Fraction(1, 3), Fraction(1, 5)), 8)
        assert (tmp_path / "orbit.csv").read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("system, x", [("toral:2,1;1,1", "1/3"), ("toral:2,1;1,1", "1/3,1/5,1/7"),
                                           ("doubling", "1/3,1/5")])
    def test_orbit_trace_needs_one_coordinate_per_dimension(self, system, x, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "--system", system, "--x", x, "--steps", "8", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: recurlab orbit [-h]")
        assert "recurlab orbit: error: --x takes" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("system", ("beta:golden", "rotation:golden"))
    def test_orbit_trace_of_an_irrational_system_is_refused(self, system, tmp_path, capsys):
        code = main(["orbit", "--system", system, "--x", "1/3", "--steps", "5",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "a trace needs a rational system" in err and "orbit --scan-alphas" in err
        assert not (tmp_path / "orbit.csv").exists()

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
        *(["exact", "--system", system, "--n", "3", "--r", "1/10", "--piecewise"]
          for system in ("rotation:1/3", "toral:2,1;1,1", "beta:golden")),
    ])
    def test_exact_paths_need_an_integer_circle_map(self, argv, tmp_path, capsys):
        set_out = ["--set-out", str(tmp_path / "set.txt")] if argv[0] == "exact" else []
        assert main(argv + set_out + ["--out", str(tmp_path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []

    # a rational beta-map composes either way; a negative circle map takes
    # the closed form without the flag and composes its branches with it
    @pytest.mark.parametrize("system, measure", [
        ("beta:5/2", "892/4875"), ("circle:-2", "1/5"), ("circle:-3", "1/5")])
    def test_exact_writes_the_same_set_with_or_without_the_flag(self, system, measure,
                                                                tmp_path, capsys):
        argv = ["exact", "--system", system, "--n", "3", "--r", "1/10"]
        assert main(argv + ["--set-out", str(tmp_path / "a.txt")]) == 0
        assert main(argv + ["--piecewise", "--set-out", str(tmp_path / "b.txt")]) == 0
        text = (tmp_path / "a.txt").read_bytes()
        assert text and text == (tmp_path / "b.txt").read_bytes()
        assert capsys.readouterr().out.count(f"E_3: measure={measure} ") == 2

    def test_ear_sigma_builds_no_arc_for_a_whole_circle(self, tmp_path, capsys):
        # r_m >= 1/2 up to m = 22 at sigma = 1, so no cover has an arc to build
        assert main(["ear", "--sigma", "1", "--n0", "4", "--M-horizon", "22",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "prop_ear_bound_check.json").read_bytes())
        assert {row["complement_measure"] for row in report["results"]["table"]} == {"0/1"}

    def test_exact_builds_arcs_only_for_set_out(self, tmp_path, capsys, monkeypatch):
        argv = ["exact", "--n", "23", "--r", "1/12"]
        assert main(argv) == 0
        assert "arcs=8388607" in capsys.readouterr().out
        out = tmp_path / "set.txt"
        assert main(argv + ["--set-out", str(out)]) == 1
        assert "budget 4194304" in capsys.readouterr().err
        assert not out.exists()

        def no_arcs(*args):
            raise AssertionError("arcs built")

        monkeypatch.setattr(exact_sets, "_en_scaled_arcs", no_arcs)
        assert main(["exact", "--n", "4", "--r", "1/10"]) == 0
        assert "arcs=15" in capsys.readouterr().out

    def test_exact_whole_circle_is_one_arc_against_the_budget(self, tmp_path, capsys):
        # 2r = 1 builds the one arc [0, 1), whatever 2^25 - 1 fixed points T^25 has
        out = tmp_path / "set.txt"
        assert main(["exact", "--system", "doubling", "--n", "25", "--r", "1/2",
                     "--set-out", str(out)]) == 0
        assert "arcs=1" in capsys.readouterr().out
        assert out.read_text() == "0/1,1/1\n"

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

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        argv = ["petrov", "--seq", "table:0,0,0", "--N", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads((tmp_path / "petrov.json").read_bytes(), parse_constant=reject)
        assert payload["profile"][0]["ratio"] is None

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

    @pytest.mark.parametrize("system,err", [
        ("piecewise:1/4,1/2,2,0;1/2,1,2,-1", ["config error: branch domains must start at 0"]),
        ("piecewise:0,1/2,2,0;1/2,3/4,2,-1", ["config error: branch domains must end at 1"]),
        ("piecewise:0,1/3,2,0;1/2,1,2,-1",
         ["config error: gap or overlap between branch ending at 1/3 "
          "and branch starting at 1/2"]),
        ("piecewise:0,1/2,2,0;1/3,1,2,-1",
         ["config error: gap or overlap between branch ending at 1/2 "
          "and branch starting at 1/3",
          "config error: branch on [1/3, 1) maps outside [0, 1]: image [-1/3, 1]"]),
        ("piecewise:0,1/2,3,0;1/2,1,2,-1",
         ["config error: branch on [0, 1/2) maps outside [0, 1]: image [0, 3/2]"]),
        ("piecewise:0,1/2,1,0;1/2,1,2,-1",
         ["error: branch on [0, 1/2) has slope 1; |slope| > 1 required"]),
        # a flat branch is listed with the spec's other problems
        ("piecewise:0,1/2,1,0;1/2,3/4,2,-1",
         ["config error: branch domains must end at 1",
          "config error: branch on [0, 1/2) has slope 1; |slope| > 1 required"]),
        ("toral:1,2;2,4", ["config error: matrix must be invertible (det != 0)"]),
        ("toral:1,2,3;4,5,6", ["config error: matrix must be square and non-empty"]),
        ("beta:1", ["error: beta must exceed 1, got 1"]),
        *((f"circle:{a}", [f"error: multiplier must satisfy |a| >= 2, got {a}"])
          for a in (1, 0, -1)),
        ("rotation:sqrt0", ["error: sqrt argument must be positive, got 0"]),
    ])
    def test_invalid_systems_are_refused(self, system, err, tmp_path, capsys):
        code = main(["rio", "--system", system, "--seq", "powerlaw:1,2", "--k", "1",
                     "--N", "10", "--M", "100", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == err
        assert not list(tmp_path.iterdir())


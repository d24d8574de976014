import csv
import json

import numpy as np
import pytest

from qdisk import (ToeplitzElement, apply_D, apply_Dbar, apply_Q, apply_Qbar,
                   integration_by_parts_residual, norm_bound_check, norm_fourier,
                   parametrix, quantum_disk_weights, random_element)
from qdisk import cli
from qdisk.cli import build_parser, main


def run(args):
    return main(args)


class TestVerifyWeights:
    def test_canonical_weights_pass(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify-weights", "--mu", "1.0", "--scale", "2",
                    "--kmax", "10000", "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert {c["check"] for c in report["checks"]} >= {
            "positivity", "inverse-weight-summable",
            "normalized-difference-limit"}

    def test_commutator_scale_fails_third_condition(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify-weights", "--mu", "1.0", "--scale", "1",
                    "--kmax", "10000", "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        cond3 = [c for c in report["checks"]
                 if c["check"] == "normalized-difference-limit"][0]
        seq = cond3["observed"]["A_times_B_increment"]
        assert abs(seq[-1] - 0.5) < 0.01

    def test_out_of_range_mu_is_usage_error(self, capsys):
        assert run(["verify-weights", "--mu", "2.0"]) == 2


class TestIndexSweep:
    def test_both_variants(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["index-sweep", "--variant", "both", "--nmin", "-6",
                    "--nmax", "6", "--mu", "1.0", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 26
        for row in rows:
            assert int(row["index_numeric"]) == int(row["N"]) + 1
            assert row["index_numeric"] == row["index_analytic"]

    def test_single_cutoff(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["index-sweep", "--variant", "nc", "--nmin", "-1",
                    "--nmax", "-1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["index_numeric"] == "0"

    def test_tiny_truncation_is_conditioning_failure(self, tmp_path):
        assert run(["index-sweep", "--variant", "nc", "--kmax", "16",
                    "--nmin", "0", "--nmax", "0",
                    "--out", str(tmp_path / "x.csv")]) == 3


class TestParametrixCheck:
    def test_suite_passes(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["parametrix-check", "--trials", "25", "--seed", "42",
                    "--tol", "1e-10", "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True

    def test_unreachable_tolerance_dumps_instance(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["parametrix-check", "--trials", "5", "--seed", "1",
                    "--tol", "1e-16", "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        worst = [c for c in report["checks"] if c["check"] == "worst-instance"]
        assert worst and worst[0]["observed"]["element"]["modes"]

    def test_worst_instance_replays_the_residual(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["parametrix-check", "--trials", "5", "--seed", "1",
                    "--kmax", "128", "--tol", "1e-16", "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        first = report["checks"][0]["observed"]
        worst = [c for c in report["checks"] if c["check"] == "worst-instance"][0]
        assert worst["observed"]["trial"] == first["worst_trial"]
        b = ToeplitzElement.from_json_dict(worst["observed"]["element"])
        w = quantum_disk_weights(1.0, 2.0)
        nb = norm_fourier(b, w)
        residual = max(norm_fourier(apply_D(apply_Q(b, w), w) - b, w) / nb,
                       norm_fourier(apply_Dbar(apply_Qbar(b, w), w) - b, w) / nb)
        assert residual == first["worst_residual"]

    def test_q_applied_once_per_trial(self, tmp_path, monkeypatch):
        """Counted inside the parametrix module, so that every route to Q
        (the residual and the norm bound) is seen: 5 trials, 5 calls."""
        shifts = []
        solve = parametrix._solve
        monkeypatch.setattr(parametrix, "_solve",
                            lambda b, w, shift, tol: shifts.append(shift)
                            or solve(b, w, shift, tol))
        assert run(["parametrix-check", "--trials", "5", "--kmax", "64",
                    "--json", str(tmp_path / "p.json")]) == 0
        assert shifts.count(+1) == 5

    def test_worst_ratio_is_the_largest_norm_bound_ratio(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["parametrix-check", "--trials", "6", "--seed", "4",
                    "--kmax", "128", "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        rng = np.random.default_rng(4)
        w = quantum_disk_weights(1.0, 2.0)
        ratios = [norm_bound_check(random_element(rng, 128, -6, 6, k_support=64),
                                   w)["norm-bound"].observed["ratio"]
                  for _ in range(6)]
        assert report["checks"][1]["observed"]["worst_ratio"] == max(ratios)

    def test_passing_run_serialises_no_element(self, tmp_path, monkeypatch):
        calls = []
        original = ToeplitzElement.to_json_dict
        monkeypatch.setattr(ToeplitzElement, "to_json_dict",
                            lambda self: calls.append(self) or original(self))
        assert run(["parametrix-check", "--trials", "5", "--kmax", "64",
                    "--json", str(tmp_path / "p.json")]) == 0
        assert run(["ibp-check", "--trials", "5", "--kmax", "64",
                    "--json", str(tmp_path / "i.json")]) == 0
        assert calls == []

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["parametrix-check", "--trials", "10", "--seed", "7",
             "--json", str(a)])
        run(["parametrix-check", "--trials", "10", "--seed", "7",
             "--json", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestIbpCheck:
    def test_suite_passes(self, tmp_path):
        out = tmp_path / "i.json"
        assert run(["ibp-check", "--trials", "10", "--seed", "3",
                    "--kmax", "512", "--tol", "1e-6",
                    "--json", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_worst_instance_replays_the_residual(self, tmp_path):
        out = tmp_path / "i.json"
        assert run(["ibp-check", "--trials", "4", "--seed", "3", "--kmax", "128",
                    "--tol", "0", "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        first = report["checks"][0]["observed"]
        worst = [c for c in report["checks"] if c["check"] == "worst-instance"][0]
        assert set(worst["observed"]) == {"a", "b", "trial"}
        assert worst["observed"]["trial"] == first["worst_trial"]
        a, b = (ToeplitzElement.from_json_dict(worst["observed"][name])
                for name in ("a", "b"))
        w = quantum_disk_weights(1.0, 2.0)
        assert integration_by_parts_residual(a, b, w) == first["worst_residual"]


class TestSuiteLoop:
    def test_nan_residual_fails_the_suite(self, tmp_path, monkeypatch):
        """A NaN residual is the worst trial (the first NaN, if several),
        not a trial that never compares above the running maximum."""
        residuals = iter([1e-12, float("nan"), 2e-12, float("nan")])
        monkeypatch.setattr(cli, "integration_by_parts_residual",
                            lambda a, b, w: next(residuals))
        out = tmp_path / "i.json"
        assert run(["ibp-check", "--trials", "4", "--kmax", "16",
                    "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert report["checks"][0]["observed"]["worst_trial"] == 1
        assert report["checks"][-1]["observed"]["trial"] == 1


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_bad_flag_value(self):
        assert run(["index-sweep", "--variant", "quantum"]) == 2

    @pytest.mark.parametrize("argv", [
        ["parametrix-check", "--trials", "0"],
        ["parametrix-check", "--trials", "-3"],
        ["ibp-check", "--trials", "0"],
        ["parametrix-check", "--kmax", "0"],
        ["parametrix-check", "--kmax", "1"],
        ["index-sweep", "--nmin", "3", "--nmax", "1"],
        ["index-sweep", "--variant", "classical", "--mu", "0"],
        ["index-sweep", "--variant", "classical", "--scale", "0"],
        ["ibp-check", "--trials", "1", "--scale", "-1"],
        ["parametrix-check", "--trials", "1", "--mu", "1.5"],
        ["index-sweep", "--variant", "classical", "--grid", "0"],
        ["index-sweep", "--variant", "classical", "--grid", "1"],
        ["index-sweep", "--variant", "classical", "--grid", "-5"],
        ["verify-weights", "--kmax", "8"],
    ])
    def test_bad_arguments_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        flag = "--out" if argv[0] == "index-sweep" else "--json"
        assert run([*argv, flag, str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "usage error" in err
        if "--grid" in argv:
            assert "--grid" in err

    def test_shared_flags_keep_per_command_defaults(self):
        parser = build_parser()
        expected = {
            "verify-weights": {"mu": 1.0, "scale": 2.0, "kmax": 10000, "tol": 1e-3,
                               "json": None},
            "index-sweep": {"mu": None, "scale": 2.0, "kmax": 512, "grid": 2048},
            "parametrix-check": {"trials": 100, "seed": 0, "mu": 1.0, "scale": 2.0,
                                 "kmax": 512, "tol": 1e-10, "json": None},
            "ibp-check": {"trials": 50, "seed": 0, "mu": 1.0, "scale": 2.0,
                          "kmax": 512, "tol": 1e-6, "json": None},
        }
        for command, defaults in expected.items():
            args = vars(parser.parse_args([command]))
            assert {k: args[k] for k in defaults} == defaults, command


class TestInternalErrors:
    @pytest.mark.parametrize("argv, target", [
        (["parametrix-check", "--trials", "2", "--kmax", "64"], "apply_Q"),
        (["ibp-check", "--trials", "2", "--kmax", "64"], "integration_by_parts_residual"),
        (["index-sweep", "--nmin", "0", "--nmax", "0"], "index_numeric"),
    ])
    def test_library_value_error_is_not_a_usage_error(self, argv, target,
                                                     monkeypatch, capsys):
        """A ValueError raised inside the library, past the argument checks,
        is an internal fault: exit 1 with an internal-error message."""
        def broken(*args, **kwargs):
            raise ValueError("inconsistent band lengths")

        monkeypatch.setattr(cli, target, broken)
        code = run(argv)
        assert code != 2
        assert code == 1
        err = capsys.readouterr().err
        assert "internal error: inconsistent band lengths" in err
        assert "usage error" not in err

import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import hlab.cli
import hlab.verify
from hlab.cli import run
from hlab.integrate import Estimate, Method, QuadratureError


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    with resources.files("hlab").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


SCHEMA = load_schema()
# 32 exponents 3.9999999999999996, the last float below Q = 4 at n = 1
NEAR_Q_32 = ",".join(["3.9999999999999996"] * 32)


class TestConstantsCommand:
    def test_hardy_m2_json(self, capsys):
        code, out, _ = run_capture(
            [
                "constants",
                "--operator",
                "hardy",
                "--n",
                "1",
                "--m",
                "2",
                "--alphas",
                "1,1",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["closed_form"], 0.5235987755982988, rel_tol=1e-12)
        jsonschema.validate(doc, SCHEMA)

    def test_validation_names_offending_alpha(self, capsys):
        code, _, err = run_capture(
            ["constants", "--n", "1", "--m", "1", "--alphas", "5"], capsys
        )
        assert code == 2
        assert err.count("\n") == 1
        assert "--alphas" in err and "alpha_1" in err and "(0, 4)" in err

    def test_alphas_arity_check(self, capsys):
        code, _, err = run_capture(
            ["constants", "--n", "1", "--m", "2", "--alphas", "1"], capsys
        )
        assert code == 2
        assert err == "hlab constants: --alphas: must list exactly m=2 exponents, got 1\n"

    def test_malformed_list_names_flag(self, capsys):
        code, _, err = run_capture(
            ["constants", "--n", "1", "--m", "2", "--alphas", "1,x"], capsys
        )
        assert code == 2
        assert "--alphas" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run_capture(["constants", "--frobnicate", "1"], capsys)
        assert code == 2
        assert "--frobnicate" in err


class TestVerifyCommand:
    def test_hilbert_pass(self, capsys):
        code, out, _ = run_capture(
            [
                "verify",
                "--operator",
                "hilbert",
                "--n",
                "1",
                "--m",
                "1",
                "--alphas",
                "2",
                "--samples",
                "100000",
                "--seed",
                "42",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert math.isclose(doc["closed_form"], math.pi**3 / 2, rel_tol=1e-13)
        jsonschema.validate(doc, SCHEMA)

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run_capture(
            [
                "verify",
                "--operator",
                "hilbert",
                "--n",
                "1",
                "--m",
                "1",
                "--alphas",
                "2",
                "--samples",
                "50000",
                "--seed",
                "1",
                "--tol",
                "1e-30",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_inconclusive_oracle_exits_1(self, capsys):
        argv = ["verify", "--operator", "hlp", "--n", "4", "--m", "1", "--alphas", "1"]
        code, out, _ = run_capture(argv + ["--samples", "2", "--seed", "0", "--format", "json"], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        mc = next(o for o in doc["oracles"] if o["method"] == "mc")
        assert abs(mc["sigma_distance"]) <= 3.0 and mc["resolution"] >= 2**1 - 1
        assert doc["pass"] is False
        assert doc["findings"][0]["verdict"] == "inconclusive"

    def test_byte_identical_reports(self, tmp_path, capsys):
        argv = [
            "verify",
            "--operator",
            "hardy",
            "--n",
            "1",
            "--m",
            "1",
            "--alphas",
            "1",
            "--samples",
            "131072",
            "--seed",
            "9",
            "--format",
            "json",
        ]
        docs = []
        for workers, name in (("1", "a.json"), ("8", "b.json"), ("1", "c.json")):
            path = tmp_path / name
            code = run(argv + ["--workers", workers, "--output", str(path)])
            assert code == 0
            doc = json.loads(path.read_text())
            doc.pop("metadata")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1] == docs[2]

    def test_convergence_csv(self, tmp_path, capsys):
        path = tmp_path / "conv.csv"
        code, _, _ = run_capture(
            [
                "verify",
                "--operator",
                "hardy",
                "--n",
                "3",
                "--m",
                "1",
                "--alphas",
                "1",
                "--samples",
                "131072",
                "--seed",
                "4",
                "--convergence",
                str(path),
            ],
            capsys,
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n_samples,estimate,std_error,closed_form"
        rows = list(csv.DictReader(lines))
        assert int(rows[-1]["n_samples"]) == 131072
        ses = [float(r["std_error"]) for r in rows]
        for a, b in zip(ses[:-1], ses[1:]):
            assert b <= 1.5 * a
        final = rows[-1]
        assert abs(float(final["estimate"]) - float(final["closed_form"])) <= 3 * float(
            final["std_error"]
        )

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HLAB_SEED", "77")
        code, out, _ = run_capture(
            [
                "verify",
                "--operator",
                "hardy",
                "--n",
                "1",
                "--m",
                "1",
                "--alphas",
                "1",
                "--samples",
                "50000",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["seed"] == 77

    def test_convergence_last_row_is_the_report(self, tmp_path, capsys):
        path = tmp_path / "conv.csv"
        code, out, _ = run_capture(
            [
                "verify",
                "--samples",
                "200000",
                "--seed",
                "0",
                "--convergence",
                str(path),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        mc = next(o for o in json.loads(out)["oracles"] if o["method"] == "mc")
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert [int(r["n_samples"]) for r in rows] == [65536, 131072, 200000]
        assert float(rows[-1]["estimate"]) == mc["value"]
        assert float(rows[-1]["std_error"]) == mc["std_error"]

    def test_convergence_runs_the_oracle_once(self, tmp_path, capsys, monkeypatch):
        passes = []
        partials = hlab.verify.mc_chunk_partials

        def counted(*args, **kwargs):
            passes.append(args[1])
            return partials(*args, **kwargs)

        monkeypatch.setattr(hlab.verify, "mc_chunk_partials", counted)
        argv = ["verify", "--samples", "100000", "--seed", "3", "--format", "json"]
        code, _, _ = run_capture(argv + ["--convergence", str(tmp_path / "conv.csv")], capsys)
        assert code == 0
        assert passes == [100000]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kind", ["hardy", "hlp", "hilbert"])
    def test_m3_quadrature_oracle(self, kind, n, capsys):
        argv = ["verify", "--operator", kind, "--n", str(n), "--m", "3", "--alphas", "1,1,1"]
        argv += ["--samples", "100000", "--seed", "0", "--format", "json"]
        code, out, _ = run_capture(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        quad = next(o for o in doc["oracles"] if o["method"] == "quad")
        assert quad["rel_err"] <= doc["findings"][0]["tol"]

    def test_oracle_that_kept_no_sample_is_inconclusive_strict_json(self, capsys):
        # every averaging-oracle tuple at n = 6, m = 3 falls outside the tuple ball
        argv = ["verify", "--operator", "hardy", "--n", "6", "--m", "3", "--alphas", "1,1,1"]
        argv += ["--samples", "200000", "--seed", "0", "--format", "json"]
        code, out, _ = run_capture(argv, capsys)
        assert code == 1

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        jsonschema.validate(doc, SCHEMA)
        mc = next(o for o in doc["oracles"] if o["method"] == "mc")
        assert mc["sigma_distance"] is None and mc["resolution"] is None
        quad = next(o for o in doc["oracles"] if o["method"] == "quad")
        assert quad["rel_err"] <= doc["findings"][0]["tol"]
        assert doc["pass"] is False
        assert doc["findings"][0]["verdict"] == "inconclusive"

    def test_oracle_whose_squares_underflow_is_inconclusive_strict_json(self, capsys):
        # every square of the hlp oracle's values at n = 40, m = 6 underflows
        argv = ["verify", "--operator", "hlp", "--n", "40", "--m", "6", "--alphas", "1,1,1,1,1,1"]
        argv += ["--samples", "20000", "--format", "json"]
        code, out, _ = run_capture(argv, capsys)
        assert code == 1

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        jsonschema.validate(doc, SCHEMA)
        mc = next(o for o in doc["oracles"] if o["method"] == "mc")
        assert mc["std_error"] == 0.0
        assert mc["sigma_distance"] is None and mc["resolution"] is None
        assert doc["pass"] is False
        assert doc["findings"][0]["verdict"] == "inconclusive"


class TestInputErrors:
    def test_malformed_seed_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HLAB_SEED", "abc")
        code, _, err = run_capture(["verify", "--samples", "1000", "--format", "json"], capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert "HLAB_SEED" in err and "'abc'" in err

    def test_workers_below_one(self, capsys):
        code, _, err = run_capture(["verify", "--samples", "1000", "--workers", "0"], capsys)
        assert code == 2
        assert "--workers" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--workers", "33"], "--workers"),
            (["geometry", "--n", "32"], "--n"),
            (["geometry", "--n", "512"], "--n"),
            (["discrepancies", "--n-values", "1,512"], "--n-values"),
            (["constants", "--m", "33"], "--m"),
            (["verify", "--m", "1000"], "--m"),
            (["search", "--trials", "10001"], "--trials"),
        ],
    )
    def test_bounded_work_flags(self, capsys, monkeypatch, argv, flag):
        # 33 worker threads, box coordinates past n = 31 (2^{2n+1}
        # overflows a float at n = 512), more than 32 factors or more than
        # 10^4 trials of about 0.5 s each fail at parse time: no spec is
        # built and no command runs
        def not_run(*args, **kwargs):
            raise AssertionError("the command ran")

        commands = ("verify_constant", "unit_ball_check", "discrepancy_report", "upper_bound_search")
        for name in (*commands, "AlphaProfile"):
            monkeypatch.setattr(hlab.cli, name, not_run)
        code, _, err = run_capture(argv + ["--samples", "2"], capsys)
        assert code == 2
        assert f"argument {flag}: must be" in err and argv[-1] in err

    def test_count_flags_take_their_bounds(self):
        parse = hlab.cli._parser().parse_args
        assert parse(["verify", "--m", "32"]).m == 32
        assert parse(["search", "--trials", "10000"]).trials == 10_000

    @pytest.mark.parametrize("m,limit", [(4, 7_500), (6, 5_000), (32, 937)])
    def test_trials_bound_falls_past_m_3(self, capsys, monkeypatch, m, limit):
        # a trial of hlp at m = 32 takes about 3 s: 10^4 of them fail at
        # parse time, before any trial runs
        def not_run(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("upper_bound_search", "AlphaProfile"):
            monkeypatch.setattr(hlab.cli, name, not_run)
        for trials in (limit + 1, 10_000):
            argv = ["search", "--operator", "hlp", "--m", str(m), "--trials", str(trials)]
            code, out, err = run_capture(argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith("usage: hlab search [-h]")
            assert f"argument --trials: must be from 1 to {limit:,} at --m {m}, got {trials}" in err
        parse = hlab.cli._parser().parse_args
        argv = ["search", "--operator", "hlp", "--m", str(m), "--trials", str(limit)]
        assert parse(argv).trials == limit

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_trials_bound_holds_to_m_3(self, m):
        parse = hlab.cli._parser().parse_args
        assert parse(["search", "--m", str(m), "--trials", "10000"]).trials == 10_000

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--operator", "hilbert", "--n", "1", "--m", "32", "--alphas", NEAR_Q_32],
            ["constants", "--operator", "hardy", "--n", "2500000000", "--m", "32"],
            ["verify", "--operator", "hardy", "--n", "2500000000", "--m", "32", "--samples", "2"],
        ],
    )
    def test_closed_form_past_the_float_range_exits_2(self, capsys, argv):
        # the closed form leaves the float range on the way (Gamma(1e-16)^32,
        # or Q^32 at Q = 5e9): a one-line error, no traceback
        code, out, err = run_capture(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "outside the normal floating-point range" in err

    def test_samples_out_of_range(self, capsys):
        for samples in ("1", "1000000000000"):
            start = time.perf_counter()
            code, _, err = run_capture(["verify", "--samples", samples], capsys)
            assert code == 2
            assert time.perf_counter() - start < 1.0
            assert "--samples" in err and "1,000,000,000" in err

    def test_samples_bound_in_help(self, capsys):
        code, out, _ = run_capture(["verify", "--help"], capsys)
        assert code == 0
        assert "1,000,000,000" in " ".join(out.split())

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["search", "--trials", "0"], "--trials"),
            (["search", "--trials", "-3"], "--trials"),
            (["extremal", "--tol", "inf"], "--tol"),
            (["verify", "--tol", "nan"], "--tol"),
            (["verify", "--tol=-1e-6"], "--tol"),
            (["extremal", "--gauges", ""], "--gauges"),
            (["extremal", "--gauges", "1,inf"], "--gauges"),
            (["extremal", "--gauges", "0,1"], "--gauges"),
            # gauges whose values leave the float range
            (["extremal", "--gauges", "1e300"], "--gauges"),
            (["extremal", "--gauges", "1e-300"], "--gauges"),
            (["extremal", "--m", "2", "--alphas", "2,2", "--gauges", "1,1e100"], "--gauges"),
            # flags that these commands would ignore
            (["constants", "--samples", "1000"], "--samples"),
            (["constants", "--tol", "0.1"], "--tol"),
            (["constants", "--workers", "2"], "--workers"),
            (["verify", "--convention", "paper"], "--convention"),
            (["extremal", "--samples", "10"], "--samples"),
            (["extremal", "--workers", "2"], "--workers"),
            (["search", "--samples", "10"], "--samples"),
            (["search", "--workers", "2"], "--workers"),
            (["geometry", "--tol", "0.1"], "--tol"),
            (["discrepancies", "--tol", "0.1"], "--tol"),
            (["discrepancies", "--convention", "paper"], "--convention"),
            (["constants", "--n", "0"], "--n"),
            (["constants", "--m", "0"], "--m"),
            (["discrepancies", "--n-values", "1,x"], "--n-values"),
            # extremal and search run on the quadrature engine, which stops at
            # m = 3 on every kind but hlp
            (["extremal", "--m", "4", "--alphas", "1,1,1,1"], "--m"),
            (["search", "--m", "4", "--alphas", "1,1,1,1"], "--m"),
            (["search", "--operator", "hilbert", "--m", "4", "--alphas", "1,1,1,1"], "--m"),
        ],
    )
    def test_vacuous_or_non_json_inputs_exit_2(self, capsys, argv, flag):
        # each would pass vacuously, be ignored or write a non-JSON number
        code, out, err = run_capture(argv + ["--format", "json"], capsys)
        assert code == 2
        assert out == ""
        assert flag in err and "Warning" not in err and "<lambda>" not in err
        # a parser error shows the command's own usage, whichever parser found it
        if err.startswith("usage:"):
            assert err.startswith(f"usage: hlab {argv[0]} [-h]")
            assert f"\nhlab {argv[0]}: error: " in err

    @pytest.mark.parametrize(
        "command", [["verify", "--samples", "100000"], ["extremal"], ["search", "--trials", "2"]]
    )
    def test_quadrature_underflow_exits_2(self, capsys, command):
        # hardy at n = 100,000: the quadrature's nodes all underflow, which
        # is a numerical failure, not a fail of the correct constant, nor a
        # search whose extremal tuple reads 0
        argv = command + ["--operator", "hardy", "--n", "100000", "--m", "1", "--alphas", "1"]
        code, out, err = run_capture(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"hlab {command[0]}: numerical failure: the hardy quadrature underflowed "
            "to 0 at n = 100000 after 15 evaluations\n"
        )

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError(
                "max_subdivisions=4096 exhausted (error 1.714e-08)",
                Estimate(0.25, 0.0, 15, Method.QUAD),
            )

        monkeypatch.setattr(hlab.cli, "upper_bound_search", fail)
        code, out, err = run_capture(["search", "--operator", "hilbert", "--trials", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("hlab search:") and "1.714e-08" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--operator", "hilbert", "--n", "1", "--m", "1", "--alphas", "3.999999"],
            ["verify", "--operator", "hlp", "--n", "1", "--m", "1", "--alphas", "3.999999"],
            ["extremal", "--operator", "hardy", "--n", "1", "--m", "2", "--alphas", "3.99,3.99"],
        ],
    )
    def test_integrand_past_the_float_range_exits_2_without_a_warning(self, capsys, argv):
        # the quadrature's exp overflows at the end of the range: that is the
        # QuadratureError, with its node as a plain float, and not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(argv, capsys)
        assert code == 2
        assert out == ""
        assert "numerical failure: non-finite integrand value at x=" in err
        assert "Warning" not in err and "np.float64" not in err

    @pytest.mark.parametrize("command", ["verify", "constants"])
    @pytest.mark.parametrize("n", [60, 100])
    def test_constant_below_the_normal_range_exits_2(self, capsys, command, n):
        # hlp at m = 6 is subnormal at n = 60 and underflows to 0 at n = 100
        argv = [command, "--operator", "hlp", "--n", str(n), "--m", "6"]
        code, out, err = run_capture(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"the hlp constant at n={n}, m=6, alphas=1.0,1.0,1.0,1.0,1.0,1.0 is" in err
        assert "outside the normal floating-point range" in err


class TestOtherCommands:
    def test_extremal(self, capsys):
        code, out, _ = run_capture(
            [
                "extremal",
                "--operator",
                "hlp",
                "--n",
                "1",
                "--m",
                "1",
                "--alphas",
                "1",
                "--seed",
                "2",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        # one point per gauge: the report records the gauges and no directions
        assert doc["findings"][0]["gauges"] == [0.5, 1.0, 2.0, 10.0]
        assert "directions" not in doc["findings"][0]
        jsonschema.validate(doc, SCHEMA)

    def test_extremal_past_three_on_hlp(self, capsys):
        # extremal takes m > 3 where the quadrature engine reaches it
        argv = ["extremal", "--operator", "hlp", "--n", "10", "--m", "6", "--format", "json"]
        code, out, _ = run_capture(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True and doc["oracles"][0]["n_samples"] <= 140_000
        jsonschema.validate(doc, SCHEMA)

    def test_extremal_takes_no_directions(self, capsys):
        code, _, err = run_capture(["extremal", "--directions", "5"], capsys)
        assert code == 2
        assert "--directions" in err

    def test_search(self, capsys):
        code, out, _ = run_capture(
            [
                "search",
                "--operator",
                "hardy",
                "--n",
                "1",
                "--m",
                "2",
                "--alphas",
                "1,1",
                "--trials",
                "5",
                "--seed",
                "3",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["findings"][0]["violations"] == 0
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize("tol_args,tol", [(["--tol", "0.01"], 0.01), ([], 1e-3)])
    def test_search_reports_its_tolerance(self, capsys, tol_args, tol):
        # as the verify and extremal findings do, given or the library's default
        argv = ["search", "--trials", "2", "--format", "json", *tol_args]
        code, out, _ = run_capture(argv, capsys)
        assert code == 0
        assert json.loads(out)["findings"][0]["tol"] == tol

    def test_geometry(self, capsys):
        code, out, _ = run_capture(
            ["geometry", "--n", "1", "--samples", "100000", "--seed", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["closed_form"], math.pi**2 / 2, rel_tol=1e-13)
        jsonschema.validate(doc, SCHEMA)

    def test_discrepancies(self, capsys):
        code, out, _ = run_capture(
            [
                "discrepancies",
                "--n-values",
                "1",
                "--samples",
                "100000",
                "--seed",
                "6",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        ids = [f["id"] for f in doc["findings"]]
        assert "unit-ball-volume-factor-2" in ids
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize(
        "argv",
        [
            ["geometry", "--n", "8", "--samples", "10000"],
            ["discrepancies", "--n-values", "12", "--samples", "1000"],
        ],
        ids=["geometry", "discrepancies"],
    )
    def test_volume_that_kept_no_sample_fails_strict_json(self, capsys, argv):
        # no sample of the bounding box falls in the unit ball at these n
        code, out, _ = run_capture(argv + ["--format", "json"], capsys)
        assert code == 1

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        jsonschema.validate(doc, SCHEMA)
        assert doc["pass"] is False
        if doc["command"] == "geometry":
            (oracle,) = doc["oracles"]
            assert oracle["value"] == 0.0 and oracle["sigma_distance"] is None
        else:
            vol = doc["findings"][0]
            assert vol["mc_volume"] == 0.0 and vol["pass"] is False
            for key in (
                "ratio_tabulated_over_mc",
                "sigma_mc_vs_geometric",
                "sigma_mc_vs_half_tabulated",
            ):
                assert vol[key] is None
        code, out, _ = run_capture(argv, capsys)
        assert code == 1 and out.endswith("pass: False\n")

    def test_discrepancies_workers_do_not_change_the_report(self, capsys, monkeypatch):
        report = hlab.cli.discrepancy_report
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs["workers"])
            return report(*args, **kwargs)

        monkeypatch.setattr(hlab.cli, "discrepancy_report", recording)
        argv = ["discrepancies", "--n-values", "1,2", "--samples", "200000", "--format", "json"]
        reports = []
        for workers in ("1", "2"):
            code, out, _ = run_capture(argv + ["--workers", workers], capsys)
            assert code == 0
            doc = json.loads(out)
            doc.pop("metadata")
            reports.append(json.dumps(doc, sort_keys=True))
        assert seen == [1, 2]
        assert reports[0] == reports[1]

    def test_text_and_csv_formats(self, capsys):
        code, out, _ = run_capture(
            ["constants", "--operator", "hlp", "--n", "1", "--m", "1", "--alphas", "1"],
            capsys,
        )
        assert code == 0 and "closed form" in out
        code, out, _ = run_capture(
            [
                "constants",
                "--operator",
                "hlp",
                "--n",
                "1",
                "--m",
                "1",
                "--alphas",
                "1",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"


class TestReportEnvelope:
    # one cheap invocation of each command
    FLAGS = {
        "constants": [],
        "verify": ["--samples", "1000"],
        "extremal": ["--gauges", "1"],
        "search": ["--trials", "1"],
        "geometry": ["--samples", "1000"],
        "discrepancies": ["--n-values", "1", "--samples", "1000"],
    }

    @pytest.mark.parametrize("command", SCHEMA["properties"]["command"]["enum"])
    def test_top_level_keys_are_the_schema_envelope(self, capsys, command):
        # one builder writes every report: a field written outside it shows here
        code, out, _ = run_capture([command, *self.FLAGS[command], "--format", "json"], capsys)
        assert code in (0, 1)
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        extra = ["details_text"] if command == "discrepancies" else []
        assert sorted(doc) == sorted(SCHEMA["required"] + extra)
        assert doc["command"] == command


class TestFlagTable:
    SPEC = {"--operator", "--n", "--m", "--alphas"}
    REPORT = {"--seed", "--format", "--output"}
    FLAGS = {
        "constants": SPEC | REPORT | {"--convention"},
        "verify": SPEC | REPORT | {"--samples", "--tol", "--workers", "--convergence"},
        "extremal": SPEC | REPORT | {"--convention", "--tol", "--gauges"},
        "search": SPEC | REPORT | {"--convention", "--tol", "--trials"},
        "geometry": REPORT | {"--n", "--convention", "--samples", "--workers"},
        "discrepancies": REPORT | {"--n-values", "--samples", "--workers"},
    }

    def test_each_command_takes_exactly_the_flags_it_reads(self):
        parser = hlab.cli._parser()
        (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
        assert set(commands) == set(self.FLAGS)
        for command, sub in commands.items():
            flags = {opt for action in sub._actions for opt in action.option_strings}
            assert flags - {"-h", "--help"} == self.FLAGS[command], command
        assert sum(map(len, self.FLAGS.values())) == 52


class TestParserBuiltOnce:
    """``run`` builds its parser once per process: a second call in the same
    process must see nothing of the first."""

    CALLS = (
        ["verify", "--operator", "hilbert", "--n", "1", "--m", "2", "--alphas", "1,1",
         "--samples", "20000", "--seed", "4", "--tol", "0.05", "--workers", "2"],
        ["verify", "--operator", "hlp", "--n", "2", "--m", "1", "--alphas", "2",
         "--samples", "30000", "--seed", "5"],
    )

    @staticmethod
    def fresh_process(argv, tmp_path):
        # the checkout's sources, as this process imports them
        src = str(Path(hlab.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "hlab.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def without_metadata(text):
        doc = json.loads(text)
        doc.pop("metadata")
        return doc

    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        argvs = [argv + ["--format", "json"] for argv in self.CALLS]
        fresh = [self.fresh_process(argv, tmp_path) for argv in argvs]
        assert [code for code, _ in fresh] == [0, 0]
        for argv, (code, out) in zip(argvs, fresh):
            got_code, got, _ = run_capture(argv, capsys)
            assert got_code == code
            assert self.without_metadata(got) == self.without_metadata(out)

    def test_help_text_unchanged_by_earlier_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        _, fresh = self.fresh_process(["--help"], tmp_path)
        run_capture(self.CALLS[1] + ["--format", "json"], capsys)
        for _ in range(2):
            code, out, _ = run_capture(["--help"], capsys)
            assert code == 0
            assert out == fresh

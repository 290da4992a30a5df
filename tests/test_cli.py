import json
import math
import os
import pathlib
import pkgutil
import runpy
import subprocess
import sys

import pytest

import varbesov
from varbesov import _kernels, cli, commutator
from varbesov.cli import (ConfigError, DEFAULT_CONFIG, emit, emit_plot_data,
                          main, run, validate_config)
from varbesov.reports import graded_report

SMALL = {
    "grid": {"dim": 1, "points_per_axis": 1024, "half_width": 16.0},
    "levels": 6,
    "seed": 4242,
    "trials": 1,
}


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
BENCH = runpy.run_path(str(PERFBENCH / "workloads.py"))


def _python(*args, **env):
    """Run a fresh interpreter that imports the package from this tree."""
    src = os.path.dirname(os.path.dirname(varbesov.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def small_report():
    return run(dict(SMALL))


class TestValidation:
    def test_default_passes(self):
        cfg = validate_config({})
        assert cfg["suites"] == list(DEFAULT_CONFIG["suites"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            validate_config({"bogus": 1})

    def test_unknown_suite_names_field(self):
        with pytest.raises(ConfigError, match="suites.nope"):
            validate_config({"suites": ["nope"]})

    def test_malformed_family_names_field(self):
        with pytest.raises(ConfigError, match="exponents.p.family"):
            validate_config({"exponents": {"p": {"family": "xyz"}}})

    def test_non_power_of_two_grid(self):
        with pytest.raises(ConfigError, match="points_per_axis"):
            validate_config({"grid": {"points_per_axis": 1000}})

    def test_levels_vs_nyquist(self):
        with pytest.raises(ConfigError, match="levels"):
            validate_config({"grid": {"points_per_axis": 256}, "levels": 8})


class TestRun:
    def test_empty_suite_selection(self):
        report = run({**SMALL, "suites": []})
        assert report.records == []
        assert not report.failed

    def test_small_run_all_pass(self, small_report):
        assert [r.check_id for r in small_report.records]
        assert not small_report.failed

    def test_every_gate_is_pinned(self, small_report):
        # each record's gate is a code constant (or a closed form of the
        # grid and exponents); a change to any of them shows in this table
        assert [(r.check_id, r.bound, r.tolerance)
                for r in small_report.records] == [
            ("lebesgue.two_level_gauge", 0.0, 1e-08),
            ("lebesgue.constant_reduction_p1.0", 0.0, 1e-06),
            ("lebesgue.constant_reduction_p1.5", 0.0, 1e-06),
            ("lebesgue.constant_reduction_p2.0", 0.0, 1e-06),
            ("lebesgue.constant_reduction_p3.0", 0.0, 1e-06),
            ("lebesgue.constant_reduction_pinf", 0.0, 1e-06),
            ("lebesgue.unit_ball_equivalence", 0.0, 0.0),
            ("mixed.constant_reduction", 0.0, 1e-07),
            ("mixed.q_infinity_shortcut", 0.0, 1e-07),
            ("mixed.monotone_limit", 0.0, 1e-06),
            ("mixed.holder", 8.0, 1e-06),
            ("duality.beta_sum", 0.0, 1e-05),
            ("duality.witness_feasible", 1.0, 0.0001),
            ("duality.witness_pairing", 0.0, 0.0),
            ("duality.upper_bound", 8.0, 1e-09),
            ("duality.norm_conjugate", 2.0, 1e-06),
            ("lp.partition_of_unity", 0.0, 1e-12),
            ("lp.reconstruction", 0.0, 1e-10),
            ("lp.single_block_identity", 0.0, 1e-07),
            ("lp.eta_shift", 2.0, 0.0),
            ("lp.eta_convolution", 4.41439641848, 1e-06),
            ("lp.mixed_eta", 4.41439641848, 1e-06),
            ("hardy.a0.25_q1.5", 2.59182298813, 1e-06),
            ("hardy.a0.25_q2.0", 2.13665919843, 1e-06),
            ("hardy.a0.25_q4.0", 1.64932722129, 1e-06),
            ("hardy.a0.5_q1.5", 6.0303824751, 1e-06),
            ("hardy.a0.5_q2.0", 4.44653262759, 1e-06),
            ("hardy.a0.5_q4.0", 2.90859433443, 1e-06),
            ("hardy.a0.75_q1.5", 21.5343091525, 1e-06),
            ("hardy.a0.75_q2.0", 13.7289855289, 1e-06),
            ("hardy.a0.75_q4.0", 7.22384346753, 1e-06),
            ("commutator.theorem1_ratio_finite", 0.0, 0.0),
            ("commutator.theorem2_ratio_finite", 0.0, 0.0),
            ("commutator.theorem3_ratio_finite", 0.0, 0.0),
        ]

    def test_every_verdict_follows_the_grading_rule(self, small_report):
        # a record passes exactly when its printed measured value is at most
        # bound + tolerance; the two small boxes fail a gate of
        # lp.eta_convolution, and the record shows that gate
        reports = [small_report] + [run(config) for config in (
            {"grid": {"points_per_axis": 128, "half_width": 0.5}, "levels": 5,
             "suites": ["littlewood_paley"]},
            {"grid": {"points_per_axis": 1024, "half_width": 0.001},
             "levels": 6, "trials": 1})]
        for report in reports:
            for r in report.records:
                if r.status != "trivial":
                    assert (r.status == "pass") == (
                        float(r.measured) <= r.bound + r.tolerance), r
        assert [(r.check_id, r.measured, r.bound, r.tolerance)
                for rep in reports[1:] for r in rep.failed] == [
            ("lp.eta_convolution", 4.27287233295, 4.0, 0.0),
            ("lp.eta_convolution", 58.5704812486, 4.0, 0.0)]

    def test_every_selected_check_appears_once(self, small_report):
        ids = [r.check_id for r in small_report.records]
        assert len(ids) == len(set(ids))

    def test_littlewood_paley_sweeps_each_field_once(self, monkeypatch):
        # one local log-Holder sweep for alpha (the eta shift check); the
        # mixed eta check sweeps 1/q only when the bound on its constant
        # cannot decide the guard m > n + c_loc(1/q): the default q's bound
        # is 0.95 < 2, cos_bump(1, 9)'s is 3.19
        sweeps = []
        sweep = _kernels.log_holder_max

        def counted(*args):
            sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(_kernels, "log_holder_max", counted)
        wide_q = {"q": {"family": "cos_bump", "params": {"a": 1.0, "b": 9.0}}}
        for exponents, count in (({}, 1), (wide_q, 2)):
            sweeps.clear()
            report = run(dict(SMALL, suites=["littlewood_paley"],
                              exponents=exponents))
            assert len(sweeps) == count
            assert not report.failed

    def test_two_level_gauge_on_nodes_off_the_unit_pieces(self):
        # h = 10/1024: [0, 1) and [1, 2) hold 103 and 102 nodes, so their
        # quadrature measures are not 1 and the gauge is not the golden ratio
        report = run({"grid": {"dim": 1, "points_per_axis": 1024,
                               "half_width": 5.0},
                      "suites": ["lebesgue"]})
        gauge = next(r for r in report.records
                     if r.check_id == "lebesgue.two_level_gauge")
        assert gauge.status == "pass"
        assert gauge.measured <= 1e-8

    def test_hardy_builds_one_sequence_per_trial(self, monkeypatch):
        from varbesov import cli

        keys = []
        build = cli.band_limited_sequence

        def counted(grid, levels, kmax, seed, **kwargs):
            keys.append(list(seed))
            return build(grid, levels, kmax, seed, **kwargs)

        monkeypatch.setattr(cli, "band_limited_sequence", counted)
        report = run(dict(SMALL, trials=2, suites=["hardy"]))
        assert keys == [[SMALL["seed"], 10, 0], [SMALL["seed"], 10, 1]]
        assert [r.check_id for r in report.records] == [
            f"hardy.a{a}_q{q0}" for a in (0.25, 0.5, 0.75) for q0 in (1.5, 2.0, 4.0)]

    def test_hardy_forms_one_transform_pair_per_a(self, monkeypatch):
        # per trial: one pair for each of the 3 values of a, shared by the
        # 3 values of q0
        from varbesov import littlewood_paley

        calls = []
        transform = littlewood_paley.hardy_transform

        def counted(gs, a):
            calls.append(a)
            return transform(gs, a)

        monkeypatch.setattr(littlewood_paley, "hardy_transform", counted)
        run(dict(SMALL, trials=2, suites=["hardy"]))
        assert calls == [0.25, 0.5, 0.75] * 2

    def test_hardy_solves_one_base_norm_per_q(self, monkeypatch):
        # per trial: 3 base norms (one per q0) and 2 transform norms for each
        # of the 9 (a, q0) cases
        from varbesov import cli, littlewood_paley

        calls = []

        def counting(module):
            solve = module.mixed_norm

            def counted(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)

            monkeypatch.setattr(module, "mixed_norm", counted)

        counting(cli)
        counting(littlewood_paley)
        run(dict(SMALL, trials=2, suites=["hardy"]))
        assert len(calls) == 2 * 21

    def test_q_infinity_shortcut_fails_on_a_sum_of_level_norms(self, monkeypatch):
        # the record referees mixed_norm at q = inf with the closed-form
        # largest level norm: a q = inf branch that summed the level norms
        # instead fails it
        import numpy as np

        from varbesov import cli

        solve = cli.mixed_norm

        def summed(fs, p, q):
            if np.all(np.isinf(q.values)):
                return sum(cli.luxemburg_norm(f, p) for f in fs)
            return solve(fs, p, q)

        def shortcut():
            report = run(dict(SMALL, suites=["mixed"]))
            return next(r for r in report.records
                        if r.check_id == "mixed.q_infinity_shortcut")

        assert shortcut().status == "pass"
        monkeypatch.setattr(cli, "mixed_norm", summed)
        assert shortcut().status == "fail"

    def test_environment_has_no_timestamps(self, small_report):
        assert set(small_report.environment) == {
            "package_version", "backend", "numpy_version", "python_version"}

    @pytest.mark.parametrize("value", ["numba", "bogus"])
    def test_backend_is_not_an_environment_option(self, value):
        # the kernels have one backend, so no environment value selects one
        code = (f"import varbesov.cli as c; "
                f"r = c.run({dict(SMALL, suites=['lebesgue'])!r}); "
                f"print(r.environment['backend'], r.failed)")
        out = _python("-c", code, VARBESOV_BACKEND=value)
        assert out.returncode == 0
        assert out.stdout.split() == ["numpy", "[]"]

    def test_two_dimensional_config(self):
        report = run({
            "grid": {"dim": 2, "points_per_axis": 128, "half_width": 8.0},
            "levels": 5,
            "seed": 7,
            "trials": 1,
            "suites": ["lebesgue", "littlewood_paley", "hardy"],
        })
        assert not report.failed


@pytest.mark.parametrize("workload", sorted(BENCH["WORKLOADS"]))
def test_records_match_the_benchmark_reference(workload):
    # the benchmark judges each record by its id and status against the
    # committed reference record at the same position
    doc = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    for suite, want in doc["suites"].items():
        report = run(BENCH["suite_config"](workload, doc["seed"], suite))
        assert [(r.check_id, r.status) for r in report.records] == [
            (w["id"], w["status"]) for w in want], suite


class TestEmit:
    def test_json_round_trip(self, small_report):
        doc = json.loads(emit(small_report, "json"))
        assert [(r["id"], r["status"], r["measured"], r["bound"],
                 r["tolerance"]) for r in doc["records"]] == [
            (r.check_id, r.status, r.measured, r.bound, r.tolerance)
            for r in small_report.records]
        assert doc["config"] == small_report.config
        assert doc["environment"] == small_report.environment

    def test_empty_report_valid(self):
        report = run({**SMALL, "suites": []})
        doc = json.loads(emit(report, "json"))
        assert doc["records"] == []

    def test_csv_row_count(self, small_report):
        rows = emit(small_report, "csv").decode().strip().split("\n")
        assert len(rows) == len(small_report.records) + 1
        assert rows[0] == "id,status,measured,bound,tolerance"

    def test_unknown_format(self, small_report):
        with pytest.raises(ValueError):
            emit(small_report, "yaml")

    def test_determinism_byte_identical(self):
        a = emit(run(dict(SMALL)), "json")
        b = emit(run(dict(SMALL)), "json")
        assert a == b

    def test_plot_data_rows(self, small_report):
        rows = emit_plot_data(small_report).decode().strip().split("\n")
        assert rows[0] == "check_id,level,value"
        assert len(rows) > 1


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "suites": ["lebesgue"]}))
        out = tmp_path / "report.json"
        code = main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(r["status"] != "fail" for r in doc["records"])

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["bogus"]}))
        code = main(["--config", str(cfg_path)])
        assert code == 2
        assert "suites.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", [
        ({"grid": {"half_width": "a"}}, "grid.half_width"),
        ({"grid": {"half_width": True}}, "grid.half_width"),
        ({"grid": {"half_width": float("inf")}}, "grid.half_width"),
        ({"exponents": {"p": {"family": "constant", "params": {"value": "abc"}}}},
         "exponents.p.params.value"),
        ({"exponents": {"q": {"family": "cos_bump",
                              "params": {"a": 1.5, "b": float("nan")}}}},
         "exponents.q.params.b"),
        ({"exponents": {"p": {"family": "constant", "params": {"value": 0.5}}},
          "suites": ["lebesgue", "mixed"]}, "exponents.p"),
        ({"exponents": {"q": {"family": "two_level", "params": {
            "inner": 2.0, "outer": 0.9, "radius": 4.0}}},
          "suites": ["mixed"]}, "exponents.q"),
        ({"exponents": {"p1": {"family": "constant", "params": {"value": 0.5}}},
          "suites": ["commutator"]}, "exponents.p1"),
        ({"exponents": {"p2": {"family": "constant", "params": {"value": 0.0}}},
          "suites": ["commutator"]}, "exponents.p2"),
        ({"exponents": {"s": {"family": "constant",
                              "params": {"value": float("inf")}}},
          "suites": ["littlewood_paley"]}, "exponents.s"),
        # Theorem 1 needs positive smoothness
        ({"exponents": {"s": {"family": "constant", "params": {"value": 0.0}}},
          "suites": ["commutator"]},
         "exponents.s: must be positive for the commutator suite"),
        ({"exponents": {"s": {"family": "constant", "params": {"value": -0.5}}},
          "suites": ["commutator"]},
         "exponents.s: must be positive for the commutator suite"),
        # 1/p1 + 1/p2 = 2: the product's exponent would be 1/2
        ({"exponents": {"p1": {"family": "constant", "params": {"value": 1.0}},
                        "p2": {"family": "constant", "params": {"value": 1.0}}},
          "suites": ["commutator"]}, "exponents.p1, exponents.p2"),
        # JSON booleans are not integers, nor numbers
        ({"levels": False}, "levels"),
        ({"seed": True}, "seed"),
        ({"trials": True}, "trials"),
        ({"grid": {"dim": True}}, "grid.dim"),
        ({"grid": {"points_per_axis": True}}, "grid.points_per_axis"),
        # gates are fixed in code; no configuration key sets a tolerance
        ({"tolerances": {"mixed": 1e-7}},
         "tolerances: unknown configuration key"),
        # the duality witness needs finite exponents
        ({"exponents": {"p": {"family": "two_level", "params": {
            "inner": 2.0, "outer": float("inf"), "radius": 3.0}}},
          "suites": ["duality"]}, "exponents.p"),
        ({"exponents": {"q": {"family": "constant",
                              "params": {"value": float("inf")}}},
          "suites": ["duality"]}, "exponents.q"),
        ({"exponents": {"q": {"family": "two_level", "params": {
            "inner": 2.0, "outer": float("inf"), "radius": 3.0}}},
          "suites": ["duality"]}, "exponents.q"),
        # the input band's ceiling min(2^levels, points_per_axis / 4) is
        # below the 20 modes the generator needs: name the binding cap
        ({"grid": {"points_per_axis": 4096}, "levels": 4, "suites": ["mixed"]},
         "levels: too few modes"),
        ({"grid": {"points_per_axis": 64}, "levels": 4, "suites": ["mixed"]},
         "grid.points_per_axis: too few modes"),
        # a box so wide for its nodes that no eta-kernel level is resolvable
        ({"grid": {"points_per_axis": 128, "half_width": 200.0}, "levels": 5,
          "suites": ["littlewood_paley"]}, "grid.half_width: resolves no"),
        ({"grid": {"dim": 2, "points_per_axis": 128, "half_width": 100.0},
          "levels": 5, "suites": ["littlewood_paley"]},
         "grid.half_width: resolves no"),
        # the inputs' Gaussian envelope squares x and sigma = L / 7.7:
        # L^2 overflows, or 2 sigma^2 leaves the normal floats
        ({"grid": {"half_width": 1e300}}, "grid.half_width: the inputs'"),
        ({"grid": {"half_width": 1e-300}}, "grid.half_width: the inputs'"),
        # a jump in q too rough for the fixed kernel order n + 2 of the
        # mixed eta convolution
        ({"exponents": {"q": {"family": "two_level", "params": {
            "inner": 1.0, "outer": 20.0, "radius": 4.0}}},
          "suites": ["littlewood_paley"]}, "exponents.q: kernel order"),
        # a misspelled family parameter
        ({"exponents": {"p": {"family": "log_smooth",
                              "params": {"a": 2.0, "bb": 1.0}}},
          "suites": ["lebesgue"]}, "exponents.p: family 'log_smooth'"),
    ], ids=["half_width_str", "half_width_bool", "half_width_inf", "param_str",
            "param_nan", "p_below_one", "q_below_one", "p1_below_one",
            "p2_zero", "s_infinite", "commutator_s_zero",
            "commutator_s_negative", "p1_p2_harmonic_below_one", "levels_bool",
            "seed_bool", "trials_bool", "dim_bool", "points_bool",
            "tolerances_unknown_key", "duality_p_inf", "duality_q_inf",
            "duality_q_two_level_inf", "band_levels", "band_points",
            "eta_unresolved_1d", "eta_unresolved_2d", "half_width_huge",
            "half_width_tiny", "mixed_eta_q_rough",
            "param_misspelled"])
    def test_exit_two_on_malformed_values(self, tmp_path, capsys, config, field):
        # malformed values are configuration errors (exit 2), not failed
        # checks (exit 1); the message names the field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, **config}))
        assert main(["--config", str(cfg_path), "--out",
                     str(tmp_path / "r.json")]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    def test_zero_right_side_fails_its_record(self, tmp_path, monkeypatch):
        # with every Luxemburg norm 0, grad_v and grad_f have a zero right
        # side and a positive left side: ratio inf, a failed record, exit 1
        monkeypatch.setattr(commutator, "luxemburg_norm", lambda f, p: 0.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "suites": ["commutator"]}))
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
        status = {r["id"]: r["status"]
                  for r in json.loads(out.read_text())["records"]}
        assert status["commutator.theorem1_ratio_finite"] == "fail"

    def test_importing_any_module_runs_nothing(self):
        names = [m.name for m in pkgutil.iter_modules(varbesov.__path__)]
        assert "__main__" in names
        out = _python("-c", "import importlib\n" + "".join(
            f"importlib.import_module('varbesov.{n}')\n" for n in names))
        assert (out.returncode, out.stdout, out.stderr) == (0, "", "")

    def test_runs_as_a_module(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "suites": ["lebesgue"]}))
        out = _python("-m", "varbesov", "--config", str(cfg_path),
                      "--out", str(tmp_path / "r.json"))
        assert out.returncode == 0, out.stderr
        assert json.loads((tmp_path / "r.json").read_text())["records"]

    def test_exit_two_on_unparsable_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--trials", "1"],
                                      ["--suite", "lebesgue"]])
    @pytest.mark.parametrize("document", ["[1, 2]", '"abc"', "null"])
    def test_exit_two_on_a_document_that_is_not_an_object(
            self, tmp_path, capsys, document, flag):
        # an override flag does not assign into a list, string or null
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(document)
        assert main(["--config", str(cfg_path), *flag]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config: must be a JSON object\n"

    def test_exit_two_on_a_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'\xff\xfe{"seed": 1}')
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--out", "--plot-out"])
    def test_exit_two_on_an_output_in_a_missing_directory(
            self, tmp_path, capsys, monkeypatch, option):
        # refused before the run, which is not started
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran"))
        path = str(tmp_path / "missing" / "r.json")
        assert main([option, path]) == 2
        assert capsys.readouterr().err == (
            f"config error: {option}: no such directory for {path}\n")

    def test_suite_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "r.json"
        code = main(["--config", str(cfg_path), "--suite", "lebesgue",
                     "--suite", "hardy", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        prefixes = {r["id"].split(".")[0] for r in doc["records"]}
        assert prefixes == {"lebesgue", "hardy"}

    @pytest.mark.parametrize("value, written, status, code", [
        (math.inf, "inf", "fail", 1), (-math.inf, "-inf", "pass", 0),
        (math.nan, "nan", "fail", 1), (None, None, "trivial", 0),
        (False, False, "pass", 0), (True, True, "fail", 1)])
    def test_non_finite_measured_values_are_written_as_strings(
            self, tmp_path, monkeypatch, value, written, status, code):
        # JSON has no inf or nan, so the report writes them as strings, and
        # None and bools as they are; a record that fails makes the run
        # exit 1
        from varbesov import cli

        monkeypatch.setattr(cli, "two_level_gauge", lambda grid: graded_report(
            "lebesgue.two_level_gauge", value, 0.0, 1e-8,
            trivial=value is None))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "suites": ["lebesgue"]}))
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == code
        record = json.loads(out.read_text())["records"][0]
        assert (record["id"], record["status"], record["measured"]) == (
            "lebesgue.two_level_gauge", status, written)

    def test_seed_and_trials_flags_override_the_config(self, tmp_path,
                                                       capsysbinary):
        # with no --out the report goes to stdout; --plot-out writes the
        # curves of the same run
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL,
                                        "suites": ["littlewood_paley"]}))
        plot = tmp_path / "curves.csv"
        assert main(["--config", str(cfg_path), "--seed", "7", "--trials",
                     "2", "--plot-out", str(plot)]) == 0
        report = run({**SMALL, "suites": ["littlewood_paley"], "seed": 7,
                      "trials": 2})
        assert capsysbinary.readouterr().out == emit(report, "json")
        assert plot.read_bytes() == emit_plot_data(report)
        assert plot.read_bytes().count(b"\n") > 1

    def test_csv_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "suites": ["lebesgue"]}))
        out = tmp_path / "r.csv"
        code = main(["--config", str(cfg_path), "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("id,status,measured")

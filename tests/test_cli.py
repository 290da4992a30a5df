import json

import pytest

from varbesov import _kernels
from varbesov.cli import (ConfigError, DEFAULT_CONFIG, emit, emit_plot_data,
                          main, parse_report, run, validate_config)

SMALL = {
    "grid": {"dim": 1, "points_per_axis": 1024, "half_width": 16.0},
    "levels": 6,
    "seed": 4242,
    "trials": 1,
}


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

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError, match="tolerances.mixed"):
            validate_config({"tolerances": {"mixed": -1.0}})


class TestRun:
    def test_empty_suite_selection(self):
        report = run({**SMALL, "suites": []})
        assert report.records == []
        assert not report.failed

    def test_small_run_all_pass(self, small_report):
        assert [r.check_id for r in small_report.records]
        assert not small_report.failed

    def test_every_selected_check_appears_once(self, small_report):
        ids = [r.check_id for r in small_report.records]
        assert len(ids) == len(set(ids))

    def test_littlewood_paley_sweeps_each_field_once(self, monkeypatch):
        # one local log-Holder sweep for alpha (the eta shift check) and one
        # for 1/q (the mixed eta check)
        sweeps = []
        sweep = _kernels.log_holder_max

        def counted(*args):
            sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(_kernels, "log_holder_max", counted)
        run(dict(SMALL, suites=["littlewood_paley"]))
        assert len(sweeps) == 2

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

    def test_verify_hardy_with_a_passed_base(self):
        from varbesov.exponents import constant_exponent, log_smooth_exponent
        from varbesov.grid import Grid
        from varbesov.littlewood_paley import verify_hardy
        from varbesov.mixed import mixed_norm
        from varbesov.random_fields import band_limited_sequence

        grid = Grid(1, 1024, 16.0)
        gs = band_limited_sequence(grid, 7, 64, [4242, 10, 0])
        p = log_smooth_exponent(grid, 2.0, 1.0)
        q = constant_exponent(grid, 2.0)
        base = mixed_norm(gs, p, q)
        for a in (0.25, 0.75):
            assert verify_hardy(gs, a, p, q, base=base) == verify_hardy(gs, a, p, q)

    def test_environment_has_no_timestamps(self, small_report):
        assert set(small_report.environment) == {
            "package_version", "backend", "numpy_version", "python_version"}

    def test_two_dimensional_config(self):
        report = run({
            "grid": {"dim": 2, "points_per_axis": 128, "half_width": 8.0},
            "levels": 5,
            "seed": 7,
            "trials": 1,
            "suites": ["lebesgue", "littlewood_paley", "hardy"],
        })
        assert not report.failed


class TestEmit:
    def test_json_round_trip(self, small_report):
        blob = emit(small_report, "json")
        back = parse_report(blob)
        assert back.records == small_report.records
        assert back.config == small_report.config
        assert back.environment == small_report.environment

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

    def test_exit_two_on_unparsable_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["--config", str(cfg_path)]) == 2

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

    def test_csv_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "suites": ["lebesgue"]}))
        out = tmp_path / "r.csv"
        code = main(["--config", str(cfg_path), "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("id,status,measured")

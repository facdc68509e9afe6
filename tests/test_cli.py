"""End-to-end tests for the vve CLI: outputs, schemas, determinism, errors."""

import json
import math
import warnings
from pathlib import Path

import jsonschema
import pytest
from jsonschema import validators

from vve import io
from vve.cli import main

DATA = Path(__file__).parent / "data"
SCHEMAS = Path(__file__).parents[1] / "src" / "vve" / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def validate(instance, schema_name):
    schema = load_schema(schema_name)
    resource = validators.Draft202012Validator
    registry = None
    try:
        from referencing import Registry, Resource
        registry = Registry().with_resources(
            (f.name, Resource.from_contents(json.loads(f.read_text())))
            for f in SCHEMAS.glob("*.json"))
        resource(schema, registry=registry).validate(instance)
    except ImportError:
        jsonschema.validate(instance, schema)


def run(argv, capsys=None):
    code = main(argv)
    return code


def read_bytes(path):
    return Path(path).read_bytes()


class ConfigText(str):
    """Text of a --config file: the test writes it and passes the file's path."""


def with_config_files(argv, tmp_path):
    """argv with each ConfigText replaced by the path of a file holding it."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, ConfigText):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(arg)
            arg = str(path)
        out.append(arg)
    return out


class TestSimulate:
    def test_shape_and_schema(self, tmp_path):
        code = main(["simulate", "--paths", "100", "--steps", "252",
                     "--seed", "7", "--c1", "0.0005", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert len(lines) == 101  # header + 100 paths
        assert all(len(line.split(",")) == 253 for line in lines)
        summary = json.loads((tmp_path / "summary.json").read_text())
        validate(summary, "summary.json")
        assert summary["n_paths"] == 100 and summary["scheme"] == "euler"
        assert summary["mean_path"][0] == 100.0

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["simulate", "--paths", "50", "--steps", "64", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out-dir", str(a)]) == 0
        assert main(argv + ["--out-dir", str(b)]) == 0
        for name in ("paths.csv", "summary.json"):
            assert read_bytes(a / name) == read_bytes(b / name)

    def test_all_exploded_column_mean_is_null(self, tmp_path):
        # the one closed-form path explodes, so the columns after it have no value
        argv = ["simulate", "--scheme", "exact", "--sigma", "0.5", "--c1", "0.2",
                "--paths", "1", "--steps", "50", "--seed", "1", "--out-dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice"
            assert main(argv) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON (RFC 8259)")

        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        validate(summary, "summary.json")
        row = (tmp_path / "paths.csv").read_text().splitlines()[1].split(",")
        assert "nan" in row
        assert [v is None for v in summary["mean_path"]] == [v == "nan" for v in row]
        assert summary["mean_path"][0] == 100.0

    def test_exact_sigma_zero_error_surfaced(self, tmp_path, capsys):
        code = main(["simulate", "--scheme", "exact", "--sigma", "0",
                     "--c1", "0.001", "--out-dir", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "sigma_zero_unsupported"
        assert err["message"]
        # mu = sigma^2/2: the closed form divides by mu - sigma^2/2
        assert main(["simulate", "--scheme", "exact", "--mu", "0.02",
                     "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "singular_delta"
        assert err["message"]

    def test_unknown_scheme(self, tmp_path, capsys):
        assert main(["simulate", "--scheme", "heun", "--out-dir", str(tmp_path)]) == 1
        assert "error" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestCalibrate:
    def test_fixture_report_and_overlay(self, tmp_path):
        code = main(["calibrate", "--csv", str(DATA / "vve_synthetic.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "calibration.json").read_text())
        validate(report, "calibration.json")
        for key in ("slope", "intercept", "p_slope", "p_intercept",
                    "r_squared", "pearson_corr", "n_points"):
            assert key in report["regression"]
        # round trip: generated with sigma=0.1, c1=0.001
        assert abs(report["params"]["sigma"] - 0.1) / 0.1 < 0.20
        assert abs(report["params"]["c1"] - 0.001) / 0.001 < 0.20
        # overlay CSV is ingestible (date, close leading columns) and aligned
        overlay = (tmp_path / "overlay.csv").read_text().splitlines()
        assert overlay[0] == "date,close,hv"
        assert len(overlay) == 1 + 5001 - 30
        series = io.ingest_csv(tmp_path / "overlay.csv")
        assert len(series) == 5001 - 30

    def test_constant_prices_degenerate_x(self, tmp_path, capsys):
        code = main(["calibrate", "--csv", str(DATA / "constant.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "degenerate_x"

    def test_missing_csv_flag(self, tmp_path, capsys):
        assert main(["calibrate", "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "csv" in err["message"]


class TestPrice:
    def test_formula_vs_mc_report(self, tmp_path, capsys):
        code = main(["price", "--method", "formula,mc", "--c1", "1e-4",
                     "--paths", "20000", "--steps", "100", "--seed", "11",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "price.json").read_text())
        validate(report, "price.json")
        assert set(report["quotes"]) == {"formula", "mc"}
        diff = report["differences"]["formula_vs_mc"]
        assert diff["abs_diff"] >= 0 and diff["se_units"] is not None
        # stdout carries the same report
        out = json.loads(capsys.readouterr().out)
        assert out["quotes"]["formula"]["price"] == report["quotes"]["formula"]["price"]

    def test_gbm_mc_vs_bs_within_three_se(self, tmp_path):
        code = main(["price", "--method", "mc,bs", "--c1", "0",
                     "--paths", "200000", "--steps", "200", "--seed", "4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "price.json").read_text())
        assert report["differences"]["bs_vs_mc"]["se_units"] < 3.0

    def test_zero_maturity_intrinsic(self, tmp_path):
        code = main(["price", "--method", "formula,mc", "--maturity", "0",
                     "--strike", "80", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "price.json").read_text())
        assert report["quotes"]["formula"]["price"] == 20.0
        assert report["quotes"]["mc"]["price"] == 20.0

    def test_unknown_method(self, tmp_path, capsys):
        for method in ("trinomial", "", ","):
            assert main(["price", "--method", method, "--out-dir", str(tmp_path)]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "error"
            assert not (tmp_path / "price.json").exists()

    def test_mc_and_bs_at_r_equal_half_sigma_squared(self, tmp_path, capsys):
        argv = ["price", "--sigma", "0.2", "--r", "0.02", "--paths", "2000",
                "--steps", "50", "--out-dir", str(tmp_path)]
        assert main(argv + ["--method", "mc,bs"]) == 0
        assert set(json.loads((tmp_path / "price.json").read_text())["quotes"]) == {"mc", "bs"}
        capsys.readouterr()
        assert main(argv + ["--method", "formula", "--c1", "0"]) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == \
            "singular_delta"

    @pytest.mark.parametrize("argv, error", [
        (["--method", "mc", "--paths", "1", "--steps", "10"], "invalid_grid"),
        (["--method", "bs", "--r", "nan"], "negative_coefficient"),
        (["--method", "formula", "--sigma", "nan"], "negative_coefficient"),
        (["--method", "formula", "--tol", "0"], "invalid_grid"),
        (["--method", "formula", "--tol", "nan"], "invalid_grid"),
        # config values go through the flag's type; unreadable configs are errors
        (["--method", "mc", "--config", ConfigText('{"paths": 2000.0}')], "error"),
        (["--method", "mc", "--config", ConfigText('{"price": {"paths": "abc"}}')], "error"),
        (["--method", "bs", "--config", ConfigText('{"sigma": ')], "error"),
        (["--method", "bs", "--config", ConfigText('[0.2]')], "error"),
        (["--method", "bs", "--config", "no/such/config.json"], "error"),
        # exp(r t) leaves the float range inside the law solve
        (["--method", "formula", "--c1", "1e-3", "--r", "800"], "out_of_range"),
        # the law map's value near the strike leaves the float range
        (["--method", "formula", "--strike", "1e308"], "out_of_range"),
    ])
    def test_input_without_finite_quote_is_json_error(self, tmp_path, capsys, argv, error):
        argv = with_config_files(argv, tmp_path)
        assert main(["price", *argv, "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == error and err["message"]
        assert not (tmp_path / "price.json").exists()

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["price", "--method", "formula,mc,bs", "--paths", "5000",
                "--steps", "50", "--seed", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out-dir", str(a)]) == 0
        assert main(argv + ["--out-dir", str(b)]) == 0
        assert read_bytes(a / "price.json") == read_bytes(b / "price.json")


class TestConvergence:
    def test_gbm_report(self, tmp_path):
        code = main(["convergence", "--levels", "16,32,64,128", "--paths", "256",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "convergence.json").read_text())
        validate(report, "convergence.json")
        assert set(report) == {"euler", "milstein"}
        assert report["euler"]["reference"] == "exact"
        assert report["milstein"]["fitted_slope"] > report["euler"]["fitted_slope"]
        csv_lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert csv_lines[0] == "dt,error_euler,error_milstein"
        assert len(csv_lines) == 5

    def test_vve_uses_refined_reference_and_errors_decrease(self, tmp_path):
        code = main(["convergence", "--c1", "0.0005", "--levels", "16,32,64",
                     "--paths", "128", "--scheme", "euler", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "convergence.json").read_text())
        assert report["euler"]["reference"] == "refined"
        errors = report["euler"]["strong_errors"]
        assert errors == sorted(errors, reverse=True)

    def test_zero_error_level_has_null_slope(self, tmp_path):
        # at c1 = 5 every path is absorbed at 0 on the finer levels, as is the reference
        argv = ["convergence", "--c1", "5", "--levels", "8,16,32", "--out-dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "divide by zero encountered in log2"
            assert main(argv) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON (RFC 8259)")

        report = json.loads((tmp_path / "convergence.json").read_text(), parse_constant=reject)
        validate(report, "convergence.json")
        for scheme in ("euler", "milstein"):
            assert 0.0 in report[scheme]["strong_errors"]
            assert report[scheme]["fitted_slope"] is None

    @pytest.mark.parametrize("argv", [
        ["--paths", "0"],
        ["--paths", "-3"],
        ["--horizon", "nan"],
        ["--horizon", "inf"],
        ["--levels", "64,abc"],
        ["--levels", "0,64"],
        ["--scheme", ""],
        ["--scheme", ","],
    ])
    def test_bad_input_is_json_error(self, tmp_path, capsys, argv):
        argv = ["convergence", "--levels", "4,8", "--paths", "16", *argv]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "invalid_grid"
        assert not (tmp_path / "convergence.json").exists()


class TestHvAndRegress:
    def test_hv_output(self, tmp_path):
        code = main(["hv", "--csv", str(DATA / "vve_synthetic.csv"),
                     "--window", "30", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "hv.csv").read_text().splitlines()
        assert lines[0] == "date,hv"
        assert len(lines) == 1 + 5001 - 30
        assert all(float(line.split(",")[1]) >= 0 for line in lines[1:])

    def test_regress_stdout_and_file(self, tmp_path, capsys):
        code = main(["regress", "--csv", str(DATA / "vve_synthetic.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "regress.json").read_text())
        validate(report, "regression.json")
        out = json.loads(capsys.readouterr().out)
        assert out == report

    @pytest.mark.parametrize("days", ["0", "-252"])
    @pytest.mark.parametrize("command", ["hv", "calibrate", "regress"])
    def test_trading_days_below_one_is_json_error(self, tmp_path, capsys, command, days):
        code = main([command, "--csv", str(DATA / "vve_synthetic.csv"),
                     "--trading-days", days, "--out-dir", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "invalid_grid"
        assert not list(tmp_path.iterdir())


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 40}))
        code = main(["hv", "--config", str(cfg), "--show-config"])
        assert code == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["window"] == 40
        # a config value is read as the same text would be read as a flag
        cfg.write_text(json.dumps({"sigma": 1, "paths": "2000", "seed": None,
                                   "price": {"strike": 90}}))
        assert main(["price", "--config", str(cfg), "--show-config"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["sigma"] == 1.0 and isinstance(merged["sigma"], float)
        assert merged["paths"] == 2000 and merged["strike"] == 90.0
        assert merged["seed"] == 0

    def test_cli_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hv": {"window": 40}}))
        code = main(["hv", "--config", str(cfg), "--window", "35", "--show-config"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["window"] == 35

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VVE_OUTPUT_DIR", str(tmp_path / "env_out"))
        code = main(["simulate", "--paths", "5", "--steps", "8"])
        assert code == 0
        assert (tmp_path / "env_out" / "paths.csv").exists()

    def test_show_config_writes_nothing(self, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path), "--show-config"])
        assert code == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["steps"] == 252 and merged["scheme"] == "euler"
        assert not (tmp_path / "paths.csv").exists()


class TestIngest:
    def test_minimal_valid_file(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("date,close\n2020-01-02,100.0\n2020-01-03,101.5\n")
        series = io.ingest_csv(f)
        assert len(series) == 2
        assert series.closes[1] == 101.5

    def test_negative_close_names_row(self, tmp_path):
        from vve.errors import NonPositiveClose
        f = tmp_path / "bad.csv"
        f.write_text("date,close\n2020-01-02,100.0\n2020-01-03,-5\n2020-01-04,99\n")
        with pytest.raises(NonPositiveClose, match=":3:"):
            io.ingest_csv(f)

    def test_unsorted_rows_normalized_idempotently(self, tmp_path):
        unsorted = tmp_path / "u.csv"
        unsorted.write_text("date,close\n2020-01-05,103\n2020-01-02,100\n2020-01-03,101\n")
        series = io.ingest_csv(unsorted)
        assert [d.isoformat() for d in series.dates] == \
            ["2020-01-02", "2020-01-03", "2020-01-05"]
        resorted = tmp_path / "s.csv"
        io.write_csv(resorted, ["date", "close"],
                     ([d.isoformat(), io.fmt(c)] for d, c in
                      zip(series.dates, series.closes)))
        again = io.ingest_csv(resorted)
        assert again.dates == series.dates
        assert (again.closes == series.closes).all()

    def test_duplicate_date_rejected(self, tmp_path):
        from vve.errors import DuplicateDate
        f = tmp_path / "d.csv"
        f.write_text("date,close\n2020-01-02,100\n2020-01-02,101\n")
        with pytest.raises(DuplicateDate):
            io.ingest_csv(f)

    def test_bad_header_and_missing_file(self, tmp_path):
        from vve.errors import CsvParseError
        f = tmp_path / "h.csv"
        f.write_text("time,price\n2020-01-02,100\n2020-01-03,101\n")
        with pytest.raises(CsvParseError):
            io.ingest_csv(f)
        with pytest.raises(CsvParseError):
            io.ingest_csv(tmp_path / "nope.csv")

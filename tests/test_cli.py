"""End-to-end tests for the vve CLI: outputs, schemas, determinism, errors."""

import itertools
import json
import math
import warnings
from pathlib import Path

import jsonschema
import pytest
from jsonschema import validators

from vve import io, pricing
from vve.cli import main
from vve.errors import NonFinite

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


def read_strict_json(path):
    """The JSON in ``path``; raises ValueError on NaN or Infinity, which RFC 8259 has not."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON (RFC 8259)")

    return json.loads(Path(path).read_text(), parse_constant=reject)


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

    @pytest.mark.parametrize("seed", ["-1", "9223372036854775808", "18446744073709551615",
                                      "18446744073709551616"])
    def test_seed_outside_key_range_is_invalid_grid(self, tmp_path, capsys, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "invalid value encountered in cast"
            assert main(["simulate", "--paths", "2", "--steps", "3", "--seed", seed,
                         "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "invalid_grid"
        assert not list(tmp_path.iterdir())

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
        # mu = sigma^2/2: the closed form's division by mu - sigma^2/2 is removable
        assert main(["simulate", "--scheme", "exact", "--mu", "0.02",
                     "--out-dir", str(tmp_path)]) == 0
        assert read_strict_json(tmp_path / "summary.json")["exploded_fraction"] == 0.0

    def test_exact_sigma_squared_overflow_is_json_error(self, tmp_path, capsys):
        assert main(["simulate", "--scheme", "exact", "--sigma", "1e300",
                     "--out-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "out_of_range"

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

    def test_rolling_hv_computed_once(self, tmp_path, monkeypatch):
        from vve import calibration
        rolling_hv, calls = calibration.rolling_hv, []

        def counted(*args):
            calls.append(args)
            return rolling_hv(*args)

        monkeypatch.setattr(calibration, "rolling_hv", counted)
        assert main(["calibrate", "--csv", str(DATA / "vve_synthetic.csv"),
                     "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("strike", ["100", "80"])
    def test_at_expiry_every_method_intrinsic(self, tmp_path, strike):
        assert main(["price", "--method", "formula,mc,bs", "--t", "1", "--strike", strike,
                     "--out-dir", str(tmp_path)]) == 0
        report = read_strict_json(tmp_path / "price.json")
        validate(report, "price.json")
        intrinsic = max(100.0 - float(strike), 0.0)
        assert [q["price"] for q in report["quotes"].values()] == [intrinsic] * 3
        assert report["differences"] == {
            pair: {"abs_diff": 0.0, "se_units": None}
            for pair in ("bs_vs_formula", "bs_vs_mc", "formula_vs_mc")}

    def test_unknown_method(self, tmp_path, capsys):
        for method in ("trinomial", "", ","):
            assert main(["price", "--method", method, "--out-dir", str(tmp_path)]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "error"
            assert not (tmp_path / "price.json").exists()

    def test_mc_and_bs_at_r_equal_half_sigma_squared(self, tmp_path, capsys):
        argv = ["price", "--sigma", "0.2", "--r", "0.02", "--paths", "2000",
                "--steps", "50", "--out-dir", str(tmp_path)]
        assert main(argv + ["--method", "mc,bs"]) == 0
        quotes = json.loads((tmp_path / "price.json").read_text())["quotes"]
        assert set(quotes) == {"mc", "bs"}
        # the closed form at c1 = 0 prices here too: its division by r - sigma^2/2 is removable
        assert main(argv + ["--method", "formula", "--c1", "0"]) == 0
        formula = json.loads((tmp_path / "price.json").read_text())["quotes"]["formula"]
        assert formula["price"] == pytest.approx(quotes["bs"]["price"], abs=1e-9)

    @pytest.mark.parametrize("argv, error", [
        (["--method", "mc", "--paths", "1", "--steps", "10"], "invalid_grid"),
        (["--method", "bs", "--r", "nan"], "non_finite"),
        (["--method", "formula", "--sigma", "nan"], "non_finite"),
        # usage errors take the JSON contract too: a removed flag, a flag's bad value
        (["--method", "formula", "--tol", "1e-10"], "error"),
        (["--method", "bs", "--paths", "abc"], "error"),
        # config values go through the flag's type; unreadable configs are errors
        (["--method", "mc", "--config", ConfigText('{"paths": 2000.0}')], "error"),
        (["--method", "mc", "--config", ConfigText('{"price": {"paths": "abc"}}')], "error"),
        (["--method", "bs", "--config", ConfigText('{"sigma": ')], "error"),
        (["--method", "bs", "--config", ConfigText('[0.2]')], "error"),
        (["--method", "bs", "--config", "no/such/config.json"], "error"),
        # exp(r t) leaves the float range inside the law solve
        (["--method", "formula", "--c1", "1e-3", "--r", "800"], "out_of_range"),
        # so short a maturity that the law's nodes collide in floating point
        (["--method", "formula", "--maturity", "1e-100"], "out_of_range"),
        (["--method", "formula", "--maturity", "1e-300"], "out_of_range"),
        # sigma^2 leaves the float range
        (["--method", "bs", "--sigma", "1e300"], "out_of_range"),
        (["--method", "formula", "--c1", "0", "--sigma", "1e200"], "out_of_range"),
        # sigma = c1 = 0 leaves a riskless asset, which no method prices
        (["--method", "mc", "--sigma", "0", "--c1", "0", "--r", "1e3"], "degenerate_diffusion"),
        # the c1 = 0 formula is Black-Scholes: its discount, and s0 / K = 0
        (["--method", "formula", "--c1", "0", "--r=-1e3"], "out_of_range"),
        (["--method", "formula", "--c1", "0", "--s0", "1e-300", "--strike", "1e300"],
         "out_of_range"),
        # the formula refuses sigma = c1 = 0 too
        (["--method", "formula", "--c1", "0", "--sigma", "0"], "degenerate_diffusion"),
        # a seed that the generator's key would alias to another
        (["--method", "mc", "--seed", "18446744073709551615"], "invalid_grid"),
    ])
    def test_input_without_finite_quote_is_json_error(self, tmp_path, capsys, argv, error):
        argv = with_config_files(argv, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["price", *argv, "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == error and err["message"]
        assert not (tmp_path / "price.json").exists()

    def test_zero_strike_writes_infinite_d_as_null(self, tmp_path):
        assert main(["price", "--method", "formula,bs", "--strike", "0",
                     "--out-dir", str(tmp_path)]) == 0

        report = read_strict_json(tmp_path / "price.json")
        validate(report, "price.json")
        formula, bs = (report["quotes"][m]["diagnostics"] for m in ("formula", "bs"))
        assert formula["d"] is None and "fT_inv_K" not in formula
        assert bs == {"d1": None, "d2": None}
        assert report["quotes"]["bs"]["price"] == 100.0

    def test_formula_prices_the_cve_model(self, tmp_path):
        # sigma = 0 with c1 > 0 is the constant-elasticity model: the law route prices it
        assert main(["price", "--method", "formula", "--sigma", "0", "--c1", "5e-3",
                     "--out-dir", str(tmp_path)]) == 0
        formula = read_strict_json(tmp_path / "price.json")["quotes"]["formula"]
        quote = pricing.price_formula(pricing.RiskNeutralParams(0.0, 5e-3, 100.0, 0.05),
                                      pricing.OptionSpec(100.0, 1.0, 0.05))
        assert formula["price"] == float(f"{quote.price:.12g}")

    def test_strike_above_law_grid_quotes_zero(self, tmp_path):
        # no law node reaches the strike: the call is worth 0, and d is +inf, written null
        assert main(["price", "--method", "formula", "--strike", "1e308",
                     "--out-dir", str(tmp_path)]) == 0
        formula = read_strict_json(tmp_path / "price.json")["quotes"]["formula"]
        assert formula["price"] == 0.0
        assert formula["diagnostics"]["d"] is None

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
        # the exact reference leaves the float range: NaN errors, which JSON cannot hold
        ["--mu", "1e300"],
        ["--horizon", "1e300"],
        # sigma^2 leaves the float range in the closed form
        ["--sigma", "1e300"],
    ])
    def test_non_finite_errors_are_json_error(self, tmp_path, capsys, argv):
        argv = ["convergence", "--levels", "4,8", "--paths", "16", *argv]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "out_of_range"
        assert not (tmp_path / "convergence.json").exists()

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

    @pytest.mark.parametrize("command", ["regress", "calibrate"])
    def test_x_variance_underflow_is_degenerate_x(self, tmp_path, capsys, command):
        # closes cycling 1e-200, 2e-200, 3e-200: the regressor's variance underflows to 0
        csv = tmp_path / "tiny.csv"
        csv.write_text("date,close\n" + "".join(
            f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},{(1 + i % 3) * 1e-200!r}\n"
            for i in range(60)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--csv", str(csv), "--window", "5",
                         "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "degenerate_x"
        assert not out.exists() or not list(out.iterdir())


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("date,close\n2020-01-02,100\n2020-01-03\n", ":3: expected 2 columns"),
        ("date,close\n2020-01-02,100\n2020-13-03,101\n", ":3: column 1:"),
        ("date,close\n2020-01-02,100\n2020-01-03,abc\n", ":3: column 2: not a number"),
        ("date,close\n2020-01-02,100\n", "need at least 2 data rows, got 1"),
        # blank and whitespace-only lines are skipped, not read as rows
        ("date,close\n\n2020-01-02,100\n  \n", "need at least 2 data rows, got 1"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        from vve.errors import CsvParseError
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(CsvParseError, match=message):
            io.ingest_csv(f)

    def test_malformed_file_is_json_error(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("date,close\n2020-01-02,100\n2020-01-03,abc\n")
        assert main(["hv", "--csv", str(f), "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "csv_parse_error" and ":3:" in err["message"]
        assert not (tmp_path / "hv.csv").exists()

    def test_bad_header_and_missing_file(self, tmp_path):
        from vve.errors import CsvParseError
        f = tmp_path / "h.csv"
        f.write_text("time,price\n2020-01-02,100\n2020-01-03,101\n")
        with pytest.raises(CsvParseError):
            io.ingest_csv(f)
        with pytest.raises(CsvParseError):
            io.ingest_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("name, reason", [("dir", "directory"), ("latin1.csv", "utf-8")])
    def test_unreadable_file_is_json_error(self, tmp_path, capsys, name, reason):
        # a directory and a file that is not UTF-8 (a Latin-1 e-acute) name the path
        path = tmp_path / name
        if name == "dir":
            path.mkdir()
        else:
            path.write_bytes(b"date,close\n2020-01-02,100\n2020-01-03,101 \xe9\n")
        out = tmp_path / "out"
        assert main(["hv", "--csv", str(path), "--out-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "csv_parse_error"
        assert str(path) in err["message"] and reason in err["message"].lower()
        assert not out.exists()


class TestErrorContract:
    def test_any_exception_is_json_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(path):
            raise RuntimeError("broken reader")

        monkeypatch.setattr(io, "ingest_csv", broken)
        assert main(["hv", "--csv", str(DATA / "vve_synthetic.csv"),
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1]) == {"error": "internal_error",
                                       "message": "RuntimeError: broken reader"}

    @pytest.mark.parametrize("command", [["price", "--method", "bs"],
                                         ["simulate", "--paths", "5", "--steps", "8"]])
    def test_out_dir_naming_a_file_is_json_error(self, tmp_path, capsys, command):
        # mkdir refuses a path that is a file: a config-style error naming the path,
        # not an escaped exception
        path = tmp_path / "taken"
        path.write_text("a file\n")
        assert main([*command, "--out-dir", str(path)]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert captured.out == "" and err["error"] == "error"
        assert str(path) in err["message"]
        assert path.read_text() == "a file\n"

    @pytest.mark.parametrize("name,command", [
        ("price.json", ["price", "--method", "bs"]),
        ("summary.json", ["simulate", "--paths", "5", "--steps", "8"]),  # the second file
        ("hv.csv", ["hv", "--csv", str(DATA / "vve_synthetic.csv")]),
        ("convergence.csv", ["convergence", "--c1", "0", "--paths", "4", "--levels", "2,4",
                             "--scheme", "euler"]),
    ])
    def test_output_file_that_cannot_be_written_is_json_error(self, tmp_path, capsys, name,
                                                               command):
        # a directory where the file should go: an error naming the file, no report on stdout
        (tmp_path / name).mkdir()
        assert main([*command, "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert captured.out == "" and err["error"] == "error"
        assert err["message"].startswith(f"cannot write {tmp_path / name}: ")
        assert (tmp_path / name).is_dir()

    @pytest.mark.parametrize("argv", [[], ["trinomial"], ["hv", "extra"], ["price", "--method"],
                                      ["price", "--s", "1"]],
                             ids=["no_command", "unknown_command", "extra_argument",
                                  "missing_value", "ambiguous_flag"])
    def test_usage_error_is_one_json_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1
        line = json.loads(err[0])
        assert line["error"] == "error" and line["message"].startswith("vve")

    def test_report_is_strict_json(self, capsys):
        # the writer owns JSON validity: an infinity is null, a NaN is refused
        assert json.loads(io.dumps({"a": math.inf, "b": [-math.inf, 1.0]})) == \
            {"a": None, "b": [None, 1.0]}
        with pytest.raises(NonFinite):
            io.dumps({"a": [math.nan]})
        assert main(["price", "--strike", "inf", "--show-config"]) == 0
        assert json.loads(capsys.readouterr().out)["strike"] is None
        assert main(["price", "--sigma", "nan", "--show-config"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["error"] == "non_finite"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["price", "--help"])
        assert exit_.value.code == 0
        help_text = capsys.readouterr().out
        assert "--strike" in help_text and "--tol" not in help_text


class TestFuzzGrid:
    """Every numeric flag of every command at edge values, and every pair of
    float flags of ``price``, ``simulate`` and ``convergence``: a clean run or
    a JSON error other than ``internal_error``, with no ``RuntimeWarning`` on
    the way.

    Each float flag gets NaN, +-inf, 0, -1, +-1e3, 1e300 and 1e-300; each int flag
    gets 0, -1 and 1 (a huge int would allocate).  A command is fuzzed from
    each base that reaches a different route (each pricing method, the exact
    and the refined reference, closed-form paths), with small grids so that
    each run is short.  The pairs take 0, 1e-300, 1e300 and +-1e3 for both
    flags; NaN, +-inf and -1 stay with the single flags, as a per-flag check
    rejects each of them before any arithmetic.
    """

    FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e3", "-1e3", "1e300", "1e-300"]
    INTS = ["0", "-1", "1"]
    PAIR_FLOATS = ["0", "1e-300", "1e300", "1e3", "-1e3"]
    CSV = ["--csv", "{csv}", "--window", "5"]
    BASES = {
        "simulate": [["--paths", "8", "--steps", "8", "--c1", "5e-4"],
                     ["--paths", "8", "--steps", "8", "--scheme", "exact"]],
        "calibrate": [CSV],
        "price": [["--method", "formula"], ["--method", "formula", "--c1", "0"],
                  ["--method", "mc", "--paths", "64", "--steps", "8"], ["--method", "bs"]],
        "convergence": [["--levels", "4,8", "--paths", "8"],
                        ["--levels", "4,8", "--paths", "8", "--c1", "5e-4"]],
        "hv": [CSV],
        "regress": [CSV],
    }

    @classmethod
    def cases(cls):
        from vve.cli import COMMANDS, _options
        for command in COMMANDS:
            for name, _, typ, _ in _options(command):
                for value in {float: cls.FLOATS, int: cls.INTS}.get(typ, []):
                    for base in cls.BASES[command]:
                        yield command, base, [f"--{name.replace('_', '-')}={value}"]

    @classmethod
    def pair_cases(cls, command):
        from vve.cli import _options
        flags = [f"--{name.replace('_', '-')}" for name, _, typ, _ in _options(command)
                 if typ is float]
        for pair in itertools.combinations(flags, 2):
            for values in itertools.product(cls.PAIR_FLOATS, repeat=2):
                for base in cls.BASES[command]:
                    yield command, base, [f"{flag}={value}" for flag, value in zip(pair, values)]

    @staticmethod
    def failures(cases, tmp_path, capsys):
        """One line per case that escapes with an exception or a ``RuntimeWarning``,
        exits other than 0 or 1, writes non-JSON, or exits 1 without the JSON error line."""
        csv = tmp_path / "short.csv"
        csv.write_text("".join((DATA / "vve_synthetic.csv").read_text().splitlines(True)[:41]))

        failures = []
        for i, (command, base, flags) in enumerate(cases):
            out = tmp_path / str(i)
            argv = [command, *(arg.format(csv=csv) for arg in base), *flags, "--out-dir", str(out)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except Exception as exc:  # noqa: BLE001 - any escape is a failure
                    failures.append(f"{' '.join(argv[:-2])}: {type(exc).__name__}: {exc}")
                    continue
            failures += [f"{' '.join(argv[:-2])}: RuntimeWarning: {w.message}"
                         for w in caught if issubclass(w.category, RuntimeWarning)]
            err = capsys.readouterr().err.strip().splitlines()
            try:
                if code == 0:
                    for path in out.glob("*.json"):
                        read_strict_json(path)
                else:
                    assert code == 1, f"exit {code}"
                    line = json.loads(err[-1])
                    assert set(line) == {"error", "message"} and line["message"]
                    # an internal error is an exception that escaped the checks
                    assert line["error"] != "internal_error", line["message"]
            except (AssertionError, ValueError, IndexError) as exc:
                failures.append(f"{' '.join(argv[:-2])}: exit {code}: {exc}")
        return failures

    def test_clean_run_or_json_error(self, tmp_path, capsys):
        failures = self.failures(self.cases(), tmp_path, capsys)
        assert not failures, "\n".join(failures)

    def test_price_flag_pairs(self, tmp_path, capsys):
        failures = self.failures(self.pair_cases("price"), tmp_path, capsys)
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_flag_pairs(self, command, tmp_path, capsys):
        failures = self.failures(self.pair_cases(command), tmp_path, capsys)
        assert not failures, "\n".join(failures)

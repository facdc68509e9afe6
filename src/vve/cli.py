"""Command-line front end.

Subcommands: simulate | calibrate | price | convergence | hv | regress.

Each command's options are declared once, in ``COMMANDS``, as (name,
default, help); a flag's type is its default's (``str`` for None).
Configuration precedence: CLI flags > config file (--config, JSON; the
command's section, then flat keys) > built-in defaults.  ``--show-config``
prints the merged configuration and exits.  The only environment variable
honored is VVE_OUTPUT_DIR, which overrides the default output directory.

Every command is deterministic for a fixed seed and configuration;
re-running produces byte-identical output files.  Errors are emitted to
stderr as JSON with a machine-readable code, and the exit code is 0 iff no
error occurred.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import calibration, io, pricing, sde
from .errors import InvalidGrid, VveError
from .model import validate_params

_CSV_OPTIONS = [
    ("csv", None, "input CSV (date,close)"),
    ("window", 30, "rolling volatility window in trading days"),
    ("trading_days", 252, "trading days per year"),
]
_PATH_OPTIONS = [
    ("mu", 0.05, "drift, per year"),
    ("sigma", 0.2, "base volatility"),
    ("c1", 0.0, "volatility-per-price coefficient"),
    ("s0", 100.0, "initial price"),
    ("horizon", 1.0, "horizon in years"),
    ("paths", 1000, "number of paths"),
    ("seed", 0, "random seed"),
]

#: command -> (help, [(option, default, help)])
COMMANDS = {
    "simulate": ("simulate price paths", [
        *_PATH_OPTIONS,
        ("steps", 252, "time steps"),
        ("scheme", "euler", "euler | milstein | exact"),
    ]),
    "calibrate": ("calibrate (sigma, c1) from a close-price CSV", _CSV_OPTIONS),
    "price": ("price a European call", [
        ("method", "formula,mc", "comma list of formula,mc,bs"),
        ("sigma", 0.2, "base volatility"),
        ("c1", 0.0001, "volatility-per-price coefficient"),
        ("s0", 100.0, "spot price"),
        ("r", 0.05, "risk-free rate"),
        ("strike", 100.0, "strike price"),
        ("maturity", 1.0, "maturity in years"),
        ("t", 0.0, "valuation time in years"),
        ("paths", 100000, "Monte Carlo paths"),
        ("steps", 500, "Monte Carlo time steps"),
        ("seed", 0, "random seed"),
        ("tol", 1e-10, "quadrature absolute tolerance"),
    ]),
    "convergence": ("strong-convergence study", [
        *_PATH_OPTIONS,
        ("levels", "64,128,256,512,1024,2048", "comma list of step counts, coarse to fine"),
        ("scheme", "euler,milstein", "comma list of euler,milstein"),
        ("reference", "auto", "exact | refined | auto"),
    ]),
    "hv": ("rolling historical volatility from a close-price CSV", _CSV_OPTIONS),
    "regress": ("volatility-on-price regression report from a CSV", _CSV_OPTIONS),
}


def _options(command: str) -> list[tuple[str, object, type, str]]:
    """(name, default, type, help) of each option; the type is the default's."""
    return [(name, default, str if default is None else type(default), help_)
            for name, default, help_ in [*COMMANDS[command][1],
                                         ("out_dir", ".", "output directory")]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vve",
        description="Variable-volatility-elasticity model: simulate, calibrate, price.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--show-config", action="store_true",
                       help="print the merged configuration and exit")
        for name, _, typ, help_ in _options(command):
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, help=help_)
    return parser


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Flags > config command section > config flat keys > VVE_OUTPUT_DIR > defaults.

    A config value is read as its text would be read as a flag; null leaves
    the option unset.
    """
    options = _options(command)
    cfg = {name: default for name, default, _, _ in options}
    if os.environ.get("VVE_OUTPUT_DIR"):
        cfg["out_dir"] = os.environ["VVE_OUTPUT_DIR"]
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise VveError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise VveError(f"config {args.config} must hold a JSON object")
        section = loaded.get(command) if isinstance(loaded.get(command), dict) else {}
        types = {name: typ for name, _, typ, _ in options}
        for name, value in [*loaded.items(), *section.items()]:
            if name in types and value is not None:
                try:
                    cfg[name] = types[name](str(value))
                except ValueError:
                    raise VveError(f"config {name}: invalid {types[name].__name__} "
                                   f"value {value!r}") from None
    for name in cfg:
        value = getattr(args, name)
        if value is not None:
            cfg[name] = value
    return cfg


def _out(cfg: dict, name: str) -> Path:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _require_csv(cfg: dict) -> str:
    if not cfg["csv"]:
        raise VveError("--csv is required for this command")
    return cfg["csv"]


# --------------------------------------------------------------------------
# Command implementations
# --------------------------------------------------------------------------

def cmd_simulate(cfg: dict) -> list[str]:
    params = validate_params(cfg["mu"], cfg["sigma"], cfg["c1"], cfg["s0"])
    grid = sde.TimeGrid(cfg["horizon"], cfg["steps"])
    scheme = cfg["scheme"]
    simulators = {"euler": sde.simulate_euler, "milstein": sde.simulate_milstein,
                  "exact": sde.simulate_exact}
    if scheme not in simulators:
        raise VveError(f"unknown scheme {scheme!r}; expected euler, milstein, or exact")
    ensemble = simulators[scheme](params, grid, cfg["paths"], cfg["seed"])
    paths_file, summary_file = _out(cfg, "paths.csv"), _out(cfg, "summary.json")
    io.ensemble_to_csv(ensemble, paths_file)
    io.write_json(summary_file, io.ensemble_summary(ensemble))
    return [str(paths_file), str(summary_file)]


def cmd_calibrate(cfg: dict) -> list[str]:
    series = io.ingest_csv(_require_csv(cfg))
    window = cfg["window"]
    result = calibration.calibrate_vve(series, window, cfg["trading_days"])
    vols = calibration.rolling_hv(series, window, cfg["trading_days"])
    report = {
        "params": {"mu": result.params.mu, "sigma": result.params.sigma,
                   "c1": result.params.c1, "s0": result.params.s0},
        "regression": result.report.to_dict(),
        "warnings": result.warnings,
        "window": window,
        "trading_days_per_year": cfg["trading_days"],
    }
    json_file, overlay_file = _out(cfg, "calibration.json"), _out(cfg, "overlay.csv")
    io.write_json(json_file, report)
    rows = ([d.isoformat(), io.fmt(c), io.fmt(v)] for d, c, v in
            zip(vols.dates, series.closes[window:], vols.vols))
    io.write_csv(overlay_file, ["date", "close", "hv"], rows)
    return [str(json_file), str(overlay_file)]


def cmd_price(cfg: dict) -> list[str]:
    methods = [m.strip() for m in cfg["method"].split(",") if m.strip()]
    unknown = set(methods) - {"formula", "mc", "bs"}
    if unknown or not methods:
        raise VveError(f"unknown pricing method(s): {sorted(unknown) or cfg['method']!r}")
    rn = pricing.RiskNeutralParams(sigma=cfg["sigma"], c1=cfg["c1"],
                                   s0=cfg["s0"], r=cfg["r"])
    opt = pricing.OptionSpec(strike=cfg["strike"], maturity=cfg["maturity"],
                             rate=cfg["r"], t=cfg["t"])
    quotes = {}
    for m in methods:
        if m == "formula":
            quotes[m] = pricing.price_formula(rn, opt, tol=cfg["tol"])
        elif m == "mc":
            quotes[m] = pricing.price_mc(rn, opt, cfg["paths"], cfg["steps"], cfg["seed"])
        else:
            quotes[m] = pricing.price_bs(rn.s0, opt.strike,
                                         opt.maturity - opt.t, rn.r, rn.sigma)
    differences = {}
    names = sorted(quotes)
    for i, m1 in enumerate(names):
        for m2 in names[i + 1:]:
            diff = abs(quotes[m1].price - quotes[m2].price)
            mc_se = None
            for m in (m1, m2):
                if quotes[m].method == "monte_carlo" and quotes[m].error_estimate > 0:
                    mc_se = quotes[m].error_estimate
            differences[f"{m1}_vs_{m2}"] = {
                "abs_diff": diff,
                "se_units": diff / mc_se if mc_se else None,
            }
    report = {
        "spec": {"sigma": rn.sigma, "c1": rn.c1, "s0": rn.s0, "r": rn.r,
                 "strike": opt.strike, "maturity": opt.maturity, "t": opt.t},
        "quotes": {m: q.to_dict() for m, q in quotes.items()},
        "differences": differences,
    }
    json_file = _out(cfg, "price.json")
    io.write_json(json_file, report)
    print(json.dumps(io._round12(report), indent=2, sort_keys=True))
    return [str(json_file)]


def cmd_convergence(cfg: dict) -> list[str]:
    params = validate_params(cfg["mu"], cfg["sigma"], cfg["c1"], cfg["s0"])
    horizon = cfg["horizon"]
    try:
        dt_levels = [horizon / int(n) for n in cfg["levels"].split(",")]
    except (ValueError, ZeroDivisionError):
        raise InvalidGrid(f"levels must be a comma list of step counts, "
                          f"got {cfg['levels']!r}") from None
    schemes = [s.strip() for s in cfg["scheme"].split(",") if s.strip()]
    reports = sde._strong_convergence(params, horizon, dt_levels, cfg["paths"], cfg["seed"],
                                      schemes, cfg["reference"])
    results = {rep.scheme: {"dt_levels": rep.dt_levels,
                            "strong_errors": rep.strong_errors,
                            "fitted_slope": rep.fitted_slope,
                            "reference": rep.reference}
               for rep in reports}
    json_file, csv_file = _out(cfg, "convergence.json"), _out(cfg, "convergence.csv")
    io.write_json(json_file, results)
    header = ["dt"] + [f"error_{s}" for s in schemes]
    rows = ([io.fmt(dt)] + [io.fmt(results[s]["strong_errors"][i]) for s in schemes]
            for i, dt in enumerate(dt_levels))
    io.write_csv(csv_file, header, rows)
    return [str(json_file), str(csv_file)]


def cmd_hv(cfg: dict) -> list[str]:
    series = io.ingest_csv(_require_csv(cfg))
    vols = calibration.rolling_hv(series, cfg["window"], cfg["trading_days"])
    csv_file = _out(cfg, "hv.csv")
    rows = ([d.isoformat(), io.fmt(v)] for d, v in zip(vols.dates, vols.vols))
    io.write_csv(csv_file, ["date", "hv"], rows)
    return [str(csv_file)]


def cmd_regress(cfg: dict) -> list[str]:
    series = io.ingest_csv(_require_csv(cfg))
    window = cfg["window"]
    vols = calibration.rolling_hv(series, window, cfg["trading_days"])
    report = calibration.ols_fit(series.closes[window:], vols.vols)
    json_file = _out(cfg, "regress.json")
    io.write_json(json_file, report.to_dict())
    print(json.dumps(io._round12(report.to_dict()), indent=2, sort_keys=True))
    return [str(json_file)]


HANDLERS = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "price": cmd_price,
    "convergence": cmd_convergence,
    "hv": cmd_hv,
    "regress": cmd_regress,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        if args.show_config:
            print(json.dumps(io._round12(cfg), indent=2, sort_keys=True))
            return 0
        written = HANDLERS[args.command](cfg)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    except VveError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

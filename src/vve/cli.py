"""Command-line front end.

Subcommands: simulate | calibrate | price | convergence | hv | regress.

Each command is declared once, in ``COMMANDS``: its help, its options as
(name, default, help) and its handler; a flag's type is its default's
(``str`` for None).
Configuration precedence: CLI flags > config file (--config, JSON; the
command's section, then flat keys) > built-in defaults.  ``--show-config``
prints the merged configuration and exits.  The only environment variable
honored is VVE_OUTPUT_DIR, which overrides the default output directory.

Every command is deterministic for a fixed seed and configuration;
re-running produces byte-identical output files.  Every error, a usage error
included, is emitted to stderr as one JSON line with a machine-readable code
(``internal_error`` if it is not a ``VveError``); the exit code is 0 iff no
error occurred (``-h`` prints the usage and exits 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

from . import calibration, io, pricing, sde
from .errors import InvalidGrid, VveError
from .model import validate_params


def _options(command: str) -> list[tuple[str, object, type, str]]:
    """(name, default, type, help) of each option; the type is the default's."""
    return [(name, default, str if default is None else type(default), help_)
            for name, default, help_ in [*COMMANDS[command][1],
                                         ("out_dir", ".", "output directory")]]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a VveError, so that it leaves as a JSON error line."""

    def error(self, message):
        raise VveError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vve",
        description="Variable-volatility-elasticity model: simulate, calibrate, price.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in COMMANDS.items():
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


def _write(cfg: dict, name: str, write) -> str:
    """Make the output directory, ``write(path)`` the file ``name`` in it and
    return the path; an ``OSError`` from either step (a file in the way, no
    permission) is a VveError naming the path."""
    path = Path(cfg["out_dir"]) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        raise VveError(f"cannot write {path}: {exc}") from None
    return str(path)


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
    return [_write(cfg, "paths.csv", lambda path: io.ensemble_to_csv(ensemble, path)),
            _write(cfg, "summary.json",
                   lambda path: io.write_json(path, io.ensemble_summary(ensemble)))]


def cmd_calibrate(cfg: dict) -> list[str]:
    series = io.ingest_csv(_require_csv(cfg))
    window = cfg["window"]
    result = calibration.calibrate_vve(series, window, cfg["trading_days"])
    report = {
        "params": dataclasses.asdict(result.params),
        "regression": result.report.to_dict(),
        "warnings": result.warnings,
        "window": window,
        "trading_days_per_year": cfg["trading_days"],
    }
    rows = ([d.isoformat(), io.fmt(c), io.fmt(v)] for d, c, v in
            zip(result.vols.dates, series.closes[window:], result.vols.vols))
    return [_write(cfg, "calibration.json", lambda path: io.write_json(path, report)),
            _write(cfg, "overlay.csv",
                   lambda path: io.write_csv(path, ["date", "close", "hv"], rows))]


def cmd_price(cfg: dict) -> list[str]:
    pricers = {"formula": lambda: pricing.price_formula(rn, opt),
               "mc": lambda: pricing.price_mc(rn, opt, cfg["paths"], cfg["steps"], cfg["seed"]),
               "bs": lambda: pricing.price_bs(rn, opt)}
    methods = [m.strip() for m in cfg["method"].split(",") if m.strip()]
    unknown = set(methods) - pricers.keys()
    if unknown or not methods:
        raise VveError(f"unknown pricing method(s): {sorted(unknown) or cfg['method']!r}")
    rn = pricing.RiskNeutralParams(sigma=cfg["sigma"], c1=cfg["c1"],
                                   s0=cfg["s0"], r=cfg["r"])
    opt = pricing.OptionSpec(strike=cfg["strike"], maturity=cfg["maturity"],
                             rate=cfg["r"], t=cfg["t"])
    quotes = {m: pricers[m]() for m in methods}
    mc_se = quotes["mc"].error_estimate if "mc" in quotes else 0.0
    differences = {}
    for m1, m2 in itertools.combinations(sorted(quotes), 2):
        diff = abs(quotes[m1].price - quotes[m2].price)
        differences[f"{m1}_vs_{m2}"] = {
            "abs_diff": diff,
            "se_units": diff / mc_se if "mc" in (m1, m2) and mc_se > 0 else None,
        }
    report = {
        "spec": {"sigma": rn.sigma, "c1": rn.c1, "s0": rn.s0, "r": rn.r,
                 "strike": opt.strike, "maturity": opt.maturity, "t": opt.t},
        "quotes": {m: q.to_dict() for m, q in quotes.items()},
        "differences": differences,
    }
    written = [_write(cfg, "price.json", lambda path: io.write_json(path, report))]
    print(io.dumps(report))
    return written


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
    header = ["dt"] + [f"error_{s}" for s in schemes]
    rows = ([io.fmt(dt)] + [io.fmt(results[s]["strong_errors"][i]) for s in schemes]
            for i, dt in enumerate(dt_levels))
    return [_write(cfg, "convergence.json", lambda path: io.write_json(path, results)),
            _write(cfg, "convergence.csv", lambda path: io.write_csv(path, header, rows))]


def cmd_hv(cfg: dict) -> list[str]:
    series = io.ingest_csv(_require_csv(cfg))
    vols = calibration.rolling_hv(series, cfg["window"], cfg["trading_days"])
    rows = ([d.isoformat(), io.fmt(v)] for d, v in zip(vols.dates, vols.vols))
    return [_write(cfg, "hv.csv", lambda path: io.write_csv(path, ["date", "hv"], rows))]


def cmd_regress(cfg: dict) -> list[str]:
    series = io.ingest_csv(_require_csv(cfg))
    window = cfg["window"]
    vols = calibration.rolling_hv(series, window, cfg["trading_days"])
    report = calibration.ols_fit(series.closes[window:], vols.vols)
    written = [_write(cfg, "regress.json", lambda path: io.write_json(path, report.to_dict()))]
    print(io.dumps(report.to_dict()))
    return written


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

#: command -> (help, [(option, default, help)], handler)
COMMANDS = {
    "simulate": ("simulate price paths", [
        *_PATH_OPTIONS,
        ("steps", 252, "time steps"),
        ("scheme", "euler", "euler | milstein | exact"),
    ], cmd_simulate),
    "calibrate": ("calibrate (sigma, c1) from a close-price CSV", _CSV_OPTIONS, cmd_calibrate),
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
    ], cmd_price),
    "convergence": ("strong-convergence study", [
        *_PATH_OPTIONS,
        ("levels", "64,128,256,512,1024,2048", "comma list of step counts, coarse to fine"),
        ("scheme", "euler,milstein", "comma list of euler,milstein"),
        ("reference", "auto", "exact | refined | auto"),
    ], cmd_convergence),
    "hv": ("rolling historical volatility from a close-price CSV", _CSV_OPTIONS, cmd_hv),
    "regress": ("volatility-on-price regression report from a CSV", _CSV_OPTIONS,
                cmd_regress),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge_config(args.command, args)
        if args.show_config:
            print(io.dumps(cfg))
            return 0
        written = COMMANDS[args.command][2](cfg)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    except Exception as exc:  # noqa: BLE001 - every failure is one JSON error line
        known = isinstance(exc, VveError)
        print(json.dumps({"error": exc.code if known else "internal_error",
                          "message": str(exc) if known else f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

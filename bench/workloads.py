"""The benchmark's workloads: Monte Carlo strike strips, formula surfaces and CLI sessions.

A workload is built from the seed (its set-up) and then runs whole rounds of
the same operations, one call or one child process at a time.  Every output
is checked against an oracle from ``checks`` or a property the method must
have.  ``run_round`` times one round; ``trace_round`` runs one round without
and one with spans, so the traced run also measures the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io as text_io
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import CheckFailed, require
from spans import Tracer, maybe_span
from vve import calibration, cli, io, pricing, sde

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "vve_synthetic.csv"

#: the cached law solve; a traced wrapper put in its place hides ``cache_info``
LAW_MAP = pricing.law_map

S0, RATE, SIGMA = 100.0, 0.05, 0.2


@dataclass
class Op:
    kind: str
    seconds: float
    failed: bool = False


@dataclass
class Round:
    seconds: float                   # wall time of the round's operations
    ops: list[Op]                    # the same operations, in the same order, every round
    layer: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that runs the checkout's vve."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("VVE_OUTPUT_DIR", None)
    return env


class Workload:
    name = ""
    #: untraced rounds at least, so that each operation's best time has that many samples
    min_rounds = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []

    @contextlib.contextmanager
    def checking(self):
        """Record a failed check and go on, so that every round runs whole."""
        try:
            yield
        except CheckFailed as exc:
            self.problems.append(str(exc))

    def run_round(self, index: int, tracer: Tracer | None = None) -> Round:
        raise NotImplementedError

    def trace_targets(self) -> list:
        """``(module, attribute, span name, after)`` to trace in the traced pass."""
        return []

    def trace_round(self, index: int, tracer: Tracer) -> Round:
        plain = self.run_round(2 * index)
        with tracer.patched(self.trace_targets()):
            traced = self.run_round(2 * index + 1, tracer)
        traced.ops += plain.ops
        traced.layer.update({"trace.untraced_run_s": plain.seconds, "trace.run_s": traced.seconds})
        return traced

    def time_to_1c(self, kinds: list[str], best: list[float]) -> float:
        """Seconds to an ATM call price accurate to one cent, from each operation's best time."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every round."""


# --------------------------------------------------------------------------
# mc_strip
# --------------------------------------------------------------------------

def _count_path_steps(tracer, result, params, horizon, steps, n_paths, seed):
    tracer.counts["sde.euler_terminal_path_steps"] += steps * n_paths


class McStrip(Workload):
    """``price_mc`` on a K = 90, 100, 110 strip at c1 = 0 and 5e-4.

    Each round draws a fresh MC seed from the workload seed; the strikes of a
    strip share it, so they share one path set.
    """

    name = "mc_strip"
    STRIKES = (90.0, 100.0, 110.0)
    C1S = (0.0, 5e-4)
    TAU = 1.0
    PATHS = 16384
    STEPS = 500

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.strips = [(pricing.RiskNeutralParams(SIGMA, c1, S0, RATE),
                        [pricing.OptionSpec(k, self.TAU, RATE) for k in self.STRIKES])
                       for c1 in self.C1S]
        self.quotes: dict[float, list[list]] = {c1: [] for c1 in self.C1S}

    def trace_targets(self):
        return [(pricing, "euler_terminal", "sde.euler_terminal", _count_path_steps)]

    def run_round(self, index, tracer=None):
        seed = (self.seed * 1_000_003 + index) % 2 ** 32
        ops = []
        for rn, opts in self.strips:
            quotes = []
            for opt in opts:
                start = time.perf_counter()
                with maybe_span(tracer, "pricing.price_mc"):
                    quotes.append(pricing.price_mc(rn, opt, self.PATHS, self.STEPS, seed))
                ops.append(Op(f"mc_quote c1={rn.c1:g}", time.perf_counter() - start))
            what = f"mc_strip c1={rn.c1:g} seed={seed}"
            with self.checking():
                checks.check_strip_shape(self.STRIKES, [q.price for q in quotes], 0.0, what)
                for q in quotes:
                    require(q.diagnostics["exploded_fraction"] == 0.0, f"{what}: exploded paths")
            self.quotes[rn.c1].append(quotes)
        return Round(seconds=sum(op.seconds for op in ops), ops=ops)

    def time_to_1c(self, kinds, best):
        """Strip time per quote x (SE / 0.01)^2 of the ATM c1 = 5e-4 quote (mean SE^2)."""
        per_quote = statistics.mean(t for k, t in zip(kinds, best) if k == "mc_quote c1=0.0005")
        atm = self.STRIKES.index(100.0)
        variance = statistics.mean(r[atm].error_estimate ** 2 for r in self.quotes[5e-4])
        return per_quote * variance / 0.01 ** 2

    def finish(self):
        for rn, opts in self.strips:
            rounds = self.quotes[rn.c1]
            if rn.c1 == 0:
                refs = [checks.bs_call(S0, o.strike, self.TAU, RATE, SIGMA) for o in opts]
                extra = [0.0] * len(opts)
            else:
                # the forward-equation solve shares no code with the Euler MC
                formula = [pricing.price_formula(rn, o) for o in opts]
                refs = [q.price for q in formula]
                extra = [q.diagnostics["law_error_estimate"] for q in formula]
            for i, opt in enumerate(opts):
                with self.checking():
                    checks.check_mc_pooled([r[i].price for r in rounds],
                                           [r[i].error_estimate for r in rounds], refs[i],
                                           extra[i], f"mc_strip c1={rn.c1:g} K={opt.strike:g}")


# --------------------------------------------------------------------------
# formula_surface
# --------------------------------------------------------------------------

class FormulaSurface(Workload):
    """``price_formula`` strips and ATM ``greeks_bump`` over a (c1, tau) surface.

    The law-map cache is cleared each round, so every law solve is paid cold
    once per (rn, tau) and grid, as in a fresh process.  The ATM quote comes
    first in each strip and pays the strip's solves.  The seed moves the
    interior strikes by up to 2.5 either way.  An operation is one strip of
    quotes, or one set of Greeks.
    """

    name = "formula_surface"
    C1S = (0.0, 5e-4, 1e-3, 2e-3)
    TAUS = (0.25, 0.5, 1.0, 2.0)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.strikes = [100.0, 0.0] + [k + rng.uniform(-2.5, 2.5)
                                       for k in (70.0, 80.0, 90.0, 110.0, 120.0, 130.0)]
        self.cells = [(pricing.RiskNeutralParams(SIGMA, c1, S0, RATE), tau,
                       [pricing.OptionSpec(k, tau, RATE) for k in self.strikes])
                      for c1 in self.C1S for tau in self.TAUS]
        self.cold_quotes: list[list[float]] = []  # per round: the ATM quote of each c1 > 0 strip

    def trace_targets(self):
        return [(pricing, "law_map", "pricing.law_map", None)]

    def run_round(self, index, tracer=None):
        LAW_MAP.cache_clear()
        ops, cold = [], []
        presolve_s = 0.0
        for rn, tau, opts in self.cells:
            what = f"formula_surface c1={rn.c1:g} tau={tau:g}"
            if tracer is not None and rn.c1 > 0:
                # pay the solves up front, in the calls price_formula makes
                start = time.perf_counter()
                pricing.law_map(rn, tau)
                pricing.law_map(rn, tau, nodes_below=pricing.LAW_NODES_BELOW // 2,
                                steps=pricing.LAW_STEPS // 2)
                presolve_s += time.perf_counter() - start
            quotes, strip_start = [], time.perf_counter()
            for opt in opts:
                with maybe_span(tracer, "pricing.formula_quote_warm"):
                    quotes.append(pricing.price_formula(rn, opt))
                if len(quotes) == 1 and rn.c1 > 0:
                    cold.append(time.perf_counter() - strip_start)
            ops.append(Op("formula_strip", time.perf_counter() - strip_start))
            start = time.perf_counter()
            with maybe_span(tracer, "pricing.greeks_bump"):
                greeks = pricing.greeks_bump(pricing.price_formula, rn, opts[0])
            ops.append(Op("greeks_set", time.perf_counter() - start))
            if tracer is not None:
                tracer.counts["pricing.quad_evals"] += sum(
                    q.diagnostics["nodes_or_paths"] for q in quotes)
                tracer.counts["pricing.law_nodes"] += quotes[0].diagnostics.get("law_nodes", 0)

            with self.checking():
                checks.check_formula_strip(self.strikes, [q.to_dict() for q in quotes],
                                           S0, tau, RATE, SIGMA, rn.c1, what)
                checks.check_greeks(greeks, what)
                if rn.c1 == 0:
                    ref = checks.bs_delta(S0, opts[0].strike, tau, RATE, SIGMA)
                    require(abs(greeks["delta"] - ref) <= 1e-5,
                            f"{what}: delta {greeks['delta']:.8f} vs N(d1) {ref:.8f}")
        if tracer is None:
            self.cold_quotes.append(cold)
        else:
            tracer.counts["pricing.law_solves"] += LAW_MAP.cache_info().misses
        strips_s = presolve_s + sum(op.seconds for op in ops if op.kind == "formula_strip")
        greeks_s = sum(op.seconds for op in ops if op.kind == "greeks_set")
        return Round(seconds=sum(op.seconds for op in ops) + presolve_s, ops=ops,
                     layer={"pricing.formula_quotes_per_s": len(self.cells) * len(self.strikes)
                            / strips_s,
                            "pricing.greeks_sets_per_s": len(self.cells) / greeks_s})

    def time_to_1c(self, kinds, best):
        """The cold ATM quote (two law solves and the quadrature): best per strip, median."""
        return statistics.median(min(times) for times in zip(*self.cold_quotes))


# --------------------------------------------------------------------------
# cli_session
# --------------------------------------------------------------------------

def _count_csv_bytes(tracer, result, ensemble, path):
    tracer.counts["io.ensemble_to_csv_bytes"] += os.path.getsize(path)


def _count_convergence_steps(tracer, report, params, horizon, dt_levels, n_paths, seed,
                             **kwargs):
    levels = [round(horizon / dt) for dt in dt_levels]
    reference = max(levels) * kwargs.get("refine_factor", 8) if report.reference == "refined" else 0
    tracer.counts["sde.strong_convergence_path_steps"] += n_paths * (reference + sum(levels))


def _count_formula(tracer, quote, *args, **kwargs):
    tracer.counts["pricing.quad_evals"] += quote.diagnostics["nodes_or_paths"]
    tracer.counts["pricing.law_nodes"] += quote.diagnostics.get("law_nodes", 0)


class CliSession(Workload):
    """A user's session of ``vve`` commands, each a fresh child process.

    The seed sets the ``simulate`` seed.  ``convergence`` runs at its default
    seed, so its Milstein slope, which fails, does not depend on the seed.
    """

    name = "cli_session"
    min_rounds = 4  # a command's whole run shares one load state; more samples help

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        csv = str(FIXTURE)
        self.commands = [
            ("calibrate", ["calibrate", "--csv", csv]),
            ("hv", ["hv", "--csv", csv]),
            ("regress", ["regress", "--csv", csv]),
            ("simulate", ["simulate", "--c1", "5e-4", "--seed", str(seed % 2 ** 31)]),
            ("convergence", ["convergence", "--c1", "5e-4"]),
            ("price", ["price", "--method", "formula,bs", "--c1", "5e-4"]),
        ]
        self.env = child_env()
        self.oracle = None
        self.schemas = None
        for sub in ("child", "plain", "traced"):
            (workdir / sub).mkdir(parents=True, exist_ok=True)

    def _checks(self, name: str, out: Path) -> bool:
        """Check one command's outputs; False only for the Milstein slope."""
        if self.oracle is None:
            closes = checks.read_closes(FIXTURE)
            hv = checks.rolling_hv(closes, 30)
            self.oracle = {"hv": hv, "ols": checks.ols(closes[30:], hv)}
            self.schemas = checks.SchemaChecker(SRC / "vve" / "schemas")
        if name == "calibrate":
            report = self.schemas.load(out / "calibration.json", "calibration.json")
            checks.check_calibration(report)
            checks.check_regression(report["regression"], self.oracle["ols"], "calibrate")
            overlay = [row.split(",") for row in (out / "overlay.csv").read_text().split()[1:]]
            checks.check_series([float(r[2]) for r in overlay], self.oracle["hv"], 1e-9,
                                "calibrate overlay.csv")
        elif name == "hv":
            rows = (out / "hv.csv").read_text().split()[1:]
            checks.check_series([float(r.split(",")[1]) for r in rows], self.oracle["hv"],
                                1e-9, "hv.csv")
        elif name == "regress":
            report = self.schemas.load(out / "regress.json", "regression.json")
            checks.check_regression(report, self.oracle["ols"])
        elif name == "simulate":
            summary = self.schemas.load(out / "summary.json", "summary.json")
            require(summary["exploded_fraction"] == 0.0, "simulate: exploded paths")
            rows = (out / "paths.csv").read_text().split()[1:]
            checks.check_euler_mean([float(r.rsplit(",", 1)[1]) for r in rows], 100.0, 0.05,
                                    summary["horizon"], summary["steps"])
        elif name == "convergence":
            report = self.schemas.load(out / "convergence.json", "convergence.json")
            checks.check_euler_slope(report)
            return checks.milstein_slope_ok(report)
        else:
            checks.check_price(self.schemas.load(out / "price.json", "price.json"))
        return True

    def run_round(self, index, tracer=None):
        """The session as child processes, writing to ``workdir/child``."""
        out, ops = self.workdir / "child", []
        for name, args in self.commands:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "vve.cli", *args, "--out-dir", str(out)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=150)
            seconds = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"cli_session: vve {name} exited {proc.returncode}: {proc.stderr[-500:]}",
                      file=sys.stderr)
                ops.append(Op(name, seconds, failed=True))
                continue
            milstein_ok = True
            with self.checking():
                milstein_ok = self._checks(name, out)
            ops.append(Op(name, seconds, failed=not milstein_ok))
        return Round(seconds=sum(op.seconds for op in ops), ops=ops)

    def time_to_1c(self, kinds, best):
        """The ``vve price`` command: its formula quote is accurate to far below a cent."""
        return best[kinds.index("price")]

    def _in_process_session(self, out: Path, reference: Path,
                            tracer: Tracer | None) -> dict[str, float]:
        """Each command through ``vve.cli.main`` in this process; files must match ``reference``."""
        LAW_MAP.cache_clear()
        seconds = {}
        with contextlib.redirect_stdout(text_io.StringIO()), \
                contextlib.redirect_stderr(text_io.StringIO()):
            for name, args in self.commands:
                start = time.perf_counter()
                with maybe_span(tracer, f"cli.main.{name}"):
                    code = cli.main([*args, "--out-dir", str(out)])
                seconds[name] = time.perf_counter() - start
                with self.checking():
                    require(code == 0, f"cli_session: vve.cli.main({name}) returned {code}")
        if tracer is not None:
            tracer.counts["pricing.law_solves"] += LAW_MAP.cache_info().misses
        with self.checking():
            for path in sorted(reference.iterdir()):
                require((out / path.name).read_bytes() == path.read_bytes(),
                        f"cli_session: in-process {path.name} differs from the child process's")
        return seconds

    def trace_targets(self):
        return [
            (io, "ingest_csv", "io.ingest_csv", None),
            (io, "ensemble_to_csv", "io.ensemble_to_csv", _count_csv_bytes),
            (io, "write_json", "io.write_json", None),
            (calibration, "calibrate_vve", "calibration.calibrate_vve", None),
            (calibration, "rolling_hv", "calibration.rolling_hv", None),
            (calibration, "ols_fit", "calibration.ols_fit", None),
            (sde, "simulate_euler", "sde.simulate_euler", None),
            (sde, "strong_convergence", "sde.strong_convergence", _count_convergence_steps),
            (pricing, "price_formula", "pricing.price_formula", _count_formula),
            (pricing, "law_map", "pricing.law_map", None),
        ]

    def trace_round(self, index, tracer):
        """The child session, then the same commands in process without, with and without spans.

        The untraced in-process session runs before and after the traced one,
        so that what the first in-process run pays alone does not count as
        tracing overhead.
        """
        result = self.run_round(index)
        child = self.workdir / "child"
        before = self._in_process_session(self.workdir / "plain", child, None)
        with tracer.patched(self.trace_targets()):
            traced = self._in_process_session(self.workdir / "traced", child, tracer)
        after = self._in_process_session(self.workdir / "plain", child, None)
        result.layer.update({f"cli.{op.kind}_s": op.seconds for op in result.ops})
        result.layer.update({f"cli.{n}_in_process_s": min(s, after[n]) for n, s in before.items()})
        result.layer.update({"trace.untraced_run_s": (sum(before.values()) + sum(after.values())) / 2,
                             "trace.run_s": sum(traced.values())})
        return result


WORKLOADS = {w.name: w for w in (McStrip, FormulaSurface, CliSession)}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Set-up: the workload's inputs, made from the seed."""
    return WORKLOADS[name](seed, workdir)

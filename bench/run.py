"""Benchmark of the vve package: one workload per run, metrics as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_strip --seed 1 --seconds 20 --trace 0

The program is used from the checkout's ``src``.  Set-up (a fresh
interpreter importing vve and building the workload's inputs from the seed) is
timed three times in child processes.  The workload then runs whole rounds of
its operations until ``--seconds`` have passed and the workload's least number
of rounds has run, one call or one child process at a time, and checks every
output.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs rounds without and with spans
around the calls into each vve module and reports the per-layer metrics, the
tracing overhead among them, and writes the spans to ``.bench_out/``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import pathlib, workloads; "
               "workloads.build(sys.argv[3], int(sys.argv[4]), pathlib.Path(sys.argv[5]))")


def time_setup(workload: str, seed: int, workdir: Path, env: dict[str, str]) -> float:
    """Median wall time of fresh interpreters importing vve and building the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH),
                               workload, str(seed), str(workdir)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return statistics.median(times)


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Import seconds of vve and its heavy dependencies, from ``-X importtime``.

    A module's figure is the cumulative time of its own line plus that of its
    submodules' lines not nested in one already counted, so ``scipy.stats``,
    which scipy imports lazily without a line of its own, is counted too.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vve"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    lines = []  # (depth, module, cumulative seconds), children before their parent
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            module = fields[2].lstrip()
            lines.append((len(fields[2]) - len(module), module.strip(), int(fields[1]) / 1e6))

    def cumulative(name):
        total, counted_depth = 0.0, None
        for depth, module, seconds in reversed(lines):  # each parent before its children
            if counted_depth is not None and depth > counted_depth:
                continue
            counted_depth = None
            if module == name or module.startswith(name + "."):
                total, counted_depth = total + seconds, depth
        return total

    return {f"import.{name.replace('.', '_')}_s": cumulative(name)
            for name in ("vve", "scipy", "scipy.stats", "numpy")}


def end_to_end(workload, rounds, setup_s: float, rss_who: int) -> dict[str, float]:
    """Timings from each operation's best time over the run's rounds.

    Every round runs the same operations, so each has as many samples as
    there are rounds.  On a shared 2-vCPU host, load from outside the
    container slowed stretches of seconds by up to 1.5x; the best of a run's
    repeats varies less from run to run than their median.
    """
    kinds = [op.kind for op in rounds[0].ops]
    best = [min(times) for times in zip(*([op.seconds for op in r.ops] for r in rounds))]
    return {
        "setup_s": setup_s,
        "run_s": sum(best),
        "op_p50_s": statistics.median(best),
        "time_to_1c_s": workload.time_to_1c(kinds, best),
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
    }


def per_layer(rounds, tracer) -> dict[str, float]:
    """Span times and counts per round, and the workload's own per-round figures."""
    n = len(rounds)
    metrics: dict[str, float] = {}
    for name, (inclusive, own, calls) in tracer.totals().items():
        metrics.update({f"{name}_s": inclusive / n, f"{name}_self_s": own / n,
                        f"{name}_calls": calls / n})
    metrics.update({name: value / n for name, value in tracer.counts.items()})
    per_round = defaultdict(list)
    for r in rounds:
        for name, value in r.layer.items():
            per_round[name].append(value)
    metrics.update({name: statistics.median(v) for name, v in per_round.items()})
    if metrics.get("sde.euler_terminal_s"):
        metrics["sde.euler_terminal_path_steps_per_s"] = (
            metrics["sde.euler_terminal_path_steps"] / metrics["sde.euler_terminal_s"])
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.run_s"] / metrics["trace.untraced_run_s"] - 1.0)
    metrics["trace.spans"] = len(tracer.spans) / n
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "vve").is_dir():
        print(f"no vve package under {SRC}", file=sys.stderr)
        return 2

    compileall.compile_dir(SRC, quiet=1)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    from spans import Tracer

    env = workloads.child_env()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = (None if args.trace
                   else time_setup(args.workload, args.seed, workdir / "setup", env))
        workload = workloads.build(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        imports = import_times(env) if args.trace else {}
        rounds = []
        min_rounds = 1 if args.trace else workload.min_rounds
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            rounds.append(workload.trace_round(len(rounds), tracer) if tracer is not None
                          else workload.run_round(len(rounds)))
        workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = {**imports, **per_layer(rounds, tracer)}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        rss_who = (resource.RUSAGE_CHILDREN if args.workload == "cli_session"
                   else resource.RUSAGE_SELF)
        metrics = end_to_end(workload, rounds, setup_s, rss_who)
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    ops = [op for r in rounds for op in r.ops]
    for m in wanted:
        print(f"{m['name']:42s} {metrics.get(m['name'], 0.0):14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        sys.exit(1)

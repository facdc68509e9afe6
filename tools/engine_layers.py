"""Stage timings of the Monte Carlo block engine, in isolation.

    python3 tools/engine_layers.py [--quick]

Times each stage 15 times in this one process and prints the medians, in
seconds, as one JSON object:

* ``fill_s``: one half-block Philox fill (``sde._fill_increments`` into a
  2048-row x ``steps`` buffer) and ``kernel_s``: one Euler step kernel
  (``sde._step_terminal``) over that buffer;
* ``kernels_one_thread_s``: ``batch`` kernels on one thread, and
  ``kernels_two_threads_s``: ``batch`` kernels on each of two threads at once.
  Each kernel is ~9 short numpy calls a step that hold the GIL, so two at
  once pass it back and forth on every call; ``kernels_two_threads_locked_s``
  runs the same two threads under one ``threading.Lock``, as the engine does;
* ``fills_one_thread_s`` and ``fills_two_threads_s``: the same for fills,
  which release the GIL for the whole sampler call;
* ``euler_terminal_1cpu_s`` and ``euler_terminal_2cpu_s``: ``euler_terminal``
  on ``paths`` x ``steps`` with one and with two usable CPUs, which sets the
  engine's worker count.  ``os.sched_getaffinity`` is patched in this
  process; the machine's affinity is not changed.

The default size is the ``mc_strip`` benchmark's, 16384 paths x 500 steps;
``--quick`` takes 8192 x 200 and 3 repeats, a few seconds in all.  Two
threads cannot beat one where fewer than two CPUs are usable, so compare the
pairs only on a machine with two or more.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from vve import sde  # noqa: E402
from vve.model import ModelParams  # noqa: E402

PARAMS = ModelParams(mu=0.05, sigma=0.2, c1=5e-4, s0=100.0)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def on_two_threads(fn):
    """``fn(0)`` and ``fn(1)`` on two threads at once; returns when both are done."""
    def run():
        threads = [threading.Thread(target=fn, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return run


def stages(paths: int, steps: int, batch: int, repeats: int) -> dict[str, float]:
    """Median seconds of each stage; a stage run on thread ``i`` uses buffer and
    generator ``i``."""
    dt = 1.0 / steps
    buffers = np.empty((2, sde.BLOCK_SIZE // 2, steps))
    gens = [sde._block_generator(0, i) for i in range(2)]
    lock = threading.Lock()

    def fill(i=0):
        sde._fill_increments(gens[i], buffers[i], dt)

    def kernel(i=0):
        sde._step_terminal(PARAMS, dt, PARAMS.s0, buffers[i], (False,))

    def kernels(i=0):
        for _ in range(batch):
            kernel(i)

    def kernels_locked(i=0):
        for _ in range(batch):
            with lock:
                kernel(i)

    def fills(i=0):
        for _ in range(batch):
            fill(i)

    def euler_terminal(cpus):
        def run():
            with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                   create=True):
                sde.euler_terminal(PARAMS, 1.0, steps, paths, 0)
        return run

    timed = {
        "fill_s": fill,
        "kernel_s": kernel,
        "kernels_one_thread_s": kernels,
        "kernels_two_threads_s": on_two_threads(kernels),
        "kernels_two_threads_locked_s": on_two_threads(kernels_locked),
        "fills_one_thread_s": fills,
        "fills_two_threads_s": on_two_threads(fills),
        "euler_terminal_1cpu_s": euler_terminal(1),
        "euler_terminal_2cpu_s": euler_terminal(2),
    }
    for fn in timed.values():  # warm: first-call costs and page faults
        fn()
    return {name: median_time(fn, repeats) for name, fn in timed.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="8192 paths x 200 steps and 3 repeats")
    args = parser.parse_args(argv)
    paths, steps, repeats = (8192, 200, 3) if args.quick else (16384, 500, 15)
    batch = 8
    result = {"paths": paths, "steps": steps, "half_block_rows": sde.BLOCK_SIZE // 2,
              "batch": batch, "repeats": repeats,
              "medians": stages(paths, steps, batch, repeats)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

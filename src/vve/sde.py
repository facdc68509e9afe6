"""Path simulation for the variable-volatility-elasticity SDE.

    dS_t = S_t [ mu dt + (sigma + c1 S_t) dB_t ]

Schemes: Euler-Maruyama and Milstein with full truncation at zero (the
diffusion vanishes at 0, so 0 is absorbing), plus the closed-form candidate
solution (``exact_values``, ``simulate_exact``).

Verification status of the closed form
--------------------------------------
For c1 = 0 the closed form reduces to the exact geometric-Brownian-motion
solution.  For c1 > 0 it does NOT satisfy the SDE: the Ito drift/diffusion
residuals are nonzero (checked symbolically), and the gap between the closed
form and refined Euler paths plateaus instead of vanishing as dt -> 0.  No
function of (t, B_t) alone can solve this SDE, so the defect is structural,
not a transcription issue.  The closed form is kept as stated for
cross-checking; when c1 > 0 the convergence reference is the measured scheme
itself on a grid ``REFINE_FACTOR`` (8) times finer than the finest level
(``strong_convergence(..., reference="refined")``).

Randomness
----------
Brownian increments are generated by the counter-based Philox generator.
Paths are grouped in fixed blocks of ``BLOCK_SIZE``; block ``b`` of seed
``s`` draws from ``Philox(key=[s, b])``, and path ``i`` owns row
``i % BLOCK_SIZE`` of its block's increment matrix.  Every path is therefore
a pure function of (seed, path_index, grid), independent of execution order,
chunking, or thread count.

Block engine
------------
``_map_blocks(fn, seed, n_paths, steps, dt)`` is the one place an ensemble
draws its increments.  Each block's work (the Philox fill, then
``fn(row slice, increments)``) runs on a module-level thread pool of
``min(usable CPUs, 2)`` workers, created, together with the
``concurrent.futures`` import, at the first call; ``fn``'s results come back
in block order.  Two workers let one block's fill overlap another block's
steps; the steps hold the GIL between their small numpy calls, so a third
worker would mostly add a buffer.  Block functions write disjoint row slices
of the caller's arrays or return per-block sums that the caller adds in block
order, so no bit depends on the number of threads.  A block function never
submits work to the pool.

Memory: the calling thread allocates ``k = min(workers, blocks)`` increment
buffers of ``min(BLOCK_SIZE, n_paths) x steps`` once per call; block ``i``
fills buffer ``i % k`` in place, and at most ``k`` blocks are in flight.
Workers allocate no block of their own, so the peak stays one buffer per
block in flight and freed blocks do not pile up in per-thread malloc arenas.

Step kernel
-----------
``_step_terminal`` is the one Euler/Milstein kernel.  It steps a stack of
schemes over one increment matrix: states of shape ``(schemes, rows)``, the
Euler part once per step over the whole stack, the Milstein correction on
the Milstein rows only.  ``euler_terminal`` and the ``simulate_*`` functions
pass a one-scheme stack; ``_strong_convergence`` makes one call for the
refined reference and one per level, covering all its schemes.

Memory: each call allocates four ``(schemes, rows)`` work arrays and the
exploded mask, a ``PANEL_WIDTH x rows`` increment panel (1 MB at 4096 rows),
a ``TILE_ROWS x PANEL_WIDTH`` staging tile (32 kB) and, when the stack has a
Milstein row, a second panel for ``dB^2 - dt`` and one row of corrections.
Every step writes into these, so a step allocates no array data unless a
state overflows.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, SigmaZeroUnsupported, SingularDelta
from .model import GAMMA_TOL, ModelParams

BLOCK_SIZE = 4096

#: increment columns the step kernel copies into one contiguous panel
PANEL_WIDTH = 32

#: rows per staging tile of a panel copy.  Copying a whole panel transposed
#: walks down each column, one cache line per row, and with thousands of rows
#: (or rows a power of two apart) a line is evicted before the next column
#: reuses it; a tile copies its rows contiguously, then transposes in cache.
TILE_ROWS = 128

#: denominator threshold factor for flagging exploded closed-form paths
DEN_TOL_FACTOR = 1e-10

#: how much finer than the finest level the ``"refined"`` convergence reference steps
REFINE_FACTOR = 8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise InvalidGrid(f"horizon must be a finite number > 0, got {self.horizon}")
        if self.steps < 1:
            raise InvalidGrid(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass
class PathEnsemble:
    """Matrix of simulated price paths with seed provenance.

    ``paths`` has shape (n_paths, steps + 1); column 0 is s0.  ``exploded``
    flags paths of which some update left the finite range.  Such a step is
    discarded (the state holds through it) and the path steps on from that
    state, so it can later be truncated to 0 and absorbed there.
    """

    grid: TimeGrid
    paths: np.ndarray
    seed: int
    scheme: str
    exploded: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def exploded_fraction(self) -> float:
        return float(np.mean(self.exploded))


@dataclass(frozen=True)
class ConvergenceReport:
    dt_levels: np.ndarray
    strong_errors: np.ndarray
    fitted_slope: float | None
    scheme: str
    reference: str


# --------------------------------------------------------------------------
# Brownian increments
# --------------------------------------------------------------------------

def _block_generator(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), int(block)]))


def _fill_increments(seed: int, block: int, out: np.ndarray, dt: float) -> np.ndarray:
    """Fill ``out`` with the increments of the first ``len(out)`` paths of one block."""
    _block_generator(seed, block).standard_normal(out=out)
    out *= np.sqrt(dt)
    return out


def _block_increments(seed: int, block: int, rows: int, steps: int, dt: float) -> np.ndarray:
    """Increment matrix for the first ``rows`` paths of one block."""
    return _fill_increments(seed, block, np.empty((rows, steps)), dt)


_pool = None  # (ThreadPoolExecutor, its number of workers), made at first use
_pool_lock = threading.Lock()


def _block_pool():
    """The block engine's thread pool and its number of workers."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity on this platform
                cpus = os.cpu_count() or 1
            workers = min(cpus, 2)
            _pool = (ThreadPoolExecutor(max_workers=workers, thread_name_prefix="vve-block"),
                     workers)
        return _pool


def _forget_pool():
    # a forked child inherits the pool object and lock but none of the threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _map_blocks(fn, seed: int, n_paths: int, steps: int, dt: float) -> list:
    """``fn(row slice, increments)`` for each block of ``n_paths`` paths, on the pool.

    Returns ``fn``'s results in block order.  The increments passed to ``fn``
    live in a buffer that the next block using it refills, so ``fn`` must copy
    out what it keeps.  If a block raises, the blocks not yet started are
    cancelled, the running ones are waited for, and the exception propagates.
    """
    from concurrent.futures import wait

    pool, workers = _block_pool()
    n_blocks = -(-n_paths // BLOCK_SIZE)
    k = min(workers, n_blocks)
    bufs = [np.empty((min(BLOCK_SIZE, n_paths), steps)) for _ in range(k)]

    def work(block):
        start = block * BLOCK_SIZE
        rows = min(BLOCK_SIZE, n_paths - start)
        db = _fill_increments(seed, block, bufs[block % k][:rows], dt)
        return fn(slice(start, start + rows), db)

    results, in_flight = [], []
    try:
        for block in range(n_blocks):
            if len(in_flight) == k:
                results.append(in_flight.pop(0).result())
            in_flight.append(pool.submit(work, block))
        while in_flight:
            results.append(in_flight.pop(0).result())
    finally:
        for future in in_flight:
            future.cancel()
        wait(in_flight)
    return results


# --------------------------------------------------------------------------
# Discretization schemes
# --------------------------------------------------------------------------

def _step_terminal(params: ModelParams, dt: float, s0, db, milstein, out=None):
    """Advance a stack of schemes through all columns of ``db``.

    ``milstein`` holds one flag per scheme (False: Euler, True: Milstein);
    every scheme steps the ``rows`` states of ``s0`` (a scalar or an array
    that broadcasts to ``(schemes, rows)``) with the same increments ``db`` of
    shape ``(rows, steps)``.  Returns (final states, exploded mask), both of
    shape ``(schemes, rows)``.  Only the current states are kept, unless
    ``out`` is given: an array of shape ``(schemes, rows, steps + 1)`` whose
    column k + 1 then receives the states after step k.

    Each step runs the Euler part once over every row of the stack and adds
    the Milstein correction on the Milstein rows only; every element takes the
    same IEEE operations, in the same order, as a scheme stepped alone.  Every
    ufunc writes into work arrays allocated once per call.  Increments are
    read through a panel that holds ``db[:, k0:k0 + PANEL_WIDTH].T`` in
    contiguous rows, copied row tile by row tile, so a step reads a
    contiguous row instead of a strided column; ``dB^2 - dt`` is computed
    once per panel.  After the truncation at zero every entry is >= 0, inf
    or NaN, so one max-reduction per step finds a step with a non-finite
    entry; only such a step runs the per-element guard, which keeps each
    overflowing state at its value before the step and flags it exploded.
    The next step starts from that value.
    """
    # 0-d arrays: a ufunc takes them with less call overhead than Python floats
    mu, sigma, c1, two_c1, dt, half, zero = (np.array(float(v)) for v in (
        params.mu, params.sigma, params.c1, 2.0 * params.c1, dt, 0.5, 0.0))
    rows, steps = db.shape
    shape = (len(milstein), rows)
    s, s_new, b, work = (np.empty(shape) for _ in range(4))
    s[...] = s0
    exploded = np.zeros(shape, dtype=bool)
    m_rows = [i for i, flag in enumerate(milstein) if flag]
    panel = np.empty((min(PANEL_WIDTH, steps), rows))
    tile = np.empty((min(TILE_ROWS, rows), len(panel)))
    if m_rows:
        corr = np.empty(rows)
        sq = np.empty_like(panel)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, steps, PANEL_WIDTH):
            width = min(PANEL_WIDTH, steps - k0)
            for r0 in range(0, rows, TILE_ROWS):  # rows first, then transpose in cache
                rows_in = tile[:min(TILE_ROWS, rows - r0), :width]
                np.copyto(rows_in, db[r0:r0 + TILE_ROWS, k0:k0 + width])
                np.copyto(panel[:width, r0:r0 + TILE_ROWS], rows_in.T)
            if m_rows:
                np.square(panel[:width], out=sq[:width])
                np.subtract(sq[:width], dt, out=sq[:width])
            for j in range(width):
                np.multiply(s, c1, out=b)
                np.add(b, sigma, out=b)
                np.multiply(b, s, out=b)                     # b = s (sigma + c1 s)
                np.multiply(s, mu, out=s_new)
                np.multiply(s_new, dt, out=s_new)
                np.add(s, s_new, out=s_new)
                np.multiply(b, panel[j], out=work)
                np.add(s_new, work, out=s_new)               # s + mu s dt + b dB
                for i in m_rows:
                    np.multiply(s[i], two_c1, out=work[i])
                    np.add(work[i], sigma, out=work[i])
                    np.multiply(b[i], half, out=corr)
                    np.multiply(corr, work[i], out=corr)
                    np.multiply(corr, sq[j], out=corr)
                    np.add(s_new[i], corr, out=s_new[i])     # + 0.5 b b' (dB^2 - dt)
                np.maximum(s_new, zero, out=s_new)
                if not math.isfinite(np.maximum.reduce(s_new, axis=None)):
                    bad = ~np.isfinite(s_new)
                    s_new[bad] = s[bad]
                    exploded |= bad
                s, s_new = s_new, s
                if out is not None:
                    out[..., k0 + j + 1] = s
    return s, exploded


def _check_n_paths(n_paths: int) -> None:
    if n_paths < 1:
        raise InvalidGrid(f"n_paths must be >= 1, got {n_paths}")


def _simulate(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int,
              milstein: bool, scheme_name: str) -> PathEnsemble:
    _check_n_paths(n_paths)
    paths = np.empty((n_paths, grid.steps + 1))
    exploded = np.zeros(n_paths, dtype=bool)

    def block(rows, db):
        paths[rows, 0] = params.s0
        exploded[rows] = _step_terminal(params, grid.dt, params.s0, db, (milstein,),
                                        out=paths[None, rows])[1][0]

    _map_blocks(block, seed, n_paths, grid.steps, grid.dt)
    return PathEnsemble(grid=grid, paths=paths, seed=seed, scheme=scheme_name,
                        exploded=exploded)


def simulate_euler(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble with full truncation at zero."""
    return _simulate(params, grid, n_paths, seed, milstein=False, scheme_name="euler")


def simulate_milstein(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Milstein ensemble: Euler plus 0.5*b*b'*(dB^2 - dt), full truncation at zero."""
    return _simulate(params, grid, n_paths, seed, milstein=True, scheme_name="milstein")


def euler_terminal(params: ModelParams, horizon: float, steps: int, n_paths: int,
                   seed: int) -> tuple[np.ndarray, float]:
    """Terminal Euler values without storing intermediate columns.

    Identical per-path values to ``simulate_euler(...).paths[:, -1]``; used by
    the Monte Carlo pricer where full path matrices would not fit in memory.
    Returns (terminal values, exploded fraction).
    """
    _check_n_paths(n_paths)
    dt = TimeGrid(horizon, steps).dt
    terminal = np.empty(n_paths)
    exploded = np.zeros(n_paths, dtype=bool)

    def block(rows, db):
        s, bad = _step_terminal(params, dt, params.s0, db, (False,))
        terminal[rows], exploded[rows] = s[0], bad[0]

    _map_blocks(block, seed, n_paths, steps, dt)
    return terminal, int(exploded.sum()) / n_paths


# --------------------------------------------------------------------------
# Closed-form candidate solution
# --------------------------------------------------------------------------

def closed_form_rates(drift: float, sigma: float, drift_name: str) -> tuple[float, float]:
    """(gamma, delta) = (drift - sigma^2/2, drift / gamma) of the closed form.

    The closed form divides by sigma and by gamma: raises
    SigmaZeroUnsupported at sigma = 0 and SingularDelta where
    |gamma| < GAMMA_TOL.  ``drift_name`` names the drift in the message.
    """
    if sigma == 0:
        raise SigmaZeroUnsupported("closed form requires sigma > 0")
    gamma = drift - 0.5 * sigma ** 2
    if abs(gamma) < GAMMA_TOL:
        raise SingularDelta(f"|{drift_name} - sigma^2/2| = {abs(gamma):.3e} < {GAMMA_TOL}")
    return gamma, drift / gamma


def exact_values(params: ModelParams, t, b):
    """Evaluate the closed-form candidate solution at times t, Brownian values b.

    S(t, B) = sigma*s0*E / [ (mu/g - 1)*c1*s0*E - (mu/g)*c1*s0*F + sigma + c1*s0 ]

    with E = exp(g*t + sigma*B), F = exp(sigma*B), g = mu - sigma^2/2.  Exact
    for c1 = 0 (geometric Brownian motion); see the module docstring for the
    c1 > 0 verification status.  Returns (values, denominator).
    """
    sigma, c1, s0 = params.sigma, params.c1, params.s0
    gamma, delta = closed_form_rates(params.mu, sigma, "mu")
    t = np.asarray(t, dtype=float)
    b = np.asarray(b, dtype=float)
    big_e = np.exp(gamma * t + sigma * b)
    big_f = np.exp(sigma * b)
    den = (delta - 1.0) * c1 * s0 * big_e - delta * c1 * s0 * big_f + sigma + c1 * s0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = sigma * s0 * big_e / den
    return values, den


def _exact_rows(params: ModelParams, times: np.ndarray, b: np.ndarray):
    """Closed-form paths at ``times`` for each row of Brownian values ``b``.

    A row whose denominator falls to or below ``DEN_TOL_FACTOR*(sigma+c1*s0)``
    is flagged exploded and is NaN from its first crossing onward.  Returns
    (values, exploded mask).
    """
    values, den = exact_values(params, times[None, :], b)
    values[:, 0] = params.s0  # t=0, B=0 reduces algebraically to s0
    bad = den <= DEN_TOL_FACTOR * (params.sigma + params.c1 * params.s0)
    values[np.logical_or.accumulate(bad, axis=1)] = np.nan
    return values, bad.any(axis=1)


def simulate_exact(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Ensemble of closed-form candidate paths (see the module docstring).

    Exploded paths carry NaN from the first denominator crossing onward and
    are flagged in ``exploded``.
    """
    _check_n_paths(n_paths)
    paths = np.empty((n_paths, grid.steps + 1))
    exploded = np.zeros(n_paths, dtype=bool)

    def block(rows, db):
        b = np.concatenate([np.zeros((len(db), 1)), np.cumsum(db, axis=1)], axis=1)
        paths[rows], exploded[rows] = _exact_rows(params, grid.times, b)

    _map_blocks(block, seed, n_paths, grid.steps, grid.dt)
    return PathEnsemble(grid=grid, paths=paths, seed=seed, scheme="exact",
                        exploded=exploded)


# --------------------------------------------------------------------------
# Strong convergence measurement
# --------------------------------------------------------------------------

def _validate_dt_levels(horizon: float, dt_levels) -> list[int]:
    """Check dyadic refinement structure; return steps per level, coarse to fine."""
    TimeGrid(horizon, 1)  # checks the horizon
    dts = np.asarray(dt_levels, dtype=float)
    if len(dts) < 2 or np.any(np.diff(dts) >= 0):
        raise InvalidGrid("dt_levels must be strictly decreasing with >= 2 entries")
    steps = []
    for dt in dts:
        n = horizon / dt
        if not 0.5 < n < np.inf or abs(n - round(n)) > 1e-9:
            raise InvalidGrid(f"dt={dt} does not divide horizon={horizon}")
        steps.append(int(round(n)))
    finest = steps[-1]
    for n in steps:
        if finest % n != 0:
            raise InvalidGrid("dt_levels must be dyadic refinements of a common grid")
    return steps


def strong_convergence(params: ModelParams, horizon: float, dt_levels, n_paths: int,
                       seed: int, scheme: str = "euler",
                       reference: str = "auto") -> ConvergenceReport:
    """Mean absolute terminal error of a scheme against a pathwise reference.

    All levels share Brownian increments: coarse increments are exact sums of
    the finest-level ones.  ``reference``:

    * ``"exact"``   — closed-form value at (horizon, B_T); valid for c1 = 0.
    * ``"refined"`` — the measured scheme on a grid ``REFINE_FACTOR`` x
      finer than the finest level (the reference when c1 > 0).  A reference
      of another scheme would floor the measured errors at its own error.
    * ``"auto"``    — "exact" if c1 == 0 else "refined".

    Fitted slope is the least-squares slope of log2(error) vs log2(dt), or
    None when some level's error is 0 (every path ends where the reference does).
    """
    return _strong_convergence(params, horizon, dt_levels, n_paths, seed, [scheme],
                               reference)[0]


def _strong_convergence(params: ModelParams, horizon: float, dt_levels, n_paths: int,
                        seed: int, schemes: list[str],
                        reference: str) -> list[ConvergenceReport]:
    """``strong_convergence`` for each of ``schemes``, stepped from one fill.

    Each report has the same errors as a ``strong_convergence`` call of its
    scheme alone.
    """
    if not schemes:
        raise InvalidGrid("no scheme given")
    for name in schemes:
        if name not in ("euler", "milstein"):
            raise InvalidGrid(f"unknown scheme {name!r}")
    if reference == "auto":
        reference = "exact" if params.c1 == 0 else "refined"
    if reference not in ("exact", "refined"):
        raise InvalidGrid(f"unknown reference {reference!r}")

    _check_n_paths(n_paths)
    level_steps = _validate_dt_levels(horizon, dt_levels)
    finest = level_steps[-1]
    gen_steps = finest * REFINE_FACTOR if reference == "refined" else finest
    gen_dt = horizon / gen_steps
    milstein = [name == "milstein" for name in schemes]

    def block(_, db):
        """Per-scheme, per-level sums of |level terminal - reference| over the block."""
        if reference == "exact":
            ref = exact_values(params, horizon, db.sum(axis=1))[0]
        else:
            ref = _step_terminal(params, gen_dt, params.s0, db, milstein)[0]
        sums = np.empty((len(schemes), len(level_steps)))
        for i, n in enumerate(level_steps):
            db_level = db.reshape(len(db), n, gen_steps // n).sum(axis=2)
            term = _step_terminal(params, horizon / n, params.s0, db_level, milstein)[0]
            del db_level  # else it is still held while the next, twice larger level is summed
            sums[:, i] = np.abs(term - ref).sum(axis=1)
        return sums

    errors = np.zeros((len(schemes), len(level_steps)))
    for sums in _map_blocks(block, seed, n_paths, gen_steps, gen_dt):
        errors += sums
    errors /= n_paths

    dts = horizon / np.asarray(level_steps, dtype=float)
    reports = []
    for name, errs in zip(schemes, errors):
        # a zero error has no logarithm: no slope, rather than NaN after a warning
        slope = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0]) if np.all(errs > 0) else None
        reports.append(ConvergenceReport(dt_levels=dts, strong_errors=errs, fitted_slope=slope,
                                         scheme=name, reference=reference))
    return reports

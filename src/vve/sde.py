"""Path simulation for the variable-volatility-elasticity SDE.

    dS_t = S_t [ mu dt + (sigma + c1 S_t) dB_t ]

Schemes: Euler-Maruyama and Milstein with full truncation at zero (the
diffusion vanishes at 0, so 0 is absorbing), plus the closed-form candidate
solution (``exact_values``, ``simulate_exact``) and its map and inverse
(``forward_map``, ``inverse_map``).  The three ``simulate_*`` functions call
one ensemble driver, ``_simulate(..., scheme)``.

Verification status of the closed form
--------------------------------------
For c1 = 0 the closed form reduces to the exact geometric-Brownian-motion
solution.  Its division by mu - sigma^2/2 is removable, and ``_closed_form``,
which ``exact_values`` and the map read, evaluates it at every drift.  For
c1 > 0 it does NOT satisfy the SDE: the Ito drift/diffusion residuals are
nonzero (checked symbolically), and the gap between the closed form and
refined Euler paths plateaus instead of vanishing as dt -> 0.  No function
of (t, B_t) alone can solve this SDE, so the defect is structural, not a
transcription issue.  The closed form is kept as stated for cross-checking;
when c1 > 0 the convergence reference is the measured scheme itself on a
grid ``REFINE_FACTOR`` (8) times finer than the finest level
(``strong_convergence(..., reference="refined")``).

As the map f_t(w) of the price at B_t = w (``forward_map``) it is the
paper's candidate for its pricing formula, which no pricer uses.  The test
suite prices the formula on it by quadrature (``tests/oracles.py``), so that
the finding stays measurable: the candidate lies 8 to 48 Monte Carlo
standard errors above the model's price on the acceptance grid, depends on
the valuation time t and not only on T - t, and prices the zero-strike call
above the spot (101.31 at c1 = 5e-4, s0 = 100): its discounted value is not
a martingale.  The paper's own inverse takes the logarithm of a number that
is not positive for admissible inputs; ``inverse_map`` evaluates the map's
algebraic inverse w = ln(b x / (c - a x)) / sigma on its whole range.

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
``_run_blocks(work, n_paths, rows, cols)`` runs ``work(block, buffer, lock)``
for each block on a thread pool of ``k = min(usable CPUs, 2, blocks)``
workers that the call makes for itself (``concurrent.futures`` is imported at
the first call) and whose threads it joins before it returns, so no thread
outlives a call.  Its callers draw a block in one of two orders, each the
cheaper one for its caller:

* ``_map_blocks(fn, seed, n_paths, steps, dt)``, for ``_simulate`` and
  ``euler_terminal``, draws and steps a block in two row halves, one after
  the other: the Philox fill of the first half, ``fn(row slice,
  increments, lock)``, then the same for the second half, from the
  block's one generator (a last block no taller than a half takes one
  part).  numpy's normal sampler consumes the stream row after row, so the
  two fills give the bits of one fill of the whole block.
* ``_strong_convergence`` steps a block in column windows that cover all
  its rows.  Where one window holds the whole grid, the block is drawn in
  one fill.  Otherwise it is drawn in two passes over the block's one
  generator.  The first walks the rows, filling each row's first window
  and saving where the row's stream then stands in a generator of the
  row's own; the second refills each later window from those.  Philox is
  counter based, so a saved state resumes its stream bit for bit.  Each
  kernel call then steps all of a block's rows, not half of them, which
  wins back most of the second fill on the long refined grid.  On a Monte
  Carlo grid the fill is about two thirds of the thread time (16384 paths
  x 500 steps), so the halves, which fill each increment once, are the
  cheaper order there.

One kernel at a time: every ``_step_terminal`` call of a block runs under
the call's one ``threading.Lock``, and every fill of a whole buffer outside
it, so one block's fill overlaps another block's steps and no two blocks
step at once.  A whole-buffer fill is one sampler call that releases the GIL
throughout, and two at once take the time of one.  A step is ~9 short numpy
calls that each take the GIL, and two kernels at once hand it back and forth
on every call: on 2 vCPUs two threads stepping 8 half-block kernels (2048 x
500) each at once took about twice as long as the same two threads taking
turns under one lock (``tools/engine_layers.py``, ``BENCH_39.json``).  So a
third worker would only add a buffer.  The windowed convergence study fills
one row at a time, in short calls that take the GIL as a kernel's do, so
those fills run under the lock too; left outside it, they slowed ``vve
convergence --c1 5e-4 --paths 8192`` from 10.3 to 12.0 s (medians of 6
alternated processes).  ``_simulate``'s exact blocks step no kernel: their
few whole-array calls release the GIL, and they take no lock.  The lock is
made per call, so no state outlives a call, and a child forked while another
thread steps inherits no held lock that its own calls need.  Block functions
write disjoint row slices of the caller's arrays, or one block's error sums
of the convergence study, which are added in block order afterwards, so no
bit depends on the number of threads.

Memory: the calling thread allocates ``k`` increment buffers once per call;
block ``i`` fills buffer ``i % k`` in place, and at most ``k`` blocks are in
flight.  A half-block buffer holds ``ceil(min(BLOCK_SIZE, n_paths) / 2) x
steps`` increments (8 MB at 2048 x 500).  A window buffer holds
``min(BLOCK_SIZE, n_paths) x W``, where the window width W keeps it within
``_WINDOW_BUDGET`` (2^20 increments, 8 MiB) unless one whole step of every
level is wider (see ``_strong_convergence``), so it does not grow with the
length of the refined grid: 8 MB for the default convergence study's 1000 x
16384 refined increments.  Each row's saved
generator adds ~0.6 kB.  Workers allocate no block of their own, so the
peak stays one buffer per block in flight and freed blocks do not pile up
in per-thread malloc arenas.  The buffers are one anonymous memory mapping
of their own, unmapped when the call drops them.  From malloc, buffers of this size came
from the process heap once one had been freed; whether a call's freed
buffers went back to the system or stayed a hole that smaller allocations
split, so that the next call's buffers extended the heap, depended on what
had been allocated above them meanwhile, and a run of ``price_mc`` calls
peaked one whole-block buffer (16 MB at 4096 x 500) higher in some runs
than in others.

Step kernel
-----------
``_step_terminal`` is the one Euler/Milstein kernel.  It steps a stack of
schemes over one increment matrix: states of shape ``(schemes, rows)``, the
Euler part once per step over the whole stack, the Milstein correction on
the Milstein rows only.  ``euler_terminal`` and ``_simulate`` pass a
one-scheme stack; ``_strong_convergence`` makes one call per window and
level, the refined reference stepped as one more level, covering all its
schemes, and each call starts from the states the last one returned.  A
level reads the window in place, ``group`` columns a step, and takes their
sums tile by tile as it stages the panel.

A panel's steps check for a state that left the finite range once, at the
panel's end; only a panel that ends with one is replayed from its saved
start with a per-step check (see ``_step_terminal``).

Memory: each call allocates five ``(schemes, rows)`` work arrays (two
states, the panel's saved start and two of scratch) and the exploded mask,
a ``PANEL_WIDTH x rows`` increment panel (1 MB at 4096 rows), a
``TILE_ROWS x PANEL_WIDTH`` staging tile (32 kB) and, when the stack has a
Milstein row, a second panel for ``dB^2 - dt`` and one row of corrections.
Every step writes into these, so a step allocates no array data unless a
state overflows.  So the window is the only ``rows x steps`` array a
convergence block holds: no level copies its summed increments.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ExplosionRegion, InvalidGrid, OutOfRange, SigmaZeroUnsupported
from .model import ModelParams, _exp

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

#: increments a convergence block's column window holds at most, unless one
#: window must be wider to hold a whole step of every level: 8 MiB, about one
#: half-block part of a 4096-path Monte Carlo block at 500 steps
_WINDOW_BUDGET = 2 ** 20


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise InvalidGrid(f"horizon must be a finite number > 0, got {self.horizon}")
        if not isinstance(self.steps, (int, np.integer)):
            raise InvalidGrid(f"steps must be an integer, got {self.steps!r}")
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


def _fill_increments(gen: np.random.Generator, out: np.ndarray, dt: float) -> np.ndarray:
    """Fill ``out`` with the next ``out.size`` increments of ``gen``, row by row.

    Successive fills from one generator continue its stream, so filling a
    block's rows in parts gives the bits of one fill of them all.
    """
    gen.standard_normal(out=out)
    out *= np.sqrt(dt)
    return out


def _block_increments(seed: int, block: int, rows: int, steps: int, dt: float) -> np.ndarray:
    """Increment matrix for the first ``rows`` paths of one block."""
    return _fill_increments(_block_generator(seed, block), np.empty((rows, steps)), dt)


def _mapped_buffers(k: int, rows: int, steps: int) -> np.ndarray:
    """``k`` buffers of ``rows x steps``, as one ``(k, rows, steps)`` array in an
    anonymous memory mapping of its own, which is unmapped when the array and
    its views are freed."""
    size = k * rows * steps
    if hasattr(mmap, "MAP_PRIVATE"):
        region = mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE)
    else:  # Windows: an anonymous mapping takes no flags
        region = mmap.mmap(-1, 8 * size)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises its own large arrays
        try:
            region.madvise(mmap.MADV_HUGEPAGE)
        except OSError:  # a kernel without transparent huge pages
            pass
    return np.frombuffer(region, dtype=float, count=size).reshape(k, rows, steps)


def _run_blocks(work, n_paths: int, rows: int, cols: int) -> None:
    """``work(block, buffer, lock)`` for each block of ``n_paths`` paths, on a thread pool.

    The pool has ``k = min(usable CPUs, 2, blocks)`` workers, is made for this
    call and its threads are joined before the call returns.  Block ``i`` gets
    buffer ``i % k`` of ``k`` buffers of ``rows x cols``, and at most ``k``
    blocks are in flight, so no two of them share a buffer.  Every block gets
    the one ``threading.Lock`` of this call, under which it runs its step
    kernels and outside which it fills a whole buffer.  If a block raises,
    the blocks in flight are waited for and the exception propagates.
    """
    from concurrent.futures import ThreadPoolExecutor

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    n_blocks = -(-n_paths // BLOCK_SIZE)
    k = min(cpus, 2, n_blocks)
    bufs = _mapped_buffers(k, rows, cols)
    lock = threading.Lock()
    in_flight = []
    with ThreadPoolExecutor(max_workers=k, thread_name_prefix="vve-block") as pool:
        for block in range(n_blocks):
            if len(in_flight) == k:
                in_flight.pop(0).result()
            in_flight.append(pool.submit(work, block, bufs[block % k], lock))
        for future in in_flight:
            future.result()


def _map_blocks(fn, seed: int, n_paths: int, steps: int, dt: float) -> None:
    """``fn(row slice, increments, lock)`` for each half of each block of
    ``n_paths`` paths, on ``_run_blocks``' thread pool.

    Each block is drawn and passed to ``fn`` in parts of at most
    ``ceil(min(BLOCK_SIZE, n_paths) / 2)`` rows, in row order, from the one
    generator of the block.  The increments passed to ``fn`` live in a buffer
    that the next part using it refills, so ``fn`` must copy out what it keeps.
    ``fn`` runs its step kernels under ``lock``, the call's one lock; the
    fills run outside it.
    """
    part = -(-min(BLOCK_SIZE, n_paths) // 2)

    def work(block, buf, lock):
        gen = _block_generator(seed, block)
        end = min(n_paths, (block + 1) * BLOCK_SIZE)
        for start in range(block * BLOCK_SIZE, end, part):
            db = _fill_increments(gen, buf[:min(part, end - start)], dt)
            fn(slice(start, start + len(db)), db, lock)

    _run_blocks(work, n_paths, part, steps)


# --------------------------------------------------------------------------
# Discretization schemes
# --------------------------------------------------------------------------

def _step_terminal(params: ModelParams, dt: float, s0, db, milstein, out=None, *,
                   group: int = 1):
    """Advance a stack of schemes through all columns of ``db``.

    ``milstein`` holds one flag per scheme (False: Euler, True: Milstein);
    every scheme steps the ``rows`` states of ``s0`` (a scalar or an array
    that broadcasts to ``(schemes, rows)``) with the same increments ``db`` of
    shape ``(rows, steps)``.  Returns (final states, exploded mask), both of
    shape ``(schemes, rows)``.  Only the current states are kept, unless
    ``out`` is given: an array of shape ``(schemes, rows, steps + 1)`` whose
    column k + 1 then receives the states after step k.

    With ``group`` g > 1, ``db`` has ``steps * g`` columns and step k takes
    the sum of columns ``k g`` to ``(k + 1) g - 1``: the same bits as stepping
    ``db.reshape(rows, steps, g).sum(axis=2)``, without making that copy.
    The sums are taken row tile by row tile, as the tile is staged.

    Each step runs the Euler part once over every row of the stack and adds
    the Milstein correction on the Milstein rows only; every element takes the
    same IEEE operations, in the same order, as a scheme stepped alone.  Every
    ufunc writes into work arrays allocated once per call, through row views
    also made once per call.  Increments are read through a panel that holds
    ``db[:, k0:k0 + PANEL_WIDTH].T`` in contiguous rows, copied row tile by
    row tile, so a step reads a contiguous row instead of a strided column;
    ``dB^2 - dt`` is computed once per panel.

    After the truncation at zero every entry is >= 0, inf or NaN, and an inf
    or NaN state stays inf or NaN through every later step, so one
    max-reduction of the states at a panel's end finds a panel in which some
    step left the finite range.  Only such a panel is replayed, from its
    saved start, with a max-reduction per step; a step that finds a
    non-finite entry runs the per-element guard, which keeps each
    overflowing state at its value before the step and flags it exploded.
    The next step starts from that value.
    """
    # 0-d arrays: a ufunc takes them with less call overhead than Python floats
    mu, sigma, c1, two_c1, dt, half, zero = (np.array(float(v)) for v in (
        params.mu, params.sigma, params.c1, 2.0 * params.c1, dt, 0.5, 0.0))
    rows, steps = len(db), db.shape[1] // group
    shape = (len(milstein), rows)
    states = np.empty((2,) + shape)
    states[0] = s0
    b, work, start = (np.empty(shape) for _ in range(3))
    exploded = np.zeros(shape, dtype=bool)
    m_rows = [i for i, flag in enumerate(milstein) if flag]
    panel = np.empty((min(PANEL_WIDTH, steps), rows))
    tile = np.empty((min(TILE_ROWS, rows), len(panel)))
    if m_rows:
        corr = np.empty(rows)
        sq = np.empty_like(panel)
    # views made once: the two state arrays swap roles each step (current, next),
    # and each role reads its own Milstein rows
    roles = [(states[p], states[1 - p],
              [(states[p, i], states[1 - p, i], b[i], work[i]) for i in m_rows])
             for p in (0, 1)]
    panel_rows = list(panel)
    sq_rows = list(sq) if m_rows else []
    p = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, steps, PANEL_WIDTH):
            width = min(PANEL_WIDTH, steps - k0)
            for r0 in range(0, rows, TILE_ROWS):  # rows first, then transpose in cache
                rows_in = tile[:min(TILE_ROWS, rows - r0), :width]
                if group == 1:
                    np.copyto(rows_in, db[r0:r0 + TILE_ROWS, k0:k0 + width])
                else:  # the contiguous pairwise sum that the full reshape takes
                    np.sum(db[r0:r0 + TILE_ROWS, k0 * group:(k0 + width) * group]
                           .reshape(len(rows_in), width, group), axis=2, out=rows_in)
                np.copyto(panel[:width, r0:r0 + TILE_ROWS], rows_in.T)
            if m_rows:
                np.square(panel[:width], out=sq[:width])
                np.subtract(sq[:width], dt, out=sq[:width])
            np.copyto(start, roles[p][0])
            for guard in (False, True):
                for j in range(width):
                    s, s_new, m_views = roles[p]
                    np.multiply(s, c1, out=b)
                    np.add(b, sigma, out=b)
                    np.multiply(b, s, out=b)                     # b = s (sigma + c1 s)
                    np.multiply(s, mu, out=s_new)
                    np.multiply(s_new, dt, out=s_new)
                    np.add(s, s_new, out=s_new)
                    np.multiply(b, panel_rows[j], out=work)
                    np.add(s_new, work, out=s_new)               # s + mu s dt + b dB
                    for s_i, new_i, b_i, work_i in m_views:
                        np.multiply(s_i, two_c1, out=work_i)
                        np.add(work_i, sigma, out=work_i)
                        np.multiply(b_i, half, out=corr)
                        np.multiply(corr, work_i, out=corr)
                        np.multiply(corr, sq_rows[j], out=corr)
                        np.add(new_i, corr, out=new_i)           # + 0.5 b b' (dB^2 - dt)
                    np.maximum(s_new, zero, out=s_new)
                    if guard and not math.isfinite(np.maximum.reduce(s_new, axis=None)):
                        bad = ~np.isfinite(s_new)
                        s_new[bad] = s[bad]
                        exploded |= bad
                    p = 1 - p
                    if out is not None:
                        out[..., k0 + j + 1] = s_new
                if guard or math.isfinite(np.maximum.reduce(roles[p][0], axis=None)):
                    break
                np.copyto(roles[p][0], start)  # replay the panel with the guard
    return roles[p][0], exploded


def _check_paths_and_seed(n_paths: int, seed: int) -> None:
    """Refuse an n_paths that is not an integer >= 1, and a seed that is not an
    integer in [0, 2^63), which Philox's key would take modulo 2^64 or round
    through float64 into another's."""
    if not isinstance(n_paths, (int, np.integer)):
        raise InvalidGrid(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise InvalidGrid(f"n_paths must be >= 1, got {n_paths}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 63):
        raise InvalidGrid(f"seed must be an integer in [0, 2^63), got {seed!r}")


def _simulate(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int,
              scheme: str) -> PathEnsemble:
    """Ensemble of ``scheme`` ("euler", "milstein" or "exact") paths."""
    _check_paths_and_seed(n_paths, seed)
    paths = np.empty((n_paths, grid.steps + 1))
    exploded = np.zeros(n_paths, dtype=bool)

    def block(rows, db, lock):
        if scheme == "exact":  # a few whole-array calls, which release the GIL: no lock
            b = np.concatenate([np.zeros((len(db), 1)), np.cumsum(db, axis=1)], axis=1)
            paths[rows], exploded[rows] = _exact_rows(params, grid.times, b)
        else:
            paths[rows, 0] = params.s0
            with lock:
                exploded[rows] = _step_terminal(params, grid.dt, params.s0, db,
                                                (scheme == "milstein",),
                                                out=paths[None, rows])[1][0]

    _map_blocks(block, seed, n_paths, grid.steps, grid.dt)
    return PathEnsemble(grid=grid, paths=paths, seed=seed, scheme=scheme, exploded=exploded)


def simulate_euler(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble with full truncation at zero."""
    return _simulate(params, grid, n_paths, seed, "euler")


def simulate_milstein(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Milstein ensemble: Euler plus 0.5*b*b'*(dB^2 - dt), full truncation at zero."""
    return _simulate(params, grid, n_paths, seed, "milstein")


def euler_terminal(params: ModelParams, horizon: float, steps: int, n_paths: int,
                   seed: int) -> tuple[np.ndarray, float]:
    """Terminal Euler values without storing intermediate columns.

    Identical per-path values to ``simulate_euler(...).paths[:, -1]``; used by
    the Monte Carlo pricer where full path matrices would not fit in memory.
    Returns (terminal values, exploded fraction).
    """
    _check_paths_and_seed(n_paths, seed)
    dt = TimeGrid(horizon, steps).dt
    terminal = np.empty(n_paths)
    exploded = np.zeros(n_paths, dtype=bool)

    def block(rows, db, lock):
        with lock:
            s, bad = _step_terminal(params, dt, params.s0, db, (False,))
        terminal[rows], exploded[rows] = s[0], bad[0]

    _map_blocks(block, seed, n_paths, steps, dt)
    return terminal, int(exploded.sum()) / n_paths


# --------------------------------------------------------------------------
# Closed-form candidate solution
# --------------------------------------------------------------------------

def _closed_form(drift: float, sigma: float, c1: float, s0: float, t):
    """(gamma, a, b) of the closed form at time(s) t: gamma = drift - sigma^2/2 and
    its denominator b + a exp(sigma*B), a = -c1*s0*kappa(t), b = sigma + c1*s0.

    kappa(t) = 1 - (sigma^2/2) * int_0^t e^{gamma u} du, the integral
    expm1(gamma t) / gamma, or t at gamma = 0: the paper's division by gamma
    is removable.  Raises SigmaZeroUnsupported at sigma = 0 (the closed form
    divides by sigma), and OutOfRange where sigma^2 is beyond the float range.
    """
    if sigma == 0:
        raise SigmaZeroUnsupported("closed form requires sigma > 0")
    try:
        gamma = drift - 0.5 * sigma ** 2
    except OverflowError:
        raise OutOfRange(f"closed form needs sigma^2 in float range, got sigma = "
                         f"{sigma:.6g}") from None
    integral = np.expm1(gamma * t) / gamma if gamma else t
    return gamma, -c1 * s0 * (1.0 - 0.5 * sigma ** 2 * integral), sigma + c1 * s0


def exact_values(params: ModelParams, t, b):
    """Evaluate the closed-form candidate solution at times t, Brownian values b.

    S(t, B) = sigma*s0*E / [ sigma + c1*s0 - c1*s0*kappa(t)*F ]

    with E = exp(gamma*t + sigma*B), F = exp(sigma*B) and ``_closed_form``'s
    gamma and kappa(t): the paper's denominator.  Exact for c1 = 0 (geometric
    Brownian motion); see the module docstring for the c1 > 0 verification
    status.  Returns (values, denominator).
    """
    sigma, s0 = params.sigma, params.s0
    t = np.asarray(t, dtype=float)
    b = np.asarray(b, dtype=float)
    gamma, a, b0 = _closed_form(params.mu, sigma, params.c1, s0, t)
    big_e = np.exp(gamma * t + sigma * b)
    den = b0 + a * np.exp(sigma * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = sigma * s0 * big_e / den
    return values, den


def _map_coefficients(rn: RiskNeutralParams, t: float) -> tuple[float, float, float]:
    """(a, b, c) with f_t(w) = c * u / (a*u + b), u = exp(sigma*w): ``_closed_form``'s
    a and b at the rate r, and c = sigma*s0*exp(gamma*t)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a gamma t past exp's range raises below
        gamma, a, b = _closed_form(rn.r, rn.sigma, rn.c1, rn.s0, t)
    egt = _exp(gamma * t, "closed form", "gamma t")
    if egt == 0.0:  # c = 0 would leave f_t = 0 and its inverse undefined
        raise OutOfRange(f"closed form needs exp(gamma t) > 0, got gamma t = {gamma * t:.6g}")
    return float(a), b, rn.sigma * rn.s0 * egt


def forward_map(rn: RiskNeutralParams, t: float, w):
    """Price f_t(w) = c / (a + b*exp(-sigma*w)) for Brownian value(s) w; strictly
    increasing in w.

    Raises ExplosionRegion where a finite denominator is at or below
    tolerance (beyond the map's asymptote); an infinite one gives f = 0.
    """
    a, b, c = _map_coefficients(rn, t)
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        u = np.exp(-rn.sigma * w)
        den = a + b * u
        values = np.where(np.isinf(den), 0.0, c / den)
    if np.any(np.isfinite(den) & (den <= DEN_TOL_FACTOR * b * u)):
        raise ExplosionRegion(f"denominator at or below tolerance for t={t}")
    return float(values) if values.ndim == 0 else values


def inverse_map(rn: RiskNeutralParams, t: float, x: float) -> float:
    """Brownian value w with f_t(w) = x: w = ln(b x / (c - a x)) / sigma.

    The algebraic inverse of f_t(w) = c u / (a u + b), u = exp(sigma w).
    Raises OutOfRange for x outside the range of f_t (including beyond the
    explosion asymptote).
    """
    if x <= 0 or not math.isfinite(x):
        raise OutOfRange(f"x must be a finite positive price, got {x}")
    a, b, c = _map_coefficients(rn, t)
    if a > 0 and x >= c / a:
        raise OutOfRange(f"x={x} at or above the map's supremum {c / a}")
    f_hi = c / (DEN_TOL_FACTOR * b)
    if a < 0 and x >= f_hi:
        raise OutOfRange(f"x={x} beyond the explosion asymptote (f <= {f_hi:.6g})")
    num, den = b * x, c - a * x
    if not (den > 0 and 0 < num / den < math.inf):
        raise OutOfRange(f"x={x}: the inverse ln(b x / (c - a x)) leaves float range "
                         f"(b x = {num:.6g}, c - a x = {den:.6g})")
    return math.log(num / den) / rn.sigma


def _exact_rows(params: ModelParams, times: np.ndarray, b: np.ndarray):
    """Closed-form paths at ``times`` for each row of Brownian values ``b``.

    A row whose denominator falls to or below ``DEN_TOL_FACTOR*(sigma+c1*s0)``
    or is NaN, or whose value leaves the float range, is flagged exploded and
    is NaN from its first such time onward.  Returns (values, exploded mask).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # flagged below
        values, den = exact_values(params, times[None, :], b)
    values[:, 0] = params.s0  # t=0, B=0 reduces algebraically to s0
    # a NaN denominator (an overflowing exponential times zero) is flagged too
    bad = ~((den > DEN_TOL_FACTOR * (params.sigma + params.c1 * params.s0))
            & np.isfinite(values))
    values[np.logical_or.accumulate(bad, axis=1)] = np.nan
    return values, bad.any(axis=1)


def simulate_exact(params: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Ensemble of closed-form candidate paths (see the module docstring).

    Exploded paths carry NaN from the first denominator crossing onward and
    are flagged in ``exploded``.
    """
    return _simulate(params, grid, n_paths, seed, "exact")


# --------------------------------------------------------------------------
# Strong convergence measurement
# --------------------------------------------------------------------------

def _validate_dt_levels(horizon: float, dt_levels) -> list[int]:
    """Check that each level's step count divides the finest level's, so that
    every level steps sums of the finest increments; return steps per level,
    coarse to fine."""
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
            raise InvalidGrid(f"each level's step count must divide the finest level's: "
                              f"{n} does not divide {finest}")
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
    """``strong_convergence`` for each of ``schemes``, stepped from one draw.

    Each report has the same errors as a ``strong_convergence`` call of its
    scheme alone.  A block of R rows and G = ``gen_steps`` increments a row
    is drawn and stepped in column windows of width W that cover all R
    rows.  W is G when R x G is at most ``_WINDOW_BUDGET`` (2^20
    increments, 8 MiB).  Otherwise W is the largest multiple of L, the least
    common multiple of the level groups ``G // n``, with R x W within that
    budget, and at least L; G is a multiple of L, so every window, the last
    and shorter one included, holds whole steps of every level.

    Where W is G, the block is one ``_fill_increments`` call, and the exact
    reference's B_T is each row's sum.  Otherwise the block is drawn in two
    passes.  Pass 1 walks the rows in order through the block's generator:
    it fills a row's first window, saves the generator's state into a
    generator of the row's own, and draws the rest of the row into a
    one-row scratch, which also takes a copy of the first window when the
    exact reference needs B_T, the sum of the whole row.  Pass 2 refills
    each later window from the rows' own generators, so the windows join to
    the block's increment matrix bit for bit.  Every fill is one
    ``_fill_increments`` call; numpy's normal sampler consumes the stream
    row after row, so a one-fill block has the same bits as the two
    passes.  Each level, and the refined
    reference as one more level of G steps, carries its ``(schemes, R)``
    states from window to window through ``_step_terminal``'s ``s0``.  A
    level reads the window in place, with ``group = G // n``: its coarse
    increments are summed row tile by row tile as the kernel stages them, so
    the window is the only ``rows x steps`` array a block holds.  After its
    last window a block sums each level's ``|terminal - reference|`` over its
    rows, the pairwise sum that a whole block would take, into a
    ``(blocks, schemes, levels)`` array, and the blocks' sums are added in
    block order: no array of the study grows with ``n_paths``.
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

    _check_paths_and_seed(n_paths, seed)
    level_steps = _validate_dt_levels(horizon, dt_levels)
    finest = level_steps[-1]
    exact = reference == "exact"
    gen_steps = finest if exact else finest * REFINE_FACTOR
    gen_dt = horizon / gen_steps
    stepped = level_steps if exact else [*level_steps, gen_steps]  # the refined reference last
    milstein = [name == "milstein" for name in schemes]
    rows = min(BLOCK_SIZE, n_paths)
    unit = math.lcm(*(gen_steps // n for n in level_steps))  # a whole step of every level
    width = (gen_steps if rows * gen_steps <= _WINDOW_BUDGET
             else max(unit, _WINDOW_BUDGET // rows // unit * unit))
    block_sums = np.empty((-(-n_paths // BLOCK_SIZE), len(schemes), len(level_steps)))

    def block(b, buf, lock):
        """Sum over block ``b``'s rows of |level terminal - reference|, per scheme and level."""
        db = buf[:min(BLOCK_SIZE, n_paths - b * BLOCK_SIZE)]
        gen = _block_generator(seed, b)
        if width == gen_steps:  # one window: the whole block in one fill
            _fill_increments(gen, db, gen_dt)
            if exact:  # B_T: the sum of each row
                b_t = db.sum(axis=-1)
        else:
            row, row_gens, b_t = np.empty(gen_steps), [], np.empty(len(db))
            # pass 1: a row's first window, where its stream stands.  One-row fills are
            # short calls that take the GIL as a kernel's do, so they run under the lock
            with lock:
                for r, first in enumerate(db):
                    _fill_increments(gen, first, gen_dt)
                    row_gens.append(_block_generator(seed, b))
                    row_gens[-1].bit_generator.state = gen.bit_generator.state
                    _fill_increments(gen, row[width:], gen_dt)
                    if exact:  # B_T: the sum of the whole row
                        row[:width] = first
                        b_t[r] = row.sum()
            del row  # only the window buffer holds increments while the kernel steps
        terms = [params.s0] * len(stepped)
        for w0 in range(0, gen_steps, width):  # states carry from window to window
            window = db[:, :min(width, gen_steps - w0)]
            with lock:
                if w0:  # pass 2: each row's stream fills the row's next window
                    for row_gen, increments in zip(row_gens, window):
                        _fill_increments(row_gen, increments, gen_dt)
                for i, n in enumerate(stepped):
                    terms[i] = _step_terminal(params, horizon / n, terms[i], window, milstein,
                                              group=gen_steps // n)[0]
        if exact:
            with np.errstate(over="ignore", invalid="ignore"):  # raised below as OutOfRange
                ref = exact_values(params, horizon, b_t)[0]
        else:
            ref = terms.pop()
        for i, term in enumerate(terms):
            block_sums[b, :, i] = np.abs(term - ref).sum(axis=-1)

    _run_blocks(block, n_paths, rows, width)
    errors = np.zeros((len(schemes), len(level_steps)))
    for sums in block_sums:  # in block order, as the rows were drawn
        errors += sums
    errors /= n_paths
    if not np.isfinite(errors).all():
        raise OutOfRange(f"strong errors are not finite: the paths or the {reference} "
                         "reference left the float range")

    dts = horizon / np.asarray(level_steps, dtype=float)
    reports = []
    for name, errs in zip(schemes, errors):
        # a zero error has no logarithm: no slope, rather than NaN after a warning
        slope = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0]) if np.all(errs > 0) else None
        reports.append(ConvergenceReport(dt_levels=dts, strong_errors=errs, fitted_slope=slope,
                                         scheme=name, reference=reference))
    return reports

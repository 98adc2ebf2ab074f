"""Coupled-path Monte Carlo experiments over long time horizons.

The protocols here all share one coupling discipline: a reference trajectory
at a fine step h_ref and coarse trajectories at h = factor * h_ref are driven
by the *same* Brownian path, the coarse increments being exact pairwise sums
of the fine ones. Running the coarse grid at factor 1 therefore reproduces the
reference bit for bit (zero error), and every level of a dyadic ladder sees
the identical total noise.

One kernel, `_coupled_steps`, implements that coupling for every protocol,
and one reducer, `_reduce`, turns the states it yields into samples. Each
protocol is a list of slots, a statistic of some tracks kept as its maximum
over some fine indices: the reference-to-coarse gap over a level's grid
(strong error), a statistic at one record (moment and contraction traces),
or a function of the terminal states (one-step and remainder probes).

Ensembles are processed in path chunks, each path drawing from its own
(master_seed, path_index) substream, with noise generated in bounded time
blocks. A chunk runs one generator, into which each path's key or saved
state is restored before the path draws, so a chunk holds no generator per
path. The chunk size is an even share of the paths per worker, clamped to
[CHUNK_PATHS, 2 * CHUNK_PATHS]; the block size is a constant. Neither
changes any result, because every row is its own path's stream, so results
are bit-identical whether a run uses one worker or many; partial results are
merged in path order. Several workers are the calling process plus forked
processes, each running whole chunks; where the platform cannot fork, the
chunks run serially in the calling process. A solver failure is likewise the
same at any worker count: the earliest by (step, track, path) of the run.

Paths whose state turns non-finite (explicit Euler blowing up on superlinear
drift) are tagged divergent by one rule in all five protocols, down to
`remainder_scaling_experiment`: each slot drops the paths whose states it
reads are not finite at its last index, and counts them in ``n_divergent``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import SolverFailure, UsageError
from .model import SdeProblem
from .noise import (NoiseGrid, check_master_seed, pairwise_block_sum,
                    path_generator, path_keys)
from .schemes import SchemeConfig, _row_norms, step_batch

__all__ = [
    "MomentEstimate", "ErrorCurve", "estimate_from_samples", "evolve_terminal",
    "strong_error_experiment", "moment_trace", "contraction_experiment",
    "one_step_order_experiment", "remainder_scaling_experiment",
    "resolve_threads",
]

# Least paths per vectorized batch (a chunk holds up to twice as many) and
# fine steps per noise block. Changing them never changes results (per-path
# streams are position-keyed), but they are part of no contract and exist
# only to bound memory while keeping the per-step numpy call overhead
# amortized over many paths.
CHUNK_PATHS = 512
BLOCK_STEPS = 4096


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate of (E s^(2p))^(1/(2p)) for a nonnegative statistic s.

    std_error is the delta-method standard error of the root, i.e.
    se(mean s^(2p)) * d/dmu mu^(1/(2p)). n_paths counts all paths attempted;
    n_divergent of them were excluded as non-finite.
    """

    value: float
    std_error: float
    p: float
    n_paths: int
    n_divergent: int = 0


@dataclass(frozen=True)
class ErrorCurve:
    """Uniform-in-time strong-error estimates against one shared reference.

    Each estimate is (E sup_k |Z_ref(t_k) - Z_h(t_k)|^(2p))^(1/(2p)) with the
    supremum over the coarse time grid, the pathwise-uniform companion of the
    long-time error bounds. For dissipative problems the supremum typically
    sits in the early transient, so the statistic stays informative on
    horizons long enough for the flow to forget its initial data.
    """

    model: str
    scheme: str
    p: float
    T: float
    h_ref: float
    hs: tuple
    estimates: tuple  # of MomentEstimate, parallel to hs


def estimate_from_samples(samples, p: float, n_paths: Optional[int] = None,
                          n_divergent: int = 0) -> MomentEstimate:
    """Build a MomentEstimate from magnitudes of surviving paths.

    Uses math.fsum, and the summands are nonnegative, so the result is exactly
    invariant under permutations of the sample list. With no survivors the
    estimate degenerates to 0 +- 0 and the divergence count carries the story.
    Samples that are finite but so large their 2p-th powers exceed float range
    (the explicit scheme en route to blow-up) yield an inf estimate rather
    than an exception.
    """
    _check_p(p)
    s = np.asarray(samples, dtype=float).ravel()
    if np.any(s < 0.0):
        raise UsageError("samples must be nonnegative magnitudes")
    n = s.size
    if n_paths is None:
        n_paths = n + n_divergent
    if n == 0:
        return MomentEstimate(value=0.0, std_error=0.0, p=p,
                              n_paths=n_paths, n_divergent=n_divergent)
    with np.errstate(over="ignore"):
        y = (s ** (2.0 * p)).tolist()
    try:
        mu = math.fsum(y) / n
    except OverflowError:
        mu = math.inf
    if not math.isfinite(mu):
        return MomentEstimate(value=math.inf, std_error=math.inf, p=p,
                              n_paths=n_paths, n_divergent=n_divergent)
    if n > 1:
        try:
            var = math.fsum((yi - mu) ** 2 for yi in y) / (n - 1)
        except OverflowError:
            var = math.inf
        se_mu = math.sqrt(var / n)
    else:
        se_mu = 0.0
    if mu > 0.0:
        value = mu ** (1.0 / (2.0 * p))
        std_error = se_mu * value / (2.0 * p * mu)
    else:
        value, std_error = 0.0, 0.0
    return MomentEstimate(value=value, std_error=std_error, p=p,
                          n_paths=n_paths, n_divergent=n_divergent)


def _check_p(p: float) -> None:
    if not 0.0 < p < math.inf:
        raise UsageError(f"p must be positive, got {p}")


def resolve_threads(requested: Optional[int] = None) -> int:
    """Worker-process count: SDE_LONGTIME_THREADS wins, then the argument,
    then the number of cores this process may run on."""
    env = os.environ.get("SDE_LONGTIME_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"SDE_LONGTIME_THREADS must be an integer, got {env!r}")
    elif requested is not None:
        n = int(requested)
    elif hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    if n < 1:
        raise UsageError(f"thread count must be >= 1, got {n}")
    return n


# Inside a pool worker: the chunk runner of the `_map_chunks` call that forked
# it, installed by the pool initializer. Never set in the calling process.
_chunk_runner = None


def _install_chunk_runner(run) -> None:
    global _chunk_runner
    _chunk_runner = run


def _run_chunk(paths, worker=None):
    """`worker(paths)`, by default this worker's chunk runner; a
    SolverFailure is returned rather than raised (see `_map_chunks`)."""
    try:
        return (worker or _chunk_runner)(paths)
    except SolverFailure as exc:
        return exc


def _chunk_spans(n_paths: int, threads: int):
    """The path chunks, as ranges of path indices. A chunk is an even share
    of the paths per worker, but at least CHUNK_PATHS paths so numpy's
    per-call overhead stays amortized and at most 2 * CHUNK_PATHS so a noise
    block stays small."""
    size = min(2 * CHUNK_PATHS, max(CHUNK_PATHS, -(-n_paths // threads)))
    return [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _map_chunks(worker, n_paths: int, master_seed: int,
                threads: Optional[int]):
    """Run `worker(paths)` over the path chunks, `paths` the range of one
    chunk's path indices; results in path order. The master seed, the path
    count and the worker count (`resolve_threads(threads)`) are checked
    before any chunk runs.

    Several chunks and more than one worker share the chunks among
    P = min(threads, chunks) processes: this one, which runs chunks 0, P,
    2P, ... itself rather than wait idle, and P - 1 forked workers that take
    the others. Workers inherit `worker`, a closure over a problem whose
    callables need not pickle, through the fork, so only the path ranges
    are sent and the per-chunk results pickled back. Without the fork start
    method the chunks run serially here.

    A chunk returns its SolverFailure, and once every chunk has run the
    least by `rank` (see `_coupled_steps`) is raised: the earliest failure
    of the run at any worker count. Any other exception leaves from the
    first failing chunk in path order; a worker that dies (killed for
    memory, say) raises BrokenProcessPool rather than leaving the run
    waiting."""
    check_master_seed(master_seed)
    if n_paths < 1:
        raise UsageError(f"n_paths must be >= 1, got {n_paths}")
    threads = resolve_threads(threads)
    spans = _chunk_spans(n_paths, threads)
    processes = min(threads, len(spans))
    if processes > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            processes = 1
    if processes == 1:
        results = [_run_chunk(s, worker) for s in spans]
    else:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(processes - 1,
                                   multiprocessing.get_context("fork"),
                                   _install_chunk_runner, (worker,))
        try:
            forked = pool.map(_run_chunk, [s for i, s in enumerate(spans)
                                           if i % processes])
            results = [next(forked) if i % processes else _run_chunk(s, worker)
                       for i, s in enumerate(spans)]
        finally:
            pool.shutdown(cancel_futures=True)
    failures = [r for r in results if isinstance(r, SolverFailure)]
    if failures:
        raise min(failures, key=lambda exc: exc.rank)
    return results


def _time_blocks(n_steps: int, unit: int):
    """Block spans covering [0, n_steps), each a multiple of `unit`."""
    per = max(1, BLOCK_STEPS // unit) * unit
    return [(lo, min(lo + per, n_steps)) for lo in range(0, n_steps, per)]


def _path_states(master_seed: int, paths: range):
    """One generator for the chunk `paths`, and an iterator over each path's
    start state in it.

    The generator is `path_generator`'s for the first path; every path's
    start state is that fresh state (counter 0, empty buffer) with the
    path's own key, which is exactly how `path_generator` starts it. The
    states are made one at a time, as the paths draw."""
    gen = path_generator(master_seed, paths.start)
    fresh = gen.bit_generator.state
    return gen, (dict(fresh, state=dict(fresh["state"], key=key))
                 for key in path_keys(master_seed, paths).tolist())


def _noise_block(gen, states, shape, sqrt_h: float, carry: bool):
    """Increments of shape (B, n_t, m), drawn path by path so each row is
    exactly the slice of that path's one-shot stream: row b is drawn from the
    b-th of `states` restored into `gen`. Returns the block and, with `carry`
    (a later block follows), the states the paths left off in, else None."""
    W = np.empty(shape)
    bits = gen.bit_generator
    ends = [] if carry else None
    for row, state in zip(W, states):
        bits.state = state
        gen.standard_normal(out=row)
        if carry:
            ends.append(bits.state)
    W *= sqrt_h
    return W, ends


def _start_state(problem: SdeProblem, x0, name: str = "x0") -> np.ndarray:
    """x0 as a finite state of shape (d,); a single value (a scalar or any
    size-1 array) fills every component. Every protocol checks its start
    states before any chunk runs."""
    x0 = np.asarray(x0, dtype=float)
    if x0.size == 1:
        x0 = np.full(problem.d, x0.item())
    if x0.shape != (problem.d,):
        raise UsageError(f"{name} shape {x0.shape} does not match problem "
                         f"dimension ({problem.d},)")
    if not np.all(np.isfinite(x0)):
        raise UsageError(f"{name} must be finite, got {x0}")
    return x0


def _exact_multiple(a: float, b: float, a_name: str, b_name: str) -> int:
    """a / b as a positive integer, checked in exact rational arithmetic."""
    ok = b > 0.0 and math.isfinite(a) and math.isfinite(b)
    q = Fraction(a) / Fraction(b) if ok else Fraction(0)
    if q.denominator != 1 or q < 1:
        raise UsageError(
            f"{a_name}={a} is not an integer multiple of {b_name}={b}")
    return q.numerator


def _step_list(h_list) -> list:
    """The distinct steps of h_list, largest first, refusing an empty list
    and any step that is not positive and finite."""
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    if not hs or not all(0.0 < h < math.inf for h in hs):
        raise UsageError("h_list must be nonempty, with every h positive and "
                         f"finite, got {list(h_list)}")
    return hs


# ---------------------------------------------------------------------------
# the coupled-path kernel
# ---------------------------------------------------------------------------

def _coupled_steps(problem: SdeProblem, scheme_cfg: SchemeConfig,
                   master_seed: int, paths: range, h_fine: float, n_fine: int,
                   tracks):
    """Advance coupled tracks over one chunk of paths on shared noise.

    `paths` are the chunk's path indices, whose substreams of `master_seed`
    drive it; each track is (x0, factor, h), a start state from
    `_start_state` and a step of size h taken every `factor` fine steps, on
    the pairwise sums of `factor` fine increments of size h_fine. Yields
    (k, states) for the fine indices k = 0..n_fine; at each k > 0 every track
    whose factor divides k has just been stepped, in track order, and
    `states` lists the current state batch of every track. A SolverFailure
    leaves with its `path_index` turned from a row of the chunk into the
    global path index, with `rank` = (k, track, path) to order it among
    the failures of other chunks, and with the step's start time `t`, its
    size `h` and the path's pre-step `state` (for a failure that names its
    row).

    A non-finite row stays non-finite under every scheme: a step is
    x~ + h f(x~) + g(x~) dW with x~ the state (em), its projection, NaN for
    an infinite row (pe), or the implicit root, NaN for a non-finite
    right-hand side (be). So a path has diverged by step k exactly when its
    state at k is not finite.
    """
    Zs = [np.tile(x0, (len(paths), 1)) for x0, _, _ in tracks]
    yield 0, Zs
    factors = {f for _, f, _ in tracks}
    sqrt_h = math.sqrt(h_fine)
    gen, states = _path_states(master_seed, paths)
    try:
        for t0, t1 in _time_blocks(n_fine, math.lcm(*factors)):
            W, states = _noise_block(gen, states,
                                     (len(paths), t1 - t0, problem.m),
                                     sqrt_h, carry=t1 < n_fine)
            Wf = {f: W if f == 1 else pairwise_block_sum(W, f, axis=1)
                  for f in factors}
            for k in range(t0 + 1, t1 + 1):
                for i, (_, f, h) in enumerate(tracks):
                    if k % f == 0:
                        n = k // f - 1
                        Zs[i] = step_batch(problem, scheme_cfg, Zs[i],
                                           Wf[f][:, n - t0 // f], h,
                                           step_index=n)
                yield k, Zs
    except SolverFailure as exc:
        # the solve names a row of this chunk; the caller needs the path
        exc.t, exc.h = n * h, h
        if exc.path_index is not None:
            exc.state = Zs[i][exc.path_index].copy()
            exc.path_index += paths.start
        exc.rank = (k, i, exc.path_index or paths.start)
        raise


def _reduce(problem: SdeProblem, scheme_cfg: SchemeConfig, master_seed: int,
            n_paths: int, threads: Optional[int], h_fine: float, n_fine: int,
            tracks, slots):
    """Per slot, (samples, n_divergent) over all paths, merged in path order
    one slot at a time as the returned iterator is read (the chunks all run
    before it is returned).

    `tracks` are as in `_coupled_steps`. A slot is (ks, reads, statistic):
    at each fine index k of the ascending `ks`, `statistic(*states)` of the
    tracks numbered in `reads` gives a new array of one sample row per path,
    and the slot keeps their elementwise maximum over `ks` (with one index,
    the statistic itself). At the slot's last index the paths whose read states are not
    finite are dropped and counted; since a non-finite state stays so, these
    are the paths that diverged on a read track, and every kept sample was
    read from finite states only.
    """
    due = {}
    for j, (ks, _, _) in enumerate(slots):
        for k in ks:
            due.setdefault(k, []).append(j)

    def worker(paths):
        kept = [None] * len(slots)
        for k, Zs in _coupled_steps(problem, scheme_cfg, master_seed, paths,
                                    h_fine, n_fine, tracks):
            for j in due.get(k, ()):
                ks, reads, statistic = slots[j]
                states = [Zs[i] for i in reads]
                with np.errstate(invalid="ignore"):
                    s = statistic(*states)
                    if k != ks[0]:
                        np.maximum(kept[j], s, out=s)
                kept[j] = s
                if k == ks[-1]:
                    alive = np.logical_and.reduce(
                        [np.isfinite(Z).all(axis=1) for Z in states])
                    kept[j] = s[alive], int(alive.size - alive.sum())
        return kept

    return ((np.concatenate([s for s, _ in slot]), sum(n for _, n in slot))
            for slot in zip(*_map_chunks(worker, n_paths, master_seed,
                                         threads)))


def _gap(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return _row_norms(X - Y)


# ---------------------------------------------------------------------------
# single-path evolution (public building block)
# ---------------------------------------------------------------------------

def evolve_terminal(problem: SdeProblem, scheme_cfg: SchemeConfig, h: float,
                    n_steps: int, noise, x0) -> np.ndarray:
    """Terminal state of one path after n_steps of the configured scheme.

    The single-path entry point: it checks h (positive and finite), n_steps,
    the start state x0 (see `_start_state`) and the noise, then runs
    `step_batch` on a batch of one, so it reproduces a row of any batch run
    bit for bit. `noise` is either a NoiseGrid matching (h, n_steps) or a
    plain (n_steps, m) increment array. A non-finite return value is the
    divergence tag of the explicit scheme; the implicit solver raises
    SolverFailure instead of returning garbage.
    """
    if not 0.0 < h < math.inf:
        raise UsageError(f"h must be positive and finite, got {h}")
    if n_steps < 0:
        raise UsageError(f"n_steps must be >= 0, got {n_steps}")
    if isinstance(noise, NoiseGrid):
        if noise.n_fine != n_steps:
            raise UsageError(
                f"noise grid has {noise.n_fine} steps, expected {n_steps}")
        if noise.h_fine != h:
            raise UsageError(
                f"noise grid step {noise.h_fine} does not match h={h}")
        incs = noise.increments
    else:
        incs = np.asarray(noise, dtype=float)
        if incs.shape != (n_steps, problem.m):
            raise UsageError(
                f"noise shape {incs.shape}, expected ({n_steps}, {problem.m})")
    Z = np.tile(_start_state(problem, x0), (1, 1))
    for k in range(n_steps):
        Z = step_batch(problem, scheme_cfg, Z, incs[k][None, :], h, step_index=k)
    return Z[0]


# ---------------------------------------------------------------------------
# strong error against a fine coupled reference
# ---------------------------------------------------------------------------

def strong_error_experiment(problem: SdeProblem, scheme_cfg: SchemeConfig,
                            T: float, h_list: Sequence[float], h_ref: float,
                            n_paths: int, p: float = 1.0, master_seed: int = 0,
                            x0=1.0, threads: Optional[int] = None) -> ErrorCurve:
    """Uniform-in-time strong error of the scheme at each h against h_ref.

    Every path runs the same scheme at h_ref and at each coarse h on the same
    Brownian path (coarse increments are exact pairwise sums of fine ones).
    The per-h estimate is (E sup_k |Z_ref(t_k) - Z_h(t_k)|^(2p))^(1/(2p))
    over the coarse grid points t_k, the pathwise-uniform error the long-time
    bounds control; paths are dropped from the first non-finite state onward
    and counted as divergent.
    """
    _check_p(p)
    hs = _step_list(h_list)
    if h_ref > min(hs):
        raise UsageError(f"h_ref={h_ref} must not exceed the smallest h={min(hs)}")
    factors = [_exact_multiple(h, h_ref, "h", "h_ref") for h in hs]
    n_fine = _exact_multiple(T, h_ref, "T", "h_ref")
    for h in hs:
        _exact_multiple(T, h, "T", "h")
    x0 = _start_state(problem, x0)
    tracks = [(x0, 1, h_ref)] + [(x0, f, h) for h, f in zip(hs, factors)]
    slots = [(range(0, n_fine + 1, f), (0, i), _gap)
             for i, f in enumerate(factors, 1)]
    estimates = [estimate_from_samples(s, p, n_paths=n_paths, n_divergent=n)
                 for s, n in _reduce(problem, scheme_cfg, master_seed, n_paths,
                                     threads, h_ref, n_fine, tracks, slots)]
    return ErrorCurve(model=problem.name, scheme=scheme_cfg.variant, p=p, T=T,
                      h_ref=h_ref, hs=tuple(hs), estimates=tuple(estimates))


# ---------------------------------------------------------------------------
# moment traces and contractivity
# ---------------------------------------------------------------------------

def _trace_experiment(problem, scheme_cfg, T, h, n_paths, p, master_seed,
                      starts, statistic, threads, n_records):
    """Shared machinery for moment traces (one trajectory per path) and
    contraction traces (two coupled trajectories per path): one slot per
    record reading every track.

    `starts` is a list of start states from `_start_state` (one trajectory
    per entry); `statistic(*Zs)` maps their state batches to per-path
    magnitudes.
    """
    if n_records < 1:
        raise UsageError(f"n_records must be >= 1, got {n_records}")
    _check_p(p)
    n_steps = _exact_multiple(T, h, "T", "h")
    rec = sorted({round(j * n_steps / n_records) for j in range(n_records + 1)})
    slots = [((k,), range(len(starts)), statistic) for k in rec]
    times = np.asarray([k * h for k in rec])
    return times, [estimate_from_samples(s, p, n_paths=n_paths, n_divergent=n)
                   for s, n in _reduce(problem, scheme_cfg, master_seed,
                                       n_paths, threads, h, n_steps,
                                       [(x0, 1, h) for x0 in starts], slots)]


def moment_trace(problem: SdeProblem, scheme_cfg: SchemeConfig, T: float,
                 h: float, n_paths: int, p: float = 1.0, master_seed: int = 0,
                 x0=1.0, n_records: int = 100, threads: Optional[int] = None):
    """Time series of (E |Z_t|^(2p))^(1/(2p)) thinned to ~n_records points.

    Returns (times, estimates). Divergent paths are excluded from the first
    non-finite record onward and counted per record in n_divergent — this is
    how the explicit scheme's blow-up on superlinear problems is surfaced
    rather than hidden.
    """
    return _trace_experiment(problem, scheme_cfg, T, h, n_paths, p, master_seed,
                             [_start_state(problem, x0)], _row_norms,
                             threads, n_records)


def contraction_experiment(problem: SdeProblem, scheme_cfg: SchemeConfig,
                           T: float, h: float, n_paths: int, p: float = 1.0,
                           master_seed: int = 0, x0=1.0, y0=0.0,
                           n_records: int = 100,
                           threads: Optional[int] = None):
    """Decay of (E |X_t - Y_t|^(2p))^(1/(2p)) for two flows on the same noise.

    Both trajectories start from x0 and y0 and are driven by identical
    increments path by path; the exact flow contracts this gap like
    exp(-alpha1 t) in the 2p-th moment, and the implicit scheme inherits the
    decay. Returns (times, estimates).
    """
    x0, y0 = _start_state(problem, x0), _start_state(problem, y0, "y0")
    if np.array_equal(x0, y0):
        raise UsageError("x0 and y0 must differ for a contraction experiment")
    return _trace_experiment(problem, scheme_cfg, T, h, n_paths, p, master_seed,
                             [x0, y0], _gap, threads, n_records)


# ---------------------------------------------------------------------------
# one-step order probes
# ---------------------------------------------------------------------------

def one_step_order_experiment(problem: SdeProblem, scheme_cfg: SchemeConfig,
                              h_list: Sequence[float], x, n_paths: int,
                              master_seed: int = 0, substeps: int = 64,
                              threads: Optional[int] = None):
    """Single-step strong and weak errors against a substepped coupled reference.

    For each h, one scheme step of size h is compared with `substeps` steps of
    size h/substeps driven by the same noise (the coarse increment is the
    pairwise sum of the fine ones). Returns a list of
    (h, strong_estimate, weak_error) with the strong error in RMS
    ((E |diff|^2)^(1/2)) and the weak error the norm of the mean difference,
    both over the paths whose fine and coarse states are finite (the others
    are counted in the estimate's n_divergent; with none left the weak error
    is 0, like the estimate). A mean beyond float range is inf.
    """
    if substeps < 2:
        raise UsageError(f"substeps must be >= 2, got {substeps}")
    hs = _step_list(h_list)
    x = _start_state(problem, x, "x")
    results = []
    for h in hs:
        h_fine = h / substeps
        [(diffs, n_div)] = _reduce(
            problem, scheme_cfg, master_seed, n_paths, threads, h_fine,
            substeps, [(x, 1, h_fine), (x, substeps, h)],
            [((substeps,), (0, 1), np.subtract)])
        strong = estimate_from_samples(_row_norms(diffs), p=1.0,
                                       n_paths=n_paths, n_divergent=n_div)
        n = max(len(diffs), 1)  # with no survivor, a zero mean
        try:  # a compensated mean per component over the survivors
            mean = [math.fsum(c) / n for c in diffs.T.tolist()]
        except OverflowError:  # their sum leaves float range
            mean = [math.inf]
        results.append((h, strong, math.hypot(*mean)))
    return results


def remainder_scaling_experiment(problem: SdeProblem, scheme_cfg: SchemeConfig,
                                 x0, y0, h_list: Sequence[float],
                                 n_paths: int, p: float = 1.0,
                                 master_seed: int = 0, substeps: int = 64,
                                 threads: Optional[int] = None):
    """Scaling in h of the two-point flow remainder (X_h - Y_h) - (x0 - y0).

    The flows are approximated by `substeps` fine steps of the configured
    scheme on shared noise. The 2p-th moment of the remainder scales like h^p
    for small h; only that fitted slope is meaningful, not the constant.
    Returns a list of (h, MomentEstimate); a path whose X or Y is not finite
    after the substeps is dropped and counted in n_divergent.
    """
    if substeps < 1:
        raise UsageError(f"substeps must be >= 1, got {substeps}")
    _check_p(p)
    hs = _step_list(h_list)
    x0, y0 = _start_state(problem, x0), _start_state(problem, y0, "y0")
    gap0 = x0 - y0
    results = []
    for h in hs:
        h_fine = h / substeps
        [(samples, n_div)] = _reduce(
            problem, scheme_cfg, master_seed, n_paths, threads, h_fine,
            substeps, [(x0, 1, h_fine), (y0, 1, h_fine)],
            [((substeps,), (0, 1), lambda X, Y: _row_norms((X - Y) - gap0))])
        results.append((h, estimate_from_samples(samples, p, n_paths=n_paths,
                                                 n_divergent=n_div)))
    return results

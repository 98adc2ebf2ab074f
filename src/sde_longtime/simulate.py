"""Coupled-path Monte Carlo experiments over long time horizons.

The protocols here all share one coupling discipline: a reference trajectory
at a fine step h_ref and coarse trajectories at h = factor * h_ref are driven
by the *same* Brownian path, the coarse increments being exact pairwise sums
of the fine ones. Running the coarse grid at factor 1 therefore reproduces the
reference bit for bit (zero error), and every level of a dyadic ladder sees
the identical total noise.

One kernel, `_coupled_steps`, implements that coupling for every protocol,
and one reducer, `_reduce`, turns the states it yields into exact sums. Each
protocol is a list of slots, a statistic of some tracks kept as its maximum
over some fine indices: the reference-to-coarse gap over a level's grid
(strong error), a statistic at one record (moment and contraction traces),
or a function of the terminal states (one-step and remainder probes).

Ensembles are processed in path chunks, each path drawing from its own
(master_seed, path_index) substream, with noise generated in bounded time
blocks (`_noise_blocks`) drawn into one buffer per chunk, reused by every
block, so a chunk's memory does not grow with the horizon. A chunk runs
one generator, into which each path's key or saved state is restored
before the path draws, so a chunk holds no generator per path. The chunk
size is an even share of the paths per worker, clamped to [CHUNK_PATHS,
2 * CHUNK_PATHS]; the block size is a constant. Neither changes any
result, because every row is its own path's stream, and a chunk returns
no samples but, per slot, one record (`_Sums`) of counts and the exact
sums of its samples and their squares (`_exact_sums`, TILE rows per
call). The records are exact, so adding them field by field in any order
gives the same bits: results are bit-identical at any worker count, and
the memory a run holds grows with its chunk, not its ensemble. Several
workers are the calling process plus processes forked from it
(`os.fork`), one pipe each; each process runs every P-th chunk, the
workers send each chunk's records back through their pipes as it
finishes, and the calling process adds them into one record per slot.
Where the platform cannot fork, the chunks run serially in the calling
process, which also runs the chunks of any worker whose fork failed. The
package starts no thread. A solver failure is likewise the same at any
worker count: the earliest by (step, track, path) of the run.

Paths whose state turns non-finite (explicit Euler blowing up on superlinear
drift) are tagged divergent by one rule in all five protocols, down to
`remainder_scaling_experiment`: each slot drops the paths whose states it
reads are not finite at its last index, and counts them in ``n_divergent``.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from fractions import Fraction
from operator import add, attrgetter, itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import SolverFailure, UsageError
from .model import SdeProblem
from .noise import (NoiseGrid, check_count, check_master_seed, check_positive,
                    check_real, pairwise_block_sum, path_generator, path_keys)
from .schemes import SchemeConfig, _row_norms, check_step, step_batch

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
BLOCK_STEPS = 1024
# Most rows per call of the exact accumulator: a chunk flushes its records
# at TILE rows (see `_reduce`), and `_exact_sums` sums a longer input TILE
# rows at a time. Like the two above, it changes no result.
TILE = 8


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


def estimate_from_samples(samples, p: float, *,
                          n_divergent: int = 0) -> MomentEstimate:
    """Build a MomentEstimate from magnitudes of surviving paths; its
    n_paths counts them and the n_divergent paths that did not survive.

    The same exact accumulator as a chunk's (`_exact_sums` of s^(2p)), over
    one array, so the result is exactly invariant under permutations and
    splits of the samples: the mean is the correctly rounded sum over n (what
    math.fsum gives), and the variance (S2 - S1^2/n)/(n - 1) of the exact
    sums S1 and S2 of s^(2p) and s^(4p) is rounded once. With no survivors
    the estimate degenerates to 0 +- 0 and the divergence count carries the
    story. Samples that are finite but so large their 2p-th powers exceed
    float range (the explicit scheme en route to blow-up) yield an inf
    estimate rather than an exception, as does an infinite sample; a
    negative or NaN sample is refused.
    """
    p = check_positive(p, "p")
    s = np.asarray(samples, dtype=float).ravel()
    if not np.all(s >= 0.0):
        raise UsageError("samples must be nonnegative magnitudes")
    n_divergent = check_count(n_divergent, "n_divergent", 0)
    with np.errstate(over="ignore"):  # a power beyond float range is inf
        y = np.abs(s) ** (2.0 * p)  # abs: (-0.0) ** 1.0 keeps its sign bit
    return _estimate(p, s.size + n_divergent,
                     _Sums(n_divergent, *_exact_sums(y)))


# Exact sums are ints in units of 2^-_UNIT_BITS, below the least bit of any
# part `_exact_sums` forms (2^-2148 in the L^2 part of a subnormal's square).
_UNIT_BITS = 2400
_ONE = 1 << _UNIT_BITS
# Samples per row of `_exact_sums`: a bin adds at most _ROWS parts, each
# below 2^54, so its uint64 sum cannot wrap.
_ROWS = 1024


def _fold_weights(step: int, shifts) -> np.ndarray:
    """The matrix that folds bins into 16-bit digits. A row of bins is cut
    into blocks of 16 // step bins; the 32-bit half k of bin r of a block,
    in the part whose bins sit `step` bits apart from `shift`, holds bit
    b = step r + shift + 32 k of the block, so it adds 2^(b % 16) times
    itself to the block's digit b // 16."""
    bits = [step * r + shift + 32 * k for shift in shifts
            for r in range(16 // step) for k in range(2)]
    W = np.zeros((len(shifts), len(bits) // len(shifts), max(bits) // 16 + 1))
    for i, b in enumerate(bits):
        W[divmod(i, W.shape[1]) + (b // 16,)] = 2.0 ** (b % 16)
    return W


# y = M 2^(E - 1075) with M < 2^53 and M = H 2^26 + L, so y^2 is
# (H^2 2^52 + HL 2^27 + L^2) 2^(2E - 2150): the sum of y is one part, the
# sum of y^2 three, and their bins sit 1 and 2 bits apart per exponent.
_FOLD_S1 = _fold_weights(1, (0,))[0]
_FOLD_S2 = _fold_weights(2, (52, 27, 0))


def _exact_sums(y: np.ndarray) -> np.ndarray:
    """The exact sums over each row of a nonnegative y (a 1-d y is one
    row), as a (3, R) object array of ints: per row, its non-finite count
    and the sums of its finite entries and of their squares, in units of
    2^-_UNIT_BITS. The sum of two such arrays is the array of their entries
    together, however the entries were split. An entry with its sign bit
    set, -0.0 included, is a ValueError.

    This is the small superaccumulator of Neal (arXiv:1505.05571), taken
    over all rows at once: exact uint64 sums per row and exponent of the
    parts of y and y^2 (`_row_sums`), folded into one int per row and sum
    with no Python loop over exponents (`_block_digits`, `_digit_ints`).
    A row longer than _ROWS is zero-padded to a multiple of _ROWS and cut
    into rows of _ROWS, summed TILE rows at a time and added back.
    """
    y = np.ascontiguousarray(np.atleast_2d(y), dtype=float)
    R, n = y.shape
    if y.size == 0:
        return np.zeros((3, R), dtype=object)
    width = min(n, _ROWS)
    pieces = -(-n // width)
    if pieces * width > n:
        y = np.concatenate([y, np.zeros((R, pieces * width - n))], axis=1)
    Y = y.reshape(R * pieces, width)
    sums = np.concatenate([_row_sums(Y[lo:lo + TILE])
                           for lo in range(0, len(Y), TILE)], axis=1)
    return sums.reshape(3, R, pieces).sum(axis=2)


def _row_sums(y: np.ndarray):
    """`_exact_sums` of a C-contiguous (R, n) float array, n <= _ROWS.

    By its bits y = M 2^(E - 1075), M < 2^53 and E >= 1 (a subnormal takes
    E = 1 with M its fraction bits), and with M = H 2^26 + L,
    y^2 = (H^2 2^52 + HL 2^27 + L^2) 2^(2E - 2150). So four
    uint64 bins per row and exponent, from the row's least nonzero
    exponent up, take the sums of M, H^2, HL and L^2 (`np.add.at`): no y^2
    is formed, so none overflows or underflows, and at most _ROWS parts
    below 2^54 keep every bin below 2^64. Infinities and NaNs are counted
    and dropped; a sign bit is refused, since E would not be the exponent."""
    R, n = y.shape
    # K holds the exponents, then the bin keys; M, H and T the parts
    K, M, H, T = np.empty((4, R, n), dtype=np.int64)
    Ku, Mu, Hu = K.view(np.uint64), M.view(np.uint64), H.view(np.uint64)
    bits = y.view(np.uint64)
    np.right_shift(bits, np.uint64(52), out=Ku)
    hi = K.max(axis=1).tolist()
    if max(hi) > 2047:
        raise ValueError("_exact_sums takes no entry with its sign bit set")
    bad = [0] * R
    if max(hi) == 2047:  # infinities and NaNs: count them, then zero them
        finite = K != 2047
        bad = (n - np.count_nonzero(finite, axis=1)).tolist()
        bits = np.multiply(bits, finite, out=Hu)
        np.right_shift(bits, np.uint64(52), out=Ku)
        hi = K.max(axis=1).tolist()
    # the least exponent of a nonzero entry starts the row's bins
    # (subtracting 1 sends a zero to the top of uint64, 2^64 - 1)
    np.subtract(bits, np.uint64(1), out=Mu)
    lo = [max(1, (m + 1) % 2 ** 64 >> 52) for m in Mu.min(axis=1).tolist()]
    # a subnormal (E = 0) has M = its fraction at the exponent of E = 1, and
    # so has a zero, whose M = 0 may go to any bin
    np.maximum(K, 1, out=K)
    np.left_shift(K, 52, out=T)
    np.subtract(bits, T.view(np.uint64), out=Mu)
    Mu += np.uint64(1 << 52)
    J = 16 * -(-max(max(h, e) - e + 1 for h, e in zip(hi, lo)) // 16)
    start = [r * J - e for r, e in enumerate(lo)]
    margin = max(0, -min(start))  # bins for the zeros below lo
    K += np.array(start)[:, None] + margin
    key = K.ravel()
    bins = np.empty(margin + R * J, dtype=np.uint64)

    def digits(part, W, blocks):
        """The bins of one part, as each block's digits (`_block_digits`)."""
        bins[:] = 0
        np.add.at(bins, key, part.ravel())
        return _block_digits(bins[margin:], W, R * blocks)

    Q = J // 16
    s1 = digits(Mu, _FOLD_S1, Q)
    np.right_shift(M, 26, out=H)
    M &= (1 << 26) - 1
    np.multiply(H, M, out=T)
    s2 = digits(T.view(np.uint64), _FOLD_S2[1], 2 * Q)
    H *= H
    s2 += digits(Hu, _FOLD_S2[0], 2 * Q)
    M *= M
    s2 += digits(Mu, _FOLD_S2[2], 2 * Q)
    s1, s2 = _digit_ints(s1.reshape(R, Q, -1), s2.reshape(R, 2 * Q, -1))
    # shifted as Python ints: an object array shifted by int64 ones overflows
    return np.array([bad, [s << (e + _UNIT_BITS - 1075) for s, e in zip(s1, lo)],
                     [s << (2 * e + _UNIT_BITS - 2150) for s, e in zip(s2, lo)]],
                    dtype=object)


def _block_digits(bins: np.ndarray, W: np.ndarray, blocks: int):
    """Each of `blocks` equal blocks of one part's uint64 bins as its
    16-bit digits (see `_fold_weights`): the 32-bit halves of its bins, as
    floats, times W. Exact, as every partial sum is an integer below
    2^52."""
    return bins.view(np.uint32).astype(float).reshape(blocks, -1) @ W


def _digit_ints(s1: np.ndarray, s2: np.ndarray):
    """Per row, the int of the sum of y and of the sum of y^2, as two
    lists: digit o of block q of a row's bins, s1[row, q, o] or
    s2[row, q, o], is its int's 16-bit digit q + o.

    Two carry passes leave every digit below 2^32, so the even and the odd
    digits are each one little-endian array of uint32. A row's 2 Q + 8
    digits (an even count) hold the 2 Q + 6 that s2's 2 Q blocks reach
    and the two the carries reach, so no carry crosses into the next
    row."""
    rows, blocks, offsets = s2.shape
    width = blocks + offsets + 1
    D = np.concatenate([_add_blocks(s1, width), _add_blocks(s2, width)])
    D = D.astype(np.int64)
    for _ in range(2):
        carry = D >> 16
        D &= 0xFFFF
        D[1:] += carry[:-1]
    D = D.reshape(2 * rows, width)
    even = memoryview(D[:, 0::2].astype(np.uint32).tobytes())
    odd = memoryview(D[:, 1::2].astype(np.uint32).tobytes())
    size = len(even) // (2 * rows)
    ints = [int.from_bytes(even[i:i + size], "little")
            + (int.from_bytes(odd[i:i + size], "little") << 16)
            for i in range(0, len(even), size)]
    return ints[:rows], ints[rows:]


def _add_blocks(C: np.ndarray, width: int) -> np.ndarray:
    """The rows of digits, `width` each, flat: digit q + o of row r adds
    C[r, q, o] for every block q and offset o."""
    rows, blocks, offsets = C.shape
    first = np.arange(rows * width).reshape(rows, width)[:, :blocks, None]
    return np.bincount((first + np.arange(offsets)).ravel(), C.ravel(),
                       rows * width)


def _mean(total: int, n: int, n_nonfinite: int) -> float:
    """The exact sum `total` rounded to a float, over n (math.fsum of the
    samples over n); inf if a sample or the sum is beyond float range."""
    if n_nonfinite:
        return math.inf
    try:
        return total / _ONE / n
    except OverflowError:
        return math.inf


class _Sums(NamedTuple):
    """One slot's result over some paths, merged by adding each field: the
    paths dropped as divergent (every other path is kept) and, per sample
    column, the rows of `_exact_sums` (non-finite counts, sums of y, y^2)."""

    n_divergent: int
    bad: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


def _estimate(p: float, n_paths: int, sums: _Sums) -> MomentEstimate:
    """The MomentEstimate of the samples s kept of n_paths, from the
    one-column record of y = s^(2p) (see `estimate_from_samples`): 0 +- 0
    with no sample or a zero mean, inf +- inf with an infinite mean."""
    n = n_paths - sums.n_divergent
    [n_nonfinite], [s1], [s2] = sums.bad, sums.s1, sums.s2
    mu = _mean(s1, n, n_nonfinite) if n else 0.0
    value = std_error = math.inf if mu == math.inf else 0.0
    if 0.0 < mu < math.inf:
        se_mu = 0.0
        if n > 1:
            try:
                var = (n * s2 * _ONE - s1 * s1) / (n * (n - 1) * _ONE * _ONE)
            except OverflowError:
                var = math.inf
            se_mu = math.sqrt(var / n)
        value = mu ** (1.0 / (2.0 * p))
        std_error = se_mu * value / (2.0 * p * mu)
    return MomentEstimate(value=value, std_error=std_error, p=p,
                          n_paths=n_paths, n_divergent=sums.n_divergent)


def resolve_threads(requested: Optional[int] = None) -> int:
    """Worker-process count: the argument if given, else the number of cores
    this process may run on. No environment variable changes it."""
    if requested is not None:
        return check_count(requested, "thread count")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_spans(n_paths: int, threads: int):
    """The path chunks, as ranges of path indices. A chunk is an even share
    of the paths per worker, but at least CHUNK_PATHS paths so numpy's
    per-call overhead stays amortized and at most 2 * CHUNK_PATHS so a noise
    block stays small."""
    size = min(2 * CHUNK_PATHS, max(CHUNK_PATHS, -(-n_paths // threads)))
    return [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _outcome(worker, paths, catch):
    """`worker(paths)`, or the exception of type `catch` that it raised,
    returned instead; `catch` is Exception or BaseException, so a
    SolverFailure always is (see `_map_chunks`)."""
    try:
        return worker(paths)
    except catch as exc:
        return exc


class _Fold:
    """The outcomes of a run's chunks, taken in any order: their results
    added field by field, the least SolverFailure by `rank`, and the other
    exception of the least chunk index, with that index."""

    def __init__(self, chunks: int):
        self.missing = set(range(chunks))
        self.total = self.failure = self.error = None

    def take(self, i: int, outcome) -> None:
        self.missing.discard(i)
        if isinstance(outcome, SolverFailure):
            self.failure = min(self.failure or outcome, outcome,
                               key=attrgetter("rank"))
        elif isinstance(outcome, BaseException):
            self.error = min(self.error or (i, outcome), (i, outcome),
                             key=itemgetter(0))
        elif self.total is None:
            self.total = outcome
        else:
            self.total = [_Sums(*map(add, a, b))
                          for a, b in zip(self.total, outcome)]

    def needs(self, i: int) -> bool:
        """Whether chunk i can still change what the run returns or raises:
        it has not come in, and no chunk before it raised."""
        return i in self.missing and (self.error is None or i < self.error[0])

    @property
    def settled(self) -> bool:
        return not any(map(self.needs, self.missing))

    def result(self):
        """The added results; else raise the exception, else the failure."""
        if self.error:
            raise self.error[1]
        if self.failure:
            raise self.failure
        return self.total


def _send(pipe, i: int, outcome) -> None:
    """Write chunk i's outcome into a worker's pipe: the length of its
    pickle in eight bytes, then the pickle. An exception that does not
    pickle, or does not unpickle, goes as a RuntimeError naming its type
    and message."""
    try:
        if isinstance(outcome, BaseException):
            pickle.loads(pickle.dumps(outcome))
        data = pickle.dumps((i, outcome))
    except Exception:
        data = pickle.dumps((i, RuntimeError(
            f"a worker raised {type(outcome).__qualname__}: {outcome}")))
    pipe.write(len(data).to_bytes(8, "little") + data)
    pipe.flush()


def _read(fd: int, n: int) -> bytes:
    """n bytes from the pipe fd, or fewer if it ends first."""
    data = b""
    while len(data) < n and (more := os.read(fd, n - len(data))):
        data += more
    return data


def _receive(fd: int):
    """The next (chunk index, outcome) that `_send` wrote into the pipe fd,
    or None if the pipe ends first."""
    head = _read(fd, 8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = _read(fd, size)
        if len(data) == size:
            return pickle.loads(data)
    return None


def _worker_process(worker, spans, first: int, step: int, fd: int):
    """The body of a forked worker: chunks first, first + step, ... of
    `spans` in path order, each one's outcome (`_outcome`) sent into the
    pipe `fd` (`_send`) as it finishes, up to the first that raised an
    exception other than a SolverFailure; then `os._exit`, so it never
    returns into the caller's stack, runs no atexit handler and flushes no
    inherited stdio buffer. If an outcome cannot be sent, the exit code is
    1."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            for i in range(first, len(spans), step):
                outcome = _outcome(worker, spans[i], BaseException)
                _send(pipe, i, outcome)
                if (isinstance(outcome, BaseException)
                        and not isinstance(outcome, SolverFailure)):
                    break
        code = 0
    except BaseException:
        pass
    finally:
        os._exit(code)


def _take_ready(pipes: dict, fold: _Fold, timeout) -> None:
    """Take into `fold` the next outcome from each worker pipe in `pipes`
    (read ends by pid) that is ready now (timeout 0) or, with timeout None,
    once one is. A pipe that ends is closed and its worker reaped; a worker
    that ended by a signal or a nonzero exit code raises
    BrokenProcessPool. `poll`, unlike `select`, takes any fd number."""
    if not pipes:
        return
    from select import POLLIN, poll
    waiting = poll()
    for fd in pipes.values():
        waiting.register(fd, POLLIN)
    ready = {fd for fd, _ in waiting.poll(timeout)}
    for pid, fd in list(pipes.items()):
        if fd not in ready:
            continue
        record = _receive(fd)
        if record:
            fold.take(*record)
            continue
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        os.close(pipes.pop(pid))
        if code:
            from concurrent.futures.process import BrokenProcessPool
            end = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise BrokenProcessPool(
                f"worker process {pid} ended by {end} before its chunks did")


def _stop(pipes: dict) -> None:
    """Kill and reap the workers in `pipes` (read ends by pid), and close
    their pipes. A worker already reaped is passed over."""
    if pipes:
        from signal import SIGKILL
    for pid, fd in pipes.items():
        try:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        os.close(fd)


def _map_chunks(worker, n_paths: int, threads: int):
    """Run `worker(paths)` over the path chunks, `paths` the range of one
    chunk's path indices, and add up its results (lists of `_Sums`) field by
    field, so a run holds one record per estimate. The sums are exact, so
    the order of addition changes no bit. `threads` is a worker count from
    `resolve_threads`.

    Several chunks and more than one worker share the chunks among
    P = min(threads, chunks) processes: this one and P - 1 workers forked
    from it (`os.fork`), each with one pipe. Process w runs chunks w, w + P,
    w + 2P, ... in path order. A worker sends each chunk's outcome through
    its pipe as the chunk finishes; this process takes what has arrived
    after each chunk of its own, and waits for the rest once its own are
    done. Workers inherit `worker`, a closure over a problem whose callables
    need not pickle, through the fork, and send back only sums and errors,
    pickled. Without `os.fork` the chunks run serially here. A fork that
    fails (EAGAIN, say) has both ends of its pipe closed and starts no later
    worker, and this process runs the chunks of every worker not forked
    too, in path order, so the run gives the same results.

    A chunk returns its SolverFailure, and once every chunk has run the
    least by `rank` (see `_coupled_steps`) is raised: the earliest failure
    of the run at any worker count. Any other exception is raised instead,
    from the least chunk index that raised one, as in a serial run, as soon
    as every chunk before that one is in; no later chunk runs here. In this
    process an exception that is not an Exception (KeyboardInterrupt, say)
    leaves at once. A worker that dies (killed for memory, say) raises
    BrokenProcessPool rather than leaving the run waiting, and a worker
    still running when this call leaves is killed and reaped."""
    spans = _chunk_spans(n_paths, threads)
    processes = min(threads, len(spans)) if hasattr(os, "fork") else 1
    fold = _Fold(len(spans))
    pipes = {}  # the read end of each running worker's pipe, by pid
    try:
        running = processes  # this process and the workers forked
        for w in range(1, processes):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(out)
                running = w
                break
            if not pid:
                _worker_process(worker, spans, w, processes, out)
            os.close(out)
            pipes[pid] = fd
        for i in range(len(spans)):
            if 0 < i % processes < running:
                continue
            if not fold.needs(i):
                break
            fold.take(i, _outcome(worker, spans[i], Exception))
            _take_ready(pipes, fold, 0)
        while not fold.settled:
            _take_ready(pipes, fold, None)
    finally:
        _stop(pipes)
    return fold.result()


def _noise_blocks(master_seed: int, paths: range, m: int, h_fine: float,
                  n_fine: int, unit: int):
    """The increments of the chunk `paths` over n_fine fine steps of size
    h_fine, as blocks (t0, W) in time order: W (B, n_t, m) holds steps t0 ..
    t0 + n_t - 1, and every block but the last spans the largest multiple
    of `unit` within BLOCK_STEPS (at least one `unit`). Every block is a
    leading slice of one buffer, drawn over the block before it, so a
    block is valid only until the next one is drawn.

    One generator, `path_generator`'s for the first path, draws every row:
    each path's state is restored into it before the path draws, so row b
    is exactly the slice of path b's one-shot stream. A path starts from
    that fresh state (counter 0, empty buffer) with its own key, as
    `path_generator` starts it; start states are made as the paths draw,
    and the state a path leaves off in is saved only for a later block."""
    gen = path_generator(master_seed, paths.start)
    bits, sqrt_h = gen.bit_generator, math.sqrt(h_fine)
    # the state setter reads Python ints faster than numpy scalars
    fresh = bits.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    states = (dict(fresh, state=dict(fresh["state"], key=key))
              for key in path_keys(master_seed, paths).tolist())
    per = max(1, BLOCK_STEPS // unit) * unit
    buf = np.empty((len(paths), min(per, n_fine), m))
    for t0 in range(0, n_fine, per):
        W = buf[:, :min(per, n_fine - t0)]
        carry, ends = t0 + per < n_fine, []
        for row, state in zip(W, states):
            bits.state = state
            gen.standard_normal(out=row)
            if carry:
                ends.append(bits.state)
        states = ends
        W *= sqrt_h
        yield t0, W


def _coarse_noise(W: np.ndarray, factors) -> dict:
    """Per factor f, `pairwise_block_sum(W, f, axis=1)` bit for bit (W
    itself at f = 1). The split-at-half tree of f = g 2^j is the tree of g
    halved j times, so level f is summed from the largest level g already
    built for which f / g is a power of two, or from W if there is none."""
    Wf = {1: W}
    for f in sorted(set(factors) - {1}):
        g = max((g for g in Wf if f % g == 0 and (f // g).bit_count() == 1),
                default=1)
        Wf[f] = pairwise_block_sum(Wf[g], f // g, axis=1)
    return Wf


def _start_state(problem: SdeProblem, x0, name: str = "x0") -> np.ndarray:
    """x0 as a state of shape (d,) whose every entry passes `check_real`; a
    single value (a scalar or any size-1 array) fills every component. Every
    protocol checks its start states before any chunk runs."""
    entries = np.asarray(x0, dtype=object)
    x0 = np.array([check_real(v, name) for v in entries.flat],
                  dtype=float).reshape(entries.shape)
    if x0.size == 1:
        x0 = np.full(problem.d, x0.item())
    if x0.shape != (problem.d,):
        raise UsageError(f"{name} shape {x0.shape} does not match problem "
                         f"dimension ({problem.d},)")
    return x0


def _exact_multiple(a: float, b: float, a_name: str, b_name: str) -> int:
    """a / b as a positive integer, checked in exact rational arithmetic,
    of a and b positive and finite (`check_positive`)."""
    a, b = check_positive(a, a_name), check_positive(b, b_name)
    q = Fraction(a) / Fraction(b)
    if q.denominator != 1 or q < 1:
        raise UsageError(
            f"{a_name}={a} is not an integer multiple of {b_name}={b}")
    return q.numerator


def _step_list(h_list) -> list:
    """The distinct steps of h_list, largest first, refusing an empty list
    and any step that is not positive and finite."""
    hs = sorted({check_positive(h, "h") for h in h_list}, reverse=True)
    if not hs:
        raise UsageError("h_list must be nonempty")
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
    the pairwise sums of `factor` fine increments of size h_fine, built
    level from level per noise block (`_coarse_noise`) and dropped before
    the next block is drawn. Yields
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
    try:
        for t0, W in _noise_blocks(master_seed, paths, problem.m, h_fine,
                                   n_fine, math.lcm(*factors)):
            Wf = _coarse_noise(W, factors)
            for k in range(t0 + 1, t0 + W.shape[1] + 1):
                for i, (_, f, h) in enumerate(tracks):
                    if k % f == 0:
                        n = k // f - 1
                        Zs[i] = step_batch(problem, scheme_cfg, Zs[i],
                                           Wf[f][:, n - t0 // f], h,
                                           step_index=n)
                yield k, Zs
            del Wf
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
    """Per slot, its `_Sums` record over all paths: each chunk returns one
    record per slot, `_map_chunks` adds them into one record per slot as the
    chunks finish, and no sample outlives its chunk.

    `tracks` are as in `_coupled_steps`. A slot is (ks, reads, statistic,
    power): at each fine index k of the ascending `ks`, `statistic(*states)`
    of the tracks numbered in `reads` gives a new array of one sample row
    per path, and the slot keeps their elementwise maximum over `ks` (with
    one index, the statistic itself). At the slot's last index the paths
    whose read states are not finite are dropped and counted; since a
    non-finite state stays so, these are the paths that diverged on a read
    track, and every kept sample s was read from finite states only.

    A chunk's worker keeps the records that are due as a list of (slot,
    n_divergent, y), y = s ** power of every path with one row per sample
    column, 0 for a dropped path (a zero adds nothing to either sum); a
    sample must not have its sign bit set (see `_exact_sums`). One
    `_exact_sums` call on the list's rows together empties it when the
    next record would take it past TILE rows, and at the chunk's end; a
    wider record alone is summed TILE rows at a time.

    The master seed, each track's step (`check_step`) and the worker count
    (`resolve_threads(threads)`) are checked here, and the path count by the
    caller, before `_map_chunks` is called.
    """
    check_master_seed(master_seed)
    for _, _, h in tracks:
        check_step(scheme_cfg, h)
    threads = resolve_threads(threads)
    due = {}
    for j, (ks, _, _, _) in enumerate(slots):
        for k in ks:
            due.setdefault(k, []).append(j)

    def worker(paths):
        kept = [None] * len(slots)
        records = []  # (slot, n_divergent, y rows), not yet summed

        def flush():
            """`_exact_sums` of the records' rows at once, kept per slot."""
            total = _exact_sums(np.concatenate([y for *_, y in records]))
            lo = 0
            for j, n_divergent, y in records:
                kept[j] = _Sums(n_divergent, *total[:, lo:lo + len(y)])
                lo += len(y)
            records.clear()

        for k, Zs in _coupled_steps(problem, scheme_cfg, master_seed, paths,
                                    h_fine, n_fine, tracks):
            for j in due.get(k, ()):
                ks, reads, statistic, power = slots[j]
                states = [Zs[i] for i in reads]
                with np.errstate(invalid="ignore", over="ignore"):
                    s = statistic(*states)
                    if k != ks[0]:
                        np.maximum(kept[j], s, out=s)
                    if k != ks[-1]:
                        kept[j] = s
                        continue
                    alive = np.isfinite(states[0]).all(axis=1)
                    for Z in states[1:]:
                        alive &= np.isfinite(Z).all(axis=1)
                    n_divergent = len(paths) - int(np.count_nonzero(alive))
                    if n_divergent:
                        s[~alive] = 0.0
                    y = s.reshape(len(paths), -1).T ** power
                rows = sum([len(r[-1]) for r in records]) + len(y)
                if records and rows > TILE:
                    flush()
                records.append((j, n_divergent, y))
        flush()
        return kept

    return _map_chunks(worker, n_paths, threads)


def _gap(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return _row_norms(X - Y)


def _parts(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The positive and the negative parts of X - Y, side by side: 2d
    columns, each entry positive or +0.0 (np.maximum can return -0.0)."""
    D = np.concatenate([X - Y, Y - X], axis=1)
    return np.where(D > 0.0, D, 0.0)


# ---------------------------------------------------------------------------
# single-path evolution (public building block)
# ---------------------------------------------------------------------------

def evolve_terminal(problem: SdeProblem, scheme_cfg: SchemeConfig, h: float,
                    n_steps: int, noise, x0) -> np.ndarray:
    """Terminal state of one path after n_steps of the configured scheme.

    The single-path entry point: it checks h (positive and finite), n_steps,
    the start state x0 (see `_start_state`) and the noise, then runs
    `step_batch` on a batch of one, so it reproduces a row of any batch run
    bit for bit when the problem is row-independent (`SdeProblem`); the
    built-in Allen-Cahn drift's `X @ A` is under OpenBLAS 0.3.31 at K = 4
    and 8, but not at K = 16 and 33. `noise` is either a NoiseGrid matching
    (h, n_steps) or a plain (n_steps, m) increment array. A non-finite
    return value is the divergence tag of the explicit scheme; the implicit
    solver raises SolverFailure instead of returning garbage.
    """
    h = check_positive(h, "h")
    n_steps = check_count(n_steps, "n_steps", 0)
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
    p = check_positive(p, "p")
    n_paths = check_count(n_paths, "n_paths")
    hs, h_ref = _step_list(h_list), check_positive(h_ref, "h_ref")
    if h_ref > min(hs):
        raise UsageError(f"h_ref={h_ref} must not exceed the smallest h={min(hs)}")
    factors = [_exact_multiple(h, h_ref, "h", "h_ref") for h in hs]
    n_fine = _exact_multiple(T, h_ref, "T", "h_ref")
    for h in hs:
        _exact_multiple(T, h, "T", "h")
    x0 = _start_state(problem, x0)
    tracks = [(x0, 1, h_ref)] + [(x0, f, h) for h, f in zip(hs, factors)]
    slots = [(range(0, n_fine + 1, f), (0, i), _gap, 2.0 * p)
             for i, f in enumerate(factors, 1)]
    estimates = [_estimate(p, n_paths, sums)
                 for sums in _reduce(problem, scheme_cfg, master_seed, n_paths,
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
    n_records = check_count(n_records, "n_records")
    n_paths = check_count(n_paths, "n_paths")
    p = check_positive(p, "p")
    n_steps = _exact_multiple(T, h, "T", "h")
    rec = sorted({round(j * n_steps / n_records) for j in range(n_records + 1)})
    slots = [((k,), range(len(starts)), statistic, 2.0 * p) for k in rec]
    times = np.asarray([k * h for k in rec])
    return times, [_estimate(p, n_paths, sums)
                   for sums in _reduce(problem, scheme_cfg, master_seed,
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
    substeps = check_count(substeps, "substeps", 2)
    n_paths = check_count(n_paths, "n_paths")
    hs = _step_list(h_list)
    x = _start_state(problem, x, "x")
    results = []
    for h in hs:
        h_fine = h / substeps
        # the RMS of |fine - coarse|, and the exact sums of the positive
        # and negative parts of fine - coarse, whose difference is the sum
        strong, weak = _reduce(
            problem, scheme_cfg, master_seed, n_paths, threads, h_fine,
            substeps, [(x, 1, h_fine), (x, substeps, h)],
            [((substeps,), (0, 1), _gap, 2.0),
             ((substeps,), (0, 1), _parts, 1.0)])
        d = problem.d  # the mean over the survivors; with none, zero
        n = max(n_paths - weak.n_divergent, 1)
        mean = [_mean(total, n, bad) for total, bad in zip(
            weak.s1[:d] - weak.s1[d:], weak.bad[:d] + weak.bad[d:])]
        results.append((h, _estimate(1.0, n_paths, strong),
                        math.hypot(*mean)))
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
    substeps = check_count(substeps, "substeps")
    n_paths = check_count(n_paths, "n_paths")
    p = check_positive(p, "p")
    hs = _step_list(h_list)
    x0, y0 = _start_state(problem, x0), _start_state(problem, y0, "y0")
    gap0 = x0 - y0
    results = []
    for h in hs:
        h_fine = h / substeps
        [sums] = _reduce(
            problem, scheme_cfg, master_seed, n_paths, threads, h_fine,
            substeps, [(x0, 1, h_fine), (y0, 1, h_fine)],
            [((substeps,), (0, 1), lambda X, Y: _row_norms((X - Y) - gap0),
              2.0 * p)])
        results.append((h, _estimate(p, n_paths, sums)))
    return results

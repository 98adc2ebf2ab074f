"""The benchmark's workloads: three coupled-path CLI runs that stress different layers.

Each workload is one `sde-longtime` invocation at a reduced size. The
benchmark, not the workload, sets the worker count (`--threads`), and the
child environment never carries SDE_LONGTIME_THREADS.

Why each workload exists, and what it predicts for other changes:

gl-be-ladder
    `convergence` on Ginzburg-Landau with backward Euler, ladder 2^-3..2^-7
    against h_ref=2^-10, at two worker threads. The scalar implicit solve
    (`solve_implicit_batch`) takes about 70% of the run phase, and this is the
    only workload that uses the thread pool: today two threads are about 1.6x
    slower than one, so a process pool or a closed-form cubic solve shows
    here first.
ac-be-ladder
    `convergence` on Allen-Cahn (K=4, d=3) with backward Euler, on the
    `ac-fig3` ladder shape (15/2^6..15/2^10 against 15/2^12), one thread. It
    runs the same `schemes`/`simulate` path as gl-be-ladder, but the d=3
    branch: batched `np.linalg.solve` on 3x3 Jacobians and the dense `X @ A`
    drift. A tridiagonal solve or a stencil drift shows here and not on GL.
gl-em-moments
    `moments` on GL with explicit Euler at h=2^-2 from x0=2, where a few
    percent of paths diverge, one thread. It bypasses the implicit solve and
    the pairwise coarsening, and runs the other `simulate` protocol (the
    record-and-estimate trace with divergence masks). It has the largest
    noise share: per path one generator set-up plus one draw per step,
    against a cheap explicit step.

Predicted "should not move" pairings, for a later change to check against:

* a solver change (closed-form cubic, tridiagonal Thomas solve, fewer
  Newton iterations) leaves gl-em-moments unchanged;
* a thread or process change leaves ac-be-ladder and gl-em-moments
  unchanged, since both run one worker.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction


def worker_threads(wanted: int) -> int:
    """Worker count capped at the cores this process may use, so that with
    BLAS pinned to one thread no workload runs more threads than cores."""
    return max(1, min(wanted, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    options: dict          # CLI flag -> value, without --seed/--threads/--output
    threads: int           # worker threads wanted; capped by worker_threads()

    def cli_args(self, seed: int, output: str) -> list:
        args = [self.command]
        for key, value in self.options.items():
            args += [f"--{key}", str(value)]
        return args + ["--seed", str(seed), "--threads",
                       str(worker_threads(self.threads)), "--output", output]

    def path_steps(self) -> int:
        """Scheme steps one invocation takes, summed over paths.

        Ladder: paths * (T/h_ref + sum_i T/h_i). Trace: paths * tracks * T/h,
        with one track for `moments`.
        """
        paths = int(self.options["paths"])
        T = _rational(self.options["T"])
        if self.command == "convergence":
            _, h_ref, hs = self.ladder()
            steps = T / h_ref + sum(T / h for h in hs)
        else:
            tracks = 2 if self.command == "contractivity" else 1
            steps = tracks * T / _rational(self.options["h"])
        if steps.denominator != 1:
            raise ValueError(f"{self.name}: steps do not divide T exactly")
        return paths * int(steps)

    def ladder(self):
        """(T, h_ref, [h, ...]) of a convergence workload, as Fractions."""
        return (_rational(self.options["T"]), _rational(self.options["h-ref"]),
                [_rational(h) for h in self.options["h-list"].split(",")])


def _rational(text: str) -> Fraction:
    """The subset of the CLI's step notation the workloads use: 'a', '2^-k',
    'a/2^k'."""
    def power(t):
        base, _, exp = t.partition("^")
        return Fraction(int(base)) ** int(exp or 1)

    num, slash, den = text.partition("/")
    return power(num) / power(den) if slash else power(num)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gl-be-ladder",
        why="GL backward-Euler ladder at 2 threads: scalar implicit solve "
            "dominates; the only workload on the thread pool",
        command="convergence",
        options={"model": "gl", "scheme": "be", "T": "2",
                 "h-list": "2^-3,2^-4,2^-5,2^-6,2^-7", "h-ref": "2^-10",
                 "paths": "1024", "x0": "1"},
        threads=2),
    Workload(
        name="ac-be-ladder",
        why="Allen-Cahn K=4 backward-Euler ladder, 1 thread: batched 3x3 "
            "solves and dense X @ A drift instead of the scalar solve",
        command="convergence",
        options={"model": "allen-cahn", "K": "4", "scheme": "be",
                 "T": "15/2^3",
                 "h-list": "15/2^6,15/2^7,15/2^8,15/2^9,15/2^10",
                 "h-ref": "15/2^12", "paths": "512", "x0": "1"},
        threads=1),
    Workload(
        name="gl-em-moments",
        why="GL explicit-Euler moment trace with divergent paths, 1 thread: "
            "no implicit solve or coarsening; highest noise share",
        command="moments",
        options={"model": "gl", "scheme": "em", "T": "96", "h": "2^-2",
                 "paths": "16384", "x0": "2"},
        threads=1),
)}

# CLI seeds whose outputs are recorded under refs/; a benchmark seed picks the
# order in which a run cycles through them.
REF_SEEDS = tuple(range(1, 17))


def seed_schedule(bench_seed: int) -> list:
    """CLI seeds in the order a run uses them: a rotation of REF_SEEDS."""
    k = bench_seed % len(REF_SEEDS)
    return list(REF_SEEDS[k:] + REF_SEEDS[:k])

"""Seed-deterministic Brownian increments on a fine grid, with exact coarsening.

Every path of every ensemble draws its increments from a private counter-based
substream keyed by ``(master_seed, path_index)`` through numpy's
``SeedSequence``/``Philox`` machinery, so path k's increments never depend on
how many other paths exist, which worker generated them, or whether they were
produced in one call or streamed in blocks.

`path_generator` builds one path's generator and is the reference for its
stream. The engine instead computes the Philox keys of a whole path chunk in
one vectorized pass (`path_keys`, SeedSequence's hash mixing on uint32
arrays) and runs one generator per chunk, restoring each path's key or saved
state into it before that path draws (`simulate._noise_blocks`); the rows are
bit for bit the reference streams.

Coarsening sums consecutive fine increments with a fixed pairwise
(balanced-tree) order. The tree of a factor g 2^j is the tree of g halved j
times: ``coarsen(coarsen(g, 2), 2)`` equals ``coarsen(g, 4)`` bit for bit,
every level of a dyadic ladder sees the same total increment, and the engine
halves each such level from the one below (`simulate._coarse_noise`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = ["NoiseGrid", "make_noise_grid", "coarsen", "pairwise_block_sum",
           "path_generator", "path_seed_sequence"]

# SeedSequence's hash constants (numpy.random.bit_generator, after O'Neill's
# seed_seq design); `path_keys` replays its mixing on arrays of paths.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


def path_seed_sequence(master_seed: int, path_index: int) -> np.random.SeedSequence:
    """Seed material for one path's substream: child `path_index` of the master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(path_index,))


def path_generator(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based generator for one path, independent of all other paths."""
    return np.random.Generator(np.random.Philox(path_seed_sequence(master_seed, path_index)))


def check_count(value, name: str, least: int = 1) -> int:
    """`value` as an int of at least `least`, or a usage error: a bool or a
    non-integer is refused whatever its value, so no count is truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(
            value, bool) and value >= least:
        return int(value)
    raise UsageError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(value, name: str) -> float:
    """`value` as a positive finite float, or a usage error: a bool or a
    non-real is refused whatever its value, as are NaN and the infinities."""
    if isinstance(value, numbers.Real) and not isinstance(
            value, bool) and 0.0 < value < math.inf:
        return float(value)
    raise UsageError(f"{name} must be positive and finite, got {value!r}")


def check_real(value, name: str) -> float:
    """`value` as a finite float, or a usage error: a bool or a non-real is
    refused whatever its value, as are NaN and the infinities."""
    if isinstance(value, numbers.Real) and not isinstance(
            value, bool) and math.isfinite(value):
        return float(value)
    raise UsageError(f"{name} must be finite and real, got {value!r}")


def check_master_seed(master_seed) -> int:
    """`master_seed` as a non-negative int, or a usage error."""
    return check_count(master_seed, "master seed", 0)


def _hashmix(init: int, mult: int):
    """SeedSequence's uint32 hash on arrays, with its running multiplier."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def path_keys(master_seed: int, indices) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the given paths' substreams.

    Row j equals ``path_seed_sequence(master_seed, indices[j])
    .generate_state(2, np.uint64)``, the key `path_generator` seeds its
    Philox with. Indices below 2**32 are one spawn-key word, so their keys
    come from one pass of SeedSequence's uint32 hash mixing over the whole
    array; any other index goes through SeedSequence itself.
    """
    seed = check_master_seed(master_seed)
    idx = np.asarray(indices, dtype=np.int64)
    keys = np.empty((idx.size, 2), dtype=np.uint64)
    small = (idx >= 0) & (idx <= _MASK32)
    words = []                     # little-endian seed words, [0] for 0
    while True:
        words.append(np.array([seed & _MASK32], dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_WORDS - len(words))
    entropy = words + [idx[small].astype(np.uint32)]
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = _hashmix(_INIT_B, _MULT_B)
    state = [out(w).astype(np.uint64) for w in pool]
    keys[small, 0] = state[0] | (state[1] << np.uint64(32))
    keys[small, 1] = state[2] | (state[3] << np.uint64(32))
    for j in np.flatnonzero(~small):
        keys[j] = path_seed_sequence(master_seed, int(idx[j])).generate_state(
            2, np.uint64)
    return keys


@dataclass(frozen=True)
class NoiseGrid:
    """Brownian increments of one path on a uniform fine grid.

    ``increments[k, j]`` is the j-th component of W(t_{k+1}) - W(t_k) with
    t_k = k * h_fine; each entry is N(0, h_fine) and the array is exactly
    reproducible from ``(master_seed, path_index)``.
    """

    master_seed: int
    path_index: int
    m: int
    h_fine: float
    n_fine: int
    increments: np.ndarray


def make_noise_grid(master_seed: int, path_index: int, m: int,
                    h_fine: float, n_fine: int) -> NoiseGrid:
    """Draw one path's fine-grid increments from its dedicated substream.

    Parameters
    ----------
    master_seed, path_index : int
        Identify the substream; same pair, same increments, always.
    m : int
        Number of driving Brownian components.
    h_fine : float
        Fine step size, must be positive and finite (`check_positive`).
    n_fine : int
        Number of fine steps, must be positive.
    """
    h_fine = check_positive(h_fine, "h_fine")
    n_fine, m = check_count(n_fine, "n_fine"), check_count(m, "m")
    path_index = check_count(path_index, "path_index", 0)
    check_master_seed(master_seed)
    gen = path_generator(master_seed, path_index)
    increments = gen.standard_normal((n_fine, m)) * math.sqrt(h_fine)
    return NoiseGrid(master_seed=master_seed, path_index=path_index, m=m,
                     h_fine=h_fine, n_fine=n_fine, increments=increments)


def pairwise_block_sum(arr: np.ndarray, factor: int, axis: int = 0) -> np.ndarray:
    """Sum consecutive groups of `factor` entries along `axis` in pairwise order.

    The group sum is formed by recursive split-at-half (a balanced binary
    tree), the order every consumer of coarsened increments must share for the
    telescoping identities to hold exactly. `factor` must be a positive
    integer dividing the length along `axis`, or a usage error is raised.
    """
    factor = check_count(factor, "factor")
    if factor == 1:
        return arr.copy()
    arr = np.moveaxis(arr, axis, 0)
    n = arr.shape[0]
    if n % factor != 0:
        raise UsageError(f"factor {factor} does not divide grid length {n}")
    blocks = arr.reshape((n // factor, factor) + arr.shape[1:])

    def tree(a):
        # a has the group axis at position 1; a group of 2 or more returns
        # a new array, so the right half's sum is added into the left's
        f = a.shape[1]
        if f == 1:
            return a[:, 0]
        half = f // 2
        if half == 1:
            return a[:, 0] + tree(a[:, 1:])
        x = tree(a[:, :half])
        x += tree(a[:, half:])
        return x

    out = tree(blocks)
    return np.moveaxis(out, 0, axis)


def coarsen(grid: NoiseGrid, factor: int) -> np.ndarray:
    """Exact increments of the same Brownian path on a grid `factor` times coarser.

    Returns an array of shape ``(n_fine // factor, m)`` whose k-th row is the
    pairwise-ordered sum of fine rows ``k*factor .. (k+1)*factor - 1``. Raises
    a usage error when `factor` is not a positive integer dividing ``n_fine``.
    """
    return pairwise_block_sum(grid.increments, factor, axis=0)

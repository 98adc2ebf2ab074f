"""Seed determinism, substream independence, and exact coarsening."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_longtime import (NoiseGrid, UsageError, coarsen, make_noise_grid,
                          pairwise_block_sum, path_generator,
                          path_seed_sequence, simulate)
from sde_longtime.noise import path_keys
from sde_longtime.simulate import _noise_blocks


def _tree_sum(rows):
    """Reference pairwise summation: split at the midpoint, recurse."""
    n = len(rows)
    if n == 1:
        return rows[0]
    k = n // 2
    return _tree_sum(rows[:k]) + _tree_sum(rows[k:])


def test_same_seed_same_increments():
    a = make_noise_grid(12, 7, m=2, h_fine=0.01, n_fine=64)
    b = make_noise_grid(12, 7, m=2, h_fine=0.01, n_fine=64)
    npt.assert_array_equal(a.increments, b.increments)


def test_distinct_paths_and_seeds_differ():
    base = make_noise_grid(12, 7, m=1, h_fine=0.01, n_fine=64).increments
    other_path = make_noise_grid(12, 8, m=1, h_fine=0.01, n_fine=64).increments
    other_seed = make_noise_grid(13, 7, m=1, h_fine=0.01, n_fine=64).increments
    assert not np.array_equal(base, other_path)
    assert not np.array_equal(base, other_seed)


def test_substream_matches_spawned_child():
    """Path k's stream is exactly child k of the master SeedSequence."""
    master = np.random.SeedSequence(99)
    child = master.spawn(4)[3]
    ours = path_seed_sequence(99, 3)
    assert child.generate_state(8).tolist() == ours.generate_state(8).tolist()


def test_blocked_draws_equal_one_shot():
    """Drawing a stream in blocks must reproduce the one-shot array."""
    one = path_generator(5, 0).standard_normal((96, 3))
    gen = path_generator(5, 0)
    blocks = np.concatenate([gen.standard_normal((n, 3)) for n in (32, 48, 16)])
    npt.assert_array_equal(one, blocks)


def test_increment_variance_and_mean():
    grid = make_noise_grid(0, 0, m=1, h_fine=0.01, n_fine=1_000_000)
    x = grid.increments[:, 0]
    assert 0.0095 <= x.var() <= 0.0105
    assert abs(x.mean()) <= 5e-4


def test_lag_one_autocorrelation_negligible():
    x = make_noise_grid(1, 0, m=1, h_fine=0.01, n_fine=1_000_000).increments[:, 0]
    x = x - x.mean()
    rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(rho) <= 0.01


def test_coarsen_matches_reference_tree():
    grid = make_noise_grid(3, 2, m=2, h_fine=0.125, n_fine=12)
    coarse = coarsen(grid, 4)
    assert coarse.shape == (3, 2)
    for k in range(3):
        expect = _tree_sum([grid.increments[4 * k + i] for i in range(4)])
        npt.assert_array_equal(coarse[k], expect)


def test_coarsen_factor_one_is_identity():
    grid = make_noise_grid(3, 2, m=1, h_fine=0.125, n_fine=8)
    npt.assert_array_equal(coarsen(grid, 1), grid.increments)


def test_coarsen_composition_exact_dyadic():
    """Coarsening by 2 twice is bit-identical to coarsening by 4."""
    grid = make_noise_grid(17, 5, m=3, h_fine=0.5, n_fine=32)
    once = coarsen(grid, 4)
    twice = pairwise_block_sum(coarsen(grid, 2), 2, axis=0)
    npt.assert_array_equal(once, twice)


@settings(deadline=None, max_examples=40)
@given(exps=st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                     max_size=3), seed=st.integers(0, 10))
def test_dyadic_chain_composition(exps, seed):
    """Any chain of power-of-two coarsenings telescopes exactly."""
    total = 2 ** sum(exps)
    grid = make_noise_grid(seed, 0, m=1, h_fine=0.25, n_fine=64)
    chained = grid.increments
    for e in exps:
        chained = pairwise_block_sum(chained, 2 ** e, axis=0)
    npt.assert_array_equal(chained, coarsen(grid, total))


def test_coarsen_non_divisor_rejected():
    grid = make_noise_grid(3, 2, m=1, h_fine=0.125, n_fine=8)
    with pytest.raises(UsageError, match="does not divide"):
        coarsen(grid, 3)
    # a factor that is not a positive integer is refused by its own rule,
    # not by a ZeroDivisionError, a reshape or the divisibility message
    for factor in (0, -2, 2.5, True):
        for coarse in (lambda f: coarsen(grid, f),
                       lambda f: pairwise_block_sum(grid.increments, f)):
            with pytest.raises(UsageError, match="factor must be an integer"):
                coarse(factor)


def test_pairwise_block_sum_axis_one():
    arr = np.arange(24.0).reshape(2, 12)
    out = pairwise_block_sum(arr, 3, axis=1)
    npt.assert_array_equal(out, arr.reshape(2, 4, 3).sum(axis=2))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("factor", [2, 3, 5, 6, 8, 12, 128])
def test_pairwise_block_sum_leaves_its_input_and_equals_the_tree(factor, axis):
    """The sum never writes into its input, and each group sum is the plain
    out-of-place split-at-half tree bit for bit, on terms of widely spread
    magnitudes so that any other order of additions would show."""
    rng = np.random.default_rng(factor)
    shape = [4, 2]
    shape.insert(axis, 3 * factor)
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    before = arr.copy()
    out = pairwise_block_sum(arr, factor, axis=axis)
    npt.assert_array_equal(arr, before)
    rows = np.moveaxis(arr, axis, 0)
    expect = np.stack([_tree_sum(rows[k:k + factor])
                       for k in range(0, len(rows), factor)], axis=axis)
    npt.assert_array_equal(out, expect)


def test_make_noise_grid_validation():
    with pytest.raises(UsageError):
        make_noise_grid(0, 0, m=0, h_fine=0.1, n_fine=4)
    with pytest.raises(UsageError):
        make_noise_grid(0, 0, m=1, h_fine=0.0, n_fine=4)
    with pytest.raises(UsageError):
        make_noise_grid(0, 0, m=1, h_fine=0.1, n_fine=0)
    with pytest.raises(UsageError):
        make_noise_grid(0, -1, m=1, h_fine=0.1, n_fine=4)
    for count in (2.5, True):
        with pytest.raises(UsageError, match="n_fine must be an integer"):
            make_noise_grid(0, 0, m=1, h_fine=0.1, n_fine=count)
        with pytest.raises(UsageError, match="path_index must be an integer"):
            make_noise_grid(0, count, m=1, h_fine=0.1, n_fine=4)


def test_grid_records_its_coordinates():
    grid = make_noise_grid(41, 6, m=2, h_fine=0.25, n_fine=16)
    assert (grid.master_seed, grid.path_index) == (41, 6)
    assert (grid.m, grid.n_fine) == (2, 16)
    assert grid.h_fine == 0.25
    assert grid.increments.shape == (16, 2)


@pytest.mark.parametrize("seed", [0, 2 ** 64 + 3, 2 ** 130 + 1])
def test_path_keys_are_the_seed_sequence_keys(seed):
    """The vectorized keys equal SeedSequence's, for one-, three- and
    five-word seeds, at both ends of the one-word index range and at 2**32,
    the first index that goes through SeedSequence itself."""
    indices = [0, 1, 2 ** 32 - 1, 2 ** 32]
    expect = [path_seed_sequence(seed, i).generate_state(2, np.uint64)
              for i in indices]
    keys = path_keys(seed, indices)
    assert keys.dtype == np.uint64
    npt.assert_array_equal(keys, expect)
    npt.assert_array_equal(path_keys(seed, range(40, 300)),
                           [path_seed_sequence(seed, i).generate_state(
                               2, np.uint64) for i in range(40, 300)])


def test_path_keys_refuse_a_bad_master_seed():
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(UsageError, match="master seed"):
            path_keys(seed, [0])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("seed, paths", [
    (7, range(0, 6)), (2 ** 130 + 1, range(2 ** 32 - 3, 2 ** 32 + 2))])
def test_chunk_blocks_are_the_path_generator_streams(m, seed, paths,
                                                     monkeypatch):
    """One generator per chunk, with each path's key and then its saved
    state restored into it, draws exactly the rows `path_generator` draws
    for every path, across three blocks, the last one shorter. Each block
    is copied as it is drawn, since the next one reuses its buffer."""
    monkeypatch.setattr(simulate, "BLOCK_STEPS", 5)
    blocks = [(t0, W.copy())
              for t0, W in _noise_blocks(seed, paths, m, 0.25, 13, 1)]
    assert [(t0, W.shape) for t0, W in blocks] == [
        (0, (len(paths), 5, m)), (5, (len(paths), 5, m)),
        (10, (len(paths), 3, m))]
    expect = np.stack([path_generator(seed, i).standard_normal((13, m))
                       for i in paths]) * 0.5
    npt.assert_array_equal(np.concatenate([W for _, W in blocks], axis=1),
                           expect)

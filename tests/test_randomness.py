"""Grids, truncation levels, and increment blocks."""

import math

import numpy as np
import pytest

from awsde import (
    AwsdeError,
    ConfigurationError,
    TimeGrid,
    sample_increment_block,
    truncation_level,
)


def test_grid_nodes():
    grid = TimeGrid(horizon=1.0, steps=4)
    assert grid.step == 0.25
    assert np.array_equal(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_coarsen():
    fine = TimeGrid(horizon=1.0, steps=8)
    coarse = fine.coarsen(4)
    assert coarse.steps == 2
    assert coarse.horizon == fine.horizon


def test_grid_validation():
    with pytest.raises(Exception):
        TimeGrid(horizon=0.0, steps=4)
    with pytest.raises(Exception):
        TimeGrid(horizon=1.0, steps=0)


def test_truncation_level_values():
    # a_h = 4 sqrt(h log(1/h)); closed forms at h = 1/e and h = 1/4
    assert truncation_level(math.exp(-1.0)) == pytest.approx(4.0 * math.exp(-0.5), rel=1e-12)
    assert truncation_level(0.25) == pytest.approx(4.0 * math.sqrt(0.25 * math.log(4.0)), rel=1e-12)
    assert truncation_level(0.25) == pytest.approx(2.3548200450309493, rel=1e-12)


def test_truncation_level_decreasing_in_k():
    levels = [truncation_level(2.0 ** -k) for k in range(2, 21)]
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_truncation_level_accepts_grid():
    grid = TimeGrid(horizon=1.0, steps=4)
    assert truncation_level(grid) == truncation_level(0.25)


def test_same_stream_id_reproduces():
    grid = TimeGrid(horizon=1.0, steps=64)
    a = sample_increment_block(grid, seed=7, start=3, count=1)
    b = sample_increment_block(grid, seed=7, start=3, count=1)
    assert a.shape == (1, 64)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    grid = TimeGrid(horizon=1.0, steps=64)
    a = sample_increment_block(grid, seed=7, start=0, count=1)
    b = sample_increment_block(grid, seed=7, start=1, count=1)
    assert not np.array_equal(a, b)


def test_block_rows_match_single_paths():
    grid = TimeGrid(horizon=1.0, steps=32)
    block = sample_increment_block(grid, seed=11, start=5, count=4)
    for i in range(4):
        single = sample_increment_block(grid, seed=11, start=5 + i, count=1)
        assert np.array_equal(block[i], single[0])


def test_block_stream_index_range():
    grid = TimeGrid(horizon=1.0, steps=4)
    last = 2 ** 64 - 1
    assert sample_increment_block(grid, seed=0, start=last, count=1).shape == (1, 4)
    assert sample_increment_block(grid, seed=0, start=last, count=0).shape == (0, 4)
    # the start is in range but the block's last path index is not
    with pytest.raises(ValueError, match="last path index"):
        sample_increment_block(grid, seed=1, start=last, count=2)
    with pytest.raises(ValueError):
        sample_increment_block(grid, seed=1, start=2 ** 64, count=1)


BAD_INPUTS = {
    "horizon zero": lambda: TimeGrid(horizon=0.0, steps=4),
    "horizon nan": lambda: TimeGrid(horizon=math.nan, steps=4),
    "horizon inf": lambda: TimeGrid(horizon=math.inf, steps=4),
    "steps zero": lambda: TimeGrid(horizon=1.0, steps=0),
    "steps float": lambda: TimeGrid(horizon=1.0, steps=4.0),
    "steps below horizon": lambda: TimeGrid(horizon=2.0, steps=2),
    "factor zero": lambda: TimeGrid(1.0, 8).coarsen(0),
    "factor float": lambda: TimeGrid(1.0, 8).coarsen(2.0),
    "factor not dividing": lambda: TimeGrid(1.0, 8).coarsen(3),
    "level at h = 0": lambda: truncation_level(0.0),
    "level at h = 1": lambda: truncation_level(1.0),
    "level at h = nan": lambda: truncation_level(math.nan),
    "seed negative": lambda: sample_increment_block(TimeGrid(1.0, 4), -1, 0, 1),
    "seed 2^64": lambda: sample_increment_block(TimeGrid(1.0, 4), 2**64, 0, 1),
    "seed float": lambda: sample_increment_block(TimeGrid(1.0, 4), 1.0, 0, 1),
    "start negative": lambda: sample_increment_block(TimeGrid(1.0, 4), 1, -1, 1),
    "start 2^64": lambda: sample_increment_block(TimeGrid(1.0, 4), 1, 2**64, 1),
    "count negative": lambda: sample_increment_block(TimeGrid(1.0, 4), 1, 0, -1),
    "count float": lambda: sample_increment_block(TimeGrid(1.0, 4), 1, 0, 2.0),
    "last index past 2^64": lambda: sample_increment_block(TimeGrid(1.0, 4), 1, 2**64 - 1, 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_raise_configuration_errors(case):
    with pytest.raises(ConfigurationError) as info:
        BAD_INPUTS[case]()
    # one contract for every module, still a ValueError for generic callers
    assert isinstance(info.value, AwsdeError)
    assert isinstance(info.value, ValueError)


def test_increment_moments():
    # 10^6 draws at h = 1/4: the sample mean of a single increment lies
    # within 4 sqrt(h / n) of 0 and the sample variance within 0.005 of h.
    grid = TimeGrid(horizon=1.0, steps=4)
    block = sample_increment_block(grid, seed=0, start=0, count=250_000)
    draws = block.ravel()
    assert draws.size == 10 ** 6
    assert abs(float(draws.mean())) < 4.0 * math.sqrt(0.25 / draws.size)
    assert abs(float(draws.var()) - 0.25) < 0.005


def test_truncation_error_moment():
    # E|dW - clipped dW|^2 < h^2 at h = 2^-6, checked on 10^7 draws
    h = 2.0 ** -6
    grid = TimeGrid(horizon=1.0, steps=64)
    a_h = truncation_level(grid)
    rows = 10 ** 7 // 64
    block = sample_increment_block(grid, seed=3, start=0, count=rows)
    clipped = np.clip(block, -a_h, a_h)
    gap2 = float(np.mean((block - clipped) ** 2))
    assert block.size == rows * 64 >= 10 ** 7 - 64
    assert gap2 < h * h


def test_correlate_sample_correlation():
    grid = TimeGrid(horizon=1.0, steps=2)
    n = 10 ** 6
    a = sample_increment_block(grid, seed=5, start=0, count=n // 2).ravel()
    b = sample_increment_block(grid, seed=6, start=0, count=n // 2).ravel()
    mixed = 0.5 * a + math.sqrt(0.75) * b
    rho = float(np.corrcoef(a, mixed)[0, 1])
    assert abs(rho - 0.5) < 0.01


@pytest.mark.parametrize("seed,start", [(0, 0), (7, 1000), (2 ** 63, 2 ** 64 - 3)])
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 512])
def test_block_rows_equal_fresh_keyed_generators(seed, start, steps):
    # re-keying one bit generator per row must give exactly the stream of a
    # freshly built Generator(Philox(key=[seed, path_index])), for odd step
    # counts (a half-used buffer) and up to the largest path index
    grid = TimeGrid(horizon=0.5, steps=steps)
    block = sample_increment_block(grid, seed=seed, start=start, count=3)
    for i, row in enumerate(block):
        key = np.array([seed, start + i], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal(steps)
        assert np.array_equal(row, fresh * math.sqrt(grid.step))

"""Reproducible Brownian increments on uniform time grids.

:func:`sample_increment_block` draws the increments of a contiguous range of
paths, one row per path.  Every row is a pure function of ``(seed,
path_index)``: path ``i`` comes out bit-identical whether it is drawn alone
(a block of width 1), as a row of a wider block, or on a different worker.
Streams are keyed (counter-based Philox), never split, so no generator state
is shared between paths.

The monotone scheme clips each increment to ``[-a_h, a_h]`` with
``a_h = 4 * sqrt(h * log(1/h))`` (:func:`truncation_level`).  For an
``N(0, h)`` draw the clip event has probability
``2 * Phi(-4 * sqrt(log(1/h)))``, which is below 1e-15 for every step size
used here, so clipping perturbs moments far less than ``h^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "sample_increment_block",
    "truncation_level",
]

Array = np.ndarray

_MAX64 = 2**64


# ---------------------------------------------------------------------------
# grids and levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``0 = t_0 < ... < t_N = horizon`` with ``h = horizon / steps``.

    Parameters
    ----------
    horizon:
        Terminal time ``T > 0``.
    steps:
        Number of steps ``N``.  Must exceed ``horizon`` so that ``h < 1``,
        which every step-size guard and the truncation level require.
    """

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ConfigurationError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ConfigurationError(f"steps must be a positive integer, got {self.steps!r}")
        if not self.steps > self.horizon:
            raise ConfigurationError(
                f"steps must exceed horizon so that h < 1; got steps={self.steps}, "
                f"horizon={self.horizon}"
            )

    @property
    def step(self) -> float:
        """Step size ``h = horizon / steps``."""
        return self.horizon / self.steps

    def times(self) -> Array:
        """All ``steps + 1`` grid times ``k * h``."""
        return np.arange(self.steps + 1) * self.step

    def coarsen(self, factor: int) -> "TimeGrid":
        """Grid with the same horizon and ``steps // factor`` steps.

        ``factor`` must divide ``steps`` exactly.
        """
        if not isinstance(factor, int) or factor < 1:
            raise ConfigurationError(f"factor must be a positive integer, got {factor!r}")
        if self.steps % factor != 0:
            raise ConfigurationError(f"factor {factor} does not divide steps {self.steps}")
        return TimeGrid(self.horizon, self.steps // factor)


def truncation_level(grid: "TimeGrid | float") -> float:
    """Clipping level ``a_h = 4 * sqrt(h * log(1/h))`` for a grid or a bare step size ``h``.

    Raises
    ------
    ConfigurationError
        If the step size is not in ``(0, 1)``; ``a_h`` is only defined there.
    """
    h = grid.step if isinstance(grid, TimeGrid) else float(grid)
    if not (0.0 < h < 1.0):
        raise ConfigurationError(f"truncation level requires 0 < h < 1, got h={h!r}")
    return 4.0 * math.sqrt(h * math.log(1.0 / h))


# ---------------------------------------------------------------------------
# increment streams
# ---------------------------------------------------------------------------


def _validate_stream_id(seed: int, path_index: int) -> None:
    if not isinstance(seed, int) or not 0 <= seed < _MAX64:
        raise ConfigurationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not isinstance(path_index, int) or not 0 <= path_index < _MAX64:
        raise ConfigurationError(f"path_index must be an integer in [0, 2^64), got {path_index!r}")


def sample_increment_block(grid: TimeGrid, seed: int, start: int, count: int) -> Array:
    """Increments for paths ``start, ..., start + count - 1`` as a ``(count, steps)`` array.

    Entry ``[i, k]`` approximates ``W_{t_{k+1}} - W_{t_k}`` of path ``start + i``
    and has variance ``h``.  Row ``i`` depends only on ``(seed, start + i)``:
    it equals ``sample_increment_block(grid, seed, start + i, 1)[0]`` exactly,
    because the block is generated path by path, never interleaved.  Every
    path index in the range must lie below ``2^64``.
    """
    _validate_stream_id(seed, start)
    if not isinstance(count, int) or count < 0:
        raise ConfigurationError(f"count must be a nonnegative integer, got {count!r}")
    if start + count > _MAX64:
        raise ConfigurationError(f"last path index {start + count - 1} is outside [0, 2^64)")
    # Key, do not split: the (seed, path_index) pair fully determines the
    # stream.  Re-keying one local bit generator per row gives the same draws
    # as a fresh Generator(Philox(key=[seed, start + i])) without building one.
    bitgen = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    out = np.empty((count, grid.steps), dtype=np.float64)
    for i in range(count):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": np.array([seed, start + i], dtype=np.uint64)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        gen.standard_normal(out=out[i])
    out *= math.sqrt(grid.step)
    return out

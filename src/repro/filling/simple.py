"""Constant, random and minimum-transition fills (the cheap baselines).

These are the classic fills every low-power-test paper compares against:
0-fill and 1-fill bias the circuit toward a constant state, R-fill is the
"do nothing clever" reference, and MT-fill (minimum-transition / adjacent
fill within a pattern) minimises *shift* transitions, which is the industry
default when capture power is not the concern.

MT-fill is a forward fill of the whole matrix at once (:func:`carry_forward`):
each care bit becomes the key ``2 * column + value``, and a running maximum
along the row carries the key of the last care bit to every X after it.
Keys only grow along a row, so this is exactly "the nearest earlier care
bit", and the fill equals the one-X-at-a-time loop bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cubes.bits import BIT_DTYPE, ONE, X, ZERO
from repro.cubes.cube import TestSet
from repro.filling.base import Filler, register_filler


class ZeroFill(Filler):
    """Replace every don't-care with logic 0."""

    name = "0-fill"

    def fill(self, patterns: TestSet) -> TestSet:
        data = patterns.matrix.copy()
        data[data == X] = ZERO
        return patterns.filled(data)


class OneFill(Filler):
    """Replace every don't-care with logic 1."""

    name = "1-fill"

    def fill(self, patterns: TestSet) -> TestSet:
        data = patterns.matrix.copy()
        data[data == X] = ONE
        return patterns.filled(data)


class RandomFill(Filler):
    """Replace every don't-care with an independent uniform random bit.

    Args:
        seed: RNG seed; the fill is deterministic for a given seed so that
            experiment tables are reproducible run to run.
    """

    name = "R-fill"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def fill(self, patterns: TestSet) -> TestSet:
        rng = np.random.default_rng(self.seed)
        data = patterns.matrix.copy()
        mask = data == X
        data[mask] = rng.integers(0, 2, size=int(mask.sum())).astype(BIT_DTYPE)
        return patterns.filled(data)


def carry_forward(
    bits: np.ndarray,
    care: np.ndarray,
    restarts: Optional[np.ndarray] = None,
    restart_values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Forward-fill each row of the C-contiguous 0/1/X matrix ``bits``.

    Each X copies the nearest care bit before it in its row, a leading X run
    the row's first care bit; a row without care bits becomes all 0.
    ``care`` holds the row-major flat positions of the care bits.  From each
    flat position in ``restarts`` on, the row carries the matching
    ``restart_values`` entry instead.  Returns the filled copy.
    """
    n_cols = bits.shape[1]
    values = bits.reshape(-1)[care]
    rows, cols = np.divmod(care, n_cols)
    # Column 0 holds each row's first care value, for the leading X run.  The
    # keys take the narrowest signed type that holds them (int16 up to 16384
    # columns) to keep this matrix-sized temporary small.
    key = np.zeros(bits.shape, dtype=np.min_scalar_type(-2 * n_cols))
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    key[rows[first], 0] = values[first]
    del rows, first
    cols *= 2
    cols += values
    flat_key = key.reshape(-1)
    flat_key[care] = cols
    del cols, values
    if restarts is not None:
        flat_key[restarts] = 2 * (restarts % n_cols) + restart_values
    np.maximum.accumulate(key, axis=1, out=key)
    np.bitwise_and(key, 1, out=key)
    return key.astype(BIT_DTYPE)


class MinimumTransitionFill(Filler):
    """Minimum-transition (intra-pattern adjacent) fill.

    Each X takes the value of the nearest *earlier* specified bit in the same
    pattern; a leading X run takes the first specified value.  A pattern with
    no specified bit at all becomes all zeros.  This minimises the number of
    transitions along the scan chain while shifting the pattern in, which is
    why commercial flows use it as the low-(shift-)power default.
    """

    name = "MT-fill"

    def fill(self, patterns: TestSet) -> TestSet:
        data = patterns.matrix
        if data.size == 0:
            return patterns.filled(data.copy())
        return patterns.filled(carry_forward(data, np.flatnonzero(data.reshape(-1) != X)))


register_filler("0-fill", ZeroFill, aliases=["zero-fill", "zero"])
register_filler("1-fill", OneFill, aliases=["one-fill", "one"])
register_filler("R-fill", RandomFill, aliases=["random-fill", "random"])
register_filler("MT-fill", MinimumTransitionFill, aliases=["mt", "minimum-transition"])

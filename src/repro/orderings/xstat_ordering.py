"""Reconstruction of the X-Stat ordering (Tables III and V, ref. [22]).

X-Stat treats don't-cares *statistically*: before filling, an X will become
0 or 1 with probability one half, so the expected number of toggles between
two cubes is

``sum over pins of P(values differ)``

where the per-pin probability is 0 or 1 when both bits are specified and
one half when at least one of them is an X.  The ordering is a greedy
nearest-neighbour tour under this expected-toggle distance
(:func:`~repro.orderings.base.greedy_tour`), started from the most specified
cube.  Compared with the ISA reconstruction (which only counts hard
conflicts), the statistical distance also penalises placing two X-poor
cubes next to each other, which is the behaviour the X-Stat paper describes.

The whole table is two matrix products of the 0/1 planes of the care ones
``O``, zeros ``Z`` and bits ``S = O + Z``: ``E = O·Zᵀ + (O·Zᵀ)ᵀ − ½·S·Sᵀ +
½·pins``.  It is exact in float32 (every entry and partial sum is a multiple
of 0.5 far below 2**24), so the tour equals the per-step boolean-mask one,
ties included.
"""

from __future__ import annotations

import numpy as np

from repro.core.ordering import OrderingResult
from repro.cubes.cube import TestSet
from repro.orderings.base import Ordering, greedy_tour, register_ordering
from repro.orderings.isa import conflict_table


def expected_toggle_table(ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Expected toggles between cubes ``i`` and ``j`` under a fair-coin X fill."""
    table = conflict_table(ones, zeros)
    specified = np.add(ones, zeros, out=ones)
    table -= 0.5 * (specified @ specified.T)
    table += 0.5 * ones.shape[1]
    return table


class XStatOrdering(Ordering):
    """Greedy nearest-neighbour ordering on the expected-toggle distance."""

    name = "xstat"

    def order(self, patterns: TestSet) -> OrderingResult:
        return greedy_tour(patterns, expected_toggle_table)


register_ordering("xstat", XStatOrdering, aliases=["xstat-ordering", "x-stat-ordering"])

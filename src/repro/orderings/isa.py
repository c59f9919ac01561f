"""Reconstruction of the ISA ordering (Table V comparator, ref. [20]).

Girard et al. order test vectors to reduce switching activity by visiting
them in a nearest-neighbour tour of the Hamming-distance graph.  Our cubes
still contain don't-cares at ordering time, so the distance used here is the
*conflict distance*: the number of pins on which both cubes are specified
and disagree — exactly the toggles that no later X-fill can avoid.

The tour is greedy (:func:`~repro.orderings.base.greedy_tour`): start from
the cube with the most specified bits (the hardest to place anywhere) and
repeatedly append the unvisited cube with the smallest conflict distance to
the current one, the lowest index among equals.  The whole distance table
is ``O·Zᵀ`` plus its transpose, for the 0/1 planes of the care ones ``O``
and zeros ``Z``.  It is exact in float32 (integer counts far below 2**24),
so the tour equals the per-step boolean-mask one, ties included.
"""

from __future__ import annotations

import numpy as np

from repro.core.ordering import OrderingResult
from repro.cubes.cube import TestSet
from repro.orderings.base import Ordering, greedy_tour, register_ordering


def conflict_table(ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Pins on which cubes ``i`` and ``j`` are both specified and differ."""
    ones_zeros = ones @ zeros.T
    return ones_zeros + ones_zeros.T


class ISAOrdering(Ordering):
    """Greedy nearest-neighbour ordering on the unavoidable-conflict distance."""

    name = "isa"

    def order(self, patterns: TestSet) -> OrderingResult:
        return greedy_tour(patterns, conflict_table)


register_ordering("isa", ISAOrdering, aliases=["isa-ordering", "girard"])

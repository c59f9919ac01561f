"""Row-loop reference implementations of the vectorised baseline techniques.

The library computes MT-fill, B-fill (X-Stat fill) and the XStat / ISA
nearest-neighbour tours with whole-array NumPy code.  The functions below
are the direct, one-row-at-a-time formulations those replaced: slow, but
short enough to check by reading.  The property tests assert that the
library output equals them bit for bit, and ``benchmarks/bench_core.py``
times the library against them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cubes.bits import X, ZERO
from repro.cubes.cube import TestSet


def mt_fill_rows(patterns: TestSet) -> np.ndarray:
    """MT-fill: every X copies the nearest earlier care bit of its pattern.

    A leading X run takes the first care bit; a pattern without care bits
    becomes all 0.  Returns the filled ``(n_patterns, n_pins)`` matrix.
    """
    data = patterns.matrix.copy()
    n_pins = data.shape[1]
    for bits in data:
        specified = np.flatnonzero(bits != X)
        if specified.size == 0:
            bits[:] = ZERO
            continue
        first = int(specified[0])
        bits[:first] = bits[first]
        last_value = bits[first]
        for col in range(first + 1, n_pins):
            if bits[col] == X:
                bits[col] = last_value
            else:
                last_value = bits[col]
    return data


def _squeeze_position(squeeze: str, left: int, right: int) -> int:
    if squeeze == "left":
        return left + 1
    if squeeze == "right":
        return right - 1
    return (left + right) // 2


def xstat_phase1_rows(pin: np.ndarray, squeeze: str) -> List[Tuple[int, int, int, int]]:
    """X-Stat phase 1 on the pin matrix, in place, one pin row at a time.

    Returns the surviving choices ``(row, x_col, left_value, right_value)``
    in the order the loop meets them.
    """
    choices: List[Tuple[int, int, int, int]] = []
    for row in range(pin.shape[0]):
        bits = pin[row]
        specified = np.flatnonzero(bits != X)
        if specified.size == 0:
            bits[:] = ZERO
            continue
        first, last = int(specified[0]), int(specified[-1])
        bits[:first] = bits[first]
        bits[last + 1 :] = bits[last]
        for left, right in zip(specified[:-1], specified[1:]):
            left, right = int(left), int(right)
            if right == left + 1:
                continue
            left_value, right_value = int(bits[left]), int(bits[right])
            if left_value == right_value:
                bits[left + 1 : right] = left_value
                continue
            keep = _squeeze_position(squeeze, left, right)
            bits[left + 1 : keep] = left_value
            bits[keep + 1 : right] = right_value
            choices.append((row, keep, left_value, right_value))
    return choices


def xstat_fill_rows(patterns: TestSet, squeeze: str = "middle") -> np.ndarray:
    """B-fill (X-Stat fill): phase 1 row by row, then the greedy phase 2.

    Returns the filled ``(n_patterns, n_pins)`` matrix.
    """
    pin = patterns.pin_matrix()
    choices = xstat_phase1_rows(pin, squeeze)
    if not choices:
        return pin.T.copy()
    left, right = pin[:, :-1], pin[:, 1:]
    fixed = (left != X) & (right != X) & (left != right)
    profile = np.count_nonzero(fixed, axis=0).astype(np.int64)

    def pressure(choice: Tuple[int, int, int, int]) -> int:
        __, col, __, __ = choice
        return int(max(profile[col - 1], profile[col]))

    for row, col, left_value, right_value in sorted(choices, key=pressure, reverse=True):
        if profile[col] <= profile[col - 1]:
            pin[row, col] = left_value
            profile[col] += 1
        else:
            pin[row, col] = right_value
            profile[col - 1] += 1
    return pin.T.copy()


def nn_tour_masks(patterns: TestSet, distance: str) -> List[int]:
    """Greedy nearest-neighbour tour with fresh boolean masks per step.

    ``distance`` is ``"xstat"`` (hard conflicts plus one half per pin where
    either cube has an X) or ``"isa"`` (hard conflicts only).  The tour
    starts at the most specified cube and breaks ties by the lowest index.
    """
    n = len(patterns)
    if n <= 2:
        return list(range(n))
    data = patterns.matrix
    specified = data != X
    visited = np.zeros(n, dtype=bool)
    current = int(np.argmin(patterns.x_counts_per_pattern()))
    permutation = [current]
    visited[current] = True
    for __ in range(n - 1):
        both = specified & specified[current][None, :]
        differs = (data != data[current]) & both
        if distance == "xstat":
            hard = differs.sum(axis=1).astype(np.float64)
            soft = (~both).sum(axis=1).astype(np.float64)
            cost = hard + 0.5 * soft
            cost[visited] = np.inf
        else:
            cost = np.count_nonzero(differs, axis=1).astype(np.int64)
            cost[visited] = np.iinfo(np.int64).max
        nxt = int(np.argmin(cost))
        permutation.append(nxt)
        visited[nxt] = True
        current = nxt
    return permutation

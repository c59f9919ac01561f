"""Shared test utilities: brute-force reference solvers and cube builders.

The brute-force solvers are deliberately tiny and obviously correct; they
exist so the optimised implementations can be checked against exhaustive
search on small instances (unit tests pin specific cases, hypothesis tests
sweep random ones).
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.intervals import ToggleInterval
from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestSet


def brute_force_min_peak(patterns: TestSet) -> int:
    """Exhaustively search every X-fill and return the minimum peak toggles.

    Exponential in the number of X bits; callers must keep instances small
    (the tests cap the X count at ~16).
    """
    data = patterns.matrix.copy()
    x_positions = np.argwhere(data == X)
    n_x = x_positions.shape[0]
    if n_x > 20:
        raise ValueError(f"brute force limited to 20 X bits, got {n_x}")
    best = None
    for assignment in itertools.product((ZERO, ONE), repeat=n_x):
        candidate = data.copy()
        for (row, col), value in zip(x_positions, assignment):
            candidate[row, col] = value
        if candidate.shape[0] < 2:
            peak = 0
        else:
            peak = int(np.count_nonzero(candidate[1:] != candidate[:-1], axis=1).max())
        if best is None or peak < best:
            best = peak
    return best if best is not None else 0


def brute_force_bcp(intervals: Sequence[ToggleInterval], base: Sequence[int] = ()) -> int:
    """Exhaustively search every colouring and return the minimum bottleneck.

    ``base`` optionally supplies per-colour base loads (the weighted variant).
    """
    if not intervals and not len(base):
        return 0
    n_colors = max(
        [iv.end + 1 for iv in intervals] + [len(base)] if (intervals or len(base)) else [0]
    )
    base_arr = np.zeros(n_colors, dtype=np.int64)
    base_arr[: len(base)] = np.asarray(base, dtype=np.int64)
    if not intervals:
        return int(base_arr.max()) if base_arr.size else 0
    choices = [range(iv.start, iv.end + 1) for iv in intervals]
    best = None
    for combo in itertools.product(*choices):
        loads = base_arr.copy()
        for color in combo:
            loads[color] += 1
        peak = int(loads.max())
        if best is None or peak < best:
            best = peak
    return best


def make_interval(start: int, end: int, row: int = 0) -> ToggleInterval:
    """Build a ToggleInterval with plausible column metadata for BCP tests."""
    return ToggleInterval(
        start=start,
        end=end,
        row=row,
        left_col=start,
        right_col=end + 1,
        left_value=ZERO,
        right_value=ONE,
    )


def cube_set_from_rows(rows: Iterable[str]) -> TestSet:
    """Build a TestSet from *pin-major* row strings (one string per pin).

    This matches how the paper draws its examples (each line is one input pin
    across the pattern sequence), which keeps figure transcriptions readable.
    """
    row_list: List[str] = [r.replace(" ", "") for r in rows]
    lengths = {len(r) for r in row_list}
    if len(lengths) != 1:
        raise ValueError("all pin rows must have the same number of patterns")
    pin_matrix = np.array(
        [[{"0": 0, "1": 1, "X": 2, "x": 2}[c] for c in row] for row in row_list],
        dtype=np.int8,
    )
    return TestSet.from_pin_matrix(pin_matrix)


def random_small_cube_set(
    rng: np.random.Generator,
    max_patterns: int = 6,
    max_pins: int = 6,
    max_x: int = 10,
) -> TestSet:
    """Random small cube set with a bounded number of X bits (for brute force)."""
    n_patterns = int(rng.integers(2, max_patterns + 1))
    n_pins = int(rng.integers(1, max_pins + 1))
    data = rng.integers(0, 2, size=(n_patterns, n_pins)).astype(np.int8)
    n_x = int(rng.integers(0, max_x + 1))
    positions = [(int(r), int(c)) for r in range(n_patterns) for c in range(n_pins)]
    rng.shuffle(positions)
    for row, col in positions[: min(n_x, len(positions))]:
        data[row, col] = X
    return TestSet.from_matrix(data)


def wait_until_claimed(spool: str, task_ids: Iterable[str], timeout: float = 60.0) -> None:
    """Block until every task in ``task_ids`` has left the queue of ``spool``.

    A queue parent only executes tasks itself inside ``next_result``, so
    before that call a worker is the only possible claimant.  Tests that
    need a worker (not the parent's self-drain) to run a task wait here for
    the claim instead of racing worker start-up against the self-drain timer.
    """
    deadline = time.monotonic() + timeout
    for task_id in task_ids:
        queued = os.path.join(spool, "tasks", f"{task_id}.task")
        while os.path.exists(queued):
            if time.monotonic() > deadline:
                raise AssertionError(f"no worker claimed task {task_id} within {timeout:.0f}s")
            time.sleep(0.01)

"""Micro-benchmarks of the core algorithms (no circuits involved).

These are not tied to a specific paper table; they quantify the claimed
complexities — the ``O(k log k)`` greedy colouring, the ``O(k^2)`` lower
bound and the end-to-end DP-fill — on synthetic cube sets of increasing size,
and they back the scalability statement in the README.  A second section
times the vectorised baseline fills (MT-fill, B-fill) and the XStat / ISA
distance-table tours against the row-loop oracles in ``tests/oracles.py``,
after asserting identical outputs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.bcp import bcp_lower_bound, solve_bcp, solve_weighted_bcp
from repro.core.dpfill import dp_fill
from repro.core.intervals import extract_intervals
from repro.core.ordering import interleaved_ordering
from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set
from repro.filling.simple import MinimumTransitionFill
from repro.filling.xstat import XStatFill
from repro.orderings.isa import ISAOrdering
from repro.orderings.xstat_ordering import XStatOrdering

# The row-loop oracles live with the tests; run standalone, the repository
# root is not on the import path yet.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles import mt_fill_rows, nn_tour_masks, xstat_fill_rows  # noqa: E402


def _cube_set(n_pins: int, n_patterns: int, seed: int = 1):
    return generate_cube_set(
        CubeSetSpec(n_pins=n_pins, n_patterns=n_patterns, x_fraction=0.8, seed=seed)
    )


def _scratch_evaluator(candidate: TestSet) -> int:
    """The pre-reuse evaluation path: full re-extraction + full solve.

    This is what every candidate ``k`` of the I-Ordering search cost before
    the :class:`ExtractionPlan` reuse landed; the benchmark keeps it around
    as the baseline the reuse is measured against.
    """
    if len(candidate) < 2:
        return 0
    extraction = extract_intervals(candidate)
    return solve_weighted_bcp(extraction.intervals, extraction.base_toggles).peak


@pytest.mark.parametrize("n_pins,n_patterns", [(100, 50), (300, 100), (600, 200)])
def test_bench_extract_intervals(benchmark, n_pins, n_patterns):
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: extract_intervals(cubes))
    assert result.n_pins == n_pins


@pytest.mark.parametrize("n_pins,n_patterns", [(100, 50), (300, 100), (600, 200)])
def test_bench_bcp_lower_bound(benchmark, n_pins, n_patterns):
    intervals = extract_intervals(_cube_set(n_pins, n_patterns)).intervals
    value = benchmark(lambda: bcp_lower_bound(intervals))
    assert value >= 0


@pytest.mark.parametrize("n_pins,n_patterns", [(100, 50), (300, 100), (600, 200)])
def test_bench_solve_bcp(benchmark, n_pins, n_patterns):
    intervals = extract_intervals(_cube_set(n_pins, n_patterns)).intervals
    solution = benchmark(lambda: solve_bcp(intervals))
    assert solution.peak == solution.lower_bound


@pytest.mark.parametrize("n_pins,n_patterns", [(100, 50), (300, 100), (600, 200)])
def test_bench_dp_fill_end_to_end(benchmark, n_pins, n_patterns):
    cubes = _cube_set(n_pins, n_patterns)
    report = benchmark(lambda: dp_fill(cubes))
    assert report.filled.is_fully_specified()


def test_bench_interleaved_ordering(benchmark):
    cubes = _cube_set(200, 120)
    result = benchmark(lambda: interleaved_ordering(cubes))
    assert result.peak is not None


# -- I-Ordering evaluation: extraction reuse vs re-extraction ---------------
@pytest.mark.parametrize("n_pins,n_patterns", [(200, 120), (400, 400)])
def test_bench_ordering_search_scratch(benchmark, n_pins, n_patterns):
    """Baseline: every candidate k re-extracts and re-solves from scratch."""
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: interleaved_ordering(cubes, evaluator=_scratch_evaluator))
    assert result.peak is not None


@pytest.mark.parametrize("n_pins,n_patterns", [(200, 120), (400, 400)])
def test_bench_ordering_search_reused(benchmark, n_pins, n_patterns):
    """Default path: one ExtractionPlan, permuted per candidate k."""
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: interleaved_ordering(cubes))
    assert result.peak is not None


# -- baseline fills and greedy NN tours: vectorised vs row-loop oracles ------
_ORDERINGS = {"xstat": XStatOrdering, "isa": ISAOrdering}


@pytest.mark.parametrize("distance", sorted(_ORDERINGS))
@pytest.mark.parametrize("n_pins,n_patterns", [(100, 80), (300, 200)])
def test_bench_nn_tour_masks(benchmark, n_pins, n_patterns, distance):
    """Oracle: per-step boolean-mask distance evaluation."""
    cubes = _cube_set(n_pins, n_patterns)
    permutation = benchmark(lambda: nn_tour_masks(cubes, distance))
    assert len(permutation) == n_patterns


@pytest.mark.parametrize("distance", sorted(_ORDERINGS))
@pytest.mark.parametrize("n_pins,n_patterns", [(100, 80), (300, 200)])
def test_bench_nn_tour_table(benchmark, n_pins, n_patterns, distance):
    """Default path: one pairwise distance table, then the tour over its rows."""
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: _ORDERINGS[distance]().order(cubes))
    assert result.permutation == nn_tour_masks(cubes, distance)


def _baseline_pairs():
    """(label, row-loop oracle, vectorised call) per timed baseline technique."""
    return [
        ("MT-fill", mt_fill_rows, lambda c: MinimumTransitionFill().fill(c).matrix),
        ("B-fill", xstat_fill_rows, lambda c: XStatFill().fill(c).matrix),
    ] + [
        (
            f"{name} tour",
            lambda c, name=name: nn_tour_masks(c, name),
            lambda c, cls=cls: cls().order(c).permutation,
        )
        for name, cls in sorted(_ORDERINGS.items())
    ]


def _baseline_report() -> float:
    """Standalone section: time oracle and library per technique, return worst speedup.

    Each pair is asserted identical before it is timed.
    """
    sizes = [(100, 80), (300, 200), (600, 400)]
    print("\nbaseline fills and NN tours: row-loop oracle vs vectorised library")
    print(f"{'cube set':>12} {'technique':>11} {'oracle (ms)':>12} {'library (ms)':>13} {'speedup':>8}")
    print("-" * 60)
    worst = float("inf")
    for n_pins, n_patterns in sizes:
        cubes = _cube_set(n_pins, n_patterns)
        for label, oracle, library in _baseline_pairs():
            assert np.array_equal(oracle(cubes), library(cubes)), label
            t_oracle = t_library = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                oracle(cubes)
                t_oracle = min(t_oracle, time.perf_counter() - start)
                start = time.perf_counter()
                library(cubes)
                t_library = min(t_library, time.perf_counter() - start)
            speedup = t_oracle / t_library
            worst = min(worst, speedup)
            print(
                f"{n_pins:>5}x{n_patterns:<6} {label:>11} {t_oracle * 1000:>12.1f} "
                f"{t_library * 1000:>13.1f} {speedup:>7.1f}x"
            )
    return worst


def main() -> int:
    """Standalone mode: quantify the extraction-reuse win in the search.

    Prints, per cube-set size, the wall-clock of the I-Ordering search with
    the scratch evaluator vs the plan-reuse default (results asserted equal
    first), then the baseline fills and tours against their row-loop
    oracles.
    """
    sizes = [(200, 120), (400, 400), (600, 600)]
    print(f"{'cube set':>12} {'scratch (ms)':>13} {'reused (ms)':>12} {'speedup':>8}")
    print("-" * 49)
    worst = float("inf")
    for n_pins, n_patterns in sizes:
        cubes = _cube_set(n_pins, n_patterns)
        slow = interleaved_ordering(cubes, evaluator=_scratch_evaluator)
        fast = interleaved_ordering(cubes)
        assert slow.permutation == fast.permutation and slow.peak == fast.peak
        t_slow = t_fast = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            interleaved_ordering(cubes, evaluator=_scratch_evaluator)
            t_slow = min(t_slow, time.perf_counter() - start)
            start = time.perf_counter()
            interleaved_ordering(cubes)
            t_fast = min(t_fast, time.perf_counter() - start)
        speedup = t_slow / t_fast
        worst = min(worst, speedup)
        print(
            f"{n_pins:>5}x{n_patterns:<6} {t_slow * 1000:>13.1f} {t_fast * 1000:>12.1f} "
            f"{speedup:>7.1f}x"
        )
    code = 0
    if worst < 1.0:
        print("WARNING: extraction reuse slower than re-extraction")
        code = 1
    if _baseline_report() < 1.0:
        print("WARNING: a vectorised baseline is slower than its row-loop oracle")
        code = 1
    return code


if __name__ == "__main__":
    import sys

    sys.exit(main())

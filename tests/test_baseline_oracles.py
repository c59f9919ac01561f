"""The vectorised baseline fills and tours against their row-loop oracles.

MT-fill, B-fill (every squeeze mode) and the XStat / ISA tours are computed
with whole-array NumPy code; :mod:`tests.oracles` keeps the direct
one-row-at-a-time formulations.  Every output must match bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set
from repro.filling.simple import MinimumTransitionFill
from repro.filling.xstat import XStatFill
from repro.orderings.isa import ISAOrdering
from repro.orderings.xstat_ordering import XStatOrdering
from tests.oracles import mt_fill_rows, nn_tour_masks, xstat_fill_rows

SQUEEZES = ("middle", "left", "right")
TOURS = {"isa": ISAOrdering, "xstat": XStatOrdering}

#: Per-row bit palettes: all X, no X, mostly X, evenly mixed.
_PALETTES = ((2,), (0, 1), (2, 2, 2, 0, 1), (0, 1, 2))


@st.composite
def cube_matrices(draw, max_patterns: int = 8, max_pins: int = 10) -> np.ndarray:
    """``(n_patterns, n_pins)`` 0/1/X matrices, each row from its own palette."""
    n_patterns = draw(st.integers(0, max_patterns))
    n_pins = draw(st.integers(1, max_pins))
    rows = []
    for __ in range(n_patterns):
        palette = draw(st.sampled_from(_PALETTES))
        rows.append(draw(st.lists(st.sampled_from(palette), min_size=n_pins, max_size=n_pins)))
    return np.array(rows, dtype=np.int8).reshape(n_patterns, n_pins)


def _check_all(matrix: np.ndarray) -> None:
    patterns = TestSet.from_matrix(matrix)
    np.testing.assert_array_equal(
        MinimumTransitionFill().fill(patterns).matrix, mt_fill_rows(patterns)
    )
    for squeeze in SQUEEZES:
        np.testing.assert_array_equal(
            XStatFill(squeeze=squeeze).fill(patterns).matrix,
            xstat_fill_rows(patterns, squeeze),
            err_msg=squeeze,
        )
    for distance, ordering in TOURS.items():
        assert ordering().order(patterns).permutation == nn_tour_masks(patterns, distance)


@settings(max_examples=300, deadline=None)
@given(cube_matrices())
def test_random_sets_match_oracles(matrix):
    _check_all(matrix)


@settings(max_examples=200, deadline=None)
@given(cube_matrices(max_patterns=12, max_pins=3))
def test_pin_matrix_shapes_match_oracles(matrix):
    # Many patterns on few pins: long X stretches along each pin row, the
    # shape in which B-fill's phase 1 and phase 2 have the most to do.
    _check_all(matrix)


@pytest.mark.parametrize(
    "rows",
    [
        [],  # no patterns
        ["X1X0"],  # one pattern
        ["0X", "X1"],  # two patterns: tours keep the order
        ["X", "1", "X", "0", "X"],  # one pin
        ["XXX", "XXX", "XXX"],  # all X
        ["XXX", "01X", "XXX", "1X0"],  # all-X patterns between others
        ["010", "101", "110"],  # no X at all
        ["0", "1", "0", "1"],  # adjacent differing care bits, no gap
        ["0", "X", "1", "X", "0"],  # one-X gaps: the X survives in every mode
        ["1", "X", "X", "X", "X", "0", "X", "X", "1"],  # long gaps, squeeze matters
    ],
)
def test_edge_shapes_match_oracles(rows):
    matrix = np.array(
        [[{"0": 0, "1": 1, "X": 2}[c] for c in row] for row in rows], dtype=np.int8
    ).reshape(len(rows), len(rows[0]) if rows else 1)
    _check_all(matrix)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("x_fraction", [0.5, 0.9])
def test_generated_sets_match_oracles(seed, x_fraction):
    cubes = generate_cube_set(
        CubeSetSpec(n_pins=60, n_patterns=40, x_fraction=x_fraction, seed=seed)
    )
    _check_all(cubes.matrix)


def test_motivation_set_matches_oracles(paper_motivation_set):
    _check_all(paper_motivation_set.matrix)


@pytest.mark.parametrize("n_pins", [64, 65, 16384, 16385])
def test_key_width_boundaries_match_oracles(n_pins):
    # The fill keys (2 * column + value) switch from int8 to int16 above 64
    # columns and to int32 above 16384; both sides of each switch must fill
    # the same.
    rng = np.random.default_rng(n_pins)
    matrix = np.where(rng.random((2, n_pins)) < 0.9, 2, rng.integers(0, 2, (2, n_pins)))
    patterns = TestSet.from_matrix(matrix.astype(np.int8))
    np.testing.assert_array_equal(
        MinimumTransitionFill().fill(patterns).matrix, mt_fill_rows(patterns)
    )
    pins = TestSet.from_pin_matrix(matrix.astype(np.int8))  # n_pins patterns on 2 pins
    np.testing.assert_array_equal(XStatFill().fill(pins).matrix, xstat_fill_rows(pins))

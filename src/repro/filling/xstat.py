"""Reconstruction of the X-Stat fill (the paper's B-fill columns, ref. [22]).

X-Stat is the strongest pre-existing heuristic the paper compares against
(it is the ``B-fill`` column of Tables II–IV and the ``XStat`` column of
Tables V–VI).  The original paper is not open source; this reconstruction
follows the description given in §III and Fig. 1 of the DP-fill paper:

* **Phase 1** — adjacent-fill each don't-care stretch of the pin matrix so
  that ``0 X..X 1`` / ``1 X..X 0`` stretches shrink to a single remaining X
  (``0 X 1`` / ``1 X 0``), and ``0 X..X 0`` / ``1 X..X 1`` stretches are
  filled completely; leading and trailing runs copy their one neighbour and
  an all-X pin row becomes 0.  The position of the surviving X inside the
  stretch is a free parameter of the reconstruction
  (:attr:`XStatFill.squeeze`); the greedy nature of this phase is exactly
  what makes X-Stat sub-optimal in Fig. 1, and the ablation benchmark
  sweeps the choice.
* **Phase 2** — each surviving X is a binary choice between placing its
  toggle at the boundary on its left or on its right.  The choices are
  resolved greedily against the running per-boundary toggle profile, most
  constrained (highest surrounding load) first.

Both phases are whole-array and equal the pin-row-by-pin-row loop bit for
bit.  Phase 1 finds the stretches from the row-major care positions and is
:func:`~repro.filling.simple.carry_forward` restarted after each surviving
X.  Phase 2 orders the choices by a stable descending sort of their
pressure, the order ``sorted(..., reverse=True)`` gives; only its greedy
pass is a loop, as each choice reads the profile the earlier ones left.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cubes.bits import X
from repro.cubes.cube import TestSet
from repro.filling.base import Filler, register_filler
from repro.filling.simple import carry_forward

_SQUEEZE_MODES = ("middle", "left", "right")


class XStatFill(Filler):
    """Two-phase statistical X-fill (reconstruction of X-Stat / B-fill).

    Args:
        squeeze: where phase 1 leaves the surviving X of a ``0X..X1`` stretch —
            ``"middle"`` (default), ``"left"`` (right after the left care
            bit) or ``"right"`` (right before the right care bit).
    """

    name = "B-fill"

    def __init__(self, squeeze: str = "middle") -> None:
        if squeeze not in _SQUEEZE_MODES:
            raise ValueError(f"squeeze must be one of {_SQUEEZE_MODES}")
        self.squeeze = squeeze

    # -- phase 1 -------------------------------------------------------------
    def _squeeze_position(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Flat position of the X that survives phase 1 in each gap (left, right)."""
        if self.squeeze == "left":
            return left + 1
        if self.squeeze == "right":
            return right - 1
        # Both ends lie in one row, so the flat midpoint is the column midpoint.
        return (left + right) // 2

    def _phase1(self, pin: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shrink every stretch; return the filled matrix and the survivors.

        The survivors are the flat positions of the Xs phase 1 leaves, in
        row-major order, with the care values on their left and right.  The
        filled matrix provisionally holds each survivor's left value.
        """
        n_patterns = pin.shape[1]
        flat = pin.reshape(-1)
        care = np.flatnonzero(flat != X)
        left, right = care[:-1], care[1:]
        # Gaps between two differently valued care bits of one pin row.
        differing = right - left > 1
        differing &= flat[left] != flat[right]
        differing &= left // n_patterns == right // n_patterns
        left, right = left[differing], right[differing]
        del differing
        keep = self._squeeze_position(left, right)
        left_values, right_values = flat[left], flat[right]
        del left, right
        return carry_forward(pin, care, keep + 1, right_values), keep, left_values, right_values

    # -- phase 2 ----------------------------------------------------------------
    @staticmethod
    def _phase2(
        filled: np.ndarray, keep: np.ndarray, left_values: np.ndarray, right_values: np.ndarray
    ) -> None:
        """Resolve every surviving X greedily against the running profile."""
        cols = keep % filled.shape[1]
        # Toggles per boundary among the bits phase 1 specified: a survivor's
        # provisional left value adds one at its right boundary; remove it.
        profile = np.count_nonzero(filled[:, 1:] != filled[:, :-1], axis=0)
        profile -= np.bincount(cols, minlength=profile.size)
        # Most constrained (most loaded candidate boundary) first.
        pressure = np.maximum(profile[cols - 1], profile[cols])
        order = np.argsort(-pressure, kind="stable")
        load = profile.tolist()
        take_left = []
        for col in cols[order].tolist():
            if load[col] <= load[col - 1]:  # X takes left value -> toggle at boundary col
                load[col] += 1
                take_left.append(True)
            else:                           # X takes right value -> toggle at boundary col-1
                load[col - 1] += 1
                take_left.append(False)
        filled.reshape(-1)[keep[order]] = np.where(
            take_left, left_values[order], right_values[order]
        )

    # -- driver -----------------------------------------------------------------
    def fill(self, patterns: TestSet) -> TestSet:
        pin = patterns.pin_matrix()
        if pin.size == 0:
            return patterns.filled(patterns.matrix.copy())
        filled, keep, left_values, right_values = self._phase1(pin)
        del pin
        if keep.size:
            self._phase2(filled, keep, left_values, right_values)
        return patterns.filled(filled.T)


register_filler("B-fill", XStatFill, aliases=["x-stat", "xstat", "xstat-fill", "b"])

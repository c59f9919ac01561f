"""Common interface and registry for test-vector orderings."""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.ordering import OrderingResult
from repro.cubes.bits import ONE, ZERO
from repro.cubes.cube import TestSet


class Ordering(abc.ABC):
    """Base class for ordering algorithms.

    Subclasses implement :meth:`order`, returning an
    :class:`~repro.core.ordering.OrderingResult` whose ``permutation`` indexes
    into the input set.  Orderings must not modify cube contents — only the
    sequence.
    """

    #: canonical name used by the experiment harness (e.g. ``"i-ordering"``).
    name: str = "ordering"

    @abc.abstractmethod
    def order(self, patterns: TestSet) -> OrderingResult:
        """Return the reordered set and the permutation that produced it."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def greedy_tour(
    patterns: TestSet, distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> OrderingResult:
    """Nearest-neighbour tour from the most specified cube, lowest index on ties.

    ``distance(ones, zeros)`` maps the float32 0/1 planes of the care ones
    and zeros (``(n, pins)``, free to overwrite) to the ``(n, n)`` float32
    distance table.  Sets of at most two cubes keep their order.
    """
    n = len(patterns)
    if n <= 2:
        return OrderingResult(ordered=patterns.copy(), permutation=list(range(n)))
    data = patterns.matrix
    table = distance((data == ONE).astype(np.float32), (data == ZERO).astype(np.float32))
    current = int(np.argmin(patterns.x_counts_per_pattern()))
    permutation = [current]
    visited = np.zeros(n, dtype=np.float32)
    visited[current] = np.inf
    for __ in range(n - 1):
        current = int(np.argmin(table[current] + visited))
        permutation.append(current)
        visited[current] = np.inf
    return OrderingResult(ordered=patterns.reordered(permutation), permutation=permutation)


_REGISTRY: Dict[str, Callable[[], Ordering]] = {}


def _canonical(name: str) -> str:
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def register_ordering(
    name: str,
    factory: Callable[[], Ordering],
    aliases: Optional[List[str]] = None,
) -> None:
    """Register an ordering factory under ``name`` (and optional aliases)."""
    for key in [name] + list(aliases or []):
        canon = _canonical(key)
        existing = _REGISTRY.get(canon)
        if existing is not None and existing is not factory:
            raise ValueError(f"ordering name already registered: {key}")
        _REGISTRY[canon] = factory


def get_ordering(name: str, **kwargs) -> Ordering:
    """Instantiate a registered ordering by name (case/format insensitive).

    Raises:
        KeyError: for unknown names; the message lists the available ones.
    """
    canon = _canonical(name)
    if canon not in _REGISTRY:
        raise KeyError(f"unknown ordering {name!r}; available: {sorted(set(_REGISTRY))}")
    factory = _REGISTRY[canon]
    return factory(**kwargs) if kwargs else factory()


def available_orderings() -> List[str]:
    """Sorted list of registered canonical ordering names."""
    return sorted(set(_REGISTRY))

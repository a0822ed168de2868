"""A max-heap wrapper over :mod:`heapq` with stable tie-breaking.

The paper's Algorithm 1 keeps two max-heaps: the priority queue ``q`` of
partial paths ordered by estimated pss, and the match set ``Mi`` ordered by
exact pss.  Python's :mod:`heapq` is a min-heap of comparable items, so
:class:`MaxHeap` negates priorities internally and adds a monotone insertion
counter.  The counter makes pop order deterministic when priorities tie,
which keeps the search (and therefore every experiment) reproducible.
"""

from __future__ import annotations

import heapq
from typing import Generic, List, Tuple, TypeVar

T = TypeVar("T")


class MaxHeap(Generic[T]):
    """A max-heap of ``(priority, item)`` pairs.

    Ties on priority are broken by insertion order (FIFO), which keeps pop
    order deterministic across runs.

    >>> h = MaxHeap()
    >>> h.push(0.5, "a"); h.push(0.9, "b"); h.push(0.5, "c")
    >>> h.pop_max()
    (0.9, 'b')
    >>> h.pop_max()
    (0.5, 'a')
    """

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, T]] = []
        self._counter = 0

    def push(self, priority: float, item: T) -> None:
        """Insert ``item`` with the given ``priority``."""
        heapq.heappush(self._heap, (-priority, self._counter, item))
        self._counter += 1

    def pop_max(self) -> Tuple[float, T]:
        """Remove and return the ``(priority, item)`` pair with max priority.

        Raises :class:`IndexError` on an empty heap, mirroring ``list.pop``.
        """
        neg, _count, item = heapq.heappop(self._heap)
        return -neg, item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

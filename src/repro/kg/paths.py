"""Path objects and bounded path utilities over a frozen knowledge graph.

A *path* in the paper (footnote 1) is an undirected walk over directed
edges; a match of a query edge is such a path between node matches.  This
module defines the concrete :class:`Path` value used throughout the search
and assembly layers, plus two traversal helpers over a
:class:`~repro.kg.compact.CompactGraph`'s ``node_slots``:

- :func:`enumerate_paths` — bounded exhaustive enumeration (used by tests
  and by the brute-force reference oracle that validates the A* search);
- :func:`follow_pattern` — directed predicate-pattern walking (used to
  compute ground-truth answer sets from "correct schema" patterns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.kg.compact import CompactGraph
from repro.kg.graph import Edge, GraphReader


@dataclass(frozen=True)
class PathStep:
    """One hop of a path: the edge taken and the travel direction.

    ``forward`` is True when the walk follows the edge from its source to
    its target, False when it goes against the edge direction.
    """

    edge: Edge
    forward: bool

    @property
    def predicate(self) -> str:
        return self.edge.predicate

    def endpoint_from(self, uid: int) -> int:
        """The node reached by taking this step from ``uid``."""
        return self.edge.other(uid)


@dataclass(frozen=True)
class Path:
    """An undirected walk: start node plus a tuple of steps.

    >>> hop = PathStep(Edge(source=0, predicate="assembly", target=1), forward=True)
    >>> path = Path.single_node(0).extend(hop)
    >>> path.nodes(), path.end, path.hops
    ([0, 1], 1, 1)
    """

    start: int
    steps: Tuple[PathStep, ...]

    @classmethod
    def single_node(cls, uid: int) -> "Path":
        """A zero-length path (the start node itself)."""
        return cls(start=uid, steps=())

    def nodes(self) -> List[int]:
        """All node uids along the path, start to end inclusive."""
        out = [self.start]
        for step in self.steps:
            out.append(step.endpoint_from(out[-1]))
        return out

    @property
    def end(self) -> int:
        return self.nodes()[-1]

    @property
    def hops(self) -> int:
        return len(self.steps)

    def extend(self, step: PathStep) -> "Path":
        """A new path with one more hop appended."""
        return Path(start=self.start, steps=self.steps + (step,))

    def describe(self, kg: GraphReader) -> str:
        """Human-readable rendering, e.g. ``Audi_TT -assembly-> Germany``."""
        nodes = self.nodes()
        parts = [kg.entity(nodes[0]).name]
        for step, node in zip(self.steps, nodes[1:]):
            arrow = f"-{step.predicate}->" if step.forward else f"<-{step.predicate}-"
            parts.append(arrow)
            parts.append(kg.entity(node).name)
        return " ".join(parts)


def enumerate_paths(
    graph: CompactGraph,
    start: int,
    max_hops: int,
    *,
    simple_only: bool = True,
) -> Iterator[Path]:
    """Yield every path from ``start`` with 1..``max_hops`` hops.

    Exponential in ``max_hops``; intended for small graphs (reference
    oracle, unit tests), not for production search — that is the A*'s job.
    """
    if max_hops < 1:
        return
    node_slots = graph.node_slots

    def _walk(path: Path, visited: Set[int]) -> Iterator[Path]:
        current = path.end
        for edge, neighbor, _pid in node_slots[current]:
            if simple_only and neighbor in visited:
                continue
            step = PathStep(edge=edge, forward=(edge.source == current))
            extended = path.extend(step)
            yield extended
            if extended.hops < max_hops:
                yield from _walk(extended, visited | {neighbor})

    yield from _walk(Path.single_node(start), {start})


PatternStep = Tuple[str, str]  # (predicate, "+" | "-")


def follow_pattern(
    graph: CompactGraph, start: int, pattern: Sequence[PatternStep]
) -> Set[int]:
    """Nodes reachable from ``start`` by following a directed pattern.

    Each pattern step is ``(predicate, direction)``: ``"+"`` follows edges
    source→target, ``"-"`` goes target→source.  Used for ground-truth
    schema paths, e.g. an automobile assembled in Germany via a city is
    reached from the automobile by ``[("assemblyCity", "+"), ("country",
    "+")]``.

    Returns the set of end nodes (may be empty).
    """
    node_slots = graph.node_slots
    frontier = {start}
    for predicate, direction in pattern:
        if direction not in ("+", "-"):
            raise GraphError(f"pattern direction must be '+' or '-', got {direction!r}")
        forward = direction == "+"
        next_frontier: Set[int] = set()
        for uid in frontier:
            for edge, neighbor, _pid in node_slots[uid]:
                if edge.predicate == predicate and (edge.source == uid) == forward:
                    next_frontier.add(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    return frontier

"""Search configuration shared by SGQ and TBQ.

Paper defaults (Section VII-A): pss threshold τ = 0.8 and user-desired path
length n̂ = 4.  Everything else exists either to make experiments
controllable (clock source, assembly cost constant) or as an explicit
ablation hook documented in docs/architecture.md (scoring mode, visited
policy).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError
from repro.utils.stats import finite_positive


class PssMode(enum.Enum):
    """Path-score aggregation: the paper's geometric mean, or the
    arithmetic-mean ablation (``bench_ablation_scoring``), which runs on
    the reference A*."""

    GEOMETRIC = "geometric"
    ARITHMETIC = "arithmetic"


class VisitedPolicy(enum.Enum):
    """When a knowledge-graph state is marked visited.

    ``GENERATE`` is Algorithm 1 exactly: a node enters ``visited`` the
    moment it is first pushed, so later (possibly better) partial paths to
    it are dropped — which silently prunes answers whose best path shares a
    node with an earlier-explored worse path (recall saturates well below
    the reachable set).  ``EXPAND`` is the textbook-A* variant and the
    default: states close at expansion and a better partial path re-opens
    them, so no state is dropped for being reached first, and each
    sub-query stream still emits in non-increasing pss order.  It does not
    make Theorem 2 hold for simple paths: the closed set's key
    ``(uid, segment, hops_total, hops_in_segment)`` ignores a state's
    ancestors, so a dominating state that cannot extend along a simple path
    can hide the dominated one that could, and some pivots' best matches
    are never emitted (ROADMAP item 3 measures the loss and lists the
    fixes).  The ablation bench quantifies the gap to ``GENERATE``.
    Only ``EXPAND`` runs on the array search kernel; ``GENERATE`` runs on
    the reference A*, which ``build_subquery_search`` routes it to.
    """

    GENERATE = "generate"
    EXPAND = "expand"


@dataclass
class SearchConfig:
    """Knobs for the A* semantic search and assembly.

    Attributes:
        tau: pss pruning threshold τ (Definition 7); partial paths whose
            estimated pss falls below it are discarded (Lemma 3).
        path_bound: user-desired path length n̂ *per query edge* — a query
            edge may map to at most this many knowledge-graph hops.
        min_weight: semantic-graph edges with weight below this are not
            materialised at all (0 disables the shortcut; weights are
            already clamped to [0, 1]).
        scoring: pss aggregation mode.
        visited_policy: see :class:`VisitedPolicy` (default EXPAND).
        assembly_seconds_per_match: the empirical constant ``t`` of
            Algorithm 3 (estimated TA time per collected match).
        alert_ratio: the ``r%`` of Algorithm 3 (default 0.8: launch
            assembly when the estimated total time reaches 80% of the
            bound).
    """

    tau: float = 0.8
    path_bound: int = 4
    min_weight: float = 0.0
    scoring: PssMode = PssMode.GEOMETRIC
    visited_policy: VisitedPolicy = VisitedPolicy.EXPAND
    assembly_seconds_per_match: float = 2e-5
    alert_ratio: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if self.path_bound < 1:
            raise ConfigError("path_bound (n̂) must be at least 1")
        if not 0.0 <= self.min_weight <= 1.0:
            raise ConfigError("min_weight must be in [0, 1]")
        if not finite_positive(self.assembly_seconds_per_match, allow_zero=True):
            raise ConfigError("assembly_seconds_per_match must be finite and >= 0")
        if not 0.0 < self.alert_ratio <= 1.0:
            raise ConfigError("alert_ratio must be in (0, 1]")

    def ablated_fields(self) -> Tuple[str, ...]:
        """The ablation fields set off the paper's search, in field order.

        Empty for geometric scoring under ``EXPAND``, the one
        configuration the array search kernel serves; any other runs on
        the reference A* (see :func:`~repro.core.astar.build_subquery_search`).
        """
        return tuple(
            name
            for name, paper in (
                ("scoring", PssMode.GEOMETRIC),
                ("visited_policy", VisitedPolicy.EXPAND),
            )
            if getattr(self, name) is not paper
        )

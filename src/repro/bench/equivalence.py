"""Shared result-identity predicates for the kernel conformance suites.

Every kernel this reproduction adds (the compact CSR semantic-graph view,
the incremental TA assembly kernel, the array-backed A* search kernel)
claims *identical results* to its reference implementation — same final
matches, bit-equal scores, same components, and for the search kernel
the same per-sub-query emission stream and counters.  This module owns
the one definition of those claims, so the conformance test suites
cannot drift in what they actually check.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.results import FinalMatch, PathMatch, QueryResult, SearchStats

#: SearchStats counters that must match bit-for-bit across search
#: kernels.  ``nodes_touched`` / ``edges_weighted`` are *view*-level
#: materialisation counters (see :class:`SearchStats`; the lazy view is
#: the only one that touches nodes) and ``elapsed_seconds`` is wall
#: time, so none of the three is compared across kernels.
SEARCH_STAT_FIELDS = (
    "expansions",
    "states_generated",
    "pruned_by_tau",
    "pruned_by_visited",
    "pruned_by_bound",
    "pruned_by_reach",
    "stale_pops",
    "goals_emitted",
    "max_queue_size",
)


def final_matches_differ(
    label: str,
    expected: Sequence[FinalMatch],
    actual: Sequence[FinalMatch],
) -> Optional[str]:
    """A description of the first difference, or ``None`` if identical.

    Identical means: same match count and order, same pivot uids,
    bit-equal scores, same component sub-queries in the same insertion
    order, and bit-equal pss plus equal path per component.
    """
    if len(expected) != len(actual):
        return f"{label}: match count {len(expected)} != {len(actual)}"
    for rank, (a, b) in enumerate(zip(expected, actual)):
        if a.pivot_uid != b.pivot_uid:
            return f"{label}#{rank}: pivot {a.pivot_uid} != {b.pivot_uid}"
        if a.score != b.score:
            return f"{label}#{rank}: score {a.score!r} != {b.score!r}"
        if list(a.components) != list(b.components):
            return f"{label}#{rank}: component order differs"
        for index, pa in a.components.items():
            pb = b.components[index]
            if pa.pss != pb.pss:
                return f"{label}#{rank}/g{index}: pss {pa.pss!r} != {pb.pss!r}"
            if pa.path != pb.path:
                return f"{label}#{rank}/g{index}: path differs"
    return None


def path_matches_differ(
    label: str,
    expected: Sequence[PathMatch],
    actual: Sequence[PathMatch],
) -> Optional[str]:
    """First difference between two sub-query match streams, or ``None``.

    Identical means: same match count and *emission order*, same pivot
    uids, bit-equal pss, same sub-query index and equal path (down to
    the shared ``Edge`` objects) — the search-kernel half of the
    result-identity claim, before any TA assembly.
    """
    if len(expected) != len(actual):
        return f"{label}: match count {len(expected)} != {len(actual)}"
    for rank, (a, b) in enumerate(zip(expected, actual)):
        if a.pivot_uid != b.pivot_uid:
            return f"{label}#{rank}: pivot {a.pivot_uid} != {b.pivot_uid}"
        if a.pss != b.pss:
            return f"{label}#{rank}: pss {a.pss!r} != {b.pss!r}"
        if a.subquery_index != b.subquery_index:
            return f"{label}#{rank}: subquery index differs"
        if a.path != b.path:
            return f"{label}#{rank}: path differs"
    return None


def search_stats_differ(
    label: str, expected: SearchStats, actual: SearchStats
) -> Optional[str]:
    """First differing search counter (see ``SEARCH_STAT_FIELDS``)."""
    for field in SEARCH_STAT_FIELDS:
        a = getattr(expected, field)
        b = getattr(actual, field)
        if a != b:
            return f"{label}: {field} {a} != {b}"
    return None


def query_results_differ(
    label: str, reference: QueryResult, actual: QueryResult
) -> Optional[str]:
    """First way two engines' answers to one query differ, or ``None``.

    Identical means: identical final matches, equal ``ta_rounds`` and
    ``ta_accesses``, and every sub-query search equal counter for
    counter (``SEARCH_STAT_FIELDS``).
    """
    problem = final_matches_differ(label, reference.matches, actual.matches)
    if problem is not None:
        return problem
    if reference.ta_rounds != actual.ta_rounds:
        return f"{label}: ta_rounds {reference.ta_rounds} != {actual.ta_rounds}"
    if reference.ta_accesses != actual.ta_accesses:
        return (
            f"{label}: ta_accesses {reference.ta_accesses} "
            f"!= {actual.ta_accesses}"
        )
    for index, (expected, stats) in enumerate(
        zip(reference.subquery_stats, actual.subquery_stats)
    ):
        problem = search_stats_differ(f"{label}/g{index}", expected, stats)
        if problem is not None:
            return problem
    return None

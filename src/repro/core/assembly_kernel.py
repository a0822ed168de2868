"""Incremental TA assembly kernel (Section V-C): one lazy heap per mask.

The reference assembler (``assemble_top_k(..., kernel="reference")`` in
:mod:`repro.core.assembly`) re-sorts every candidate and recomputes every
upper bound each round.  This kernel keeps the round structure (one
sorted access per unexhausted stream per round, Theorem 3 decided at the
same round) and makes the bookkeeping incremental, in pure Python — no
table here is ever scanned per round.

**Data layout.**  Pivot uids are interned into rows in first-seen order.
A row *is* the reference's :class:`~repro.core.results.FinalMatch`, fed
through the same ``add_component`` calls in the same order, so
components, replacements and the running Eq. 8 lower bound are identical
by construction; ``lower[row]`` mirrors its score and ``masks[row]`` is
the bitmask of streams that have not yielded the pivot yet.

- *top-k*: a size-k lazy min-heap of ``(lower, -row)`` plus a member
  set.  Its order — lower descending, first-seen row ascending — is the
  total order of the reference's stable sort, boundary ties included;
  lower bounds only rise, so a row outside it can enter only on its own
  update, and the live minimum is Theorem 3's ``L_k``.  An entry is live
  iff its row is a member and still has that lower bound.
- *groups*: every candidate outside the top-k that still lacks a stream
  sits in the lazy max-heap of its mask, as ``(-lower, row)``.  An entry
  is live iff the row is outside the top-k and still has that mask and
  that lower bound; a first sighting, an upward replacement or an
  eviction from the top-k pushes a fresh entry, and dead entries are
  dropped when they surface.

**Theorem 3 in O(2^m) per round.**  A candidate's upper bound (Eq.
10-11) is ``f_M(lower) = lower + ψ_a + ψ_b + …`` over the streams of its
mask ``M``, added left to right in index order — the reference's own
loop.  Float addition is monotone (``x ≤ y`` implies ``x + c ≤ y + c``
after rounding), so within a group ``max f_M(lower) = f_M(max lower)``:
one heap peek per non-empty group yields ``U_max`` as the very float the
reference computes, and the termination decision cannot differ in any
ulp.  While ``Σψ > L_k`` the unseen-candidate bound alone defeats the
check and the groups are not visited at all.  A complete candidate
outside the top-k has ``U = lower ≤ L_k`` and is filed nowhere.

The same streams are pulled in the same rounds as the reference, so
matches, scores, components, ``accesses``, ``rounds`` and both flags are
identical.  Conformance is enforced by ``tests/test_assembly_kernel.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace, nlargest
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.assembly import AssemblyResult, MatchStream
from repro.core.results import FinalMatch
from repro.errors import SearchError


def assemble_top_k_incremental(
    streams: Sequence[MatchStream],
    k: int,
    *,
    exhaustive: bool = False,
    max_rounds: Optional[int] = None,
) -> AssemblyResult:
    """Drop-in replacement for the reference ``assemble_top_k`` loop.

    See the module docstring for the data layout and the stop lemma; see
    ``repro.core.assembly.assemble_top_k`` for parameter semantics (this
    function is normally reached through its ``kernel="vectorized"``
    default).
    """
    if k < 1:
        raise SearchError("k must be at least 1")
    if not streams:
        raise SearchError("assembly needs at least one stream")

    num_streams = len(streams)
    full_mask = (1 << num_streams) - 1
    row_of: Dict[int, int] = {}
    finals: List[FinalMatch] = []
    lower: List[float] = []
    masks: List[int] = []
    top: List[Tuple[float, int]] = []  # (lower, -row): worst member first
    members: Set[int] = set()
    # mask -> (heap of (-lower, row), the mask's streams in index order)
    groups: Dict[int, Tuple[List[Tuple[float, int]], Tuple[int, ...]]] = {}
    rounds = 0
    terminated_early = False
    truncated = False

    def enqueue(row: int) -> None:
        """File a candidate outside the top-k under its current mask."""
        mask = masks[row]
        group = groups.get(mask)
        if group is None:
            group = groups[mask] = (
                [],
                tuple(j for j in range(num_streams) if mask >> j & 1),
            )
        heappush(group[0], (-lower[row], row))

    def worst_member() -> Tuple[float, int]:
        """The live minimum of the top-k heap; its lower bound is L_k."""
        while True:
            entry = top[0]
            if -entry[1] in members and lower[-entry[1]] == entry[0]:
                return entry
            heappop(top)

    while True:
        progressed = False
        for index, stream in enumerate(streams):
            match = stream.next()
            if match is None:
                continue
            progressed = True
            uid = match.pivot_uid
            row = row_of.get(uid)
            if row is None:
                row = row_of[uid] = len(finals)
                finals.append(
                    FinalMatch(pivot_uid=uid, expected_components=num_streams)
                )
                lower.append(0.0)
                masks.append(full_mask)
            final = finals[row]
            final.add_component(match)
            score = final.score
            bit = 1 << index
            if masks[row] & bit:
                masks[row] ^= bit  # first sighting in this stream
            elif score == lower[row]:
                continue  # a repeat that did not improve the component
            lower[row] = score
            if exhaustive:
                continue
            if row in members:
                heappush(top, (score, -row))
            elif len(members) < k:
                members.add(row)
                heappush(top, (score, -row))
            else:
                worst = worst_member()
                if (score, -row) > worst:
                    heapreplace(top, (score, -row))
                    members.add(row)
                    members.discard(-worst[1])
                    if masks[-worst[1]]:
                        enqueue(-worst[1])
                elif masks[row]:
                    enqueue(row)
        rounds += 1
        if not progressed:
            break  # every stream exhausted
        if not exhaustive and len(finals) >= k:
            lower_k = worst_member()[0]
            psi = [stream.current_pss for stream in streams]
            # Reference operand order (left-to-right sum over streams), so
            # the unseen-candidate bound is the identical float.
            unseen_total = sum(psi)
            if unseen_total <= lower_k:
                u_max = unseen_total
                for mask, (heap, lacking) in groups.items():
                    while heap:
                        negated, row = heap[0]
                        if (
                            masks[row] == mask
                            and lower[row] == -negated
                            and row not in members
                        ):
                            upper = -negated
                            for j in lacking:
                                upper += psi[j]
                            if upper > u_max:
                                u_max = upper
                            break
                        heappop(heap)
                if lower_k >= u_max:
                    terminated_early = True
                    break
        if max_rounds is not None and rounds >= max_rounds:
            truncated = True
            break

    return AssemblyResult(
        matches=_ranked(finals, lower, k),
        accesses=sum(stream.accesses for stream in streams),
        terminated_early=terminated_early,
        rounds=rounds,
        truncated=truncated,
    )


def _ranked(finals: List[FinalMatch], lower: List[float], k: int) -> List[FinalMatch]:
    """The top-k candidates ordered by (-score, pivot uid).

    Only rows at or above the k-th largest score are sorted, boundary
    ties included, which reproduces the reference's full
    ``sorted(..., key=(-score, pivot_uid))[:k]``.
    """
    if len(finals) > k:
        kth = nlargest(k, lower)[-1]
        rows = [row for row, score in enumerate(lower) if score >= kth]
    else:
        rows = list(range(len(finals)))
    rows.sort(key=lambda row: (-lower[row], finals[row].pivot_uid))
    return [finals[row] for row in rows[:k]]

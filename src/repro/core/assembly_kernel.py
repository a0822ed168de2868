"""Incremental TA assembly kernel (Section V-C): one lazy heap per mask.

The reference assembler (``assemble_top_k(..., kernel="reference")`` in
:mod:`repro.core.assembly`) re-sorts every candidate and recomputes every
upper bound each round.  This kernel keeps the round structure (one
sorted access per unexhausted stream per round, Theorem 3 decided at the
same round) and makes the bookkeeping incremental, in pure Python — no
table here is ever scanned per round.

**Data layout.**  Pivot uids are interned into rows in first-seen order,
and a row is four list slots: ``pivots[row]``, ``components[row]`` (a
dict from stream index to the match it yielded, in first-sighting
order), ``lower[row]`` (the running Eq. 8 lower bound) and
``masks[row]`` (the bitmask of streams that have not yielded the pivot
yet).  A sorted access updates them with the reference
``FinalMatch.add_component`` arithmetic, in its operation order —
``0.0 + pss`` on a new row, ``lower + pss`` on a first sighting,
``lower + (pss - held)`` on an upward replacement — so components,
replacements and lower bounds are identical to the reference's by
construction.  :class:`~repro.core.results.FinalMatch` objects are built
only for the rows :func:`_ranked` returns.

The kernel calls each stream's ``pull`` itself and owns the stream state
while it runs: the per-stream ψ_cur (Eq. 11), last pss, access count and
exhaustion live in lists here, ψ is updated on the access that moves it,
and the state is written back to the :class:`MatchStream` objects once,
in a ``finally`` — so a pull that raises part-way through a round leaves
the streams exactly where :meth:`MatchStream.next` would have.

- *top-k*: a size-k lazy min-heap of ``(lower, -row)`` plus a member
  set.  Its order — lower descending, first-seen row ascending — is the
  total order of the reference's stable sort, boundary ties included;
  lower bounds only rise, so a row outside it can enter only on its own
  update, and the live minimum is Theorem 3's ``L_k``.  An entry is live
  iff its row is a member and still has that lower bound.  The minimum
  is cached until the top-k changes in a way that can move it (a row
  enters, or the worst member itself rises), so a candidate that does
  not enter costs one comparison.
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
one heap peek per non-empty group yields the group's largest upper
bound as the very float the reference computes, and the termination
decision cannot differ in any ulp.  The check stops at the first group
whose bound exceeds ``L_k`` (the reference's ``L_k ≥ U_max`` is false
from there on), and while ``Σψ > L_k`` the unseen-candidate bound alone
defeats it and the groups are not visited at all.  A complete candidate
outside the top-k has ``U = lower ≤ L_k`` and is filed nowhere.

The same streams are pulled in the same rounds as the reference, so
matches, scores, components, ``accesses``, ``rounds`` and
``terminated_early`` are identical.  Conformance is enforced by ``tests/test_assembly_kernel.py``
(grid-valued streams, exact ties) and ``tests/test_properties.py``
(arbitrary floats, pulls that raise mid-round).
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
    # Stream state, owned here until the finally writes it back; an
    # exhausted stream's pull is None.
    pulls = [None if stream.exhausted else stream.pull for stream in streams]
    psi = [stream.current_pss for stream in streams]
    last = [stream.last_pss for stream in streams]
    counts = [stream.accesses for stream in streams]
    # Candidate rows.
    row_of: Dict[int, int] = {}
    pivots: List[int] = []
    components: List[dict] = []
    lower: List[float] = []
    masks: List[int] = []
    top: List[Tuple[float, int]] = []  # (lower, -row): worst member first
    members: Set[int] = set()
    # The live minimum of the top-k (L_k and its row), None once the
    # top-k changes in a way that may move it.
    worst_score = 0.0
    worst_row: Optional[int] = None
    # mask -> (heap of (-lower, row), the mask's streams in index order)
    groups: Dict[int, Tuple[List[Tuple[float, int]], Tuple[int, ...]]] = {}
    rounds = 0
    terminated_early = False

    try:
        while True:
            progressed = False
            for index, pull in enumerate(pulls):
                if pull is None:
                    continue
                match = pull()
                if match is None:
                    # The exhaustion probe is not a sorted access.
                    pulls[index] = None
                    psi[index] = 0.0
                    continue
                counts[index] += 1
                pss = match.pss
                previous = last[index]
                if previous is not None and pss > previous + 1e-9:
                    raise SearchError(
                        "match stream is not sorted by descending pss "
                        f"({pss} after {previous})"
                    )
                last[index] = psi[index] = pss
                progressed = True
                uid = match.pivot_uid
                row = row_of.get(uid)
                if row is None:
                    row = row_of[uid] = len(lower)
                    pivots.append(uid)
                    components.append({index: match})
                    score = 0.0 + pss
                    lower.append(score)
                    masks.append(full_mask ^ (1 << index))
                else:
                    held = components[row]
                    existing = held.get(index)
                    if existing is None:  # first sighting in this stream
                        held[index] = match
                        score = lower[row] + pss
                        masks[row] ^= 1 << index
                    elif pss > existing.pss:  # upward replacement
                        held[index] = match
                        score = lower[row] + (pss - existing.pss)
                        if score == lower[row]:
                            continue
                    else:
                        continue  # a repeat that does not improve the component
                    lower[row] = score
                if exhaustive:
                    continue
                if row in members:
                    heappush(top, (score, -row))
                    if row == worst_row:
                        worst_row = None  # the minimum may have moved
                    continue
                if len(members) < k:  # filling: nothing cached yet
                    members.add(row)
                    heappush(top, (score, -row))
                    continue
                if worst_row is None:
                    worst_score, worst_row = _worst_member(top, members, lower)
                if score > worst_score or (score == worst_score and row < worst_row):
                    # top[0] is the worst's entry or a dead one: either way
                    # it may go (every member keeps a live entry).
                    heapreplace(top, (score, -row))
                    members.add(row)
                    members.discard(worst_row)
                    row, worst_row = worst_row, None  # file the evicted member
                mask = masks[row]
                if mask:  # file the candidate outside the top-k
                    group = groups.get(mask)
                    if group is None:
                        group = groups[mask] = (
                            [],
                            tuple(j for j in range(num_streams) if mask >> j & 1),
                        )
                    heappush(group[0], (-lower[row], row))
            rounds += 1
            if not progressed:
                break  # every stream exhausted
            if not exhaustive and len(lower) >= k:
                if worst_row is None:
                    worst_score, worst_row = _worst_member(top, members, lower)
                lower_k = worst_score
                # Reference operand order (left-to-right sum over streams),
                # so the unseen-candidate bound is the identical float.
                if sum(psi) <= lower_k:
                    for mask, (heap, lacking) in groups.items():
                        while heap:
                            negated, row = heap[0]
                            if (
                                masks[row] == mask
                                and lower[row] == -negated
                                and row not in members
                            ):
                                break
                            heappop(heap)
                        else:
                            continue  # no live candidate lacks these streams
                        upper = -negated
                        for j in lacking:
                            upper += psi[j]
                        if upper > lower_k:
                            break  # this group's best may still overtake L_k
                    else:
                        terminated_early = True
                        break
    finally:
        for stream, pull, last_pss, count in zip(streams, pulls, last, counts):
            stream.exhausted = pull is None
            stream.last_pss = last_pss
            stream.accesses = count

    return AssemblyResult(
        matches=_ranked(pivots, components, lower, k, num_streams),
        accesses=sum(counts),
        terminated_early=terminated_early,
        rounds=rounds,
    )


def _worst_member(
    top: List[Tuple[float, int]], members: Set[int], lower: List[float]
) -> Tuple[float, int]:
    """``(lower, row)`` of the top-k heap's live minimum: L_k and its row."""
    while True:
        score, row = top[0]
        if -row in members and lower[-row] == score:
            return score, -row
        heappop(top)


def _ranked(
    pivots: List[int],
    components: List[dict],
    lower: List[float],
    k: int,
    num_streams: int,
) -> List[FinalMatch]:
    """The top-k candidates ordered by (-score, pivot uid), as final matches.

    Only rows at or above the k-th largest score are sorted, boundary
    ties included, which reproduces the reference's full
    ``sorted(..., key=(-score, pivot_uid))[:k]``; a ``FinalMatch`` is
    built for the returned rows alone.
    """
    if len(lower) > k:
        kth = nlargest(k, lower)[-1]
        rows = [row for row, score in enumerate(lower) if score >= kth]
    else:
        rows = list(range(len(lower)))
    rows.sort(key=lambda row: (-lower[row], pivots[row]))
    return [
        FinalMatch(
            pivot_uid=pivots[row],
            components=components[row],
            score=lower[row],
            expected_components=num_streams,
        )
        for row in rows[:k]
    ]

"""Threshold-Algorithm (TA) final-match assembly (Section V-C).

Joins sub-query match streams at the pivot entity without exhausting them:
each round performs one *sorted access* per stream (streams yield matches
in descending pss — for SGQ that is the A* pop order itself, so the TA
lazily drives the searches), maintains per-candidate lower/upper score
bounds (Eq. 8-11), and stops as soon as the k-th best lower bound dominates
every other candidate's upper bound (Theorem 3), including the "virtual"
candidate that has not been seen in any stream yet.

The stream abstraction also serves TBQ: a drained-and-sorted non-optimal
match set M̂_i replays through the same assembler (Section VI's
"approximate final matches M̂ assembly").

Two interchangeable kernels implement the round loop:

- ``kernel="reference"`` — the pure-Python assembler below, a direct
  transcription of Eq. 8-11 / Theorem 3.  It re-sorts every candidate and
  recomputes every upper bound each round (O(C·S + C log C) per round),
  which makes it the easy-to-audit conformance baseline but a hot spot on
  assembly-heavy queries.
- ``kernel="vectorized"`` (the default) — the incremental kernel in
  :mod:`repro.core.assembly_kernel`: candidates grouped by their
  unseen-stream bitmask, one lazy heap per group and one over the top-k,
  so a round's Theorem 3 check is O(2^m) heap peeks whatever the
  candidate count.  It makes the *same decision at the same round* as
  the reference on the same streams, so results (matches, scores,
  accesses, rounds) are identical; only the cost changes.  (The
  spelling predates the kernel losing its numpy arrays; renaming it
  ripples through artifact field names and waits for the
  ``repro.reference`` move in ROADMAP item 6(1c).)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.results import FinalMatch, PathMatch
from repro.errors import SearchError

#: Valid ``kernel=`` names, owned and checked here (the dispatch point).
ASSEMBLY_KERNELS = ("vectorized", "reference")


class MatchStream:
    """Sorted access over one sub-query's matches.

    ``pull`` is any callable returning the next-best :class:`PathMatch` or
    ``None`` when exhausted (an A* search's ``next_match``, or an iterator
    over a pre-collected list).  :meth:`next` is one sorted access with
    its bookkeeping; the incremental kernel calls ``pull`` itself, keeps
    ``exhausted`` / ``last_pss`` / ``accesses`` in its own lists while it
    runs, and writes them back here when it returns or raises.
    """

    def __init__(self, pull: Callable[[], Optional[PathMatch]]):
        self.pull = pull
        self.exhausted = False
        self.last_pss: Optional[float] = None  # ψ_cur of Eq. 11
        self.accesses = 0

    @classmethod
    def from_list(cls, matches: Sequence[PathMatch]) -> "MatchStream":
        """A stream over an eagerly collected, descending-sorted list."""
        ordered = sorted(matches, key=lambda m: -m.pss)
        iterator: Iterator[PathMatch] = iter(ordered)
        return cls(lambda: next(iterator, None))

    def next(self) -> Optional[PathMatch]:
        if self.exhausted:
            return None
        match = self.pull()
        if match is None:
            # The exhaustion probe is not a sorted access: nothing was
            # read from the stream, the pull merely revealed its end —
            # counting it would inflate the paper's access reporting.
            self.exhausted = True
            return None
        self.accesses += 1
        if self.last_pss is not None and match.pss > self.last_pss + 1e-9:
            raise SearchError(
                "match stream is not sorted by descending pss "
                f"({match.pss} after {self.last_pss})"
            )
        self.last_pss = match.pss
        return match

    @property
    def current_pss(self) -> float:
        """ψ_cur — contribution bound for candidates unseen in this stream.

        Before any access the bound is 1.0 (a pss can never exceed it);
        after exhaustion it is 0.0 (this stream will never contribute to an
        unseen candidate).
        """
        if self.exhausted:
            return 0.0
        if self.last_pss is None:
            return 1.0
        return self.last_pss


@dataclass
class AssemblyResult:
    """Top-k final matches plus TA bookkeeping.

    ``rounds`` counts every TA round, including the final probe round in
    which all streams report exhaustion.  ``terminated_early`` tells
    Theorem 3 termination from a clean drain.
    """

    matches: List[FinalMatch]
    accesses: int
    terminated_early: bool
    rounds: int = 0


def assemble_top_k(
    streams: Sequence[MatchStream],
    k: int,
    *,
    exhaustive: bool = False,
    kernel: str = "vectorized",
) -> AssemblyResult:
    """Run the TA until the top-k final matches are certain.

    Args:
        streams: one sorted-access stream per sub-query graph.
        k: number of final matches wanted.
        exhaustive: disable the early-termination check (ablation; drains
            every stream and then ranks — Theorem 3 says the result set is
            identical).
        kernel: ``"vectorized"`` (default) runs the incremental kernel
            (:mod:`repro.core.assembly_kernel`); ``"reference"`` runs
            the pure-Python transcription below.  Both return
            identical results.

    Returns ``k`` (or fewer, if the data runs out) final matches sorted by
    descending score; each match records which sub-queries contributed.

    Note on score semantics: like the paper's Eq. 8-11 (and Fagin's NRA —
    sorted access only, no random access), early termination certifies
    top-k *membership*; the reported score of a returned match is its
    lower bound at termination and may undercount components a stream had
    not yet surfaced.  Pass ``exhaustive=True`` to always resolve exact
    scores at the cost of draining every stream.
    """
    if kernel == "vectorized":
        from repro.core.assembly_kernel import assemble_top_k_incremental

        return assemble_top_k_incremental(streams, k, exhaustive=exhaustive)
    if kernel != "reference":
        raise SearchError(
            f"unknown assembly kernel {kernel!r} "
            f"(expected one of {ASSEMBLY_KERNELS})"
        )
    return _assemble_reference(streams, k, exhaustive=exhaustive)


def _assemble_reference(
    streams: Sequence[MatchStream],
    k: int,
    *,
    exhaustive: bool = False,
) -> AssemblyResult:
    """The pure-Python TA (Eq. 8-11 / Theorem 3, conformance baseline)."""
    if k < 1:
        raise SearchError("k must be at least 1")
    if not streams:
        raise SearchError("assembly needs at least one stream")

    num_streams = len(streams)
    candidates: Dict[int, FinalMatch] = {}
    rounds = 0
    terminated_early = False

    def upper_bound(candidate: FinalMatch) -> float:
        """Eq. 10-11: seen components exactly (the candidate's running
        lower bound), unseen streams at their ψ_cur."""
        total = candidate.score
        for index in range(num_streams):
            if index not in candidate.components:
                total += streams[index].current_pss
        return total

    def unseen_upper_bound() -> float:
        """Bound for a pivot never seen in any stream."""
        return sum(stream.current_pss for stream in streams)

    def termination_reached() -> bool:
        """Theorem 3's check: L_k ≥ U_max over all other candidates."""
        if len(candidates) < k:
            return False
        by_lower = sorted(candidates.values(), key=lambda c: -c.score)
        top = by_lower[:k]
        lower_k = top[-1].score
        rest_upper = max(
            (upper_bound(c) for c in by_lower[k:]), default=0.0
        )
        u_max = max(rest_upper, unseen_upper_bound())
        return lower_k >= u_max

    while True:
        progressed = False
        for index, stream in enumerate(streams):
            match = stream.next()
            if match is None:
                continue
            progressed = True
            candidate = candidates.get(match.pivot_uid)
            if candidate is None:
                candidate = FinalMatch(
                    pivot_uid=match.pivot_uid, expected_components=num_streams
                )
                candidates[match.pivot_uid] = candidate
            candidate.add_component(match)
        rounds += 1
        if not progressed:
            break  # every stream exhausted
        if not exhaustive and termination_reached():
            terminated_early = True
            break

    ranked = sorted(candidates.values(), key=lambda c: (-c.score, c.pivot_uid))
    total_accesses = sum(stream.accesses for stream in streams)
    return AssemblyResult(
        matches=ranked[:k],
        accesses=total_accesses,
        terminated_early=terminated_early,
        rounds=rounds,
    )

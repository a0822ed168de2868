"""Transformation library and node matching (Definition 3 / Section IV-B).

The paper builds a "synonym and abbreviation transformation library for all
types and names existing in G on the basis of BabelNet" (Table III).  We
cannot ship BabelNet, so the library is seeded from the
:class:`~repro.kg.schema.SynonymFamily` records of the dataset schema —
the same synonym/abbreviation families the workloads use when they phrase
queries as ``Car`` instead of ``Automobile`` or ``GER`` instead of
``Germany``.

Matching is the paper's three-case relation φ:

1. **Identical** — equal after normalisation (case folding and treating
   ``_`` like a space, so ``Audi TT`` matches ``Audi_TT``);
2. **Synonym** — both sides canonicalise to the same family head;
3. **Abbreviation** — ditto (families keep abbreviations separately so the
   two cases can be distinguished in explanations).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.kg.graph import GraphReader
from repro.kg.schema import DomainSchema, SynonymFamily
from repro.query.model import QueryNode

MATCH_IDENTICAL = "identical"
MATCH_SYNONYM = "synonym"
MATCH_ABBREVIATION = "abbreviation"


def normalize_label(text: str) -> str:
    """Case-/separator-insensitive canonical form of a name or type."""
    return text.replace("_", " ").strip().casefold()


class TransformationLibrary:
    """Bidirectional synonym/abbreviation lookup for types and names."""

    def __init__(self) -> None:
        # normalized surface form -> (canonical, match kind)
        self._types: Dict[str, Tuple[str, str]] = {}
        self._names: Dict[str, Tuple[str, str]] = {}

    # ------------------------------------------------------------------
    def add_family(self, family: SynonymFamily) -> None:
        """Register one synonym family (kind 'type' or 'name')."""
        if family.kind not in ("type", "name"):
            raise QueryError(f"unknown synonym family kind {family.kind!r}")
        table = self._types if family.kind == "type" else self._names
        canonical = family.canonical
        table[normalize_label(canonical)] = (canonical, MATCH_IDENTICAL)
        for synonym in family.synonyms:
            table.setdefault(normalize_label(synonym), (canonical, MATCH_SYNONYM))
        for abbreviation in family.abbreviations:
            table.setdefault(
                normalize_label(abbreviation), (canonical, MATCH_ABBREVIATION)
            )

    @classmethod
    def from_schema(cls, schema: DomainSchema) -> "TransformationLibrary":
        """Build the library from a dataset schema's synonym families."""
        library = cls()
        for family in schema.synonym_families:
            library.add_family(family)
        return library

    # ------------------------------------------------------------------
    def _canonicalize(self, table: Dict[str, Tuple[str, str]], text: str) -> Tuple[str, str]:
        normalized = normalize_label(text)
        entry = table.get(normalized)
        if entry is None:
            return normalized, MATCH_IDENTICAL
        canonical, kind = entry
        return normalize_label(canonical), kind

    def canonical_type(self, etype: str) -> str:
        """Normalized family head for a type (itself when unknown).

        Two types φ-match the same KG candidates iff their canonical
        forms are equal — the property the serve-layer answer cache
        relies on to collapse alias spellings to one key.
        """
        canon, _ = self._canonicalize(self._types, etype)
        return canon

    def canonical_name(self, name: str) -> str:
        """Normalized family head for a name (itself when unknown)."""
        canon, _ = self._canonicalize(self._names, name)
        return canon

    def match_type(self, query_type: str, kg_type: str) -> Optional[str]:
        """Match kind if the types are φ-related, else ``None``."""
        canon_query, kind_query = self._canonicalize(self._types, query_type)
        canon_kg, _kind_kg = self._canonicalize(self._types, kg_type)
        if canon_query != canon_kg:
            return None
        if kind_query == MATCH_IDENTICAL and normalize_label(query_type) == normalize_label(kg_type):
            return MATCH_IDENTICAL
        return kind_query if kind_query != MATCH_IDENTICAL else MATCH_SYNONYM

    def match_name(self, query_name: str, kg_name: str) -> Optional[str]:
        """Match kind if the names are φ-related, else ``None``."""
        canon_query, kind_query = self._canonicalize(self._names, query_name)
        canon_kg, _kind_kg = self._canonicalize(self._names, kg_name)
        if canon_query != canon_kg:
            return None
        if kind_query == MATCH_IDENTICAL and normalize_label(query_name) == normalize_label(kg_name):
            return MATCH_IDENTICAL
        return kind_query if kind_query != MATCH_IDENTICAL else MATCH_SYNONYM

    def type_variants(self, etype: str) -> List[str]:
        """All surface forms that map to the same canonical type."""
        canon, _ = self._canonicalize(self._types, etype)
        return [
            surface
            for surface, (canonical, _kind) in self._types.items()
            if normalize_label(canonical) == canon
        ]

    def name_variants(self, name: str) -> List[str]:
        """All surface forms that map to the same canonical name."""
        canon, _ = self._canonicalize(self._names, name)
        return [
            surface
            for surface, (canonical, _kind) in self._names.items()
            if normalize_label(canonical) == canon
        ]


class NodeMatcher:
    """The node-match relation φ: query node → candidate entity ids.

    Results are memoised per query node signature; the same query node is
    looked up by decomposition, by every sub-query search and by assembly.

    Thread safety: a matcher is shared by every client thread of an
    ``inline`` service, which run their searches concurrently on the
    callers' own threads.  All memo *writes* and lazy index builds take ``_lock``;
    reads are deliberately lock-free ``dict.get`` probes.  On a GIL build
    each probe is atomic, and on free-threaded 3.13 builds per-object
    dict locking keeps a get/set pair memory-safe — the only race left
    is two threads computing the same pure-function verdict, where the
    last write wins with an identical value.
    """

    # Entry cap on the per-(node signature, uid) verdict memo; reached
    # only by long-lived matchers under very diverse serving workloads.
    _IS_MATCH_CACHE_MAX = 1_000_000

    def __init__(self, kg: GraphReader, library: Optional[TransformationLibrary] = None):
        self.kg = kg
        self.library = library if library is not None else TransformationLibrary()
        self._lock = threading.Lock()
        self._cache: Dict[Tuple[Optional[str], Optional[str]], List[int]] = {}
        # (name, etype, uid) -> φ-match verdict (see is_match).
        self._is_match_cache: Dict[Tuple[Optional[str], Optional[str], int], bool] = {}
        # Normalised-name index over the graph (built lazily once).
        self._name_index: Optional[Dict[str, List[int]]] = None
        self._type_index: Optional[Dict[str, List[str]]] = None

    def _normalized_name_index(self) -> Dict[str, List[int]]:
        if self._name_index is None:
            with self._lock:
                if self._name_index is None:
                    index: Dict[str, List[int]] = {}
                    for entity in self.kg.entities():
                        index.setdefault(
                            normalize_label(entity.name), []
                        ).append(entity.uid)
                    self._name_index = index
        return self._name_index

    def _types_by_canonical(self) -> Dict[str, List[str]]:
        if self._type_index is None:
            with self._lock:
                if self._type_index is None:
                    index: Dict[str, List[str]] = {}
                    for etype in self.kg.types():
                        canon, _ = self.library._canonicalize(
                            self.library._types, etype
                        )
                        index.setdefault(canon, []).append(etype)
                    self._type_index = index
        return self._type_index

    # ------------------------------------------------------------------
    def matches(self, node: QueryNode) -> List[int]:
        """Candidate entity ids for a query node (Def. 3's φ(v)).

        Specific nodes match by name (identical/synonym/abbreviation), then
        filter by type when the query constrains it.  Target nodes match by
        type alone; an untyped target matches every entity.
        """
        key = (node.name, node.etype)
        cached = self._cache.get(key)
        if cached is not None:
            return list(cached)

        if node.is_specific:
            assert node.name is not None
            candidates: List[int] = []
            for surface in self._surface_names(node.name):
                candidates.extend(self._normalized_name_index().get(surface, []))
            if node.etype is not None:
                candidates = [
                    uid
                    for uid in candidates
                    if self.library.match_type(node.etype, self.kg.entity(uid).etype)
                ]
            result = sorted(set(candidates))
        elif node.etype is not None:
            result = []
            for kg_type in self._kg_types_for(node.etype):
                result.extend(self.kg.entities_of_type(kg_type))
            result = sorted(set(result))
        else:
            result = [entity.uid for entity in self.kg.entities()]

        with self._lock:
            self._cache[key] = result
        return list(result)

    def phi_key(self, node: QueryNode) -> Tuple:
        """Everything ``matches(node)`` is a function of beyond the graph.

        What a cross-query cache keys a φ-derived row by (the hop label
        of :mod:`repro.core.semantic_graph`): the library is part of φ,
        and two matchers agree on a node exactly when they share one.
        """
        return (node.name, node.etype, self.library)

    def _surface_names(self, query_name: str) -> List[str]:
        """Normalised name forms to probe in the graph index."""
        forms = {normalize_label(query_name)}
        canon, _ = self.library._canonicalize(self.library._names, query_name)
        forms.add(canon)
        forms.update(self.library.name_variants(query_name))
        return sorted(forms)

    def _kg_types_for(self, query_type: str) -> List[str]:
        canon, _ = self.library._canonicalize(self.library._types, query_type)
        return self._types_by_canonical().get(canon, [])

    def match_count(self, node: QueryNode) -> int:
        """``len(matches(node))`` without copying the cached list."""
        key = (node.name, node.etype)
        if key not in self._cache:
            self.matches(node)
        return len(self._cache[key])

    def is_match(self, node: QueryNode, uid: int) -> bool:
        """Whether a specific entity is a φ-match of the query node.

        Used on the search's hot path (goal tests), so it avoids scanning
        the full candidate list for target nodes.  Verdicts are memoised
        per (name, type, uid) signature — the relation is a pure function
        of the graph and library, and the A* search re-asks it for every
        arrival at a segment boundary.
        """
        key = (node.name, node.etype, uid)
        cached = self._is_match_cache.get(key)
        if cached is not None:
            return cached
        verdict = self._is_match_uncached(node, uid)
        with self._lock:
            if len(self._is_match_cache) >= self._IS_MATCH_CACHE_MAX:
                # Crude bound for long-lived matchers serving diverse
                # workloads: drop everything rather than track recency —
                # the memo refills in one query and correctness never
                # depends on it.
                self._is_match_cache.clear()
            self._is_match_cache[key] = verdict
        return verdict

    def _is_match_uncached(self, node: QueryNode, uid: int) -> bool:
        entity = self.kg.entity(uid)
        if node.etype is not None and not self.library.match_type(node.etype, entity.etype):
            return False
        if node.is_specific:
            assert node.name is not None
            return normalize_label(entity.name) in set(self._surface_names(node.name))
        return True

"""Query workloads simulating QALD-4, WebQuestions and RDF-3x (VII-A).

Each preset dataset gets a workload of :class:`WorkloadQuery` records; a
record bundles the query graph (phrased with the *query* predicate the
user would choose, which need not match the KG schema — that is the point
of the paper), the complexity class of Table VI (simple = 1 sub-query,
medium = 2, complex = 3), and the *correct schemas* that define its
validation set (:mod:`repro.bench.groundtruth`), mirroring how the paper's
benchmarks enumerate answers per predefined schema (Fig. 1).

Also here: the four Q117 query-graph variants of Fig. 1 / Table I, the S4
prior-knowledge builder (semantic instances at a controllable coverage of
the correct schemas), and the QGA predicate-paraphrase dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.s4 import SemanticInstance
from repro.errors import ReproError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.paths import PatternStep, follow_pattern
from repro.kg.schema import DomainSchema
from repro.query.builder import QueryGraphBuilder
from repro.query.model import QueryGraph
from repro.utils.rng import derive_rng

Pattern = Tuple[PatternStep, ...]


@dataclass(frozen=True)
class TruthConstraint:
    """One anchor's correct schemas.

    ``patterns`` walk from the anchor entity to the answer; an answer
    satisfies the constraint when at least one pattern reaches it.
    """

    anchor_name: str
    patterns: Tuple[Pattern, ...]
    answer_type: Optional[str]


@dataclass(frozen=True)
class WorkloadQuery:
    """One benchmark query with its validation-set definition."""

    qid: str
    description: str
    query: QueryGraph
    truth_constraints: Tuple[TruthConstraint, ...]
    complexity: str  # "simple" | "medium" | "complex"


# ----------------------------------------------------------------------
# shared pattern vocabularies (DBpedia-like)
# ----------------------------------------------------------------------

def production_patterns() -> Tuple[Pattern, ...]:
    """Correct schemas for "automobile produced in <country>" (Fig. 1)."""
    return (
        (("assembly", "-"),),
        (("country", "-"), ("assemblyCity", "-")),
        (("location", "-"), ("manufacturer", "-")),
        (("locationCountry", "-"), ("manufacturer", "-")),
        (("location", "-"), ("assemblyCompany", "-")),
        (("locationCountry", "-"), ("assemblyCompany", "-")),
        (("product", "+"),),
    )


def nationality_patterns() -> Tuple[Pattern, ...]:
    return (
        (("nationality", "-"),),
        (("citizenship", "-"),),
        (("country", "-"), ("birthPlace", "-")),
    )


def company_location_patterns() -> Tuple[Pattern, ...]:
    return (
        (("location", "-"),),
        (("locationCountry", "-"),),
    )


def club_country_patterns() -> Tuple[Pattern, ...]:
    return (
        (("clubCountry", "-"),),
        (("country", "-"), ("stadiumCity", "-"), ("ground", "-")),
    )


def club_member_patterns() -> Tuple[Pattern, ...]:
    """From a country anchor to persons playing for that country's clubs."""
    return (
        (("clubCountry", "-"), ("team", "-")),
        (("clubCountry", "-"), ("playsFor", "-")),
    )


def engine_origin_patterns() -> Tuple[Pattern, ...]:
    """From a country anchor to automobiles whose engine is made there."""
    return (
        (("location", "-"), ("engineMaker", "-"), ("engine", "-")),
        (("locationCountry", "-"), ("engineMaker", "-"), ("engine", "-")),
        (("location", "-"), ("engineMaker", "-"), ("powertrain", "-")),
    )


def book_author_patterns() -> Tuple[Pattern, ...]:
    """From a country anchor to books whose author holds its nationality."""
    return (
        (("nationality", "-"), ("author", "-")),
        (("citizenship", "-"), ("author", "-")),
    )


# ----------------------------------------------------------------------
# Q117 variants (Fig. 1 / Table I)
# ----------------------------------------------------------------------

def q117_variants() -> Dict[str, QueryGraph]:
    """The four query graphs of Fig. 1 for "cars produced in Germany"."""
    g1 = (
        QueryGraphBuilder()
        .target("v1", "Car")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "assembly", "v2")
        .build()
    )
    g2 = (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "GER", "Country")
        .edge("e1", "v1", "assembly", "v2")
        .build()
    )
    g3 = (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
    )
    g4 = (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "assembly", "v2")
        .build()
    )
    return {"G1": g1, "G2": g2, "G3": g3, "G4": g4}


def q117_truth_constraint() -> TruthConstraint:
    return TruthConstraint(
        anchor_name="Germany",
        patterns=production_patterns(),
        answer_type="Automobile",
    )


# ----------------------------------------------------------------------
# workload builders
# ----------------------------------------------------------------------

def _simple(qid, description, answer_type, anchor, anchor_type, predicate, patterns):
    query = (
        QueryGraphBuilder()
        .target("v1", answer_type)
        .specific("v2", anchor, anchor_type)
        .edge("e1", "v1", predicate, "v2")
        .build()
    )
    return WorkloadQuery(
        qid=qid,
        description=description,
        query=query,
        truth_constraints=(
            TruthConstraint(anchor, tuple(patterns), answer_type),
        ),
        complexity="simple",
    )


def dbpedia_workload() -> List[WorkloadQuery]:
    """QALD-4-flavoured queries over the DBpedia-like dataset."""
    queries: List[WorkloadQuery] = []

    queries.append(
        _simple("D1", "cars produced in Germany", "Automobile",
                "Germany", "Country", "product", production_patterns())
    )
    queries.append(
        _simple("D2", "cars produced in China", "Automobile",
                "China", "Country", "assembly", production_patterns())
    )
    queries.append(
        _simple("D3", "people of Korean nationality", "Person",
                "Korea", "Country", "nationality", nationality_patterns())
    )
    queries.append(
        _simple("D4", "companies located in Japan", "Company",
                "Japan", "Country", "location", company_location_patterns())
    )
    queries.append(
        _simple("D5", "soccer clubs of England", "SoccerClub",
                "England", "Country", "clubCountry", club_country_patterns())
    )
    queries.append(
        _simple("D6", "cars produced in France", "Automobile",
                "France", "Country", "manufacturer", production_patterns())
    )

    queries.append(
        _simple("D13", "cars with German engines", "Automobile",
                "Germany", "Country", "engine", engine_origin_patterns())
    )

    # D7: books written by Spanish authors — one sub-query of two edges.
    d7_query = (
        QueryGraphBuilder()
        .target("v1", "Book")
        .target("v2", "Person")
        .specific("v3", "Spain", "Country")
        .edge("e1", "v1", "author", "v2")
        .edge("e2", "v2", "nationality", "v3")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="D7",
            description="books written by Spanish authors",
            query=d7_query,
            truth_constraints=(
                TruthConstraint("Spain", book_author_patterns(), "Book"),
            ),
            complexity="simple",
        )
    )

    # D8 (medium): cars assembled in China with German engines (Fig. 3a).
    d8_query = (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "China", "Country")
        .target("v3", "Engine")
        .specific("v4", "Germany", "Country")
        .edge("e1", "v1", "assembly", "v2")
        .edge("e2", "v1", "engine", "v3")
        .edge("e3", "v3", "manufacturer", "v4")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="D8",
            description="cars assembled in China with German engines",
            query=d8_query,
            truth_constraints=(
                TruthConstraint("China", production_patterns(), "Automobile"),
                TruthConstraint("Germany", engine_origin_patterns(), "Automobile"),
            ),
            complexity="medium",
        )
    )

    # D9 (medium): Korean players at English clubs.
    d9_query = (
        QueryGraphBuilder()
        .target("v1", "Person")
        .specific("v2", "Korea", "Country")
        .target("v3", "SoccerClub")
        .specific("v4", "England", "Country")
        .edge("e1", "v1", "nationality", "v2")
        .edge("e2", "v1", "team", "v3")
        .edge("e3", "v3", "clubCountry", "v4")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="D9",
            description="Korean players at English clubs",
            query=d9_query,
            truth_constraints=(
                TruthConstraint("Korea", nationality_patterns(), "Person"),
                TruthConstraint("England", club_member_patterns(), "Person"),
            ),
            complexity="medium",
        )
    )

    # D10 (medium): German cars with Korean engines.
    d10_query = (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .target("v3", "Engine")
        .specific("v4", "Korea", "Country")
        .edge("e1", "v1", "product", "v2")
        .edge("e2", "v1", "engine", "v3")
        .edge("e3", "v3", "manufacturer", "v4")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="D10",
            description="German cars with Korean engines",
            query=d10_query,
            truth_constraints=(
                TruthConstraint("Germany", production_patterns(), "Automobile"),
                TruthConstraint("Korea", engine_origin_patterns(), "Automobile"),
            ),
            complexity="medium",
        )
    )

    # D11 (complex): Spanish players at clubs of England and of Spain
    # (Fig. 16a).
    d11_query = (
        QueryGraphBuilder()
        .target("v1", "Person")
        .specific("v2", "Spain", "Country")
        .target("v3", "SoccerClub")
        .specific("v4", "England", "Country")
        .target("v5", "SoccerClub")
        .specific("v6", "Spain", "Country")
        .edge("e1", "v1", "nationality", "v2")
        .edge("e2", "v1", "team", "v3")
        .edge("e3", "v3", "clubCountry", "v4")
        .edge("e4", "v1", "playsFor", "v5")
        .edge("e5", "v5", "clubCountry", "v6")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="D11",
            description="Spanish players at English and Spanish clubs",
            query=d11_query,
            truth_constraints=(
                TruthConstraint("Spain", nationality_patterns(), "Person"),
                TruthConstraint("England", club_member_patterns(), "Person"),
                TruthConstraint("Spain", club_member_patterns(), "Person"),
            ),
            complexity="complex",
        )
    )

    # D12 (complex): Chinese cars with German engines and Italian design.
    d12_query = (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "China", "Country")
        .target("v3", "Engine")
        .specific("v4", "Germany", "Country")
        .target("v5", "Company")
        .specific("v6", "Italy", "Country")
        .edge("e1", "v1", "assembly", "v2")
        .edge("e2", "v1", "engine", "v3")
        .edge("e3", "v3", "manufacturer", "v4")
        .edge("e4", "v1", "designCompany", "v5")
        .edge("e5", "v5", "location", "v6")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="D12",
            description="Chinese cars with German engines and Italian design",
            query=d12_query,
            truth_constraints=(
                TruthConstraint("China", production_patterns(), "Automobile"),
                TruthConstraint("Germany", engine_origin_patterns(), "Automobile"),
                TruthConstraint(
                    "Italy",
                    (
                        (("location", "-"), ("designCompany", "-")),
                        (("locationCountry", "-"), ("designCompany", "-")),
                    ),
                    "Automobile",
                ),
            ),
            complexity="complex",
        )
    )
    return queries


def freebase_workload() -> List[WorkloadQuery]:
    """WebQuestions-flavoured queries over the Freebase-like dataset."""
    film_origin = (
        (("countryOfOrigin", "-"),),
        (("filmCountry", "-"),),
        (("studioCountry", "-"), ("producedBy", "-")),
        (("studioCountry", "-"), ("distributor", "-")),
    )
    actor_from = (
        (("nationality", "-"),),
        (("cityCountry", "-"), ("birthPlace", "-")),
    )
    director_from = (
        (("citizenOf", "-"),),
        (("cityCountry", "-"), ("bornIn", "-")),
    )
    queries: List[WorkloadQuery] = []
    queries.append(
        _simple("F1", "films from Korea", "Film",
                "Korea", "Country", "countryOfOrigin", film_origin)
    )
    queries.append(
        _simple("F2", "films from France", "Film",
                "France", "Country", "filmCountry", film_origin)
    )
    queries.append(
        _simple("F3", "actors from Japan", "Actor",
                "Japan", "Country", "nationality", actor_from)
    )
    queries.append(
        _simple("F4", "directors from Germany", "Director",
                "Germany", "Country", "citizenOf", director_from)
    )
    queries.append(
        _simple("F5", "studios based in the USA", "Studio",
                "USA", "Country", "studioCountry",
                ((("studioCountry", "-"),),
                 (("cityCountry", "-"), ("locatedIn", "-"))))
    )

    # F6: films starring Korean actors (one 2-edge sub-query).
    f6_query = (
        QueryGraphBuilder()
        .target("v1", "Film")
        .target("v2", "Actor")
        .specific("v3", "Korea", "Country")
        .edge("e1", "v1", "performance", "v2")
        .edge("e2", "v2", "citizenOf", "v3")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="F6",
            description="films starring Korean actors",
            query=f6_query,
            truth_constraints=(
                TruthConstraint(
                    "Korea",
                    (
                        (("nationality", "-"), ("starring", "-")),
                        (("nationality", "-"), ("actedIn", "+")),
                        (("nationality", "-"), ("performance", "-")),
                    ),
                    "Film",
                ),
            ),
            complexity="simple",
        )
    )

    # F7 (medium): French films starring Japanese actors.
    f7_query = (
        QueryGraphBuilder()
        .target("v1", "Film")
        .specific("v2", "France", "Country")
        .target("v3", "Actor")
        .specific("v4", "Japan", "Country")
        .edge("e1", "v1", "countryOfOrigin", "v2")
        .edge("e2", "v1", "starring", "v3")
        .edge("e3", "v3", "nationality", "v4")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="F7",
            description="French films starring Japanese actors",
            query=f7_query,
            truth_constraints=(
                TruthConstraint("France", film_origin, "Film"),
                TruthConstraint(
                    "Japan",
                    (
                        (("nationality", "-"), ("starring", "-")),
                        (("nationality", "-"), ("actedIn", "+")),
                    ),
                    "Film",
                ),
            ),
            complexity="medium",
        )
    )

    # F8 (medium): Korean films directed by German directors.
    f8_query = (
        QueryGraphBuilder()
        .target("v1", "Film")
        .specific("v2", "Korea", "Country")
        .target("v3", "Director")
        .specific("v4", "Germany", "Country")
        .edge("e1", "v1", "filmCountry", "v2")
        .edge("e2", "v1", "directedBy", "v3")
        .edge("e3", "v3", "citizenOf", "v4")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="F8",
            description="Korean films directed by German directors",
            query=f8_query,
            truth_constraints=(
                TruthConstraint("Korea", film_origin, "Film"),
                TruthConstraint(
                    "Germany",
                    (
                        (("citizenOf", "-"), ("directedBy", "-")),
                        (("cityCountry", "-"), ("bornIn", "-"), ("directedBy", "-")),
                    ),
                    "Film",
                ),
            ),
            complexity="medium",
        )
    )

    # F9 (complex): USA films starring Japanese actors, made by US studios.
    f9_query = (
        QueryGraphBuilder()
        .target("v1", "Film")
        .specific("v2", "USA", "Country")
        .target("v3", "Actor")
        .specific("v4", "Japan", "Country")
        .target("v5", "Studio")
        .specific("v6", "USA", "Country")
        .edge("e1", "v1", "countryOfOrigin", "v2")
        .edge("e2", "v1", "starring", "v3")
        .edge("e3", "v3", "nationality", "v4")
        .edge("e4", "v1", "producedBy", "v5")
        .edge("e5", "v5", "studioCountry", "v6")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="F9",
            description="US films starring Japanese actors from US studios",
            query=f9_query,
            truth_constraints=(
                TruthConstraint("USA", film_origin, "Film"),
                TruthConstraint(
                    "Japan",
                    ((("nationality", "-"), ("starring", "-")),),
                    "Film",
                ),
                TruthConstraint(
                    "USA",
                    ((("studioCountry", "-"), ("producedBy", "-")),),
                    "Film",
                ),
            ),
            complexity="complex",
        )
    )
    return queries


def yago2_workload() -> List[WorkloadQuery]:
    """RDF-3x-flavoured queries over the YAGO2-like dataset."""
    born_in_country = (
        (("isLocatedIn", "-"), ("wasBornIn", "-")),
        (("cityOf", "-"), ("wasBornIn", "-")),
        (("isCitizenOf", "-"),),
    )
    writer_from = (
        (("isLocatedIn", "-"), ("birthCity", "-")),
        (("cityOf", "-"), ("birthCity", "-")),
        (("citizenOf", "-"),),
    )
    queries: List[WorkloadQuery] = []
    queries.append(
        _simple("Y1", "scientists born in Germany", "Scientist",
                "Germany", "Country", "wasBornIn", born_in_country)
    )
    queries.append(
        _simple("Y2", "writers from France", "Writer",
                "France", "Country", "citizenOf", writer_from)
    )
    queries.append(
        _simple("Y3", "scientists who are citizens of England", "Scientist",
                "England", "Country", "isCitizenOf", born_in_country)
    )
    queries.append(
        _simple("Y4", "politicians from Italy", "Politician",
                "Italy", "Country", "nationality",
                ((("nationality", "-"),),
                 (("isLocatedIn", "-"), ("placeOfBirth", "-"))))
    )

    # Y5: books created by German writers (one 2-edge sub-query).
    y5_query = (
        QueryGraphBuilder()
        .target("v1", "Book")
        .target("v2", "Writer")
        .specific("v3", "Germany", "Country")
        .edge("e1", "v1", "created", "v2")
        .edge("e2", "v2", "citizenOf", "v3")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="Y5",
            description="books created by German writers",
            query=y5_query,
            truth_constraints=(
                TruthConstraint(
                    "Germany",
                    (
                        (("citizenOf", "-"), ("created", "+")),
                        (("citizenOf", "-"), ("wrote", "+")),
                    ),
                    "Book",
                ),
            ),
            complexity="simple",
        )
    )

    # Y6 (medium): German scientists who work at English universities.
    y6_query = (
        QueryGraphBuilder()
        .target("v1", "Scientist")
        .specific("v2", "Germany", "Country")
        .target("v3", "University")
        .specific("v4", "England", "Country")
        .edge("e1", "v1", "isCitizenOf", "v2")
        .edge("e2", "v1", "worksAt", "v3")
        .edge("e3", "v3", "isLocatedIn", "v4")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="Y6",
            description="German scientists at English universities",
            query=y6_query,
            truth_constraints=(
                TruthConstraint("Germany", born_in_country, "Scientist"),
                TruthConstraint(
                    "England",
                    (
                        (("isLocatedIn", "-"), ("universityLocation", "-"), ("worksAt", "-")),
                        (("isLocatedIn", "-"), ("universityLocation", "-"), ("graduatedFrom", "-")),
                    ),
                    "Scientist",
                ),
            ),
            complexity="medium",
        )
    )

    # Y7 (medium): French writers who studied at English universities.
    y7_query = (
        QueryGraphBuilder()
        .target("v1", "Writer")
        .specific("v2", "France", "Country")
        .target("v3", "University")
        .specific("v4", "England", "Country")
        .edge("e1", "v1", "citizenOf", "v2")
        .edge("e2", "v1", "studiedAt", "v3")
        .edge("e3", "v3", "isLocatedIn", "v4")
        .build()
    )
    queries.append(
        WorkloadQuery(
            qid="Y7",
            description="French writers at English universities",
            query=y7_query,
            truth_constraints=(
                TruthConstraint("France", writer_from, "Writer"),
                TruthConstraint(
                    "England",
                    ((("isLocatedIn", "-"), ("universityLocation", "-"), ("studiedAt", "-")),),
                    "Writer",
                ),
            ),
            complexity="medium",
        )
    )
    return queries


WORKLOADS = {
    "dbpedia": dbpedia_workload,
    "freebase": freebase_workload,
    "yago2": yago2_workload,
}


def workload_for(preset: str) -> List[WorkloadQuery]:
    try:
        factory = WORKLOADS[preset]
    except KeyError:
        raise ReproError(f"no workload for preset {preset!r}") from None
    return factory()


# ----------------------------------------------------------------------
# baseline resources
# ----------------------------------------------------------------------

def s4_prior_instances(
    kg: KnowledgeGraph,
    queries: Sequence[WorkloadQuery],
    *,
    coverage: float = 0.7,
    per_pattern: int = 6,
    seed: int = 0,
) -> List[SemanticInstance]:
    """Prior knowledge for S4: example pairs from a subset of schemas.

    ``coverage`` is the fraction of each query's correct schemas included
    (the paper: "the quality of prior knowledge determines the quality of
    mined patterns"); the default 0.7 lands S4 between SGQ and the
    structural baselines, as in Table I.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ReproError("coverage must be in [0, 1]")
    rng = derive_rng(seed, "s4:instances")
    graph = CompactGraph.freeze(kg)
    instances: List[SemanticInstance] = []
    for workload_query in queries:
        predicates = [e.predicate for e in workload_query.query.edges()]
        for constraint in workload_query.truth_constraints:
            anchors = kg.entities_named(constraint.anchor_name)
            if not anchors:
                continue
            patterns = list(constraint.patterns)
            keep = max(1, int(round(coverage * len(patterns))))
            order = rng.permutation(len(patterns))
            for index in list(order)[:keep]:
                pattern = patterns[index]
                for anchor in anchors:
                    reached = sorted(follow_pattern(graph, anchor, pattern))
                    for uid in reached[:per_pattern]:
                        # The S4 instance relates the query's first
                        # predicate (the user phrasing) to this pair.
                        instances.append(
                            SemanticInstance(
                                predicate=predicates[0],
                                subject_uid=uid,
                                object_uid=anchor,
                            )
                        )
    return instances


def qga_aliases(schema: DomainSchema, per_predicate: int = 1) -> Dict[str, List[str]]:
    """QGA's relation-paraphrase dictionary.

    QGA's paraphrasing maps a query relation word onto *a* database
    predicate, not onto the whole synonym cluster; one alias per predicate
    (the cluster's first member) reproduces its Table I recall profile —
    it recovers the primary 1-hop schema and nothing else.
    """
    clusters = schema.clusters()
    aliases: Dict[str, List[str]] = {}
    for members in clusters.values():
        for predicate in members:
            aliases[predicate] = [m for m in members if m != predicate][:per_predicate]
    return aliases

"""Domain schemas for synthetic knowledge-graph generation.

The paper evaluates on DBpedia, Freebase and YAGO2.  We cannot ship those
datasets, so each is replaced by a *domain schema*: a typed predicate
vocabulary organised into **semantic clusters** (predicates that a KG
embedding should learn to be similar, e.g. ``product`` / ``assembly`` /
``manufacturer``), per-type entity populations with named anchor entities
(``Germany``, ``Audi_TT``...), and synonym/abbreviation families that feed
the transformation library of Section IV-B (Table III).

The three presets at the bottom (:func:`dbpedia_like_schema`,
:func:`freebase_like_schema`, :func:`yago2_like_schema`) mirror the flavour
of each paper dataset: DBpedia-like is the automotive/general domain used in
every running example of the paper; Freebase-like is entertainment-heavy
with a larger type vocabulary; YAGO2-like is geo/biographic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SchemaError


@dataclass(frozen=True)
class PredicateSpec:
    """One predicate in the schema.

    Attributes:
        name: predicate label, unique within a schema.
        source_type: entity type of the edge source.
        target_type: entity type of the edge target.
        cluster: semantic-cluster label.  Predicates in the same cluster are
            near-synonyms (the embedding is expected to place them close).
        density: expected number of outgoing edges of this predicate per
            source entity (may be < 1 for sparse relations).
        coherence: optional per-predicate latent-coherence override.
    """

    name: str
    source_type: str
    target_type: str
    cluster: str
    density: float = 1.0
    #: per-predicate latent-coherence override (None = generator default).
    #: Geographic backbone facts (city -> country) are near-perfectly
    #: coherent in real KGs, unlike entity-choice facts (car -> company).
    coherence: Optional[float] = None


@dataclass(frozen=True)
class SynonymFamily:
    """Synonyms/abbreviations for one canonical type or entity name.

    ``kind`` is ``"type"`` or ``"name"``, matching the two transformation
    cases of Definition 3.
    """

    canonical: str
    synonyms: Tuple[str, ...] = ()
    abbreviations: Tuple[str, ...] = ()
    kind: str = "type"

    def variants(self) -> Tuple[str, ...]:
        """All non-canonical surface forms."""
        return self.synonyms + self.abbreviations


@dataclass
class TypePopulation:
    """Entity population for one type.

    ``count`` is the number of entities at generator scale 1.0; ``named``
    lists anchor entities that always exist with exactly these names (the
    workloads reference them), generated before the anonymous remainder.
    """

    etype: str
    count: int
    named: Tuple[str, ...] = ()
    #: closed-world types (countries, languages, genres) keep their base
    #: population regardless of the generator scale — there is a fixed
    #: number of countries in the world, however big the graph gets.
    scalable: bool = True

    def __post_init__(self) -> None:
        if self.count < len(self.named):
            raise SchemaError(
                f"type {self.etype!r}: count {self.count} is smaller than "
                f"the {len(self.named)} named instances"
            )


@dataclass
class DomainSchema:
    """A complete generator schema: populations, predicates, synonyms.

    ``cluster_groups`` and ``affinity_overrides`` encode the *semantic
    geometry* a well-trained embedding exhibits on the corresponding real
    dataset: clusters in the same group are related domains (their
    predicates chain in correct schemas, e.g. production + geo for "cars
    produced in Germany"), and explicit pair overrides pin specific
    affinities (the paper's Fig. 2 reports sim(product, nationality) =
    0.81 — related but clearly below the production cluster).  The
    context-oracle predicate space is built from these targets.
    """

    name: str
    populations: List[TypePopulation]
    predicates: List[PredicateSpec]
    synonym_families: List[SynonymFamily] = field(default_factory=list)
    cluster_groups: Dict[str, str] = field(default_factory=dict)
    affinity_overrides: Dict[frozenset, float] = field(default_factory=dict)
    #: pins for specific predicate pairs (overrides cluster affinity), e.g.
    #: the paper's Fig. 2 reports sim(product, assembly) = 0.98 exactly.
    predicate_affinity_overrides: Dict[frozenset, float] = field(default_factory=dict)

    #: the type anchoring latent coherence (usually the geographic root).
    #: Entities of ``latent_types`` carry a hidden attribute drawn from this
    #: type's population; edges between latent-carrying entities agree with
    #: the attribute with probability ``GeneratorConfig.coherence``.  This
    #: reproduces the cross-edge consistency of real KGs (a car assembled
    #: in Germany usually also has a German manufacturer), without which
    #: multi-hop schemas reach unrelated answers.
    latent_domain_type: Optional[str] = None
    latent_types: Tuple[str, ...] = ()

    #: target cosine between two predicates of the same cluster
    intra_cluster_affinity: float = 0.93
    #: target cosine between clusters of the same group (unless overridden)
    group_affinity: float = 0.82
    #: target cosine between unrelated clusters
    background_affinity: float = 0.15

    def __post_init__(self) -> None:
        self._validate()

    def cluster_affinity(self, cluster_a: str, cluster_b: str) -> float:
        """Target similarity between two clusters (symmetric)."""
        if cluster_a == cluster_b:
            return self.intra_cluster_affinity
        key = frozenset((cluster_a, cluster_b))
        override = self.affinity_overrides.get(key)
        if override is not None:
            return override
        group_a = self.cluster_groups.get(cluster_a)
        group_b = self.cluster_groups.get(cluster_b)
        if group_a is not None and group_a == group_b:
            return self.group_affinity
        return self.background_affinity

    def _validate(self) -> None:
        types = {p.etype for p in self.populations}
        if len(types) != len(self.populations):
            raise SchemaError(f"schema {self.name!r} declares a duplicate type")
        seen = set()
        for spec in self.predicates:
            if spec.name in seen:
                raise SchemaError(f"duplicate predicate {spec.name!r}")
            seen.add(spec.name)
            if spec.source_type not in types:
                raise SchemaError(
                    f"predicate {spec.name!r}: unknown source type {spec.source_type!r}"
                )
            if spec.target_type not in types:
                raise SchemaError(
                    f"predicate {spec.name!r}: unknown target type {spec.target_type!r}"
                )
            if spec.density <= 0:
                raise SchemaError(f"predicate {spec.name!r}: density must be positive")

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def population(self, etype: str) -> TypePopulation:
        for pop in self.populations:
            if pop.etype == etype:
                return pop
        raise SchemaError(f"unknown type {etype!r} in schema {self.name!r}")

    def predicate(self, name: str) -> PredicateSpec:
        for spec in self.predicates:
            if spec.name == name:
                return spec
        raise SchemaError(f"unknown predicate {name!r} in schema {self.name!r}")

    def clusters(self) -> Dict[str, List[str]]:
        """Map cluster label -> predicate names in that cluster."""
        out: Dict[str, List[str]] = {}
        for spec in self.predicates:
            out.setdefault(spec.cluster, []).append(spec.name)
        return out

    def cluster_of(self, predicate: str) -> str:
        return self.predicate(predicate).cluster


# ----------------------------------------------------------------------
# Preset schemas
# ----------------------------------------------------------------------

COUNTRY_NAMES = (
    "Germany",
    "China",
    "Korea",
    "England",
    "Spain",
    "France",
    "Italy",
    "Japan",
    "USA",
    "Brazil",
    "India",
    "Sweden",
)

AUTOMOBILE_NAMES = (
    "Audi_TT",
    "BMW_320",
    "BMW_X6",
    "BMW_Z4",
    "KIA_K5",
    "Lamando",
    "VW_Golf",
    "Fiat_500",
)

COMPANY_NAMES = (
    "Volkswagen",
    "BMW",
    "Audi",
    "KIA_Motors",
    "Fiat",
    "Hyundai",
)

COUNTRY_SYNONYMS = [
    SynonymFamily(
        "Germany",
        synonyms=("Deutschland",),
        abbreviations=("GER", "FRG", "Federal Republic of Germany"),
        kind="name",
    ),
    SynonymFamily("China", synonyms=("PRC",), abbreviations=("CHN",), kind="name"),
    SynonymFamily("Korea", synonyms=("South Korea",), abbreviations=("KOR",), kind="name"),
    SynonymFamily("England", synonyms=("Britain",), abbreviations=("ENG", "UK"), kind="name"),
    SynonymFamily("Spain", synonyms=("Espana",), abbreviations=("ESP",), kind="name"),
    SynonymFamily("USA", synonyms=("United States", "America"), abbreviations=("US",), kind="name"),
]


def dbpedia_like_schema() -> DomainSchema:
    """Automotive/general-domain schema mirroring the paper's DBpedia examples.

    Includes every predicate named in the paper's figures: ``product``,
    ``assembly``, ``manufacturer``, ``designCompany``, ``country``,
    ``location``, ``locationCountry``, ``engine``, ``designer``,
    ``nationality``, ``language``, ``team``, ``ground``, plus distractor
    clusters that semantic pruning must reject.
    """
    populations = [
        TypePopulation("Automobile", 260, AUTOMOBILE_NAMES),
        TypePopulation("Country", 14, COUNTRY_NAMES, scalable=False),
        TypePopulation("City", 80, ("Regensburg", "Munich", "Seoul", "Shanghai", "London", "Madrid")),
        TypePopulation("Company", 70, COMPANY_NAMES),
        TypePopulation("Person", 220, ("Peter_Schreyer", "Ferdinand_Porsche")),
        TypePopulation("Engine", 90, ("EA211_l4_TSI",)),
        TypePopulation("Language", 12, ("German", "Chinese", "Korean", "English", "Spanish"), scalable=False),
        TypePopulation("SoccerClub", 60, ("Real_Madrid", "Chelsea", "Bayern")),
        TypePopulation("Stadium", 50, ("Allianz_Arena", "Stamford_Bridge")),
        TypePopulation("University", 40, ()),
        TypePopulation("Book", 80, ()),
        TypePopulation("Region", 30, ("Bavaria",)),
    ]
    predicates = [
        # production cluster: the paper's central example (Figs. 1-2, 8)
        PredicateSpec("assembly", "Automobile", "Country", "production", 0.3, coherence=0.97),
        PredicateSpec("assemblyCity", "Automobile", "City", "production", 0.65, coherence=0.98),
        PredicateSpec("assemblyCompany", "Automobile", "Company", "production", 0.4, coherence=0.97),
        PredicateSpec("manufacturer", "Automobile", "Company", "production", 0.55, coherence=0.95),
        PredicateSpec("designCompany", "Automobile", "Company", "production", 0.3, coherence=0.5),
        # The headline query predicate.  Rare on purpose: the paper's found-
        # schema table for Q117 contains no ``product`` edge, so in the real
        # DBpedia snapshot the predicate barely occurs near the anchors —
        # and a dense exact-match predicate would let weight-1.0 padded
        # chains dominate the geometric-mean pss.
        PredicateSpec("product", "Company", "Automobile", "production", 0.05),
        # geo-location cluster: completes the n-hop correct schemas
        PredicateSpec("country", "City", "Country", "geo", 0.95, coherence=0.99),
        PredicateSpec("location", "Company", "Country", "geo", 0.7, coherence=0.97),
        PredicateSpec("locationCountry", "Company", "Country", "geo", 0.45, coherence=0.97),
        PredicateSpec("federalState", "City", "Region", "geo", 0.5, coherence=0.98),
        PredicateSpec("regionCountry", "Region", "Country", "geo", 0.9, coherence=0.99),
        # people cluster
        PredicateSpec("designer", "Automobile", "Person", "creator", 0.5, coherence=0.6),
        PredicateSpec("founder", "Company", "Person", "creator", 0.5),
        PredicateSpec("author", "Book", "Person", "creator", 0.95),
        # citizenship cluster
        PredicateSpec("nationality", "Person", "Country", "citizenship", 0.35, coherence=0.97),
        PredicateSpec("birthPlace", "Person", "City", "citizenship", 0.85, coherence=0.97),
        PredicateSpec("citizenship", "Person", "Country", "citizenship", 0.2),
        # parts cluster
        PredicateSpec("engine", "Automobile", "Engine", "component", 0.9, coherence=0.25),
        PredicateSpec("powertrain", "Automobile", "Engine", "component", 0.3, coherence=0.35),
        PredicateSpec("engineMaker", "Engine", "Company", "component", 0.9, coherence=0.96),
        # language cluster (the "different meaning" example of Fig. 6)
        PredicateSpec("language", "Country", "Language", "language", 0.95),
        PredicateSpec("officialLanguage", "Country", "Language", "language", 0.55),
        PredicateSpec("spokenIn", "Language", "Country", "language", 0.8),
        # sports cluster (Fig. 16 complex-query example)
        PredicateSpec("team", "Person", "SoccerClub", "sports", 0.7, coherence=0.35),
        PredicateSpec("playsFor", "Person", "SoccerClub", "sports", 0.5, coherence=0.35),
        PredicateSpec("ground", "SoccerClub", "Stadium", "sports-venue", 0.9),
        PredicateSpec("stadiumCity", "Stadium", "City", "sports-venue", 0.9, coherence=0.98),
        PredicateSpec("clubCountry", "SoccerClub", "Country", "sports-venue", 0.35, coherence=0.98),
        # academic distractors
        PredicateSpec("almaMater", "Person", "University", "academic", 0.4, coherence=0.55),
        PredicateSpec("universityCountry", "University", "Country", "academic", 0.9, coherence=0.99),
        # misc distractors that semantic pruning must reject
        PredicateSpec("successor", "Automobile", "Automobile", "lineage", 0.3),
        PredicateSpec("relatedCar", "Automobile", "Automobile", "lineage", 0.4),
        PredicateSpec("capital", "Country", "City", "capital", 0.9, coherence=0.99),
        # market distractors: structurally adjacent to Country anchors but
        # semantically unrelated to production — these are what defeat the
        # predicate-blind baselines (GraB, p-hom, NeMa), as in Table I.
        PredicateSpec("popularIn", "Automobile", "Country", "market", 0.7, coherence=0.2),
        PredicateSpec("exportedTo", "Automobile", "Country", "market", 0.5, coherence=0.15),
        PredicateSpec("travelledTo", "Person", "Country", "travel", 0.5, coherence=0.15),
        PredicateSpec("friendlyMatchIn", "SoccerClub", "Country", "travel", 0.5, coherence=0.1),
        PredicateSpec("exportMarket", "Company", "Country", "market", 0.5, coherence=0.15),
    ]
    synonym_families = COUNTRY_SYNONYMS + [
        SynonymFamily(
            "Automobile",
            synonyms=("Car", "Motorcar", "Auto", "Vehicle"),
            kind="type",
        ),
        SynonymFamily("Company", synonyms=("Firm", "Corporation"), abbreviations=("Corp",), kind="type"),
        SynonymFamily("Person", synonyms=("Human", "Individual"), kind="type"),
        SynonymFamily("SoccerClub", synonyms=("FootballClub",), abbreviations=("FC",), kind="type"),
        SynonymFamily("Engine", synonyms=("Motor", "Device"), kind="type"),
        SynonymFamily("Country", synonyms=("Nation", "State"), kind="type"),
    ]
    cluster_groups = {
        # The "industrial/biographic core": their predicates chain inside
        # correct schemas, so a trained embedding places them close.
        "production": "core",
        "geo": "core",
        "component": "core",
        "creator": "core",
        "citizenship": "core",
        "sports": "sport",
        "sports-venue": "sport",
        # language / capital / academic / lineage stay in their own
        # (implicit) groups: semantically distinct, pruned by τ = 0.8.
    }
    predicate_affinity_overrides = {
        # Fig. 2's headline value: the intent cluster's best predicate
        # dominates every padded multi-hop combination.
        frozenset(("product", "assembly")): 0.98,
        frozenset(("product", "manufacturer")): 0.95,
        # "Designed by" is semantically weaker than "produced in" (the
        # paper's designCompany-location schema is only "reasonable", not
        # validated); keeping it just above τ stops design chains from
        # outranking correct 2-hop schemas.
        frozenset(("product", "designCompany")): 0.85,
        frozenset(("assembly", "designCompany")): 0.83,
        frozenset(("manufacturer", "designCompany")): 0.86,
    }
    affinity_overrides = {
        # Correct production schemas traverse geo edges (assemblyCity +
        # country, manufacturer + location): Fig. 8 weights country at 0.98.
        frozenset(("production", "geo")): 0.90,
        # Person-chains: birthPlace + country, author/designer + nationality.
        frozenset(("geo", "citizenship")): 0.88,
        frozenset(("creator", "citizenship")): 0.87,
        # Club grounds resolve through stadium/city geography.
        frozenset(("sports-venue", "geo")): 0.87,
        # Plausible-but-wrong neighbours sit just at/below τ (Fig. 2:
        # sim(product, designer)=0.85, sim(product, nationality)=0.81).
        frozenset(("production", "creator")): 0.83,
        frozenset(("production", "citizenship")): 0.80,
        frozenset(("production", "lineage")): 0.76,
        frozenset(("capital", "geo")): 0.72,
        frozenset(("academic", "geo")): 0.72,
    }
    return DomainSchema(
        "dbpedia-like",
        populations,
        predicates,
        synonym_families,
        cluster_groups=cluster_groups,
        affinity_overrides=affinity_overrides,
        predicate_affinity_overrides=predicate_affinity_overrides,
        latent_domain_type="Country",
        latent_types=(
            "Automobile",
            "City",
            "Company",
            "Person",
            "Engine",
            "Language",
            "SoccerClub",
            "Stadium",
            "University",
            "Book",
            "Region",
        ),
    )


def freebase_like_schema() -> DomainSchema:
    """Entertainment-heavy schema standing in for Freebase.

    Freebase has an order of magnitude more types than DBpedia (Table IV);
    this preset therefore uses a wider type vocabulary and denser relations,
    with film/music clusters replacing the automotive ones.
    """
    populations = [
        TypePopulation("Film", 240, ("Inception", "Parasite", "Amelie")),
        TypePopulation("Actor", 200, ("Leo_DiCaprio", "Song_Kang_ho")),
        TypePopulation("Director", 80, ("Christopher_Nolan", "Bong_Joon_ho")),
        TypePopulation("Country", 14, COUNTRY_NAMES, scalable=False),
        TypePopulation("City", 70, ("Paris", "Seoul", "Los_Angeles")),
        TypePopulation("Studio", 50, ("Warner_Bros", "CJ_Entertainment")),
        TypePopulation("Award", 30, ("Oscar", "Palme_dOr"), scalable=False),
        TypePopulation("Genre", 18, ("Thriller", "Drama", "Comedy"), scalable=False),
        TypePopulation("Musician", 120, ()),
        TypePopulation("Album", 140, ()),
        TypePopulation("Label", 40, ()),
        TypePopulation("Person", 160, ()),
        TypePopulation("University", 40, ()),
        TypePopulation("Language", 12, ("English", "Korean", "French"), scalable=False),
        TypePopulation("TVSeries", 90, ()),
    ]
    predicates = [
        # performance cluster
        PredicateSpec("starring", "Film", "Actor", "performance", 1.8, coherence=0.45),
        PredicateSpec("actedIn", "Actor", "Film", "performance", 0.9, coherence=0.6),
        PredicateSpec("performance", "Film", "Actor", "performance", 0.5, coherence=0.6),
        PredicateSpec("castMember", "TVSeries", "Actor", "performance", 1.2, coherence=0.6),
        # direction cluster
        PredicateSpec("directedBy", "Film", "Director", "direction", 0.95, coherence=0.45),
        PredicateSpec("director", "TVSeries", "Director", "direction", 0.7, coherence=0.6),
        PredicateSpec("filmmaker", "Film", "Director", "direction", 0.3),
        # production cluster
        PredicateSpec("producedBy", "Film", "Studio", "production", 0.8, coherence=0.95),
        PredicateSpec("studio", "TVSeries", "Studio", "production", 0.7),
        PredicateSpec("distributor", "Film", "Studio", "production", 0.4),
        # origin cluster
        PredicateSpec("countryOfOrigin", "Film", "Country", "origin", 0.3, coherence=0.97),
        PredicateSpec("filmCountry", "Film", "Country", "origin", 0.2, coherence=0.97),
        PredicateSpec("studioCountry", "Studio", "Country", "origin", 0.85, coherence=0.97),
        # biographic cluster
        PredicateSpec("birthPlace", "Actor", "City", "biographic", 0.9, coherence=0.97),
        PredicateSpec("bornIn", "Director", "City", "biographic", 0.9, coherence=0.97),
        PredicateSpec("nationality", "Actor", "Country", "biographic", 0.35, coherence=0.97),
        PredicateSpec("citizenOf", "Director", "Country", "biographic", 0.35),
        # geo cluster
        PredicateSpec("cityCountry", "City", "Country", "geo", 0.95, coherence=0.99),
        PredicateSpec("locatedIn", "Studio", "City", "geo", 0.6, coherence=0.97),
        # award cluster
        PredicateSpec("wonAward", "Film", "Award", "award", 0.3),
        PredicateSpec("awarded", "Actor", "Award", "award", 0.25),
        PredicateSpec("prize", "Director", "Award", "award", 0.25),
        # music clusters
        PredicateSpec("performedBy", "Album", "Musician", "music", 0.95),
        PredicateSpec("recordedBy", "Album", "Musician", "music", 0.3),
        PredicateSpec("signedTo", "Musician", "Label", "music-business", 0.6),
        PredicateSpec("releasedOn", "Album", "Label", "music-business", 0.8),
        # misc distractors
        PredicateSpec("genre", "Film", "Genre", "genre", 1.1),
        PredicateSpec("seriesGenre", "TVSeries", "Genre", "genre", 1.0),
        PredicateSpec("spokenLanguage", "Film", "Language", "language", 0.8),
        PredicateSpec("educatedAt", "Director", "University", "academic", 0.5),
        PredicateSpec("spouse", "Actor", "Person", "family", 0.4),
        PredicateSpec("child", "Person", "Person", "family", 0.3),
        # distribution distractors (films screen everywhere).
        PredicateSpec("screenedIn", "Film", "Country", "distribution", 0.9, coherence=0.15),
        PredicateSpec("premieredIn", "Film", "Country", "distribution", 0.4, coherence=0.2),
        PredicateSpec("touredIn", "Musician", "Country", "distribution", 0.5, coherence=0.15),
        PredicateSpec("fanbaseIn", "Actor", "Country", "distribution", 0.5, coherence=0.15),
    ]
    synonym_families = COUNTRY_SYNONYMS + [
        SynonymFamily("Film", synonyms=("Movie", "MotionPicture"), kind="type"),
        SynonymFamily("Actor", synonyms=("Performer", "Thespian"), kind="type"),
        SynonymFamily("Director", synonyms=("Filmmaker",), kind="type"),
        SynonymFamily("Studio", synonyms=("FilmStudio", "ProductionCompany"), kind="type"),
        SynonymFamily("TVSeries", synonyms=("Show", "Series"), abbreviations=("TV",), kind="type"),
    ]
    cluster_groups = {
        "performance": "film",
        "direction": "film",
        "production": "film",
        "origin": "film",
        "biographic": "film",
        "geo": "film",
        "music": "music",
        "music-business": "music",
    }
    affinity_overrides = {
        # Film origin resolves through studios and cities.
        frozenset(("production", "origin")): 0.90,
        frozenset(("origin", "geo")): 0.89,
        frozenset(("biographic", "geo")): 0.88,
        # Cast/crew chains: performance + biographic for "films starring
        # actors born in ..." workloads.
        frozenset(("performance", "biographic")): 0.84,
        frozenset(("direction", "biographic")): 0.84,
        # Plausible-but-wrong neighbours around τ.
        frozenset(("performance", "direction")): 0.83,
    }
    return DomainSchema(
        "freebase-like",
        populations,
        predicates,
        synonym_families,
        cluster_groups=cluster_groups,
        affinity_overrides=affinity_overrides,
        latent_domain_type="Country",
        latent_types=(
            "Film",
            "Actor",
            "Director",
            "City",
            "Studio",
            "Musician",
            "Album",
            "Label",
            "Person",
            "TVSeries",
            "University",
            "Language",
        ),
    )


def yago2_like_schema() -> DomainSchema:
    """Geo/biographic schema standing in for YAGO2.

    YAGO2 is harvested from Wikipedia+WordNet+GeoNames; its flavour is
    biographic facts over places, so the clusters here are birth/death/
    residence/work-style relations over a geographic backbone.
    """
    populations = [
        TypePopulation("Scientist", 200, ("Albert_Einstein", "Marie_Curie")),
        TypePopulation("Politician", 120, ()),
        TypePopulation("Writer", 140, ("Goethe",)),
        TypePopulation("Country", 14, COUNTRY_NAMES, scalable=False),
        TypePopulation("City", 110, ("Ulm", "Warsaw", "Berlin", "Paris", "Weimar")),
        TypePopulation("University", 60, ("ETH_Zurich", "Sorbonne")),
        TypePopulation("Organization", 70, ()),
        TypePopulation("Prize", 25, ("Nobel_Prize",), scalable=False),
        TypePopulation("Book", 150, ("Faust",)),
        TypePopulation("Discovery", 90, ()),
        TypePopulation("Mountain", 40, ()),
        TypePopulation("River", 40, ()),
    ]
    predicates = [
        # birth cluster
        PredicateSpec("wasBornIn", "Scientist", "City", "birth", 0.9, coherence=0.97),
        PredicateSpec("birthCity", "Writer", "City", "birth", 0.8),
        PredicateSpec("placeOfBirth", "Politician", "City", "birth", 0.8),
        # death cluster
        PredicateSpec("diedIn", "Scientist", "City", "death", 0.5),
        PredicateSpec("placeOfDeath", "Writer", "City", "death", 0.5),
        # residence cluster
        PredicateSpec("livesIn", "Scientist", "City", "residence", 0.4),
        PredicateSpec("residence", "Politician", "City", "residence", 0.5),
        # geo backbone
        PredicateSpec("isLocatedIn", "City", "Country", "geo", 0.95, coherence=0.99),
        PredicateSpec("cityOf", "City", "Country", "geo", 0.3, coherence=0.99),
        PredicateSpec("hasCapital", "Country", "City", "capital", 0.9, coherence=0.99),
        PredicateSpec("mountainIn", "Mountain", "Country", "geo-feature", 0.9, coherence=0.99),
        PredicateSpec("riverIn", "River", "Country", "geo-feature", 0.9, coherence=0.99),
        # work cluster
        PredicateSpec("worksAt", "Scientist", "University", "work", 0.85, coherence=0.4),
        PredicateSpec("affiliatedTo", "Scientist", "Organization", "work", 0.4),
        PredicateSpec("memberOf", "Politician", "Organization", "work", 0.7),
        # education cluster
        PredicateSpec("graduatedFrom", "Scientist", "University", "education", 0.6, coherence=0.6),
        PredicateSpec("studiedAt", "Writer", "University", "education", 0.8, coherence=0.4),
        PredicateSpec("universityLocation", "University", "City", "geo", 0.9, coherence=0.98),
        # creation cluster
        PredicateSpec("created", "Writer", "Book", "creation", 0.9),
        PredicateSpec("wrote", "Writer", "Book", "creation", 0.5),
        PredicateSpec("discovered", "Scientist", "Discovery", "creation", 0.5),
        # award cluster
        PredicateSpec("hasWonPrize", "Scientist", "Prize", "award", 0.35),
        PredicateSpec("wonPrize", "Writer", "Prize", "award", 0.25),
        # citizenship cluster
        PredicateSpec("isCitizenOf", "Scientist", "Country", "citizenship", 0.35, coherence=0.97),
        PredicateSpec("citizenOf", "Writer", "Country", "citizenship", 0.35, coherence=0.97),
        PredicateSpec("nationality", "Politician", "Country", "citizenship", 0.35),
        # travel distractors.
        PredicateSpec("travelledTo", "Scientist", "Country", "travel", 0.6, coherence=0.15),
        PredicateSpec("lecturedIn", "Writer", "Country", "travel", 0.5, coherence=0.15),
        PredicateSpec("stateVisitTo", "Politician", "Country", "travel", 0.5, coherence=0.1),
    ]
    synonym_families = COUNTRY_SYNONYMS + [
        SynonymFamily("Scientist", synonyms=("Researcher", "Physicist"), kind="type"),
        SynonymFamily("Writer", synonyms=("Author", "Novelist"), kind="type"),
        SynonymFamily("University", synonyms=("College",), abbreviations=("Uni",), kind="type"),
        SynonymFamily("Prize", synonyms=("Award", "Honor"), kind="type"),
    ]
    cluster_groups = {
        "birth": "bio",
        "death": "bio",
        "residence": "bio",
        "geo": "bio",
        "citizenship": "bio",
        "education": "career",
        "work": "career",
    }
    affinity_overrides = {
        # Biographic facts resolve through the geographic backbone
        # (wasBornIn + isLocatedIn chains).
        frozenset(("birth", "geo")): 0.90,
        frozenset(("citizenship", "geo")): 0.88,
        frozenset(("citizenship", "birth")): 0.85,
        frozenset(("residence", "geo")): 0.86,
        frozenset(("death", "geo")): 0.86,
        # Education chains through campus locations.
        frozenset(("education", "geo")): 0.86,
        frozenset(("work", "geo")): 0.80,
        frozenset(("capital", "geo")): 0.72,
        frozenset(("geo-feature", "geo")): 0.74,
    }
    return DomainSchema(
        "yago2-like",
        populations,
        predicates,
        synonym_families,
        cluster_groups=cluster_groups,
        affinity_overrides=affinity_overrides,
        latent_domain_type="Country",
        latent_types=(
            "Scientist",
            "Politician",
            "Writer",
            "City",
            "University",
            "Organization",
            "Book",
            "Mountain",
            "River",
        ),
    )


PRESET_SCHEMAS = {
    "dbpedia": dbpedia_like_schema,
    "freebase": freebase_like_schema,
    "yago2": yago2_like_schema,
}


def preset_schema(name: str) -> DomainSchema:
    """Look up a preset schema by short name (``dbpedia``/``freebase``/``yago2``)."""
    try:
        factory = PRESET_SCHEMAS[name]
    except KeyError:
        raise SchemaError(
            f"unknown preset {name!r}; available: {sorted(PRESET_SCHEMAS)}"
        ) from None
    return factory()

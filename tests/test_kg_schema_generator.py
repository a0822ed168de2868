"""Tests for domain schemas and the synthetic generator."""

import pytest

from repro.errors import SchemaError
from repro.kg.compact import CompactGraph
from repro.kg.generator import (
    GeneratorConfig,
    SyntheticKGBuilder,
    build_dataset,
    _poisson_like,
)
from repro.kg.schema import (
    DomainSchema,
    PredicateSpec,
    SynonymFamily,
    TypePopulation,
    dbpedia_like_schema,
    freebase_like_schema,
    preset_schema,
    yago2_like_schema,
)
from repro.kg.triples import graph_to_id_triples
from repro.utils.rng import derive_rng


def _edges(kg):
    """Every edge as ``(source, predicate, target)``, off the columns."""
    names = kg.predicates()
    source, target, predicate = (column.tolist() for column in kg.edge_columns())
    return [(s, names[p], t) for s, t, p in zip(source, target, predicate)]


class TestSchemaValidation:
    def test_presets_are_valid(self):
        for name in ("dbpedia", "freebase", "yago2"):
            schema = preset_schema(name)
            assert schema.predicates and schema.populations

    def test_unknown_preset(self):
        with pytest.raises(SchemaError):
            preset_schema("wikidata")

    def test_duplicate_type_rejected(self):
        with pytest.raises(SchemaError):
            DomainSchema(
                "x",
                [TypePopulation("A", 1), TypePopulation("A", 2)],
                [],
            )

    def test_unknown_predicate_type_rejected(self):
        with pytest.raises(SchemaError):
            DomainSchema(
                "x",
                [TypePopulation("A", 1)],
                [PredicateSpec("p", "A", "Missing", "c")],
            )

    def test_duplicate_predicate_rejected(self):
        with pytest.raises(SchemaError):
            DomainSchema(
                "x",
                [TypePopulation("A", 2)],
                [PredicateSpec("p", "A", "A", "c"), PredicateSpec("p", "A", "A", "c")],
            )

    def test_population_count_vs_named(self):
        with pytest.raises(SchemaError):
            TypePopulation("A", 1, ("x", "y"))

    def test_cluster_affinity_levels(self):
        schema = dbpedia_like_schema()
        same = schema.cluster_affinity("production", "production")
        grouped = schema.cluster_affinity("production", "component")
        override = schema.cluster_affinity("production", "geo")
        background = schema.cluster_affinity("production", "language")
        assert same > override > grouped > background

    def test_clusters_partition_predicates(self):
        schema = dbpedia_like_schema()
        total = sum(len(ps) for ps in schema.clusters().values())
        assert total == len(schema.predicates)

    def test_synonym_family_variants(self):
        family = SynonymFamily("Germany", ("Deutschland",), ("GER",), kind="name")
        assert family.variants() == ("Deutschland", "GER")


class TestGenerator:
    def test_deterministic(self):
        a = build_dataset("dbpedia", seed=5, scale=0.5)
        b = build_dataset("dbpedia", seed=5, scale=0.5)
        assert graph_to_id_triples(a) == graph_to_id_triples(b)

    def test_seed_changes_graph(self):
        a = build_dataset("dbpedia", seed=5, scale=0.5)
        b = build_dataset("dbpedia", seed=6, scale=0.5)
        assert graph_to_id_triples(a) != graph_to_id_triples(b)

    @pytest.mark.parametrize("preset", ["dbpedia", "freebase", "yago2"])
    def test_every_entity_carries_a_schema_type(self, preset):
        kg = build_dataset(preset, seed=2, scale=0.3)
        declared = {pop.etype for pop in preset_schema(preset).populations}
        assert {entity.etype for entity in kg.entities()} <= declared
        assert sum(len(kg.entities_of_type(t)) for t in kg.types()) == kg.num_entities

    def test_named_anchors_exist_at_small_scale(self):
        kg = build_dataset("dbpedia", seed=1, scale=0.1)
        for name, etype in (("Germany", "Country"), ("Audi_TT", "Automobile")):
            assert [kg.entity(uid).etype for uid in kg.entities_named(name)] == [etype]

    def test_scale_grows_population_but_not_countries(self):
        small = build_dataset("dbpedia", seed=1, scale=1.0)
        big = build_dataset("dbpedia", seed=1, scale=3.0)
        assert big.num_entities > 2 * small.num_entities
        assert len(big.entities_of_type("Country")) == len(
            small.entities_of_type("Country")
        )

    def test_edges_respect_type_signature(self):
        kg = build_dataset("dbpedia", seed=1, scale=0.5)
        schema = dbpedia_like_schema()
        spec = {p.name: p for p in schema.predicates}
        for source, predicate, target in _edges(kg):
            declared = spec[predicate]
            assert kg.entity(source).etype == declared.source_type
            assert kg.entity(target).etype == declared.target_type

    def test_coherence_binds_assembly_to_latent(self):
        builder = SyntheticKGBuilder(
            dbpedia_like_schema(), GeneratorConfig(seed=1, scale=1.0)
        )
        kg = builder.build()
        agree = total = 0
        for source, predicate, target in _edges(kg):
            if predicate == "assembly":
                total += 1
                if builder.latent_of.get(source) == target:
                    agree += 1
        assert total > 0
        assert agree / total > 0.85  # assembly coherence is 0.97

    def test_low_coherence_predicate_disagrees_more(self):
        builder = SyntheticKGBuilder(
            dbpedia_like_schema(), GeneratorConfig(seed=1, scale=1.0)
        )
        kg = builder.build()

        def agreement(predicate):
            agree = total = 0
            for source, name, target in _edges(kg):
                if name == predicate:
                    total += 1
                    if builder.latent_of.get(source) == builder.latent_of.get(target):
                        agree += 1
            return agree / max(total, 1)

        assert agreement("engine") < agreement("assemblyCity")

    def test_config_validation(self):
        with pytest.raises(SchemaError):
            GeneratorConfig(scale=0)
        with pytest.raises(SchemaError):
            GeneratorConfig(hub_bias=1.0)
        with pytest.raises(SchemaError):
            GeneratorConfig(coherence=1.5)

    def test_poisson_like_expectation(self):
        rng = derive_rng(0, "t")
        draws = [_poisson_like(1.4, rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(1.4, abs=0.05)

    def test_hub_bias_concentrates_degree(self):
        flat = SyntheticKGBuilder(
            dbpedia_like_schema(), GeneratorConfig(seed=1, hub_bias=0.0)
        ).build()
        skewed = SyntheticKGBuilder(
            dbpedia_like_schema(), GeneratorConfig(seed=1, hub_bias=0.6)
        ).build()
        def max_degree(kg):
            return max(map(len, CompactGraph.freeze(kg).node_slots))

        assert max_degree(skewed) > max_degree(flat)

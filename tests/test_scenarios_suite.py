"""Scenario synthesis subsystem: schemas × intents → frozen workloads.

Covers the pipeline end to end: domain vocabularies indexed off the
preset schemas, per-intent query generators, the fluent
``WorkloadBuilder``, deterministic stratified splits, and replay of the
checked-in held-out artifact's metadata (the golden *replay* itself is
``tests/test_held_out_conformance.py`` — this module only verifies the
artifact is internally consistent).
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.errors import ScenarioError
from repro.kg.schema import PRESET_SCHEMAS, preset_schema
from repro.scenarios import (
    INTENT_NAMES,
    Workload,
    WorkloadBuilder,
    default_suite,
    generate_intent_queries,
    replay_scenario,
    split_workload,
)
from repro.scenarios.suite import query_to_json
from repro.scenarios.vocab import DomainVocabulary

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "benchmarks" / "scenarios"


class TestDomainVocabulary:
    @pytest.mark.parametrize("domain", sorted(PRESET_SCHEMAS))
    def test_every_preset_supports_every_intent(self, domain):
        """All three KG domains can express the full intent mix."""
        vocab = DomainVocabulary.from_schema(domain, preset_schema(domain))
        assert vocab.anchored, domain
        assert vocab.star_centers(), domain
        assert vocab.chain_pairs(), domain
        for intent in INTENT_NAMES:
            queries = generate_intent_queries(vocab, intent, 2, seed=5)
            assert len(queries) == 2, f"{domain}/{intent}"

    def test_generation_is_seed_deterministic(self):
        vocab = DomainVocabulary.from_schema("dbpedia", preset_schema("dbpedia"))
        for intent in INTENT_NAMES:
            first = generate_intent_queries(vocab, intent, 3, seed=9)
            second = generate_intent_queries(vocab, intent, 3, seed=9)
            assert [query_to_json(q) for q in first] == [
                query_to_json(q) for q in second
            ], intent

    def test_unknown_intent_rejected(self):
        vocab = DomainVocabulary.from_schema("dbpedia", preset_schema("dbpedia"))
        with pytest.raises(ScenarioError):
            generate_intent_queries(vocab, "telepathy", 1, seed=0)
        with pytest.raises(ScenarioError):
            generate_intent_queries(vocab, "star", -1, seed=0)


class TestWorkloadBuilder:
    def _builder(self, seed=13):
        return (
            WorkloadBuilder("suite-test", seed=seed)
            .domain("dbpedia")
            .intents(star=3, chain=2, noisy_predicate=2, entity_heavy=2,
                     tau_stress=1)
            .top_k(5)
            .arrivals("poisson", rate=100.0)
            .deadlines(0.25, 0.5)
        )

    def test_same_seed_builds_byte_identical_artifacts(self):
        a = pickle.dumps(self._builder().build(), protocol=4)
        b = pickle.dumps(self._builder().build(), protocol=4)
        assert a == b

    def test_different_seed_builds_different_artifacts(self):
        a = self._builder(seed=13).build()
        b = self._builder(seed=14).build()
        assert a.manifest() != b.manifest()

    def test_intent_counts_and_unique_qids(self):
        workload = self._builder().build()
        assert workload.intent_counts() == {
            "star": 3, "chain": 2, "noisy-predicate": 2,
            "entity-heavy": 2, "tau-stress": 1,
        }
        qids = [q.qid for q in workload.queries]
        assert len(qids) == len(set(qids)) == 10
        for q in workload.queries:
            assert q.intent in q.qid

    def test_empty_mix_rejected(self):
        with pytest.raises(ScenarioError):
            WorkloadBuilder("empty", seed=1).build()

    def test_unknown_domain_and_intent_rejected(self):
        with pytest.raises(ScenarioError):
            WorkloadBuilder("x", seed=1).domain("wikidata")
        with pytest.raises(ScenarioError):
            WorkloadBuilder("x", seed=1).intents(quantum=3)

    def test_manifest_is_pure_json(self):
        workload = self._builder().build()
        wire = json.dumps(workload.manifest(), sort_keys=True)
        assert Workload.from_manifest(json.loads(wire)).manifest() == (
            workload.manifest()
        )


class TestSplitWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return (
            WorkloadBuilder("split-test", seed=21)
            .domain("dbpedia")
            .intents(star=5, chain=5, tau_stress=5)
            .build()
        )

    def test_split_is_deterministic(self, workload):
        fractions = {"train": 0.6, "eval": 0.2, "held_out": 0.2}
        first = split_workload(workload, fractions)
        second = split_workload(workload, fractions)
        for name in fractions:
            assert first[name].manifest() == second[name].manifest()

    def test_split_is_stratified_and_disjoint(self, workload):
        splits = split_workload(
            workload, {"train": 0.6, "held_out": 0.4}
        )
        # Stratified: every intent contributes to every split pro rata.
        assert splits["train"].intent_counts() == {
            "star": 3, "chain": 3, "tau-stress": 3,
        }
        assert splits["held_out"].intent_counts() == {
            "star": 2, "chain": 2, "tau-stress": 2,
        }
        # Disjoint and exhaustive by qid.
        train = {q.qid for q in splits["train"].queries}
        held = {q.qid for q in splits["held_out"].queries}
        assert not train & held
        assert train | held == {q.qid for q in workload.queries}
        assert splits["train"].name == "split-test/train"

    def test_bad_fractions_rejected(self, workload):
        with pytest.raises(ScenarioError):
            split_workload(workload, {"train": 0.5, "held_out": 0.2})
        with pytest.raises(ScenarioError):
            split_workload(workload, {"train": 1.2, "held_out": -0.2})


class TestReplayDeterminism:
    def test_double_replay_identical_digest_and_counts(self):
        workload = (
            WorkloadBuilder("replay-test", seed=31)
            .domain("dbpedia")
            .intents(star=1, chain=1, noisy_predicate=1, entity_heavy=1,
                     tau_stress=1)
            .top_k(5)
            .build()
        )
        first = replay_scenario(workload)
        second = replay_scenario(workload)
        assert first.digest == second.digest
        assert first.answers == second.answers
        assert len(first.answers) == 5  # no deadline mix -> all exact


class TestCheckedInArtifact:
    """The held-out suite under ``benchmarks/scenarios/`` is consistent.

    Regenerate with ``python scripts/build_scenarios.py`` whenever the
    generator stack changes; these checks catch a drifted or half-updated
    artifact without replaying it (``test_held_out_conformance.py`` does).
    """

    def test_pickle_matches_checked_in_manifest(self):
        workload = Workload.from_pickle(SCENARIO_DIR / "held_out_v1.pkl")
        recorded = json.loads(
            (SCENARIO_DIR / "held_out_v1.manifest.json").read_text()
        )
        assert workload.manifest() == recorded

    def test_golden_covers_exactly_the_exact_queries(self):
        from repro.scenarios import answer_digest, load_golden, scenario_items

        workload = Workload.from_pickle(SCENARIO_DIR / "held_out_v1.pkl")
        golden = load_golden(SCENARIO_DIR / "held_out_v1.golden.json")
        exact = {
            item.qid for item in scenario_items(workload)
            if item.deadline is None
        }
        assert set(golden) == exact
        recorded = json.loads(
            (SCENARIO_DIR / "held_out_v1.golden.json").read_text()
        )
        assert recorded["digest"] == answer_digest(golden)

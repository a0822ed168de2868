"""Shared fixtures: hand-built micro graphs and small generated bundles."""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import settings

from repro.bench.datasets import load_bundle
from repro.embedding.predicate_space import PredicateSpace
from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import dbpedia_like_schema
from repro.query.transform import NodeMatcher, TransformationLibrary
from repro.serve.backends import InlineBackend

# Tier-1 reruns are bit-identical: every hypothesis suite draws the same
# examples on every run.  CI searches for new counter-examples in a
# separate, non-blocking step with ``--hypothesis-profile=default``.
settings.register_profile("tier1", derandomize=True)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("tier1")


def _unit(vector):
    array = np.asarray(vector, dtype=float)
    return array / np.linalg.norm(array)


@pytest.fixture(scope="session")
def fig2_space() -> PredicateSpace:
    """A tiny predicate space with hand-chosen cosines (Fig. 2 flavour).

    Cosines to ``product``: assembly ≈ 0.98, country ≈ 0.91, designer ≈
    0.85, nationality ≈ 0.81, engine ≈ 0.84, language ≈ 0.05 (these are
    built geometrically, so exact values are asserted in tests via
    ``space.similarity`` itself, not recomputed by hand).
    """

    def mix(primary: float, index: int) -> np.ndarray:
        # vectors in R^8: share the first axis with `product` by `primary`,
        # remainder on a private axis -> cosine == primary exactly.
        vector = np.zeros(8)
        vector[0] = primary
        vector[index] = np.sqrt(1.0 - primary**2)
        return vector

    return PredicateSpace(
        {
            "product": _unit([1, 0, 0, 0, 0, 0, 0, 0]),
            "assembly": mix(0.98, 1),
            "country": mix(0.91, 2),
            "designer": mix(0.85, 3),
            "nationality": mix(0.81, 4),
            "engine": mix(0.84, 5),
            "language": mix(0.05, 6),
        }
    )


@pytest.fixture()
def fig2_kg() -> KnowledgeGraph:
    """The running-example knowledge graph of Fig. 2.

    Audi_TT -assembly-> Germany;  Lamando -engine-> EA211 (device);
    KIA_K5 -designer-> Peter_Schreyer -nationality-> Germany;
    Volkswagen -product-> Lamando;  Germany -language-> German.
    """
    kg = KnowledgeGraph("fig2")
    audi = kg.add_entity("Audi_TT", "Automobile")
    lamando = kg.add_entity("Lamando", "Automobile")
    kia = kg.add_entity("KIA_K5", "Automobile")
    germany = kg.add_entity("Germany", "Country")
    engine = kg.add_entity("EA211_l4_TSI", "Engine")
    designer = kg.add_entity("Peter_Schreyer", "Person")
    vw = kg.add_entity("Volkswagen", "Company")
    german = kg.add_entity("German", "Language")

    kg.add_edge(audi.uid, "assembly", germany.uid)
    kg.add_edge(lamando.uid, "engine", engine.uid)
    kg.add_edge(kia.uid, "designer", designer.uid)
    kg.add_edge(designer.uid, "nationality", germany.uid)
    kg.add_edge(vw.uid, "product", lamando.uid)
    kg.add_edge(germany.uid, "language", german.uid)
    return kg


@pytest.fixture()
def fig2_matcher(fig2_kg) -> NodeMatcher:
    library = TransformationLibrary.from_schema(dbpedia_like_schema())
    return NodeMatcher(fig2_kg, library)


@pytest.fixture(scope="session")
def small_bundle():
    """A small DBpedia-like bundle shared by integration-ish tests."""
    return load_bundle("dbpedia", scale=1.0, seed=11)


@pytest.fixture(scope="session")
def medium_bundle():
    """A medium DBpedia-like bundle (used where truth sizes matter)."""
    return load_bundle("dbpedia", scale=3.0, seed=1)


class HeldBackend(InlineBackend):
    """A fake pool whose requests wait, unresolved, for :meth:`release`:
    requests in flight (singleflight followers, full admission, a hung
    pool) without threads or sleeps."""

    held = ()

    def submit(self, request, submitted_wall):
        self.held = [*self.held, (Future(), request, submitted_wall)]
        return self.held[-1][0]

    def release(self):
        """Run every held request in submission order on this thread."""
        held, self.held = self.held, ()
        for future, request, submitted_wall in held:
            done = super().submit(request, submitted_wall)
            if done.exception() is None:
                future.set_result(done.result())
            else:
                future.set_exception(done.exception())


@pytest.fixture()
def held_backends(monkeypatch):
    """Services built in the test run on :class:`HeldBackend`; the list
    fills with the backends they built, in order."""
    built = []

    def build(*args, **kwargs):
        built.append(HeldBackend(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("repro.serve.service.InlineBackend", build)
    return built

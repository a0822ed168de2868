"""Reimplementations of the seven comparison methods of Table II.

Each baseline implements the *feature set* the paper's Table II assigns to
it (node similarity / edge-to-path mapping / predicate awareness), behind
the shared :class:`~repro.baselines.base.GraphQueryMethod` interface.  The
paper's accuracy ordering is driven by those features, so reimplementing
the feature sets reproduces the ordering (see docs/architecture.md,
"Substitutions").

| method | node similarity | edge-to-path | predicates |
|--------|-----------------|--------------|------------|
| gStore | no              | no           | yes        |
| SLQ    | yes             | no           | no         |
| NeMa   | yes             | yes          | no         |
| S4     | no              | yes          | yes        |
| p-hom  | yes             | yes          | no         |
| GraB   | no              | yes          | no         |
| QGA    | yes             | no           | yes        |
"""

from repro.baselines.base import BaselineResult, GraphQueryMethod
from repro.baselines.gstore import GStoreBaseline
from repro.baselines.slq import SLQBaseline
from repro.baselines.nema import NeMaBaseline
from repro.baselines.s4 import S4Baseline
from repro.baselines.phom import PHomBaseline
from repro.baselines.grab import GraBBaseline
from repro.baselines.qga import QGABaseline

__all__ = [
    "BaselineResult",
    "GraphQueryMethod",
    "GStoreBaseline",
    "SLQBaseline",
    "NeMaBaseline",
    "S4Baseline",
    "PHomBaseline",
    "GraBBaseline",
    "QGABaseline",
]

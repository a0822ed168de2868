"""Deterministic, picklable fault injection for the serving stack.

Chaos testing is only trustworthy when it is reproducible: a crash that
happens on a different request every run produces flaky tests and
undebuggable failures.  This module therefore separates the *plan* from
the *runtime*:

- :class:`FaultPlan` is a frozen, picklable description of which faults
  fire and when, keyed on **per-worker request ordinals** (the Nth
  request a given worker executes), so the same plan against the same
  workload injects the same faults bit-for-bit.  It rides into process
  workers on :attr:`repro.core.engine.EngineSpec.fault_plan` — the same
  vehicle that carries the engine description — so no side channel is
  needed.
- :class:`FaultInjector` is the mutable per-process runtime produced by
  :meth:`FaultPlan.activate`; each worker owns one and consults it
  before every request.

Plans are *epoch-scoped*: ``epochs`` counts the pool generations the
plan poisons.  The supervisor calls :meth:`FaultPlan.next_epoch` on
every pool rebuild, so with the default ``epochs=1`` a rebuilt pool
comes up healthy — which is exactly the property a chaos replay needs
(crash, recover, converge to the fault-free answers).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.errors import (
    GraphError,
    ServeError,
    TransientEngineError,
    WorkerCrashError,
)
from repro.utils.rng import derive_rng

__all__ = ["FaultPlan", "FaultInjector"]


def _ordinals(raw: object, clause: str) -> Tuple[int, ...]:
    """Normalise a fault-ordinal collection: sorted, unique, 1-based."""
    try:
        values = sorted({int(v) for v in raw})  # type: ignore[union-attr]
    except (TypeError, ValueError):
        raise ServeError(f"fault plan {clause!r} ordinals must be integers, got {raw!r}")
    if any(v < 1 for v in values):
        raise ServeError(f"fault plan {clause!r} ordinals must be >= 1, got {values}")
    return tuple(values)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable chaos plan for serving workers.

    All ``*_at`` fields hold 1-based per-worker request ordinals: a
    worker consults the plan before its Nth request and fires every
    fault listed for N.  Fields:

    - ``crash_at``: hard-kill the worker (``SIGKILL`` in process
      workers, :class:`~repro.errors.WorkerCrashError` elsewhere).
    - ``transient_at``: raise :class:`~repro.errors.TransientEngineError`
      (retryable).
    - ``fatal_at``: raise a plain :class:`~repro.errors.ServeError`
      (fatal to the request — the supervisor must *not* retry it).
    - ``latency_at`` / ``latency_seconds``: sleep before executing; the
      actual delay is ``latency_seconds`` scaled by a seeded per-ordinal
      jitter in ``[0.5, 1.5)`` so it is deterministic per (seed, ordinal).
    - ``fail_shm_attach``: poison worker *initialisation* with a
      :class:`~repro.errors.GraphError`, simulating a vanished
      shared-memory segment.
    - ``epochs``: how many pool generations the plan stays active;
      :meth:`next_epoch` decrements it on every rebuild.
    """

    crash_at: Tuple[int, ...] = ()
    transient_at: Tuple[int, ...] = ()
    fatal_at: Tuple[int, ...] = ()
    latency_at: Tuple[int, ...] = ()
    latency_seconds: float = 0.0
    fail_shm_attach: bool = False
    seed: int = 0
    epochs: int = 1

    def __post_init__(self) -> None:
        for clause in ("crash_at", "transient_at", "fatal_at", "latency_at"):
            object.__setattr__(self, clause, _ordinals(getattr(self, clause), clause))
        if self.latency_seconds < 0:
            raise ServeError(f"latency_seconds must be >= 0, got {self.latency_seconds}")
        if self.latency_at and self.latency_seconds == 0:
            raise ServeError("latency_at given without a positive latency_seconds")
        if self.epochs < 0:
            raise ServeError(f"epochs must be >= 0, got {self.epochs}")

    @property
    def active(self) -> bool:
        """Whether this plan still injects anything this epoch."""
        if self.epochs <= 0:
            return False
        return bool(
            self.crash_at
            or self.transient_at
            or self.fatal_at
            or self.latency_at
            or self.fail_shm_attach
        )

    def next_epoch(self) -> "FaultPlan":
        """The plan for the next pool generation (one fewer epoch)."""
        return replace(self, epochs=max(self.epochs - 1, 0))

    def activate(self, *, allow_kill: bool = False) -> "FaultInjector":
        """Produce the mutable per-process runtime for this plan.

        ``allow_kill=True`` makes ``crash_at`` faults actually
        ``SIGKILL`` the current process — only ever set inside process
        workers; the inline backend raises
        :class:`~repro.errors.WorkerCrashError` instead.
        """
        return FaultInjector(self, allow_kill=allow_kill)

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``crash@3; transient@2; seed=11``."""
        parts = []
        for label, at in (
            ("crash", self.crash_at),
            ("transient", self.transient_at),
            ("fatal", self.fatal_at),
        ):
            if at:
                parts.append(f"{label}@{','.join(str(v) for v in at)}")
        if self.latency_at:
            # No unit suffix: describe() output is itself a valid parse()
            # spec, so a printed plan can be replayed verbatim.
            joined = ",".join(str(v) for v in self.latency_at)
            parts.append(f"latency@{joined}:{self.latency_seconds:g}")
        if self.fail_shm_attach:
            parts.append("shm-attach")
        parts.append(f"seed={self.seed}")
        parts.append(f"epochs={self.epochs}")
        return "; ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI fault-plan spec.

        Format: semicolon-separated clauses, e.g.
        ``"crash@3;transient@2,5;fatal@9;latency@4:0.05;shm-attach;seed=7;epochs=2"``

        - ``crash@N[,N...]`` / ``transient@...`` / ``fatal@...``: fault
          on those per-worker request ordinals.
        - ``latency@N[,N...]:SECONDS``: sleep before those requests.
        - ``shm-attach``: fail worker init as if the shm segment vanished.
        - ``seed=N`` / ``epochs=N``: plan seed and pool-generation scope.
        """
        fields_: dict = {}
        for raw_clause in text.split(";"):
            clause = raw_clause.strip()
            if not clause:
                continue
            if clause == "shm-attach":
                fields_["fail_shm_attach"] = True
                continue
            if "=" in clause:
                key, _, value = clause.partition("=")
                key = key.strip()
                if key not in ("seed", "epochs"):
                    raise ServeError(f"unknown fault-plan setting {key!r} in {clause!r}")
                try:
                    fields_[key] = int(value)
                except ValueError:
                    raise ServeError(f"fault-plan setting {clause!r} needs an integer")
                continue
            kind, sep, spec = clause.partition("@")
            if not sep:
                raise ServeError(f"unparseable fault-plan clause {clause!r}")
            kind = kind.strip()
            if kind == "latency":
                at_part, colon, seconds_part = spec.partition(":")
                if not colon:
                    raise ServeError(
                        f"latency clause needs a duration, e.g. 'latency@4:0.05', got {clause!r}"
                    )
                try:
                    fields_["latency_seconds"] = float(seconds_part)
                except ValueError:
                    raise ServeError(f"latency duration must be a number in {clause!r}")
                fields_["latency_at"] = _ordinals(at_part.split(","), clause)
                continue
            if kind not in ("crash", "transient", "fatal"):
                raise ServeError(f"unknown fault kind {kind!r} in {clause!r}")
            fields_[f"{kind}_at"] = _ordinals(spec.split(","), clause)
        if not fields_:
            raise ServeError(f"empty fault-plan spec: {text!r}")
        return cls(**fields_)


@dataclass
class FaultInjector:
    """Mutable per-process runtime state of a :class:`FaultPlan`.

    One injector lives in each worker process (or in the inline
    backend's one runner, where the request counter is service-wide
    rather than per-worker).
    """

    plan: FaultPlan
    allow_kill: bool = False
    _count: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def on_worker_init(self) -> None:
        """Fault hook run once when a worker bootstraps its engine."""
        if self.plan.active and self.plan.fail_shm_attach:
            raise GraphError(
                "injected shared-memory attach failure "
                f"(fault plan: {self.plan.describe()})"
            )

    def on_request(self) -> None:
        """Fault hook run before each request this process executes."""
        plan = self.plan
        if not plan.active:
            return
        with self._lock:
            self._count += 1
            ordinal = self._count
        if ordinal in plan.latency_at:
            jitter = 0.5 + float(derive_rng(plan.seed, f"fault-latency:{ordinal}").random())
            time.sleep(plan.latency_seconds * jitter)
        if ordinal in plan.crash_at:
            if self.allow_kill:
                os.kill(os.getpid(), signal.SIGKILL)  # never returns
            raise WorkerCrashError(
                f"injected worker crash on request #{ordinal} "
                f"(fault plan: {plan.describe()})"
            )
        if ordinal in plan.fatal_at:
            raise ServeError(
                f"injected fatal engine error on request #{ordinal} "
                f"(fault plan: {plan.describe()})"
            )
        if ordinal in plan.transient_at:
            raise TransientEngineError(
                f"injected transient engine error on request #{ordinal} "
                f"(fault plan: {plan.describe()})"
            )

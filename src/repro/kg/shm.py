"""Named shared-memory backing for numpy array blocks.

A process pool that shipped every worker the frozen CSR graph by value
inside its pickled :class:`~repro.core.engine.EngineSpec` would hold N
private copies of it — memory and per-worker warmup would scale with
the pool.  This module is the sharing primitive every process pool reads
its graph through instead — one block per pool, holding one
:class:`~repro.kg.compact.CompactGraph`'s columns:

- :meth:`ShmArrayBlock.create` packs a set of named arrays into **one**
  POSIX shared-memory segment (64-byte-aligned columns, written once by
  the owner) and returns the owning block;
- :class:`ShmBlockHandle` is the picklable manifest — segment name plus
  per-column ``(key, dtype, shape, offset)`` specs — whose pickle costs
  O(metadata), not O(graph);
- :meth:`ShmArrayBlock.attach` maps the segment read-only in another
  process and serves zero-copy numpy views over it.

Lifecycle is explicit and crash-safe:

- the **owner** calls :meth:`close` (detach) and :meth:`unlink` (remove
  the name); both are idempotent.  A ``weakref.finalize`` guard runs the
  same cleanup at garbage collection / interpreter exit, so an owner
  that raises mid-setup cannot leak ``/dev/shm`` entries — and the guard
  checks the owning pid, so a forked pool worker inheriting the owner
  object can never unlink the segment out from under the parent;
- **attachers** map via ``mmap`` over ``/dev/shm`` when the platform has
  it, which sidesteps the ``multiprocessing.resource_tracker``
  registration entirely (on Python < 3.13 a plain ``SharedMemory``
  attach registers the segment, and a *spawned* worker's tracker then
  unlinks it when the worker exits — the well-known bpo-38119 footgun).
  Attachers hold no name to leak: the mapping dies with the process.

Attaching a segment whose owner already unlinked it (or died) raises a
clear :class:`~repro.errors.GraphError` instead of a raw OS error.
"""

from __future__ import annotations

import mmap
import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import GraphError

#: Name prefix for every segment this module creates — greppable in
#: ``/dev/shm`` so tests and CI can assert nothing leaked.
SHM_PREFIX = "repro-cg"

#: Column alignment inside a block (cache-line sized).
_ALIGNMENT = 64

_SHM_ROOT = "/dev/shm"


def _aligned(offset: int) -> int:
    remainder = offset % _ALIGNMENT
    return offset if remainder == 0 else offset + (_ALIGNMENT - remainder)


def leaked_segments() -> List[str]:
    """Live segments under ``/dev/shm`` carrying our prefix.

    The leak probe tests and CI use: after every owner is closed the
    list must be empty.  Returns ``[]`` on platforms without a
    ``/dev/shm`` (the scan is a Linux-ism, like the fast attach path).
    """
    if not os.path.isdir(_SHM_ROOT):
        return []
    return sorted(
        name for name in os.listdir(_SHM_ROOT) if name.startswith(SHM_PREFIX)
    )


@dataclass(frozen=True)
class ShmArraySpec:
    """Manifest row for one array inside a block."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def count(self) -> int:
        total = 1
        for dim in self.shape:
            total *= dim
        return total


@dataclass(frozen=True)
class ShmBlockHandle:
    """Picklable pointer to a shared block: segment name + column specs.

    This is what crosses the process boundary instead of the arrays; its
    pickle is a few hundred bytes regardless of graph size.
    """

    name: str
    size: int
    specs: Tuple[ShmArraySpec, ...]

    def spec(self, key: str) -> ShmArraySpec:
        for spec in self.specs:
            if spec.key == key:
                return spec
        raise GraphError(
            f"shared block {self.name!r} has no column {key!r} "
            f"(columns: {[s.key for s in self.specs]})"
        )


class _Backing:
    """The OS resources behind one block, shared with its finalizer.

    A plain mutable holder (not the block itself) so the
    ``weakref.finalize`` callback can reach the flags without keeping the
    block alive.  ``owner_pid`` guards unlink: after a ``fork``, pool
    workers inherit the owner object, and their exit-time finalizers must
    not remove the segment the parent is still serving from.
    """

    __slots__ = ("name", "shm", "mapped", "owner", "owner_pid", "closed",
                 "unlinked")

    def __init__(self, name, *, shm=None, mapped=None, owner=False):
        self.name = name
        self.shm = shm
        self.mapped = mapped
        self.owner = owner
        self.owner_pid = os.getpid()
        self.closed = False
        self.unlinked = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            if self.mapped is not None:
                self.mapped.close()
            if self.shm is not None:
                self.shm.close()
        except BufferError:
            # numpy views over the buffer are still alive (an attached
            # graph is being collected piecemeal); the mapping is
            # released with the process instead.
            pass

    def unlink(self) -> None:
        if not self.owner or self.unlinked:
            return
        self.unlinked = True
        if os.getpid() != self.owner_pid:
            return  # forked child: the parent owns the name
        try:
            if self.shm is not None:
                self.shm.unlink()
        except FileNotFoundError:
            pass


def _finalize_backing(backing: _Backing) -> None:
    backing.close()
    backing.unlink()


def _attach_backing(handle: ShmBlockHandle) -> _Backing:
    gone = GraphError(
        f"shared graph segment {handle.name!r} is gone — the owning "
        "service closed it (or the owner process died); workers can only "
        "attach while the owner holds the segment"
    )
    if os.path.isdir(_SHM_ROOT):
        # Fast path: map the segment file directly.  No SharedMemory
        # object means no resource-tracker registration, so a spawned
        # worker's tracker can never unlink the owner's segment at
        # worker exit (Python < 3.13 has no track=False to ask for this).
        try:
            fd = os.open(os.path.join(_SHM_ROOT, handle.name), os.O_RDONLY)
        except FileNotFoundError:
            raise gone from None
        try:
            mapped = mmap.mmap(fd, handle.size, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        return _Backing(handle.name, mapped=mapped, owner=False)
    # Portable fallback: SharedMemory attach, untracked where supported
    # (3.13+); older interpreters register with the resource tracker,
    # which is harmless under fork (the tracker is shared and names
    # dedupe) — the caveat the module docstring spells out.
    try:
        try:
            shm = shared_memory.SharedMemory(name=handle.name, track=False)
        except TypeError:
            shm = shared_memory.SharedMemory(name=handle.name)
    except FileNotFoundError:
        raise gone from None
    return _Backing(handle.name, shm=shm, owner=False)


class ShmArrayBlock:
    """A set of named, immutable numpy arrays in one shared segment.

    Build with :meth:`create` (owner) or :meth:`attach` (worker); read
    columns with :meth:`array`.  Views are zero-copy and read-only on
    both sides — the block is frozen data, like the CompactGraph columns
    it exists to carry.
    """

    def __init__(self, handle: ShmBlockHandle, backing: _Backing):
        self.handle = handle
        self._backing = backing
        self._arrays: Dict[str, np.ndarray] = {}
        self._finalizer = weakref.finalize(self, _finalize_backing, backing)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "ShmArrayBlock":
        """Pack ``arrays`` into one fresh segment; returns the owner block.

        Columns are laid out at 64-byte-aligned offsets and copied once;
        the temporary write views are dropped before returning, so the
        owner block exports no buffers and :meth:`close` cannot raise.
        """
        specs: List[ShmArraySpec] = []
        prepared: Dict[str, np.ndarray] = {}
        offset = 0
        for key, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            offset = _aligned(offset)
            specs.append(
                ShmArraySpec(
                    key=key,
                    dtype=contiguous.dtype.str,
                    shape=tuple(contiguous.shape),
                    offset=offset,
                )
            )
            prepared[key] = contiguous
            offset += contiguous.nbytes
        size = max(offset, 1)

        shm = None
        for _ in range(8):
            name = f"{SHM_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
                break
            except FileExistsError:  # pragma: no cover - 2^32 collision
                continue
        if shm is None:  # pragma: no cover - eight collisions in a row
            raise GraphError(
                "could not allocate a unique shared-memory segment name"
            )
        try:
            for spec in specs:
                source = prepared[spec.key]
                if source.nbytes == 0:
                    continue
                dest = np.frombuffer(
                    shm.buf, dtype=spec.dtype, count=spec.count,
                    offset=spec.offset,
                )
                dest[:] = source.reshape(-1)
                del dest  # release the exported view before any close
        except BaseException:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - racey cleanup
                pass
            raise
        handle = ShmBlockHandle(name=shm.name, size=size, specs=tuple(specs))
        return cls(handle, _Backing(shm.name, shm=shm, owner=True))

    @classmethod
    def attach(cls, handle: ShmBlockHandle) -> "ShmArrayBlock":
        """Map an existing segment read-only (zero-copy, O(metadata)).

        Raises :class:`~repro.errors.GraphError` when the segment no
        longer exists — the owner unlinked it or died.
        """
        return cls(handle, _attach_backing(handle))

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def owner(self) -> bool:
        return self._backing.owner

    @property
    def closed(self) -> bool:
        return self._backing.closed

    def array(self, key: str) -> np.ndarray:
        """Zero-copy read-only view of column ``key`` (memoized)."""
        cached = self._arrays.get(key)
        if cached is not None:
            return cached
        if self._backing.closed:
            raise GraphError(
                f"shared block {self.name!r} is closed; no views can be "
                "served"
            )
        spec = self.handle.spec(key)
        buffer = (
            self._backing.mapped
            if self._backing.mapped is not None
            else self._backing.shm.buf
        )
        view = np.frombuffer(
            buffer, dtype=spec.dtype, count=spec.count, offset=spec.offset
        ).reshape(spec.shape)
        # A read-only mmap already yields non-writeable views; the owner
        # side maps writable, so freeze the view explicitly — the block
        # carries immutable data on both sides.
        if view.flags.writeable:
            view.flags.writeable = False
        self._arrays[key] = view
        return view

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the segment (idempotent).

        Live views handed out earlier keep the mapping alive until they
        are collected; the segment *name* is only removed by the owner's
        :meth:`unlink`.
        """
        self._arrays.clear()
        self._backing.close()

    def unlink(self) -> None:
        """Remove the segment name (owner only; idempotent).

        Attached processes keep working off their existing mappings —
        POSIX unlink removes the name, not the memory — but no new
        attach can succeed afterwards.
        """
        if not self._backing.owner:
            raise GraphError(
                f"only the owning process may unlink shared block "
                f"{self.name!r}"
            )
        self._backing.unlink()

"""Shared-memory shard layout: one zero-copy segment per matrix.

The resident worker pool (:mod:`repro.engine.worker_pool`) keeps one
process per partition shard alive across requests.  Shipping each
shard's arrays to its worker by pickling would copy them on every
spawn *and* on every restart; instead, :class:`ShmShardLayout` packs
everything a shard needs to answer batches into a single named
:mod:`multiprocessing.shared_memory` segment, built exactly once per
matrix:

* the shard's slice of the packed ``lo`` / ``hi`` bounds and
  ``noisy_counts`` (the arrays
  :meth:`~repro.core.sharding.PartitionShard.partial` reads), and
* the backing buffers of the shard's already-built
  :class:`~repro.core.interval_index.IntervalIndex` (the ``(d, k)``
  ``order`` plus per-dimension ``lo_sorted`` / ``run_max_hi``), so an
  attaching worker never re-sorts anything — it sees the *same* index
  the serial path uses, which is one half of the pool ≡ serial
  bit-identity guarantee (the other half is the fixed-order partial
  merge in the pool).  The kernels' narrow overlap layout is not in
  the segment: each worker rebuilds it lazily from ``lo`` / ``hi``.

The layout is split into an owner and a handle:

* :class:`ShmShardLayout` — parent-side owner.  Builds the segment
  (copying each array in once), exposes the picklable
  :class:`ShmShardSpec`, and owns the **exactly-once** ``unlink``.  A
  :func:`weakref.finalize` safety net unlinks on garbage collection if
  the owner is dropped without :meth:`ShmShardLayout.close`, so no
  code path leaks a segment (and the ``resource_tracker`` never has to
  warn about one).
* :class:`ShmShardSpec` — a frozen manifest (segment name + per-shard
  ``name -> (offset, shape, dtype)`` tables).  It is what actually
  crosses the process boundary; a worker calls
  :meth:`ShmShardSpec.attach` to get an :class:`AttachedShard` whose
  arrays are **views into the segment** — zero copies, read-only, and
  valid for as long as the parent keeps the segment linked.  Restart
  after a crash is therefore just "attach again": the segment outlives
  any individual worker.

Workers attach but never unlink; on Pythons without
``SharedMemory(track=...)`` the attach side suppresses its
``resource_tracker`` registration (see :func:`_attach_untracked`) so a
worker exiting (or being killed) can neither emit spurious
leaked-segment warnings nor unlink a segment it does not own.
"""

from __future__ import annotations

import secrets
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from .exceptions import QueryError
from .interval_index import IntervalIndex
from .packed import PackedPartitioning
from .sharding import PartitionShard

#: Byte alignment of every array inside the segment.  64 keeps each
#: array cache-line aligned; int64/float64 only need 8.
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


_REGISTER_PATCH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without registering it for tracking.

    The creating process owns unlink; pre-3.13 Pythons register a
    segment with the ``resource_tracker`` on *attach* too, which either
    makes a spawned worker's private tracker "clean up" (unlink!) a
    segment it does not own at exit, or — under fork, where the tracker
    is shared — pollutes the parent's registration bookkeeping.  3.13+
    has ``track=False`` for exactly this; earlier versions get the same
    effect by suppressing the module-level ``register`` hook for the
    duration of the attach (unregister-after-the-fact is *not*
    equivalent: with a shared tracker it would drop the creator's own
    registration).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        with _REGISTER_PATCH_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


@dataclass(frozen=True)
class _ArraySpec:
    """Where one array lives inside the segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


class AttachedShard:
    """A worker's zero-copy view of its shard.

    ``shard`` is a fully functional
    :class:`~repro.core.sharding.PartitionShard` (interval index
    included) whose arrays alias the shared segment.  Keep this object
    alive for as long as the shard is used; :meth:`close` drops the
    mapping (it never unlinks — the owning
    :class:`ShmShardLayout` does that, exactly once).
    """

    def __init__(self, shm: shared_memory.SharedMemory, shard: PartitionShard):
        self._shm = shm
        self._closed = False
        self.shard = shard

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Drop our array views before unmapping; if the caller still
        # holds one, closing the mapping now would be unsafe, so leave
        # it to process exit instead of crashing.
        self.shard = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view
            pass


@dataclass(frozen=True)
class ShmShardSpec:
    """Picklable manifest of a built segment (what workers receive).

    ``manifests[i]`` maps array names to :class:`_ArraySpec` locations
    for shard ``i``; ``bounds[i]`` is the shard's ``[start, stop)``
    range on the parent partition axis; ``ndim`` says how many
    ``lo_sorted{a}``/``run_max_hi{a}`` pairs each shard carries next to
    its ``(d, k)`` ``order``.
    """

    segment: str
    shape: Tuple[int, ...]
    bounds: Tuple[Tuple[int, int], ...]
    ndim: int
    manifests: Tuple[Dict[str, _ArraySpec], ...]

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    def attach(self, shard_id: int) -> AttachedShard:
        """Map the segment and rebuild shard ``shard_id`` zero-copy."""
        if not 0 <= shard_id < self.n_shards:
            raise QueryError(
                f"shard id {shard_id} outside [0, {self.n_shards})"
            )
        shm = _attach_untracked(self.segment)
        try:
            manifest = self.manifests[shard_id]

            def view(name: str) -> np.ndarray:
                spec = manifest[name]
                arr = np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=shm.buf,
                    offset=spec.offset,
                )
                arr.flags.writeable = False  # shared: nobody mutates
                return arr

            packed = PackedPartitioning(
                view("lo"),
                view("hi"),
                view("noisy"),
                self.shape,
                None,
                validate=False,
            )
            packed._index = IntervalIndex.from_buffers(
                packed,
                view("order"),
                [view(f"lo_sorted{a}") for a in range(self.ndim)],
                [view(f"run_max_hi{a}") for a in range(self.ndim)],
            )
            start, stop = self.bounds[shard_id]
            shard = PartitionShard.from_packed(packed, start, stop)
        except BaseException:
            shm.close()
            raise
        return AttachedShard(shm, shard)


def _finalize_segment(shm: shared_memory.SharedMemory, state: dict) -> None:
    """GC / exit safety net: close and unlink exactly once."""
    if not state["unlinked"]:
        state["unlinked"] = True
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external removal
            pass


class ShmShardLayout:
    """Build (once) and own the shared segment for one packed matrix.

    Splits ``packed`` with the same cached
    :meth:`~repro.core.packed.PackedPartitioning.split_shards` the
    serial path uses, forces each shard's interval index, and copies
    shard arrays + index buffers into one fresh
    :class:`multiprocessing.shared_memory.SharedMemory` segment.  The
    resulting :attr:`spec` is small and picklable; ship it to workers.

    ``close()`` (or garbage collection) unlinks the segment exactly
    once; calling it twice is a no-op.
    """

    def __init__(
        self,
        packed: PackedPartitioning,
        n_shards: int | None = None,
        *,
        name_prefix: str = "repro-shards",
    ):
        shards = packed.split_shards(n_shards)
        self.shape = packed.shape
        self.ndim = packed.ndim
        self.bounds: Tuple[Tuple[int, int], ...] = tuple(
            (s.start, s.stop) for s in shards
        )
        # Gather (name, array) pairs per shard; the parent-side index
        # build here is the same lazily cached build the serial path
        # performs, so pool and serial literally share these arrays.
        per_shard: List[List[Tuple[str, np.ndarray]]] = []
        for shard in shards:
            index = shard.packed.interval_index()
            arrays: List[Tuple[str, np.ndarray]] = [
                ("lo", shard.packed.lo),
                ("hi", shard.packed.hi),
                ("noisy", shard.packed.noisy_counts),
            ]
            arrays.append(("order", index._order))
            for a in range(self.ndim):
                arrays.append((f"lo_sorted{a}", index._lo_sorted[a]))
                arrays.append((f"run_max_hi{a}", index._run_max_hi[a]))
            per_shard.append(arrays)

        manifests: List[Dict[str, _ArraySpec]] = []
        offset = 0
        for arrays in per_shard:
            manifest: Dict[str, _ArraySpec] = {}
            for name, arr in arrays:
                offset = _align(offset)
                manifest[name] = _ArraySpec(
                    offset, tuple(arr.shape), arr.dtype.str
                )
                offset += arr.nbytes
            manifests.append(manifest)
        self.nbytes = max(offset, 1)

        # A random suffix keeps concurrent pools (tests, multiple
        # engines) from colliding on the OS-global segment namespace.
        self.name = f"{name_prefix}-{secrets.token_hex(6)}"
        self._shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=self.nbytes
        )
        for arrays, manifest in zip(per_shard, manifests):
            for name, arr in arrays:
                spec = manifest[name]
                dest = np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=self._shm.buf,
                    offset=spec.offset,
                )
                dest[...] = arr
        self.spec = ShmShardSpec(
            segment=self.name,
            shape=self.shape,
            bounds=self.bounds,
            ndim=self.ndim,
            manifests=tuple(manifests),
        )
        self._state = {"unlinked": False}
        self._finalizer = weakref.finalize(
            self, _finalize_segment, self._shm, self._state
        )

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    @property
    def unlinked(self) -> bool:
        return self._state["unlinked"]

    def close(self) -> None:
        """Unmap and unlink the segment — exactly once, idempotent."""
        # The finalizer wraps the same guarded state dict, so explicit
        # close and GC cannot both unlink.
        self._finalizer()

    def __enter__(self) -> "ShmShardLayout":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShmShardLayout({self.name!r}, shards={self.n_shards}, "
            f"bytes={self.nbytes})"
        )

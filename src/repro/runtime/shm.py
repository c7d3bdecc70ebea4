"""Shared-memory transport for :class:`~repro.overlay.topology.Topology`.

The Fig. 8 topology's CSR arrays hold ~1M int32 entries (int64 before
the scale-readiness dtype shrink); pickling them into every worker
task would dominate the fan-out cost.  Instead the owner publishes the
three arrays (``offsets``, ``neighbors``, ``forwards``) into POSIX
shared-memory segments once, and workers attach zero-copy read-only
views by segment name.  Each :class:`SharedArraySpec` carries its
array's dtype string, so the transport is dtype-agnostic: narrowing a
kernel array never touches this layer.

Lifecycle: the *owner* process creates a :class:`SharedTopology`
(ideally as a context manager) and ships the tiny picklable
:class:`SharedTopologySpec` to workers, which call
:func:`attach_topology`.  Attachments are cached per process, so a
pool worker maps each segment once no matter how many tasks it runs.
The owner's ``close()`` unlinks the segments; workers must not outlive
it.  Under the ``fork`` start method workers inherit the owner's
attachment cache and never reopen the segments by name at all.

Two guarantees added for long-lived processes (the serving loop):

* the attachment cache is a bounded LRU — a worker that attaches many
  specs over its lifetime unmaps the least recently used mapping
  instead of accumulating dead ones; :func:`detach` drops one
  explicitly, and only mappings with no live views are ever closed;
* :func:`cleanup_on_signal` installs SIGTERM/SIGINT handlers that
  close every live owner and re-raise, because the ``__del__`` /
  ``finally`` safety nets never run in a killed process and an
  unlinked-too-late segment is orphaned in ``/dev/shm`` forever.
"""

from __future__ import annotations

import signal
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable

import numpy as np

from repro.obs import metrics
from repro.overlay.topology import Topology
from repro.runtime.sanitize import freeze

__all__ = [
    "SharedArraySpec",
    "SharedTopology",
    "SharedTopologySpec",
    "attach_topology",
    "cleanup_on_signal",
    "close_all_owners",
    "detach",
    "set_attach_capacity",
]


@dataclass(frozen=True)
class SharedArraySpec:
    """Address of one array in shared memory (picklable, tiny)."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedTopologySpec:
    """Addresses of a topology's three CSR arrays."""

    offsets: SharedArraySpec
    neighbors: SharedArraySpec
    forwards: SharedArraySpec


class _AttachCache:
    """Per-process attachment cache with a bounded LRU over mappings.

    One entry per published artifact spec.  Two kinds of entry:

    * **owner-preseeded** (``segments is None``): the owning process's
      view over its own segments.  Pinned — the owner's ``close()``
      drops it; the LRU never touches it.
    * **attached** (``segments`` held): a worker-side mapping opened by
      name.  These counted toward ``capacity``; the least recently
      used mapping is *closed* (unmapped) when the bound is exceeded,
      which is what keeps a long-lived worker that attaches many
      topologies over its lifetime from accumulating dead mappings.

    Eviction (and explicit :func:`detach`) only ever closes a mapping
    whose view object is no longer referenced anywhere — checked via a
    weakref after dropping the cache's own reference — so a consumer
    holding a view (a resident ``FloodDepthCache``, a serving engine)
    can never have its memory unmapped out from under it.  A still-
    referenced candidate is treated as recently used instead.
    """

    def __init__(self, capacity: int = 16) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[
            object, tuple[object, list[shared_memory.SharedMemory] | None]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec: object) -> object | None:
        entry = self._entries.get(spec)
        if entry is None:
            return None
        self._entries.move_to_end(spec)
        return entry[0]

    def put(
        self,
        spec: object,
        value: object,
        segments: list[shared_memory.SharedMemory] | None = None,
    ) -> None:
        self._entries[spec] = (value, segments)
        self._entries.move_to_end(spec)
        if segments is not None:
            self._evict_over_capacity()

    @staticmethod
    def _try_close(
        ref: "weakref.ref[object]", segments: list[shared_memory.SharedMemory]
    ) -> object | None:
        """Close ``segments`` iff the probed view object is dead.

        The caller must have dropped every strong reference it holds
        (including the popped cache tuple) before calling: a dead
        weakref then proves the numpy views over the segment buffers
        are gone too, so ``close()`` cannot raise ``BufferError`` on
        exported buffers.  Returns the still-live view object when
        consumers hold references, ``None`` after closing.
        """
        value = ref()
        if value is not None:
            return value
        for segment in segments:
            segment.close()
        return None

    def drop(self, spec: object) -> bool:
        """Detach ``spec``: forget the entry, unmap attached segments.

        Returns ``False`` when the spec was not cached.  Raises
        ``RuntimeError`` (entry restored) when the mapping's view is
        still referenced — detaching memory in use would invalidate
        live arrays.
        """
        entry = self._entries.pop(spec, None)
        if entry is None:
            return False
        if entry[1] is None:
            return True  # owner-preseeded: the owner closes its segments
        segments = entry[1]
        ref: "weakref.ref[object]" = weakref.ref(entry[0])
        # The popped tuple is the cache's last strong reference to the
        # view; it must die before the liveness probe or the probe
        # always reads "referenced".
        del entry
        value = self._try_close(ref, segments)
        if value is not None:
            self._entries[spec] = (value, segments)
            raise RuntimeError(
                f"cannot detach {type(spec).__name__}: attached views are "
                "still referenced (drop them first)"
            )
        metrics().inc("shm.attach.detached")
        return True

    def _evict_over_capacity(self) -> None:
        """Close least-recently-used unreferenced mappings over budget."""
        attached = [
            spec for spec, (_, segs) in self._entries.items() if segs is not None
        ]
        excess = len(attached) - self.capacity
        for spec in attached:
            if excess <= 0:
                break
            entry = self._entries.pop(spec)
            segments = entry[1] or []
            ref: "weakref.ref[object]" = weakref.ref(entry[0])
            del entry  # drop the cache's own reference before probing
            value = self._try_close(ref, segments)
            if value is None:
                metrics().inc("shm.attach.evicted")
                excess -= 1
            else:
                # Still referenced: not evictable, treat as recently used.
                self._entries[spec] = (value, segments)
                self._entries.move_to_end(spec)
                metrics().inc("shm.attach.pinned")


#: The process-wide attachment cache.  Workers (fork or spawn) each
#: get their own instance.
_CACHE = _AttachCache()


def detach(spec: object) -> bool:
    """Explicitly drop a cached attachment and unmap its segments.

    The long-lived-worker counterpart of attach caching: a process that
    serves many topologies calls this when it swaps one out, instead of
    waiting for LRU pressure.  Returns ``False`` if ``spec`` was not
    attached.  Raises ``RuntimeError`` if views over the mapping are
    still referenced.
    """
    return _CACHE.drop(spec)


def set_attach_capacity(capacity: int) -> int:
    """Set the LRU bound on concurrently-cached attachments.

    Returns the previous capacity.  The bound counts worker-side
    mappings only (owner-preseeded entries are pinned until the owner
    closes).  Shrinking triggers an immediate eviction pass.
    """
    if capacity < 1:
        raise ValueError("attach capacity must be positive")
    previous = _CACHE.capacity
    _CACHE.capacity = capacity
    _CACHE._evict_over_capacity()
    return previous


#: Live owner handles in this process, for signal-time cleanup.  Weak:
#: an owner that was garbage collected already ran its safety net.
_LIVE_OWNERS: "weakref.WeakSet[_SharedArrayOwner]" = weakref.WeakSet()


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Undo the attach-side resource_tracker registration.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment with the process's resource tracker, which then tries
    to unlink it again at exit (the owner already did) and warns about
    "leaked" objects.  Only the owner should track the segment.
    """
    resource_tracker.unregister(getattr(segment, "_name", segment.name), "shared_memory")


def _export(array: np.ndarray) -> tuple[SharedArraySpec, shared_memory.SharedMemory, np.ndarray]:
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view: np.ndarray = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    freeze(view)
    return SharedArraySpec(segment.name, array.shape, array.dtype.str), segment, view


class _SharedArrayOwner:
    """Common owner lifecycle for a set of published arrays.

    Subclasses export their arrays in ``__init__`` and hand the result
    to :meth:`_adopt`; this base handles cache pre-seeding, the live-
    owner registry, unlinking, and the context-manager/GC plumbing.
    """

    spec: object
    _segments: list[shared_memory.SharedMemory]
    _closed: bool

    def _adopt(
        self,
        spec: object,
        segments: list[shared_memory.SharedMemory],
        attached: object,
    ) -> None:
        """Take ownership of freshly exported segments.

        Pre-seeds the attachment cache (fork-started workers inherit
        it and read the owner's mapping directly; in-process
        ``n_workers=1`` fallbacks skip the name lookup) and registers
        this owner for :func:`close_all_owners` signal-time cleanup.
        """
        self.spec = spec
        self._segments = segments
        self._closed = False
        _CACHE.put(spec, attached)
        _LIVE_OWNERS.add(self)

    def close(self) -> None:
        """Unlink the segments.  Workers must be joined before this.

        Idempotent and safe to call from a signal handler: the closed
        flag flips first, so a re-entrant call (handler interrupting an
        in-progress close) returns immediately instead of
        double-unlinking.
        """
        if self._closed:
            return
        self._closed = True
        try:
            _CACHE.drop(self.spec)
        except RuntimeError:
            # Views over the owner's segments may legitimately outlive
            # the cache entry; dropping the entry is all close() needs.
            pass
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                # A consumer still holds views over the owner's own
                # mapping; the segment object stays open in this
                # process but the backing file is still unlinked below.
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    def __enter__(self) -> "_SharedArrayOwner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except (AttributeError, TypeError):
            # Interpreter shutdown: module globals may already be gone.
            pass


def close_all_owners() -> int:
    """Close every live owner handle in this process; returns the count.

    The teardown path behind :func:`cleanup_on_signal`, also usable
    directly by a serving loop's drain sequence.  Closing unlinks the
    ``/dev/shm`` backing files, which is the part a killed process must
    not skip — orphaned segments survive process death.
    """
    closed = 0
    for owner in list(_LIVE_OWNERS):
        if not owner._closed:
            owner.close()
            closed += 1
    return closed


def cleanup_on_signal(
    signals: tuple[signal.Signals, ...] = (signal.SIGTERM, signal.SIGINT),
) -> Callable[[], None]:
    """Install handlers that unlink owned shm segments before dying.

    ``__del__``/``finally`` safety nets never run when a process is
    killed: Python's default SIGTERM disposition terminates the
    interpreter immediately, orphaning every ``/dev/shm`` segment this
    process owns.  The installed handler closes all live owner handles
    (:func:`close_all_owners`), restores the previous disposition, and
    re-raises the signal so the process still dies with the expected
    status (and any outer handler still runs).

    Returns an ``uninstall()`` callable restoring the previous
    handlers.  Must be called from the main thread (a CPython
    ``signal.signal`` requirement).
    """
    previous: dict[int, object] = {}

    def _handler(signum: int, frame: object) -> None:
        close_all_owners()
        restored = previous.get(signum)
        if not (callable(restored) or isinstance(restored, int)):
            restored = signal.SIG_DFL
        signal.signal(signum, restored)  # type: ignore[arg-type]
        signal.raise_signal(signal.Signals(signum))

    for sig in signals:
        previous[int(sig)] = signal.signal(sig, _handler)

    def uninstall() -> None:
        for signum, handler in previous.items():
            restored = handler
            if not (callable(restored) or isinstance(restored, int)):
                restored = signal.SIG_DFL
            signal.signal(signum, restored)  # type: ignore[arg-type]

    return uninstall


class SharedTopology(_SharedArrayOwner):
    """Owner handle for a topology published to shared memory.

    The owner keeps working against the same bytes the workers see:
    ``self.spec`` is the worker-side address, and the segments live
    until :meth:`close` (or context-manager exit).
    """

    spec: SharedTopologySpec

    def __init__(self, topology: Topology) -> None:
        off_spec, off_seg, off_view = _export(np.ascontiguousarray(topology.offsets))
        nbr_spec, nbr_seg, nbr_view = _export(np.ascontiguousarray(topology.neighbors))
        fwd_spec, fwd_seg, fwd_view = _export(np.ascontiguousarray(topology.forwards))
        self._adopt(
            SharedTopologySpec(off_spec, nbr_spec, fwd_spec),
            [off_seg, nbr_seg, fwd_seg],
            Topology(off_view, nbr_view, fwd_view),
        )

    def __enter__(self) -> "SharedTopology":
        return self


def _attach_arrays(specs: tuple[SharedArraySpec, ...]) -> tuple[list[np.ndarray], list[shared_memory.SharedMemory]]:
    """Map a tuple of array specs read-only into this process."""
    segments: list[shared_memory.SharedMemory] = []
    arrays: list[np.ndarray] = []
    for array_spec in specs:
        segment = shared_memory.SharedMemory(name=array_spec.name)
        _untrack(segment)
        segments.append(segment)
        view: np.ndarray = np.ndarray(
            array_spec.shape, dtype=np.dtype(array_spec.dtype), buffer=segment.buf
        )
        freeze(view)
        arrays.append(view)
    return arrays, segments


def attach_topology(spec: SharedTopologySpec) -> Topology:
    """Map a published topology into this process (cached, read-only)."""
    cached = _CACHE.get(spec)
    if cached is not None:
        assert isinstance(cached, Topology)
        return cached
    arrays, segments = _attach_arrays((spec.offsets, spec.neighbors, spec.forwards))
    topology = Topology(arrays[0], arrays[1], arrays[2])
    _CACHE.put(spec, topology, segments)
    return topology

"""Content-addressed on-disk cache for expensive experiment artifacts.

Every cacheable producer in :mod:`repro` is a pure function of a
frozen config dataclass, so an artifact is fully identified by

* a producer **name** (``"fig8-topology"``, ``"trace-bundle"``, ...),
* the producer's **version** — an integer bumped whenever the code
  behind it changes meaning (new algorithm, new calibration), and
* the **digest** of the config: a SHA-256 over a canonical recursive
  encoding of the dataclass (field names, types and values, nested
  dataclasses included), via :func:`config_digest`.

Pickle-codec entries live under
``<cache_dir>/<name>/v<version>-<digest>.pkl`` and are written
atomically (temp file + rename), so concurrent runs never observe a
torn entry.  The global :data:`CACHE_VERSION` is folded into
every digest: bumping it invalidates the whole cache at once.

Array-heavy producers (see :data:`BLOB_PRODUCERS`) use the zero-copy
**mmap-blob** format instead: a ``v<version>-<digest>.blob/``
directory holding a ``skeleton.pkl`` (the object graph with every
large ndarray replaced by a persistent-id stub) next to one raw
``a<i>.npy`` file per extracted array.  Loading unpickles the
skeleton and attaches each array via ``np.load(..., mmap_mode="r")``
— the kernel pages CSR/posting data in on demand instead of
deserializing gigabytes up front, so a million-node topology hit is
sub-second and costs no private RSS until touched.  Blob-backed
arrays are therefore *read-only* plain ``np.ndarray`` views of the
memmaps; producers already treat cached artifacts as immutable.  A
blob producer never reads a ``.pkl`` entry: a stale one is a miss,
and the recomputed artifact replaces it with a blob.

Environment knobs:

* ``REPRO_CACHE=off`` (or ``0``/``false``/``no``) disables the cache —
  every ``cached_call`` recomputes and writes nothing.
* ``REPRO_CACHE_DIR=<path>`` overrides the location (default:
  ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from repro.obs import get_logger, log_event, metrics
from repro.runtime.sanitize import freeze, freeze_artifact, shm_sanitize_enabled

__all__ = [
    "BLOB_PRODUCERS",
    "CACHE_VERSION",
    "CacheEntry",
    "CacheInfo",
    "cache_dir",
    "cache_enabled",
    "cache_info",
    "cached_call",
    "clear_cache",
    "config_digest",
]

#: Global schema version, folded into every digest.  Bump to
#: invalidate every cached artifact at once.
CACHE_VERSION = 1

#: Producers whose artifacts are dominated by large ndarrays and are
#: stored in the zero-copy mmap-blob format by default.  The trace
#: bundle qualifies since its CSR/posting/id arrays (peer offsets,
#: song ids, name ids) dwarf the interner and config skeleton.
BLOB_PRODUCERS = frozenset({"fig8-topology", "content-index", "trace-bundle"})

#: ndarrays at or above this size are extracted into raw ``.npy``
#: blobs; smaller ones stay inline in the pickled skeleton.
_BLOB_MIN_BYTES = 16 * 1024

_BLOB_SUFFIX = ".blob"
_SKELETON_NAME = "skeleton.pkl"
_PERSISTENT_TAG = "repro-ndarray"

_ENV_SWITCH = "REPRO_CACHE"
_ENV_DIR = "REPRO_CACHE_DIR"
_OFF_VALUES = frozenset({"0", "off", "false", "no", "disabled"})

T = TypeVar("T")

_log = get_logger(__name__)


def cache_enabled() -> bool:
    """Whether the artifact cache is active (``REPRO_CACHE`` opt-out)."""
    return os.environ.get(_ENV_SWITCH, "on").strip().lower() not in _OFF_VALUES


def cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` or the XDG cache location."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _encode(obj: Any, out: list[bytes], exclude: frozenset[str]) -> None:
    """Append a canonical byte encoding of ``obj`` to ``out``.

    Tagged so that distinct structures never collide byte-wise (e.g.
    the string ``"1"`` vs the int ``1`` vs the tuple ``(1,)``).
    ``exclude`` drops the named fields of the *top-level* dataclass
    only — used for execution knobs like ``n_workers`` that do not
    affect the artifact's value.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        out.append(b"D")
        out.append(f"{cls.__module__}.{cls.__qualname__}".encode())
        for field in dataclasses.fields(obj):
            if field.name in exclude:
                continue
            out.append(b"F")
            out.append(field.name.encode())
            _encode(getattr(obj, field.name), out, frozenset())
        out.append(b"d")
    elif obj is None:
        out.append(b"N")
    elif isinstance(obj, bool):
        out.append(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        out.append(b"I" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        # repr() round-trips doubles exactly.
        out.append(b"X" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        encoded = obj.encode()
        out.append(b"S" + str(len(encoded)).encode() + b":" + encoded)
    elif isinstance(obj, bytes):
        out.append(b"Y" + str(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        out.append(b"A" + data.dtype.str.encode() + repr(data.shape).encode())
        out.append(hashlib.sha256(data.tobytes()).digest())
    elif isinstance(obj, (tuple, list)):
        out.append(b"T" if isinstance(obj, tuple) else b"L")
        for element in obj:
            _encode(element, out, frozenset())
        out.append(b"t")
    elif isinstance(obj, dict):
        out.append(b"M")
        for key in sorted(obj, key=repr):
            _encode(key, out, frozenset())
            _encode(obj[key], out, frozenset())
        out.append(b"m")
    else:
        raise TypeError(
            f"cannot canonically encode {type(obj).__name__!r} for a cache key; "
            "use dataclasses and plain scalars/tuples in configs"
        )


def config_digest(*objects: Any, exclude: tuple[str, ...] = ()) -> str:
    """Stable hex digest of one or more config objects.

    ``exclude`` names top-level dataclass fields to leave out of the
    key (execution details such as worker counts that cannot change
    the computed artifact).
    """
    parts: list[bytes] = [f"cache-schema-{CACHE_VERSION}".encode()]
    dropped = frozenset(exclude)
    for obj in objects:
        _encode(obj, parts, dropped)
    return hashlib.sha256(b"\x00".join(parts)).hexdigest()[:32]


def _entry_path(name: str, version: int, digest: str) -> Path:
    return cache_dir() / name / f"v{version}-{digest}.pkl"


def _blob_path(name: str, version: int, digest: str) -> Path:
    return cache_dir() / name / f"v{version}-{digest}{_BLOB_SUFFIX}"


def _resolve_codec(name: str, codec: str | None) -> str:
    if codec is None:
        return "mmap-blob" if name in BLOB_PRODUCERS else "pickle"
    if codec not in ("pickle", "mmap-blob"):
        raise ValueError(f"unknown cache codec {codec!r}; use 'pickle' or 'mmap-blob'")
    return codec


class _BlobPickler(pickle.Pickler):
    """Pickler that spills large ndarrays into sibling ``.npy`` files."""

    def __init__(self, handle: Any, directory: Path) -> None:
        super().__init__(handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._directory = directory
        self._count = 0

    def persistent_id(self, obj: Any) -> tuple[str, int] | None:
        if (
            isinstance(obj, np.ndarray)
            and obj.dtype != object
            and obj.nbytes >= _BLOB_MIN_BYTES
        ):
            index = self._count
            self._count += 1
            np.save(self._directory / f"a{index}.npy", np.ascontiguousarray(obj))
            return (_PERSISTENT_TAG, index)
        return None


class _BlobUnpickler(pickle.Unpickler):
    """Unpickler that resolves array stubs to read-only memmap views.

    Each array comes back as a plain ``np.ndarray`` view whose ``.base``
    is the ``np.memmap``: still zero-copy, but indexing it skips the
    Python-level ``memmap.__getitem__``/``__array_finalize__`` that a
    memmap subclass runs on every fancy index (the BFS gather does
    thousands per flood).
    """

    def __init__(self, handle: Any, directory: Path) -> None:
        super().__init__(handle)
        self._directory = directory

    def persistent_load(self, pid: Any) -> Any:
        if not (
            isinstance(pid, tuple) and len(pid) == 2 and pid[0] == _PERSISTENT_TAG
        ):
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        mapped = np.load(
            self._directory / f"a{pid[1]}.npy", mmap_mode="r", allow_pickle=False
        )
        return freeze(mapped.view(np.ndarray))


def _load_blob(blob: Path) -> Any:
    with (blob / _SKELETON_NAME).open("rb") as handle:
        return _BlobUnpickler(handle, blob).load()


def _write_blob(blob: Path, value: Any) -> None:
    """Materialize a blob entry atomically (temp dir + rename)."""
    blob.parent.mkdir(parents=True, exist_ok=True)
    temp = blob.with_name(blob.name + f".tmp-{os.getpid()}")
    if temp.exists():
        shutil.rmtree(temp)
    temp.mkdir()
    try:
        with (temp / _SKELETON_NAME).open("wb") as handle:
            _BlobPickler(handle, temp).dump(value)
        if blob.exists():
            # Only reached when the existing entry failed to load
            # (corrupt); replace it wholesale.
            shutil.rmtree(blob, ignore_errors=True)
        os.replace(temp, blob)
    except OSError:
        # A concurrent writer won the rename race; its entry is
        # equivalent (same name/version/digest), so keep it.
        shutil.rmtree(temp, ignore_errors=True)


_READ_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError, OSError, ValueError)


def cached_call(
    name: str,
    version: int,
    digest: str,
    compute: Callable[[], T],
    *,
    codec: str | None = None,
) -> T:
    """Return the cached artifact for ``(name, version, digest)``.

    On a miss (or with the cache disabled) runs ``compute()``.  Pickle
    hits deserialize a fresh object, so callers never alias each
    other's results; mmap-blob hits (producers in
    :data:`BLOB_PRODUCERS`, or ``codec="mmap-blob"``) share read-only
    pages of the large arrays through the OS page cache instead.
    Unreadable entries (torn writes from a crash, pickle format drift)
    are treated as misses and overwritten.  ``codec=None`` picks the
    registered format for ``name``.
    """
    registry = metrics()
    if not cache_enabled():
        registry.inc("artifact_cache.disabled_calls")
        return compute()
    chosen = _resolve_codec(name, codec)
    path = _entry_path(name, version, digest)
    blob = _blob_path(name, version, digest)
    if chosen == "mmap-blob" and blob.is_dir():
        try:
            value = _load_blob(blob)
        except _READ_ERRORS as exc:
            registry.inc("artifact_cache.corrupt")
            log_event(
                _log, "artifact_cache.corrupt",
                producer=name, path=str(blob), error=exc,
            )
        else:
            registry.inc("artifact_cache.hits")
            registry.inc("artifact_cache.mmap_hits")
            if shm_sanitize_enabled():
                # Inline (sub-threshold) arrays in the skeleton are
                # writable; sanitize mode freezes the whole artifact.
                freeze_artifact(value)
            return value  # type: ignore[no-any-return]
    elif chosen != "mmap-blob" and path.is_file():
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except _READ_ERRORS as exc:
            # Torn write from a crash or pickle drift: recompute below.
            registry.inc("artifact_cache.corrupt")
            log_event(
                _log, "artifact_cache.corrupt",
                producer=name, path=str(path), error=exc,
            )
        else:
            registry.inc("artifact_cache.hits")
            if shm_sanitize_enabled():
                freeze_artifact(value)
            return value  # type: ignore[no-any-return]
    registry.inc("artifact_cache.misses")
    value = compute()
    if chosen == "mmap-blob":
        _write_blob(blob, value)
        path.unlink(missing_ok=True)  # a stale pickle from before the blob format
        return value
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with temp.open("wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(temp, path)
    return value


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk artifact: where it lives and how it is encoded."""

    producer: str
    key: str  # "v<version>-<digest>"
    format: str  # "pickle" | "mmap-blob"
    n_bytes: int


@dataclass(frozen=True)
class CacheInfo:
    """Summary of the on-disk cache state."""

    path: str
    enabled: bool
    n_entries: int
    total_bytes: int
    #: entry count per producer name.
    sections: dict[str, int]
    #: every entry, sorted by (producer, key).
    entries: tuple[CacheEntry, ...] = ()


def _scan_entries(root: Path) -> list[CacheEntry]:
    found: list[CacheEntry] = []
    for entry in root.glob("*/*.pkl"):
        if ".tmp-" in entry.name:
            continue
        found.append(
            CacheEntry(
                producer=entry.parent.name,
                key=entry.name.removesuffix(".pkl"),
                format="pickle",
                n_bytes=entry.stat().st_size,
            )
        )
    for entry in root.glob(f"*/*{_BLOB_SUFFIX}"):
        if not entry.is_dir() or ".tmp-" in entry.name:
            continue
        found.append(
            CacheEntry(
                producer=entry.parent.name,
                key=entry.name.removesuffix(_BLOB_SUFFIX),
                format="mmap-blob",
                n_bytes=sum(f.stat().st_size for f in entry.iterdir() if f.is_file()),
            )
        )
    found.sort(key=lambda e: (e.producer, e.key))
    return found


def cache_info() -> CacheInfo:
    """Inventory the cache directory (cheap: stats only)."""
    root = cache_dir()
    entries: list[CacheEntry] = _scan_entries(root) if root.is_dir() else []
    sections: dict[str, int] = {}
    for entry in entries:
        sections[entry.producer] = sections.get(entry.producer, 0) + 1
    return CacheInfo(
        path=str(root),
        enabled=cache_enabled(),
        n_entries=len(entries),
        total_bytes=sum(e.n_bytes for e in entries),
        sections=sections,
        entries=tuple(entries),
    )


def clear_cache() -> int:
    """Delete every cached artifact; returns the number removed."""
    info = cache_info()
    root = cache_dir()
    if root.is_dir():
        for child in root.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()
    return info.n_entries

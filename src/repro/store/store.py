"""The persistent, content-addressed, size-capped result store.

Layout (under ``REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    index.json             LRU index: {key: {size, tick}}, logical clock
    lock                   advisory flock for index mutations
    objects/ab/abcd....json one entry (see below)

An entry file is the canonical JSON of ``{"blob", "body", "key",
"sha256"}`` followed by an optional raw binary *tail*, i.e. the bytes
``{"blob":<len>,"body":<B>,"key":"<key>","sha256":"<hex>"}<tail>``
where ``<B>`` is the canonical JSON of the body, ``<len>`` the tail's
length in bytes and ``<hex>`` the SHA-256 of the body bytes followed
by the tail bytes.  An entry without a tail omits ``"blob"``, so its
file is ``{"body":<B>,"key":"<key>","sha256":"<hex>"}``.  Writers
encode the body once and splice the wrapper around it
(:func:`_document`); readers check the fixed head, the declared tail
length and the part after the body that names the key, hash the body
and tail bytes as stored and parse only the body
(:func:`_parse_document`) — a warm read is one file read, one hash
and one parse of the body.  The tail is handed back as a view of the
bytes read, so a reader such as :mod:`repro.store.incremental` can
view numbers in it without copying or decoding them.

Guarantees:

* **atomicity** — payloads and the index are written tmp+rename
  (:mod:`repro.store.atomic`), so readers never see torn entries;
* **self-verification** — every entry carries the SHA-256 of its
  body's and tail's stored bytes; any file that is not exactly the
  document the store writes for its key (bit rot, truncation, appended
  bytes, a wrong key or tail length, manual edits — even ones that
  reformat equal JSON) is treated as a miss, the entry is dropped, and
  ``corrupt`` is counted — never an exception;
* **bounded size** — a byte-capped LRU: the index orders entries by a
  persisted logical ``tick`` (no wall clock anywhere, so replays and
  tests stay deterministic) and :meth:`ResultStore.put` evicts
  oldest-first past the cap;
* **graceful degradation** — a read-only, missing, or otherwise broken
  cache directory turns every operation into a counted no-op/miss; the
  caller recomputes and the run still succeeds.

Concurrency: index mutations take an advisory inter-process
:class:`~repro.store.atomic.FileLock` plus an in-process mutex; entry
reads are lock-free (rename atomicity makes any visible file whole).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from .atomic import FileLock, atomic_write_bytes, atomic_write_text
from .fingerprint import canonical_json

__all__ = [
    "DEFAULT_MAX_BYTES",
    "ResultStore",
    "cache_enabled_by_env",
    "default_cache_dir",
    "default_store",
    "resolve_store",
]

#: Default size cap (bytes) unless ``REPRO_CACHE_MAX_BYTES`` overrides.
DEFAULT_MAX_BYTES = 512 * 2**20

_INDEX_VERSION = 1

#: An entry document's fixed heads and the parts after the body.
_HEAD = b'{"body":'
_BLOB_HEAD = b'{"blob":'
_BODY_SEP = b',"body":'
_KEY_SEP = b',"key":'
_SHA_SEP = b',"sha256":"'
_END = b'"}'
_SHA_LEN = 64
#: Longest tail length field read: 19 digits exceed any file size.
_BLOB_DIGITS = 19

#: ``(body, tail)`` of one entry; the tail is empty for most kinds.
Entry = Tuple[object, memoryview]


def _document(key: str, body: object, tail: bytes = b"") -> bytes:
    """The entry file for ``body`` and ``tail`` under ``key``.

    Without a tail, byte-identical to ``canonical_json({"key": key,
    "sha256": sha, "body": body})`` with ``sha`` the SHA-256 of the
    body's canonical JSON; with one, to ``canonical_json({"blob":
    len(tail), ...})`` with ``sha`` taken over the body bytes then the
    tail, followed by the tail.  The body is encoded once.  Raises
    ``TypeError`` or ``ValueError`` when the body does not encode
    canonically.
    """
    encoded = canonical_json(body).encode("ascii")
    digest = hashlib.sha256(encoded)
    if tail:
        digest.update(tail)
        head = b"%s%d%s" % (_BLOB_HEAD, len(tail), _BODY_SEP)
    else:
        head = _HEAD
    return b"".join((
        head,
        encoded,
        _KEY_SEP,
        canonical_json(key).encode("ascii"),
        _SHA_SEP,
        digest.hexdigest().encode("ascii"),
        _END,
        tail,
    ))


def _parse_document(key: str, raw: bytes) -> Optional[Entry]:
    """``(body, tail)`` of entry file ``raw`` if it is ``key``'s document.

    Checks the head (with a tail, a canonical positive length that
    fits the file), the part after the body that names ``key``, hashes
    the body and tail bytes as stored against the checksum and parses
    only the body.  Anything else gives ``None``.
    """
    blob = 0
    start = len(_HEAD)
    if raw.startswith(_BLOB_HEAD):
        digits_at = len(_BLOB_HEAD)
        sep = raw.find(b",", digits_at, digits_at + _BLOB_DIGITS + 1)
        digits = raw[digits_at:max(sep, digits_at)]
        if (
            not digits.isdigit()
            or digits.startswith(b"0")
            or raw[sep:sep + len(_BODY_SEP)] != _BODY_SEP
        ):
            return None
        blob = int(digits)
        start = sep + len(_BODY_SEP)
    elif not raw.startswith(_HEAD):
        return None
    stop = len(raw) - blob
    suffix = _KEY_SEP + canonical_json(key).encode("ascii") + _SHA_SEP
    sha_at = stop - len(_END) - _SHA_LEN
    body_end = sha_at - len(suffix)
    if (
        body_end < start
        or raw[sha_at + _SHA_LEN:stop] != _END
        or raw[body_end:sha_at] != suffix
    ):
        return None
    encoded = raw[start:body_end]
    tail = memoryview(raw)[stop:]
    digest = hashlib.sha256(encoded)
    digest.update(tail)
    if digest.hexdigest().encode("ascii") != raw[sha_at:sha_at + _SHA_LEN]:
        return None
    try:
        return json.loads(encoded), tail
    except ValueError:
        return None


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_enabled_by_env() -> bool:
    """Whether the persistent store is opted in for this process.

    The store is **opt-in**: set ``REPRO_CACHE_DIR`` (explicit
    location) or ``REPRO_CACHE=1`` (default location) to enable it;
    ``REPRO_NO_CACHE=1`` wins over both.  Library callers can always
    pass a :class:`ResultStore` (or ``cache=True``) explicitly.
    """
    if os.environ.get("REPRO_NO_CACHE"):
        return False
    return bool(
        os.environ.get("REPRO_CACHE_DIR") or os.environ.get("REPRO_CACHE")
    )


class ResultStore:
    """Content-addressed JSON store with checksums and LRU eviction."""

    def __init__(
        self,
        root: Optional[Path] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            try:
                max_bytes = int(
                    os.environ.get("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES)
                )
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        self.max_bytes = max_bytes
        #: Per-instance operation counters (``store.*`` obs names).
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
            "corrupt": 0,
            "errors": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }
        self._mutex = threading.Lock()
        self._broken = False

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def lock_path(self) -> Path:
        return self.root / "lock"

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        with self._mutex:
            self.counters[name] = self.counters.get(name, 0) + n

    def snapshot_counters(self) -> Dict[str, int]:
        """A copy of the operation counters (for obs deltas)."""
        with self._mutex:
            return dict(self.counters)

    # ------------------------------------------------------------------
    # Index
    # ------------------------------------------------------------------
    def _empty_index(self) -> Dict[str, object]:
        return {"version": _INDEX_VERSION, "tick": 0, "entries": {}}

    def _load_index(self) -> Dict[str, object]:
        """The on-disk index, rebuilt from the objects tree if damaged."""
        index = self._read_index()
        return index if index is not None else self._rebuild_index()

    def _read_index(self) -> Optional[Dict[str, object]]:
        """The on-disk index, or ``None`` if it is missing or damaged.

        Damaged means unreadable JSON, or any other shape than the one
        :meth:`_save_index` writes: the current version, an int clock,
        and an entries dict of ``{"size": int, "tick": int}`` dicts.
        A damaged index counts as one corrupt read.
        """
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, ValueError):
            self._count("corrupt")
            return None
        if _index_shape_ok(payload):
            return payload
        self._count("corrupt")
        return None

    def _rebuild_index(self) -> Dict[str, object]:
        """Recover an index by scanning ``objects/`` (sorted, tick 0)."""
        index = self._empty_index()
        entries: Dict[str, Dict[str, int]] = index["entries"]  # type: ignore[assignment]
        objects = self.root / "objects"
        try:
            for path in sorted(objects.rglob("*.json")):
                entries[path.stem] = {"size": path.stat().st_size, "tick": 0}
        except OSError:
            self._count("errors")
        return index

    def _save_index(self, index: Dict[str, object]) -> None:
        atomic_write_text(self.index_path, canonical_json(index) + "\n")

    def _ensure_dirs(self) -> bool:
        if self._broken:
            return False
        try:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            return True
        except OSError:
            self._broken = True
            self._count("errors")
            return False

    # ------------------------------------------------------------------
    # Entry I/O
    # ------------------------------------------------------------------
    def get(self, key: str, touch: bool = True) -> Optional[Entry]:
        """The stored ``(body, tail)`` for ``key``, or ``None``.

        Corrupt entries (anything but the exact document
        :func:`_document` writes for ``key``) are dropped and counted as
        ``corrupt`` — the caller simply sees a miss.  Filesystem errors
        count as ``errors`` and also miss.  The tail is a read-only view
        of the bytes read, empty when the entry was stored without one.
        ``touch=False`` skips the LRU-tick refresh so batch readers can
        coalesce it into one :meth:`touch_many` index write.
        """
        path = self._object_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError:
            self._count("errors")
            self._count("misses")
            return None
        entry = _parse_document(key, raw)
        if entry is None:
            self._count("corrupt")
            self._count("misses")
            self._drop(key)
            return None
        self._count("hits")
        self._count("bytes_read", len(raw))
        if touch:
            self.touch_many([key])
        return entry

    def put(self, key: str, body: dict, tail: bytes = b"") -> bool:
        """Store ``body`` and a raw ``tail`` under ``key``; evict past the cap.

        Returns ``True`` when the entry landed on disk.  Any failure
        (read-only directory, full disk, un-encodable body) is counted
        and swallowed — persistence is an optimisation, never a
        correctness dependency.
        """
        if self.max_bytes <= 0 or not self._ensure_dirs():
            return False
        size = self._write(key, body, tail)
        if size is None:
            return False
        self._index_written({key: size})
        return True

    def put_many(
        self,
        items: Dict[str, dict],
        tails: Optional[Dict[str, bytes]] = None,
    ) -> int:
        """Store several bodies with one index update; returns stores.

        ``tails`` maps a key to its entry's raw tail (none by default).
        Payload files are written (atomically) one by one, then a
        single locked index pass assigns ticks in insertion order and
        runs eviction once — a cold 8k-point sweep costs one index
        write, not one per group.
        """
        if self.max_bytes <= 0 or not items or not self._ensure_dirs():
            return 0
        tails = tails or {}
        written: Dict[str, int] = {}
        for key, body in items.items():
            size = self._write(key, body, tails.get(key, b""))
            if size is not None:
                written[key] = size
        if written:
            self._index_written(written)
        return len(written)

    def _write(self, key: str, body: dict, tail: bytes) -> Optional[int]:
        """Write one entry file; its size, or ``None`` (counted) on failure."""
        try:
            document = _document(key, body, tail)
        except (TypeError, ValueError):
            self._count("errors")
            return None
        path = self._object_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, document)
        except OSError:
            self._count("errors")
            return None
        self._count("puts")
        self._count("bytes_written", len(document))
        return len(document)

    def _index_written(self, written: Dict[str, int]) -> None:
        """Index freshly written entries (key → size) as the newest, then
        evict past the cap: one locked index write."""
        try:
            with FileLock(self.lock_path):
                index = self._load_index()
                entries: Dict[str, Dict[str, int]] = index["entries"]  # type: ignore[assignment]
                tick: int = index["tick"]  # type: ignore[assignment]
                for key, size in written.items():
                    tick += 1
                    entries[key] = {"size": size, "tick": tick}
                index["tick"] = tick
                self._evict_locked(index)
                self._save_index(index)
        except OSError:
            self._count("errors")

    def touch_many(self, keys) -> None:
        """Refresh the LRU tick of several keys in one index write.

        Skips the write when the present keys, in the order a refresh
        would leave them (by last occurrence), already hold the newest
        ticks of an intact on-disk index: the refresh could then change
        no eviction order, only renumber it.
        """
        keys = [key for key in keys if key]
        if not keys:
            return
        try:
            with FileLock(self.lock_path):
                index = self._read_index()
                if index is None:
                    index = self._rebuild_index()
                elif _already_newest(index, keys):
                    return
                entries: Dict[str, Dict[str, int]] = index["entries"]  # type: ignore[assignment]
                tick: int = index["tick"]  # type: ignore[assignment]
                dirty = False
                for key in keys:
                    if key in entries:
                        tick += 1
                        entries[key]["tick"] = tick
                        dirty = True
                if dirty:
                    index["tick"] = tick
                    self._save_index(index)
        except OSError:
            self._count("errors")

    def _drop(self, key: str) -> None:
        """Remove one entry's file and index row (best-effort).

        A damaged or missing index is rebuilt and saved even when it no
        longer lists ``key``, so a repair leaves a readable index.
        """
        try:
            os.unlink(self._object_path(key))
        except OSError:
            pass
        try:
            with FileLock(self.lock_path):
                index = self._read_index()
                rebuilt = index is None
                if rebuilt:
                    index = self._rebuild_index()
                listed = index["entries"].pop(key, None) is not None  # type: ignore[union-attr]
                if listed or rebuilt:
                    self._save_index(index)
        except OSError:
            self._count("errors")

    def _evict_locked(self, index: Dict[str, object]) -> int:
        """Evict oldest-tick entries until under the cap (lock held)."""
        entries: Dict[str, Dict[str, int]] = index["entries"]  # type: ignore[assignment]
        total = sum(e["size"] for e in entries.values())
        evicted = 0
        while total > self.max_bytes and entries:
            victim = min(entries, key=lambda k: (entries[k]["tick"], k))
            total -= entries[victim]["size"]
            del entries[victim]
            try:
                os.unlink(self._object_path(victim))
            except OSError:
                pass
            evicted += 1
        if evicted:
            self._count("evictions", evicted)
        return evicted

    # ------------------------------------------------------------------
    # Maintenance (the ``repro cache`` CLI)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Entry count, byte totals, cap and location (JSON-ready)."""
        index = self._load_index()
        entries: Dict[str, Dict[str, int]] = index["entries"]  # type: ignore[assignment]
        return {
            "path": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(e["size"] for e in entries.values()),
            "max_bytes": self.max_bytes,
            "counters": self.snapshot_counters(),
        }

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Enforce the size cap now; returns the number evicted."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        try:
            with FileLock(self.lock_path):
                index = self._load_index()
                keep, self.max_bytes = self.max_bytes, cap
                try:
                    evicted = self._evict_locked(index)
                finally:
                    self.max_bytes = keep
                self._save_index(index)
            return evicted
        except OSError:
            self._count("errors")
            return 0

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        index = self._load_index()
        removed = len(index["entries"])  # type: ignore[arg-type]
        try:
            shutil.rmtree(self.root / "objects", ignore_errors=True)
            with FileLock(self.lock_path):
                self._save_index(self._empty_index())
        except OSError:
            self._count("errors")
            return 0
        return removed

    def verify(self, repair: bool = True) -> Dict[str, int]:
        """Checksum every entry; drop (or just report) corrupt ones."""
        checked = corrupt = 0
        objects = self.root / "objects"
        try:
            paths = sorted(objects.rglob("*.json"))
        except OSError:
            self._count("errors")
            paths = []
        for path in paths:
            checked += 1
            key = path.stem
            try:
                ok = _parse_document(key, path.read_bytes()) is not None
            except OSError:
                ok = False
            if not ok:
                corrupt += 1
                self._count("corrupt")
                if repair:
                    self._drop(key)
        return {"checked": checked, "corrupt": corrupt}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultStore({str(self.root)!r}, max_bytes={self.max_bytes})"


def _index_shape_ok(payload: object) -> bool:
    """Whether ``payload`` has the shape of a saved index document."""
    if not (
        isinstance(payload, dict)
        and payload.get("version") == _INDEX_VERSION
        and type(payload.get("tick")) is int
        and isinstance(payload.get("entries"), dict)
    ):
        return False
    return all(
        type(entry) is dict
        and type(entry.get("size")) is int
        and type(entry.get("tick")) is int
        for entry in payload["entries"].values()
    )


def _already_newest(index: Dict[str, object], keys) -> bool:
    """Whether refreshing ``keys`` would leave ``index``'s LRU order as is.

    True when the distinct keys present, ordered by last occurrence (the
    order a refresh gives them), hold exactly the last ticks of the
    logical clock, in that order, and no other entry holds any of those
    ticks or a later one.
    """
    entries: Dict[str, Dict[str, int]] = index["entries"]  # type: ignore[assignment]
    order = list(dict.fromkeys(k for k in reversed(keys) if k in entries))
    order.reverse()
    low = index["tick"] - len(order) + 1  # type: ignore[operator]
    return all(
        entries[key]["tick"] == low + i for i, key in enumerate(order)
    ) and len(order) == sum(
        1 for entry in entries.values() if entry["tick"] >= low
    )


_DEFAULT_STORES: Dict[str, ResultStore] = {}


def resolve_store(cache) -> Optional[ResultStore]:
    """Map the public ``cache=`` knob onto a store instance (or None).

    ``False`` → never; a :class:`ResultStore` → itself; ``True`` → the
    default store; ``None`` (the default) → the default store only when
    the environment opted in (:func:`cache_enabled_by_env`).
    """
    if cache is False or (cache is None and not cache_enabled_by_env()):
        return None
    if isinstance(cache, ResultStore):
        return cache
    return default_store()


def default_store() -> ResultStore:
    """The process-wide store for the current cache directory.

    One instance per resolved directory, so tests that repoint
    ``REPRO_CACHE_DIR`` get a fresh store while normal processes share
    counters across the run.
    """
    root = str(default_cache_dir())
    store = _DEFAULT_STORES.get(root)
    if store is None:
        store = ResultStore(Path(root))
        _DEFAULT_STORES[root] = store
    return store

"""Crash-safe filesystem primitives for the result store.

Every entry the store writes, and every index write that adds or
removes entries, goes through :func:`atomic_write_bytes` (tmp file +
``fsync`` + ``os.replace``), so a reader can never observe a torn
entry: it sees the old payload, the new payload, or nothing.  An LRU
refresh of the index goes through :func:`overwrite_bytes` instead: in
place, no rename, no ``fsync``; a refresh changes only ticks, and a
torn or lost one reads as a damaged index, which the store rebuilds
and counts.  This is the *only* module under :mod:`repro.store`
allowed to open files for writing — reprolint rule RL107 rejects any
other write path, which keeps the crash-safety argument local to this
file.

:class:`FileLock` serialises index mutations across processes with an
advisory ``flock`` where the platform offers one, and degrades to a
no-op (never an exception) where it does not — the store's contract is
that a broken or restricted filesystem costs recomputation, not a
crash.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

__all__ = ["FileLock", "atomic_write_bytes", "atomic_write_text", "overwrite_bytes"]

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + rename).

    The temporary file lives in the target directory so the final
    ``os.replace`` is a same-filesystem rename, which POSIX guarantees
    atomic.  Raises ``OSError`` on failure (callers decide whether to
    degrade); never leaves a partial file under the final name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def overwrite_bytes(path: Path, data: bytes) -> None:
    """Overwrite ``path`` with ``data`` in place: no tmp file, rename or
    ``fsync``.

    Not atomic and not durable: a crash, or a reader that does not hold
    the writer's lock, may see the old bytes, the new ones, a mix or a
    truncated file.  Only for files whose damage the caller detects and
    repairs.  A missing file is written with :func:`atomic_write_bytes`.
    Raises ``OSError`` on failure.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        atomic_write_bytes(path, data)
        return
    with handle:
        handle.write(data)
        handle.truncate()


class FileLock:
    """Advisory inter-process lock around store index mutations.

    ``with FileLock(dir / "lock"):`` holds an exclusive ``flock`` for
    the block.  Anything that prevents locking (no ``fcntl`` on this
    platform, unwritable directory, exotic filesystem) downgrades the
    lock to a no-op and records it on :attr:`degraded` — concurrent
    writers may then race, but the atomic payload writes keep every
    individual entry internally consistent.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.degraded = False
        self._fd: Optional[int] = None

    def __enter__(self) -> "FileLock":
        if fcntl is None:
            self.degraded = True
            return self
        try:
            self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        except OSError:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None
            self.degraded = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            except OSError:
                pass
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

"""Cross-process advisory file locks (``O_EXCL`` lock files).

Extracted from the sweep :class:`~repro.bench.parallel.ResultCache` so
every on-disk store that multiple tuning processes may share — the
result cache, the :class:`~repro.adcl.history.HistoryStore`, the
:class:`~repro.adcl.checkpoint.CheckpointStore`, the tuning daemon's
knowledge shards — serializes its writers the same way:

* acquisition is ``open(path + ".lock", O_CREAT | O_EXCL)`` — atomic on
  every platform we care about, no fcntl/flock portability trouble;
* the holder's pid is written into the lock file, so a lock whose
  holder is *dead* (a SIGKILLed tuner) is broken immediately instead of
  stalling every other writer;
* a lock with no readable pid is broken only after ``stale_s`` seconds
  (a crashed writer that never got to write its pid).

A :class:`FileLock` is advisory: it only serializes writers that opt
in.  That is exactly the contract the stores need — readers never
block (they read atomically-renamed files), writers coordinate.
"""

from __future__ import annotations

import os
import time
from typing import Optional

__all__ = ["FileLock"]


class FileLock:
    """Advisory ``O_EXCL`` lock file guarding ``target``.

    Parameters
    ----------
    target:
        The file the lock protects; the lock file is ``target + ".lock"``.
    stale_s:
        Age after which a pid-less lock is presumed abandoned.

    Usage::

        lock = FileLock(path)
        if lock.acquire(timeout=5.0):
            try:
                ...  # read-merge-write the target
            finally:
                lock.release()
    """

    #: a pid-less lock file older than this is a crashed writer's leftovers
    STALE_S = 30.0

    def __init__(self, target: str, stale_s: float = STALE_S):
        self.path = target + ".lock"
        self.stale_s = stale_s
        self._held = False
        #: locks broken because their holder pid was dead / they were stale
        self.broken = 0

    # ------------------------------------------------------------------

    def try_acquire(self) -> bool:
        """One non-blocking attempt (breaking a stale lock if found)."""
        for attempt in (0, 1):
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if attempt:
                    return False
                if not self._is_stale():
                    return False
                try:
                    os.unlink(self.path)  # crashed writer: break the lock
                    self.broken += 1
                except OSError:
                    return False
                continue
            try:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            finally:
                os.close(fd)
            self._held = True
            return True
        return False

    def acquire(self, timeout: float = 0.0) -> bool:
        """Acquire, retrying every 10 ms up to ``timeout`` seconds
        (0 = one try)."""
        deadline = time.monotonic() + timeout
        while True:
            if self.try_acquire():
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # ------------------------------------------------------------------

    def holder_pid(self) -> Optional[int]:
        """Pid recorded in the lock file (None when unreadable)."""
        try:
            with open(self.path, encoding="ascii") as fh:
                pid = int(fh.read().strip() or "0")
        except (OSError, ValueError):
            return None
        return pid if pid > 0 else None

    def _is_stale(self) -> bool:
        """A lock is stale when its recorded holder died, or — with no
        readable pid — when it is older than ``stale_s``."""
        holder = self.holder_pid()
        if holder is not None and holder != os.getpid():
            try:
                os.kill(holder, 0)
            except ProcessLookupError:
                return True  # the holder died without releasing
            except PermissionError:
                pass  # alive, just not ours to signal
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return False  # holder just released; caller retries the open
        return age >= self.stale_s

    def __enter__(self) -> "FileLock":
        self.acquire(timeout=self.stale_s)
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover
        state = "held" if self._held else "free"
        return f"<FileLock {self.path!r} {state}>"

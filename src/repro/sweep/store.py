"""The persistent verdict store: re-running a sweep across sessions is incremental.

A verdict store maps content-addressed instance keys
(:func:`repro.sweep.fingerprint.instance_key`) to the boolean game value,
plus a little provenance (instance name, solve time).  Because the key
digests everything the game value depends on, a store entry can be trusted
unconditionally: a changed machine, graph, identifier assignment,
certificate space or prefix changes the key and therefore misses.

:class:`SQLiteVerdictStore` is the one implementation: verdicts, canonical
node verdicts and the dynamic sessions' journal live in one database.
File-backed stores open in WAL mode with a busy timeout and an internal
lock, so one store object can be shared between the threads of a serving
daemon and concurrent processes can read while one writes.  Pool workers
share one store file, so a verdict any worker persists is a tier-2 hit
for all of them.  :class:`VerdictStore` is the interface it implements (and
that :class:`repro.service.resilience.FaultingStore` wraps).

A daemon's event loop must never wait on a lock, so ``get``,
``journal_append`` and ``len`` each have a non-blocking twin
(``get_nowait``, ``journal_append_nowait``, ``len_nowait``) that raises
:class:`WouldBlock` where the blocking call would wait; the caller then
makes the blocking call on a worker thread, or reports an older count.

:func:`open_store` opens a store from a path: ``None`` or ``memory://``
gives a private in-memory database, ``sqlite://PATH`` or a bare path (any
suffix, including ``:memory:``) a SQLite database at that path; any other
``scheme://`` is rejected.  Parent directories of on-disk stores are
created on open, so a daemon can be pointed at a fresh state directory
without a bootstrap step.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar

#: A stored verdict: (verdict, instance name, cold solve seconds).
StoredVerdict = Tuple[bool, str, float]

Result = TypeVar("Result")

_GET = "SELECT verdict FROM verdicts WHERE key = ?"
_COUNT = "SELECT COUNT(*) FROM verdicts"
_JOURNAL_APPEND = (
    "INSERT OR REPLACE INTO session_journal (session, seq, entry, created)"
    " VALUES (?, ?, ?, ?)"
)


class WouldBlock(Exception):
    """A non-blocking store call would have waited: for the store's lock
    (another thread is using the connection) or for the database (another
    connection holds a lock on it).  Nothing was read or written; the
    blocking call does the same work."""


class VerdictStore:
    """The verdict-store interface (also usable as a context manager)."""

    def get(self, key: str) -> Optional[bool]:
        raise NotImplementedError

    def get_nowait(self, key: str) -> Optional[bool]:
        """:meth:`get`, raising :class:`WouldBlock` instead of waiting."""
        raise NotImplementedError

    def get_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        """Verdicts for every *known* key among *keys* (missing keys absent)."""
        raise NotImplementedError

    def put(self, key: str, verdict: bool, name: str = "", seconds: float = 0.0) -> None:
        raise NotImplementedError

    def put_many(self, records: Iterable[Tuple[str, bool, str, float]]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Node verdicts (the canonical ball cache's persistence tier)
    # ------------------------------------------------------------------
    def get_node(self, key: str) -> Optional[bool]:
        """A persisted canonical node verdict (``None`` when unknown).

        Node verdicts are keyed by the canonical ball signature
        (:mod:`repro.engine.canonical`): one entry answers the same local
        neighborhood wherever it reappears -- other nodes, other graphs,
        other sessions.
        """
        raise NotImplementedError

    def get_node_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        raise NotImplementedError

    def put_node(self, key: str, verdict: bool) -> None:
        raise NotImplementedError

    def put_node_many(self, records: Iterable[Tuple[str, bool]]) -> None:
        """Persist canonical node verdicts."""
        raise NotImplementedError

    def node_count(self) -> int:
        """How many canonical node verdicts are persisted."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Session journal (the dynamic sessions' write-ahead mutation log)
    # ------------------------------------------------------------------
    def journal_append(self, session: str, seq: int, entry: Dict) -> None:
        """Persist journal *entry* number *seq* of dynamic session *session*.

        Entry 0 records the session's opening address; entry ``n`` records
        the ``n``-th applied delta batch in wire form.  Replaying entries in
        sequence rebuilds the session's exact mutable state after a crash
        (:meth:`repro.service.server.VerdictService.recover_sessions`).
        """
        raise NotImplementedError

    def journal_append_nowait(self, session: str, seq: int, entry: Dict) -> bool:
        """:meth:`journal_append`, raising :class:`WouldBlock` instead of
        waiting.  Returns ``True`` when the caller should run
        :meth:`checkpoint` (off the event loop)."""
        raise NotImplementedError

    def checkpoint(self) -> None:
        """Fold the write-ahead log back into the database (it may wait for
        this store's writers; a no-op where there is no such log)."""

    def journal_entries(self, session: str) -> List[Tuple[int, Dict]]:
        """All journaled ``(seq, entry)`` pairs of *session*, in order."""
        raise NotImplementedError

    def journal_sessions(self) -> List[str]:
        """Names of every session with at least one journal entry."""
        raise NotImplementedError

    def journal_clear(self, session: str) -> None:
        """Drop all journal entries of *session* (it was closed cleanly)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def len_nowait(self) -> int:
        """``len(store)``, raising :class:`WouldBlock` instead of waiting."""
        raise NotImplementedError

    def items(self) -> Iterator[Tuple[str, StoredVerdict]]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SQLiteVerdictStore(VerdictStore):
    """Verdicts in a single-table SQLite database.

    File-backed databases run in WAL mode (readers never block the writer
    and vice versa) with ``busy_timeout`` so a briefly locked database is
    waited out instead of surfacing ``database is locked``.  Connections
    are opened with ``check_same_thread=False`` and every statement goes
    through an internal lock, so one store object is safe to share between
    the threads of an asyncio daemon (event loop + worker pool).

    File-backed stores keep *two* connections: writes go through one, the
    hot read paths (``get`` / ``get_many`` / ``get_node`` /
    ``get_node_many``) through another with its own lock.  WAL already
    guarantees readers never wait on the database's writer; the second
    connection extends that to this process -- a reader never waits out a
    *sibling process's* commit behind our own writer's busy-timeout spin,
    which matters when several pool workers share one store file.

    A third connection serves the non-blocking calls (``get_nowait``,
    ``journal_append_nowait``, ``len_nowait``), under a lock they only
    try: its ``busy_timeout`` is 0, so a locked database raises
    :class:`WouldBlock` at once, and its ``wal_autocheckpoint`` is 0, so
    none of its commits copies the log back into the database.  Every
    :attr:`CHECKPOINT_EVERY`-th of them asks the caller to run
    :meth:`checkpoint` instead.  In-memory stores have no other
    connection to wait for: there the non-blocking calls use the writer's
    connection, and only its lock can make them raise.
    """

    #: How many keys one bulk ``SELECT ... IN (...)`` carries at most
    #: (SQLite's default variable limit is 999).
    GET_MANY_CHUNK = 500

    #: Commits of the non-blocking connection per requested checkpoint.
    CHECKPOINT_EVERY = 1000

    def __init__(self, path: str, busy_timeout_ms: int = 5000) -> None:
        self.path = path
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
        if path != ":memory:":
            # WAL persists in the database file; in-memory databases only
            # support the default journal and would ignore the pragma.
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS verdicts ("
            "  key TEXT PRIMARY KEY,"
            "  verdict INTEGER NOT NULL,"
            "  name TEXT NOT NULL DEFAULT '',"
            "  seconds REAL NOT NULL DEFAULT 0,"
            "  created REAL NOT NULL"
            ")"
        )
        # Canonical node verdicts (repro.engine.canonical): one row per
        # distinct (ball signature, certificate restriction).  Created
        # alongside the main table, so pre-existing stores migrate on open.
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS node_verdicts ("
            "  key TEXT PRIMARY KEY,"
            "  verdict INTEGER NOT NULL,"
            "  created REAL NOT NULL"
            ")"
        )
        # The dynamic sessions' write-ahead mutation journal: one row per
        # (session, batch) with the batch in wire-JSON form.  Replayed by
        # the daemon's recover_sessions() after a crash.
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS session_journal ("
            "  session TEXT NOT NULL,"
            "  seq INTEGER NOT NULL,"
            "  entry TEXT NOT NULL,"
            "  created REAL NOT NULL,"
            "  PRIMARY KEY (session, seq)"
            ")"
        )
        # Older stores carry an append-log table nothing reads: free its pages.
        self._connection.execute("DROP TABLE IF EXISTS verdict_log")
        self._connection.commit()
        # The read connection opens after the schema is committed, so it
        # always sees the migrated tables.  In-memory databases are private
        # per connection: there the "read connection" is the writer itself.
        if path != ":memory:":
            self._read_lock: threading.RLock = threading.RLock()
            self._read_connection = sqlite3.connect(path, check_same_thread=False)
            self._read_connection.execute(
                f"PRAGMA busy_timeout = {int(busy_timeout_ms)}"
            )
            self._nowait_lock = threading.Lock()
            self._nowait_connection = sqlite3.connect(path, check_same_thread=False)
            self._nowait_connection.execute("PRAGMA busy_timeout = 0")
            self._nowait_connection.execute("PRAGMA wal_autocheckpoint = 0")
            # Per connection, like the writer's: no fsync on each commit.
            self._nowait_connection.execute("PRAGMA synchronous = NORMAL")
        else:
            self._read_lock = self._nowait_lock = self._lock
            self._read_connection = self._nowait_connection = self._connection
        self._nowait_commits = 0

    def _nowait(self, work: Callable[[sqlite3.Connection], Result]) -> Result:
        """``work(connection)`` on the non-blocking connection, or
        :class:`WouldBlock` when its lock or the database is taken."""
        if not self._nowait_lock.acquire(blocking=False):
            raise WouldBlock("another thread is using the store's connection")
        connection = self._nowait_connection
        try:
            return work(connection)
        except sqlite3.OperationalError as error:
            if connection.in_transaction:
                connection.rollback()
            if error.sqlite_errorcode & 0xFF in (sqlite3.SQLITE_BUSY, sqlite3.SQLITE_LOCKED):
                raise WouldBlock(str(error)) from error
            raise
        finally:
            self._nowait_lock.release()

    def get(self, key: str) -> Optional[bool]:
        with self._read_lock:
            row = self._read_connection.execute(_GET, (key,)).fetchone()
        return None if row is None else bool(row[0])

    def get_nowait(self, key: str) -> Optional[bool]:
        row = self._nowait(lambda connection: connection.execute(_GET, (key,)).fetchone())
        return None if row is None else bool(row[0])

    def get_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        key_list = list(keys)
        found: Dict[str, bool] = {}
        with self._read_lock:
            for start in range(0, len(key_list), self.GET_MANY_CHUNK):
                chunk = key_list[start : start + self.GET_MANY_CHUNK]
                placeholders = ",".join("?" * len(chunk))
                for key, verdict in self._read_connection.execute(
                    f"SELECT key, verdict FROM verdicts WHERE key IN ({placeholders})",
                    chunk,
                ):
                    found[key] = bool(verdict)
        return found

    def put(self, key: str, verdict: bool, name: str = "", seconds: float = 0.0) -> None:
        self.put_many([(key, verdict, name, seconds)])

    def put_many(self, records: Iterable[Tuple[str, bool, str, float]]) -> None:
        now = time.time()
        rows = [
            (key, int(bool(verdict)), name, seconds, now)
            for key, verdict, name, seconds in records
        ]
        with self._lock:
            self._connection.executemany(
                "INSERT OR REPLACE INTO verdicts (key, verdict, name, seconds, created)"
                " VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            self._connection.commit()

    def get_node(self, key: str) -> Optional[bool]:
        with self._read_lock:
            row = self._read_connection.execute(
                "SELECT verdict FROM node_verdicts WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else bool(row[0])

    def get_node_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        key_list = list(keys)
        found: Dict[str, bool] = {}
        with self._read_lock:
            for start in range(0, len(key_list), self.GET_MANY_CHUNK):
                chunk = key_list[start : start + self.GET_MANY_CHUNK]
                placeholders = ",".join("?" * len(chunk))
                for key, verdict in self._read_connection.execute(
                    f"SELECT key, verdict FROM node_verdicts WHERE key IN ({placeholders})",
                    chunk,
                ):
                    found[key] = bool(verdict)
        return found

    def put_node(self, key: str, verdict: bool) -> None:
        self.put_node_many([(key, verdict)])

    def put_node_many(self, records: Iterable[Tuple[str, bool]]) -> None:
        now = time.time()
        rows = [(key, int(bool(verdict)), now) for key, verdict in records]
        if not rows:
            return
        with self._lock:
            self._connection.executemany(
                "INSERT OR REPLACE INTO node_verdicts (key, verdict, created)"
                " VALUES (?, ?, ?)",
                rows,
            )
            self._connection.commit()

    def node_count(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM node_verdicts"
            ).fetchone()
        return int(count)

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(_COUNT).fetchone()
        return int(count)

    def len_nowait(self) -> int:
        (count,) = self._nowait(lambda connection: connection.execute(_COUNT).fetchone())
        return int(count)

    def items(self) -> Iterator[Tuple[str, StoredVerdict]]:
        with self._lock:
            rows: List[Tuple[str, int, str, float]] = self._connection.execute(
                "SELECT key, verdict, name, seconds FROM verdicts"
            ).fetchall()
        for key, verdict, name, seconds in rows:
            yield key, (bool(verdict), name, seconds)

    def journal_append(self, session: str, seq: int, entry: Dict) -> None:
        row = (session, int(seq), json.dumps(entry, sort_keys=True), time.time())
        with self._lock:
            self._connection.execute(_JOURNAL_APPEND, row)
            self._connection.commit()

    def journal_append_nowait(self, session: str, seq: int, entry: Dict) -> bool:
        row = (session, int(seq), json.dumps(entry, sort_keys=True), time.time())

        def append(connection: sqlite3.Connection) -> bool:
            connection.execute(_JOURNAL_APPEND, row)
            connection.commit()
            if self.path == ":memory:":
                return False
            self._nowait_commits += 1
            if self._nowait_commits < self.CHECKPOINT_EVERY:
                return False
            self._nowait_commits = 0
            return True

        return self._nowait(append)

    def checkpoint(self) -> None:
        # Under both writing connections' locks, so no commit of this store
        # lands mid-checkpoint: the log is folded back whole, and the next
        # commit restarts it from the beginning.
        with self._lock, self._nowait_lock:
            self._connection.execute("PRAGMA wal_checkpoint(PASSIVE)").fetchall()

    def journal_entries(self, session: str) -> List[Tuple[int, Dict]]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT seq, entry FROM session_journal WHERE session = ? ORDER BY seq",
                (session,),
            ).fetchall()
        return [(int(seq), json.loads(entry)) for seq, entry in rows]

    def journal_sessions(self) -> List[str]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT DISTINCT session FROM session_journal ORDER BY session"
            ).fetchall()
        return [row[0] for row in rows]

    def journal_clear(self, session: str) -> None:
        with self._lock:
            self._connection.execute(
                "DELETE FROM session_journal WHERE session = ?", (session,)
            )
            self._connection.commit()

    def journal_mode(self) -> str:
        """The active journal mode (``"wal"`` for file-backed stores)."""
        with self._lock:
            (mode,) = self._connection.execute("PRAGMA journal_mode").fetchone()
        return str(mode).lower()

    def close(self) -> None:
        if self._read_connection is not self._connection:
            with self._read_lock:
                self._read_connection.close()
            with self._nowait_lock:
                self._nowait_connection.close()
        with self._lock:
            self._connection.close()


#: Scheme prefixes accepted by :func:`open_store`.
_SCHEMES: Tuple[str, ...] = ("sqlite", "memory")


def _split_scheme(path: str) -> Tuple[Optional[str], str]:
    """``"sqlite://x.db"`` -> ``("sqlite", "x.db")``; no scheme -> ``(None, path)``."""
    for scheme in _SCHEMES:
        prefix = scheme + "://"
        if path.startswith(prefix):
            return scheme, path[len(prefix) :]
    if "://" in path:
        scheme = path.split("://", 1)[0]
        raise ValueError(
            f"unknown store scheme {scheme!r}; expected one of "
            + ", ".join(f"{s}://" for s in _SCHEMES)
        )
    return None, path


def open_store(path: Optional[str]) -> SQLiteVerdictStore:
    """Open (creating if necessary) the verdict store at *path*.

    ``None``, ``memory://``, ``sqlite://:memory:`` or ``:memory:`` yields a
    fresh in-memory SQLite store (``path == ":memory:"``), private to this
    connection and so never shared between processes.
    ``sqlite://PATH`` (the form daemons should use) or a bare path opens
    the SQLite database at that path, whatever its suffix.  A file that is
    not a SQLite database (e.g. a JSON-lines store from an older release)
    raises :class:`sqlite3.DatabaseError` instead of reading as empty.
    Parent directories are created as needed.
    """
    if path is None:
        return SQLiteVerdictStore(":memory:")
    scheme, stripped = _split_scheme(path)
    return SQLiteVerdictStore(":memory:" if scheme == "memory" else stripped)

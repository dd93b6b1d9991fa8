"""The on-disk result store: one SQLite database per cache directory.

:class:`SqliteResultStore` keeps the :class:`~repro.exp.cache.ResultStore`
contract (and its in-process memory layer) and persists into
``<directory>/results.sqlite``:

* **WAL mode** so campaign writers and readers (e.g. a live dashboard
  or a second campaign over the same store) never block each other,
* **batched commits** -- puts accumulate in an in-memory pending batch
  and are committed every ``batch_size`` puts, on ``flush``/``close``,
  and at interpreter exit, amortising fsync cost across the campaign.

Each row holds one versioned result document; stale-version and corrupt
rows are deleted on detection, so a bad row is parsed at most once.
"""

from __future__ import annotations

import json
import os
import sqlite3
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exp.cache import (
    CACHE_VERSION,
    ResultStore,
    result_from_dict,
    result_to_dict,
)
from repro.sim.metrics import RunResult

#: Database filename inside a cache directory.
DB_FILENAME = "results.sqlite"

#: Puts buffered before an automatic commit.
DEFAULT_BATCH_SIZE = 64

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key         TEXT PRIMARY KEY,
    version     INTEGER NOT NULL,
    fingerprint TEXT,
    result      TEXT NOT NULL
)
"""


class SqliteResultStore(ResultStore):
    """Content-addressed result store over ``<directory>/results.sqlite``.

    Workers in a campaign never touch the database: all puts happen in
    the driver process, so SQLite's single-writer model is never
    contended from within one campaign.
    """

    def __init__(self, directory: os.PathLike, batch_size: int = DEFAULT_BATCH_SIZE):
        super().__init__()
        self.directory = Path(directory)
        self.batch_size = max(1, int(batch_size))
        self.db_path = self.directory / DB_FILENAME
        self.directory.mkdir(parents=True, exist_ok=True)
        self._pending: List[Tuple[str, int, Optional[str], str]] = []
        self.commits = 0
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(
            str(self.db_path), timeout=30.0
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(_SCHEMA)
        self._conn.commit()
        # Forked sweep workers inherit the connection object but must
        # never use it; remember who opened it so we can tell.
        self._owner_pid = os.getpid()
        # A store nobody closes still commits its last batch: at
        # collection or interpreter exit, in the opening process only.
        self._finalizer = weakref.finalize(
            self, _commit_and_close, self._conn, self._pending, self._owner_pid
        )

    # -- persistence hooks ---------------------------------------------------

    def _load(self, key: str) -> Optional[RunResult]:
        conn = self._usable_conn()
        if conn is None:
            return None
        row = conn.execute(
            "SELECT version, result FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        version, blob = row
        if version == CACHE_VERSION:
            try:
                return result_from_dict(json.loads(blob))
            except (AttributeError, KeyError, TypeError, ValueError):
                pass  # torn, foreign or wrong-shape document
        # Stale-version or corrupt row: delete on detection so it is
        # never parsed again.
        conn.execute("DELETE FROM results WHERE key = ?", (key,))
        conn.commit()
        return None

    def _publish(
        self, key: str, result: RunResult, fingerprint: Optional[dict]
    ) -> None:
        if self._usable_conn() is None:
            return
        # Serialisation errors must surface (and leave no partial row):
        # dumps happens before the row joins the batch.
        blob = json.dumps(result_to_dict(result))
        fp_blob = None if fingerprint is None else json.dumps(fingerprint)
        self._pending.append((key, CACHE_VERSION, fp_blob, blob))
        if len(self._pending) >= self.batch_size:
            self.flush()

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Commit the pending batch (no-op when empty)."""
        conn = self._usable_conn()
        if conn is not None and self._pending:
            _commit(conn, self._pending)
            self.commits += 1
        self._pending.clear()

    def close(self) -> None:
        """Flush and release the database connection."""
        if self._conn is None:
            return
        try:
            self.flush()
        finally:
            self._finalizer()  # closes the connection in the owner process
            self._conn = None

    def _usable_conn(self) -> Optional[sqlite3.Connection]:
        """The connection, unless closed or inherited across a fork."""
        if self._conn is None or os.getpid() != self._owner_pid:
            return None
        return self._conn

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Drop both layers: memory and every stored row."""
        self._pending.clear()
        conn = self._usable_conn()
        if conn is not None:
            conn.execute("DELETE FROM results")
            conn.commit()
        super().clear()

    def count(self) -> int:
        """Stored rows, pending batch included."""
        conn = self._usable_conn()
        if conn is None:
            return 0
        self.flush()
        return int(conn.execute("SELECT COUNT(*) FROM results").fetchone()[0])

    def stats(self) -> Dict[str, int]:
        s = super().stats()
        s["commits"] = self.commits
        return s

    def summary(self) -> str:
        return self._summary(f"sqlite:{self.db_path}") + f" in {self.commits} commits"


def _commit(conn: sqlite3.Connection, rows) -> None:
    conn.executemany(
        "INSERT OR REPLACE INTO results (key, version, fingerprint, result) "
        "VALUES (?, ?, ?, ?)",
        rows,
    )
    conn.commit()


def _commit_and_close(conn: sqlite3.Connection, pending: list, owner_pid: int) -> None:
    """Commit rows still pending, then close (the store's finalizer)."""
    if os.getpid() != owner_pid:
        return  # a forked copy: the batch and connection are the parent's
    try:
        if pending:
            _commit(conn, pending)
            pending.clear()
        conn.close()
    except sqlite3.Error:  # pragma: no cover - interpreter-exit best effort
        pass

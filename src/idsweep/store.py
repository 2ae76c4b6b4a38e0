"""Crawl persistence: a sqlite file plus a content-addressed blob directory.

Layout under the store directory::

    store.db           relational state (hits, downloads, objects, exposures,
                       diagnostics)
    objects/<sha256>   raw document bytes, filename = digest

An object's path is derived from its digest and is never stored.  An
exposure is only (digits, sha256, first_seen): its URLs, queries, engines and
types are the successful ``downloads`` of its digest joined to their ``hits``.
Opening a store that older versions wrote retires the columns they kept and
nothing reads (``_RETIRED``), in one transaction, then ``VACUUM``s once if it
copied ``exposures``.

Reports read the store in one pass and add no index: ``occurrences()``
holds the successful sources of each digest (bounded by documents), then
streams ``exposures`` in its own key order (a WITHOUT ROWID table is its
primary-key B-tree) and expands each row across its digest's sources.

Writes are serialized with a process-local lock so the bounded download pool
can share one store; cross-process exclusivity is the CLI's ``flock`` on
``.lock``.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

_SCHEMA = """
CREATE TABLE IF NOT EXISTS hits (
    id          INTEGER PRIMARY KEY,
    query       TEXT NOT NULL,
    engine      TEXT NOT NULL,
    page        INTEGER NOT NULL,
    rank        INTEGER NOT NULL,
    url         TEXT NOT NULL,
    retrieved_at TEXT NOT NULL,
    is_repeat   INTEGER NOT NULL DEFAULT 0,
    UNIQUE (query, engine, page, rank, url)
);
CREATE TABLE IF NOT EXISTS downloads (
    id           INTEGER PRIMARY KEY,
    hit_id       INTEGER NOT NULL UNIQUE REFERENCES hits(id),
    status       TEXT NOT NULL,          -- success | failed | type_mismatch
    reason       TEXT,                   -- timeout | network | too_large | <ext>
    sha256       TEXT,
    declared_type TEXT,
    size_bytes   INTEGER,
    completed_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS objects (
    sha256      TEXT PRIMARY KEY,
    size_bytes  INTEGER NOT NULL,
    first_seen  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS exposures (
    digits     TEXT NOT NULL,
    sha256     TEXT NOT NULL,
    first_seen TEXT NOT NULL,
    PRIMARY KEY (digits, sha256)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS diagnostics (
    id         INTEGER PRIMARY KEY,
    kind       TEXT NOT NULL,
    subject    TEXT NOT NULL,
    detail     TEXT NOT NULL,
    created_at TEXT NOT NULL
);
"""


# Columns that older stores hold and nothing reads.  One left behind can make
# inserts fail: objects.stored_path is NOT NULL.
_RETIRED = {"downloads": ("stored_path",), "objects": ("stored_path",),
            "exposures": ("url", "query", "engine", "file_type")}


def _schema_script(conn: sqlite3.Connection) -> tuple[str, bool]:
    """``_SCHEMA`` as one transaction that also retires any ``_RETIRED`` column,
    and whether it copies ``exposures``.

    Columns are dropped in place, so a table keeps those it does not declare
    (``DROP COLUMN``, SQLite >= 3.35).  SQLite cannot make a table WITHOUT
    ROWID in place, so an older ``exposures`` is renamed, copied into the
    table ``_SCHEMA`` creates in key order, which fills its pages, and dropped.
    """
    before, after = [], []
    for table, retired in _RETIRED.items():
        have = {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
        gone = [column for column in retired if column in have]
        if gone and table == "exposures":
            before.append("ALTER TABLE exposures RENAME TO retired_exposures;")
            after.append("INSERT INTO exposures SELECT digits, sha256, first_seen"
                         " FROM retired_exposures ORDER BY digits, sha256; DROP TABLE retired_exposures;")
        else:
            before += [f"ALTER TABLE {table} DROP COLUMN {column};" for column in gone]
    return "\n".join(["BEGIN;", *before, _SCHEMA, *after, "COMMIT;"]), bool(after)


@dataclass(slots=True)  # not frozen: a frozen __init__ costs 3x, once per row
class ExposureOccurrence:
    """One (id, document, url) co-occurrence, expanded across mirrors.

    An ID is recorded once per document (digest), but a document reachable
    from several URLs yields one occurrence per URL/query so that source
    multiplicity and per-query effectiveness can be counted.
    """

    digits: str
    sha256: str
    url: str
    query: str
    engine: str
    file_type: str


class ResultStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(exist_ok=True)
        self.db_path = self.root / "store.db"
        self._conn = sqlite3.connect(self.db_path, check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._lock = threading.Lock()
        try:
            with self._lock, self._conn:  # a migration that fails rolls back whole
                script, copied = _schema_script(self._conn)
                self._conn.executescript(script)
            if copied:  # the older exposures' pages are free now: give them back to the disk
                self._conn.execute("VACUUM")
        except sqlite3.Error:
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- hits ---------------------------------------------------------------

    def add_hit(
        self, query: str, engine: str, page: int, rank: int, url: str,
        retrieved_at: str, is_repeat: bool,
    ) -> int:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO hits (query, engine, page, rank, url, retrieved_at, is_repeat)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (query, engine, page, rank, url, retrieved_at, int(is_repeat)),
            )
            row = self._conn.execute(
                "SELECT id FROM hits WHERE query=? AND engine=? AND page=? AND rank=? AND url=?",
                (query, engine, page, rank, url),
            ).fetchone()
        return int(row[0])

    def hit_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM hits").fetchone()[0])

    # --- objects --------------------------------------------------------------

    def put_object(self, data: bytes, first_seen: str) -> str:
        """Content-address the bytes under objects/<sha256>; returns the digest."""
        digest = hashlib.sha256(data).hexdigest()
        path = self.objects_dir / digest
        if not path.exists():
            tmp = path.with_name(f"{digest}.tmp{threading.get_ident()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)  # atomic; concurrent writers race benignly
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO objects (sha256, size_bytes, first_seen) VALUES (?, ?, ?)",
                (digest, len(data), first_seen),
            )
        return digest

    def read_object(self, sha256: str) -> bytes:
        return (self.objects_dir / sha256).read_bytes()

    def object_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM objects").fetchone()[0])

    # --- downloads --------------------------------------------------------------

    def record_download(
        self, hit_id: int, status: str, completed_at: str,
        reason: Optional[str] = None, sha256: Optional[str] = None,
        declared_type: Optional[str] = None, size_bytes: Optional[int] = None,
    ) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO downloads"
                " (hit_id, status, reason, sha256, declared_type, size_bytes, completed_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (hit_id, status, reason, sha256, declared_type, size_bytes, completed_at),
            )

    def download_counts(self) -> dict[str, int]:
        rows = self._conn.execute("SELECT status, COUNT(*) FROM downloads GROUP BY status").fetchall()
        return {status: int(n) for status, n in rows}

    # --- exposures ---------------------------------------------------------------

    def add_exposure(
        self, digits: str, sha256: str, url: str, query: str, engine: str,
        file_type: str, first_seen: str,
    ) -> bool:
        """Record an (id, document) pair; returns False if already present.

        ``url``, ``query``, ``engine`` and ``file_type`` are accepted but not
        stored: an exposure's sources are its digest's downloads and hits.
        """
        return self.add_exposures([(digits, sha256, first_seen)]) > 0

    def add_exposures(self, rows: Iterable[tuple[str, str, str]]) -> int:
        """Record many (digits, sha256, first_seen) rows in one commit; returns how many were new."""
        with self._lock, self._conn:
            cur = self._conn.executemany(
                "INSERT OR IGNORE INTO exposures (digits, sha256, first_seen) VALUES (?, ?, ?)", rows
            )
        return cur.rowcount

    def unique_id_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(DISTINCT digits) FROM exposures").fetchone()[0])

    def exposed_document_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(DISTINCT sha256) FROM exposures").fetchone()[0])

    def occurrences(self) -> Iterator[ExposureOccurrence]:
        """Expand (id, document) pairs across every URL the document came from.

        Rows are distinct and streamed sorted by (digits, sha256, url, query).
        Both reads run in one read transaction, so a scan that commits
        meanwhile cannot leave an exposure without its sources.
        """
        own = not self._conn.in_transaction
        if own:
            self._conn.execute("BEGIN")
        try:
            found: dict[str, set[tuple]] = {}
            for sha256, *source in self._conn.execute(
                "SELECT d.sha256, h.url, h.query, h.engine, d.declared_type"
                " FROM downloads d JOIN hits h ON h.id = d.hit_id WHERE d.status = 'success'"
            ):
                found.setdefault(sha256, set()).add(tuple(source))
            # digest -> its distinct (digest, url, query, engine, declared type),
            # sorted with a missing type first as SQL orders NULL; every row of a
            # digest shares these strings
            sources = {
                sha256: [(sha256, *s) for s in sorted(
                    found[sha256], key=lambda s: (*s[:3], s[3] is not None, s[3] or ""))]
                for sha256 in found
            }
            for digits, sha256 in self._conn.execute(
                "SELECT digits, sha256 FROM exposures ORDER BY digits, sha256"
            ):
                for source in sources.get(sha256, ()):
                    yield ExposureOccurrence(digits, *source)
        finally:
            if own and self._conn.in_transaction:
                self._conn.execute("ROLLBACK")

    def load_occurrences(self) -> list[ExposureOccurrence]:
        """``occurrences()`` as a list."""
        return list(self.occurrences())

    # --- diagnostics ---------------------------------------------------------------

    def add_diagnostic(self, kind: str, subject: str, detail: str, created_at: str) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO diagnostics (kind, subject, detail, created_at) VALUES (?, ?, ?, ?)",
                (kind, subject, detail, created_at),
            )

    def diagnostics(self) -> list[tuple[str, str, str]]:
        rows = self._conn.execute("SELECT kind, subject, detail FROM diagnostics ORDER BY id").fetchall()
        return [tuple(r) for r in rows]

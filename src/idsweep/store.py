"""Crawl persistence: a sqlite file plus a content-addressed blob directory.

Layout under the store directory::

    store.db           relational state (searches, hits, documents, exposures,
                       diagnostics)
    objects/<sha256>   zlib-compressed document bytes, named by their raw digest

``objects/`` is the only record of the stored objects, each read back only if
it decompresses to its digest.  Each fact is stored once and compactly: a hit
names its (query, engine) by its ``searches`` number and carries its
download's outcome, NULL until it is fetched, with the digest and raw size of
what it fetched; a digest is its 32 bytes (``_digest``), an exposure is only
(digits, document), and ``digits`` is the ID as the integer it spells
(``_key``).  Writes refuse what would not read back as written; reads give
IDs back as 13-character text and digests as lowercase hex, whose orders the
stored values keep.  ``document`` is the number ``documents`` gives a digest
with exposures, as first met; its sources are the hits that successfully
downloaded that digest, joined to their ``searches``.  Opening a store that
older versions wrote migrates it in one transaction (``_schema_script``),
whose layout is read again under the write lock, so a store two processes
open together is migrated once, then ``VACUUM``s once if it rebuilt a table.

Reports read the store in one pass and add no index: each document number's
digest and sources, sorted in SQL and the documents in digest order, and a
cursor over ``exposures`` in its key order, (digits, document).
``id_ranges()`` cuts the rows into ranges of IDs, as many as give each
``MIN_ROWS_PER_RANGE`` rows, up to the number asked for, each starting at
its ID's first row, so no ID is split.  An ``ExposureRange`` reads through
a read-only connection of its own, so a process forked with it reads its
range alone, and may read only the documents numbered up to a given one: a
document's number is never less than an earlier one's, as no ``documents``
row is deleted and its ``INTEGER PRIMARY KEY`` takes the largest plus one.
``load_occurrences()`` joins the map and the rows of one read transaction.

Only the thread that opened a ``ResultStore`` uses its connection (sqlite3
refuses any other): the download and extraction pools write and read
``objects/`` alone.  Across processes, the CLI holds an ``flock`` on
``.lock``: exclusive for a scan, shared for a report, so reports may run
together but never beside a scan, and a report's reads all see one
committed store.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
import zlib
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional

_SCHEMA = """
CREATE TABLE IF NOT EXISTS searches (
    id     INTEGER PRIMARY KEY,
    query  TEXT NOT NULL,
    engine TEXT NOT NULL,
    UNIQUE (query, engine)
);
CREATE TABLE IF NOT EXISTS hits (
    id          INTEGER PRIMARY KEY,
    search      INTEGER NOT NULL REFERENCES searches(id),
    page        INTEGER NOT NULL,
    rank        INTEGER NOT NULL,
    url         TEXT NOT NULL,
    retrieved_at TEXT NOT NULL,
    is_repeat   INTEGER NOT NULL DEFAULT 0,
    -- its download's outcome, all NULL until the hit is fetched
    status      TEXT,                    -- success | failed | type_mismatch
    reason      TEXT,                    -- timeout | network | too_large | <ext>
    sha256      BLOB,                    -- the digest's bytes
    declared_type TEXT,
    size_bytes  INTEGER,
    completed_at TEXT CHECK ((completed_at IS NULL) = (status IS NULL)),
    UNIQUE (search, page, rank, url)
);
-- an explicit INTEGER PRIMARY KEY: VACUUM may renumber an implicit rowid
CREATE TABLE IF NOT EXISTS documents (
    id     INTEGER PRIMARY KEY,
    sha256 BLOB NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS exposures (
    digits   INTEGER NOT NULL,           -- the ID as the integer it spells
    document INTEGER NOT NULL,           -- documents.id
    PRIMARY KEY (digits, document)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS diagnostics (
    id         INTEGER PRIMARY KEY,
    kind       TEXT NOT NULL,
    subject    TEXT NOT NULL,
    detail     TEXT NOT NULL,
    created_at TEXT NOT NULL
);
"""


# What an ID must be to be stored as an integer: 13 ASCII digits, the first not 0,
# so that the integer spells it back.  _key checks it in Python, _ID_GLOB in SQL.
_ID_GLOB = "[1-9]" + "[0-9]" * 12


def _key(digits: str) -> int:
    """The integer ``exposures`` stores for an ID; ValueError unless it reads back as written."""
    if not (isinstance(digits, str) and len(digits) == 13 and digits.isascii() and digits.isdigit()
            and digits[0] != "0"):
        raise ValueError("an exposure's ID must be 13 ASCII digits, the first not 0")
    return int(digits)


def _digest(text: str) -> bytes:
    """The bytes ``documents`` and ``hits`` store for a digest; ValueError unless it is
    lowercase hex of even length, which ``.hex()`` reads back and whose byte order is its text order."""
    try:
        data = bytes.fromhex(text)
    except (TypeError, ValueError):
        data = None
    if data is None or data.hex() != text:
        raise ValueError(f"a digest must be lowercase hex of even length, not {text!r}")
    return data


def _declared(conn: sqlite3.Connection, table: str) -> dict[str, str]:
    """Each column of ``table`` with its declared type; {} if there is no such table."""
    return {name: kind for _, name, kind, *_ in conn.execute(f"PRAGMA table_info({table})")}


def _schema_script(conn: sqlite3.Connection) -> tuple[list[str], bool]:
    """The statements of ``_SCHEMA``, with those that migrate what older stores
    hold, for one transaction, and whether they rebuild a table.

    It drops the ``objects`` table that nothing reads.  SQLite cannot change a
    column's type or make a table WITHOUT ROWID in place, so each older table
    is renamed ``retired_*``, its rows are copied, ids kept, into the table
    ``_SCHEMA`` creates, and it is dropped: ``hits`` beside a ``downloads``
    table, each with its download's row, if any (where a hit spells out its
    query and engine, they are numbered in ``searches`` as first met);
    ``documents`` with a text digest; and ``exposures`` whose IDs are text, in
    key order, which fills its pages.  The oldest ``exposures``, keyed by
    digest, number their digests in ``documents`` in digest order.  Only the
    columns declared here are kept, so ``downloads.stored_path`` goes.
    ``digest_blob`` converts a text digest (``_digest``); a row whose digits
    would not read back as written (``_ID_GLOB``) copies as NULL, which the
    new table refuses.  Either fails the statement, so the whole migration
    rolls back.
    """
    before, after = [], []
    downloads = _declared(conn, "downloads")
    if downloads:
        before += ["ALTER TABLE hits RENAME TO retired_hits", "ALTER TABLE downloads RENAME TO retired_downloads"]
        search, hits = "h.search", "retired_hits h"
        if "query" in _declared(conn, "hits"):
            after.append("INSERT INTO searches (query, engine) SELECT query, engine FROM retired_hits"
                         " GROUP BY query, engine ORDER BY MIN(id)")
            search, hits = "s.id", "retired_hits h JOIN searches s ON s.query = h.query AND s.engine = h.engine"
        digest = "digest_blob(d.sha256)" if downloads["sha256"] == "TEXT" else "d.sha256"
        after += [f"INSERT INTO hits SELECT h.id, {search}, h.page, h.rank, h.url, h.retrieved_at, h.is_repeat,"
                  f" d.status, d.reason, {digest}, d.declared_type, d.size_bytes, d.completed_at"
                  f" FROM {hits} LEFT JOIN retired_downloads d ON d.hit_id = h.id ORDER BY h.id",
                  "DROP TABLE retired_downloads", "DROP TABLE retired_hits"]
    if _declared(conn, "documents").get("sha256") == "TEXT":
        before.append("ALTER TABLE documents RENAME TO retired_documents")
        after += ["INSERT INTO documents SELECT id, digest_blob(sha256) FROM retired_documents ORDER BY id",
                  "DROP TABLE retired_documents"]
    exposures = _declared(conn, "exposures")
    if exposures.get("digits") == "TEXT":
        before.append("ALTER TABLE exposures RENAME TO retired_exposures")
        rows, document = "retired_exposures e", "e.document"
        if "sha256" in exposures:
            after.append("INSERT INTO documents (sha256) SELECT DISTINCT digest_blob(sha256) FROM retired_exposures"
                         " ORDER BY 1")
            rows, document = "retired_exposures e JOIN documents d ON d.sha256 = digest_blob(e.sha256)", "d.id"
        after += [f"INSERT INTO exposures SELECT CASE WHEN e.digits GLOB '{_ID_GLOB}'"
                  f" THEN CAST(e.digits AS INTEGER) END, {document} FROM {rows} ORDER BY e.digits, {document}",
                  "DROP TABLE retired_exposures"]
    # no statement of _SCHEMA holds a ";" but the one that ends it
    return ["DROP TABLE IF EXISTS objects", *before, *_SCHEMA.split(";")[:-1], *after], bool(after)


# (digits, sha256, each (url, query, file_type) of the document), as load_occurrences() gives it
Occurrence = tuple[str, str, tuple[tuple[str, str, str], ...]]

# the fewest exposures a report reads in a process of its own: below about this many, forking the
# process, running it beside another and merging its fold cost more than the rows it takes over
MIN_ROWS_PER_RANGE = 50_000


@contextmanager
def _snapshot(conn: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    """``conn`` in one read transaction, unless it is in one already."""
    own = not conn.in_transaction
    if own:
        conn.execute("BEGIN")
    try:
        yield conn
    finally:
        if own and conn.in_transaction:
            conn.execute("ROLLBACK")


def _documents(conn: sqlite3.Connection) -> dict[int, tuple[str, tuple[tuple[str, str, str], ...]]]:
    """Each document number's (sha256, sources), in digest order, the sources as
    ``load_occurrences()`` gives them and () for a digest never successfully downloaded."""
    rows = conn.execute(
        "SELECT DISTINCT h.sha256, h.url, s.query, s.engine, h.declared_type FROM hits h"
        " JOIN searches s ON s.id = h.search"
        " WHERE h.status = 'success' ORDER BY h.sha256, h.url, s.query, s.engine, h.declared_type")
    found = {sha256: tuple((url, query, file_type) for _, url, query, _, file_type in group)
             for sha256, group in groupby(rows, itemgetter(0))}
    return {number: (sha256.hex(), found.get(sha256, ()))
            for number, sha256 in conn.execute("SELECT id, sha256 FROM documents ORDER BY sha256")}


def _exposures(conn: sqlite3.Connection, lo: Optional[str] = None, hi: Optional[str] = None,
               last: Optional[int] = None) -> sqlite3.Cursor:
    """A cursor over the sorted (digits, document) of the exposures with ``lo <= digits < hi``
    and ``document <= last``, a missing bound left open."""
    bounds = {name: int(bound) for name, bound in (("lo", lo), ("hi", hi), ("last", last)) if bound is not None}
    tests = {"lo": "digits >= :lo", "hi": "digits < :hi", "last": "document <= :last"}
    where = f"WHERE {' AND '.join(tests[name] for name in bounds)}" if bounds else ""
    return conn.execute(
        f"SELECT CAST(digits AS TEXT), document FROM exposures {where} ORDER BY digits, document", bounds)


def _joined(documents: dict, rows: Iterable[tuple[str, int]]) -> Iterator[Occurrence]:
    """Each row as (digits, sha256, sources), an ID's rows in digest order; a row
    whose digest has no sources (no successful download) is skipped."""
    last, found = None, []  # the current ID's (sha256, sources)
    for digits, document in chain(rows, [(None, None)]):
        if digits != last:
            if len(found) > 1:
                found.sort(key=itemgetter(0))
            for sha256, sources in found:
                if sources:
                    yield last, sha256, sources
            last, found = digits, []
        found.append(documents.get(document))


@dataclass(frozen=True)
class ExposureRange:
    """The exposures of the IDs in ``[lo, hi)`` of a store, in the documents numbered ``last`` or
    lower, a missing bound left open.

    It is a path, two IDs and a document number, and holds no connection:
    each read goes through a read-only connection of its own, closed when
    the read ends, so any process may read its range.
    """

    db_path: Path
    lo: Optional[str] = None
    hi: Optional[str] = None
    last: Optional[int] = None

    def _connect(self) -> closing[sqlite3.Connection]:
        return closing(sqlite3.connect(self.db_path.resolve().as_uri() + "?mode=ro", uri=True))

    def documents(self) -> dict[int, tuple[str, tuple[tuple[str, str, str], ...]]]:
        """Each document number of the range's store with its (sha256, sources), in one read."""
        with self._connect() as conn, _snapshot(conn):
            return _documents(conn)

    @contextmanager
    def read(self) -> Iterator[sqlite3.Cursor]:
        """A cursor over the range's sorted (digits, document) rows."""
        with self._connect() as conn:
            yield _exposures(conn, self.lo, self.hi, self.last)


_CHUNK = 1 << 20  # an object is compressed and decompressed this many bytes at a time


def _inflated(path: Path, sha256: str) -> Iterator[bytes]:
    """The bytes stored in an object file, a chunk at a time; after the last, ValueError unless the file
    is one whole zlib stream of bytes of the digest."""
    digest, inflate = hashlib.sha256(), zlib.decompressobj()
    with path.open("rb") as fh:
        try:
            while chunk := fh.read(_CHUNK):
                while chunk:  # at most a chunk out at a time, however well it compressed
                    part = inflate.decompress(chunk, _CHUNK)
                    digest.update(part)
                    yield part
                    chunk = inflate.unconsumed_tail
        except zlib.error:
            pass
    if not inflate.eof or digest.hexdigest() != sha256:
        raise ValueError(f"object {sha256} does not read back to its digest")


class ResultStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(exist_ok=True)
        self.db_path = self.root / "store.db"
        self._conn = sqlite3.connect(self.db_path)
        self._searches: dict[tuple[str, str], int] = {}  # (query, engine) -> its searches.id
        refused = []  # a stored digest the migration could not convert

        def digest_blob(text: Optional[str]) -> Optional[bytes]:
            try:
                return None if text is None else _digest(text)
            except ValueError:
                refused.append(text)
                raise

        self._conn.create_function("digest_blob", 1, digest_blob, deterministic=True)
        # a rebuild drops tables that others refer to; this pragma is ignored inside a transaction
        self._conn.execute("PRAGMA foreign_keys = OFF")
        try:
            with self._conn:  # a migration that fails rolls back whole
                # a rebuild reads the layout again under the write lock: another store may have migrated it since
                self._conn.execute("BEGIN IMMEDIATE" if _schema_script(self._conn)[1] else "BEGIN")
                statements, rebuilt = _schema_script(self._conn)
                # checked before: a copy keeps every reference, but would lose a download of no hit
                if rebuilt and self._conn.execute("PRAGMA foreign_key_check").fetchone():
                    raise sqlite3.IntegrityError("a migrated row refers to a row that is not there")
                for statement in statements:
                    self._conn.execute(statement)
            if rebuilt:  # the older tables' pages are free now: give them back to the disk
                self._conn.execute("VACUUM")
            self._conn.execute("PRAGMA foreign_keys = ON")
        except sqlite3.Error as exc:
            self._conn.close()
            if refused:
                raise sqlite3.DataError(f"a stored digest is not lowercase hex of even length: {refused[0]!r}") from exc
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
        search = self._searches.get((query, engine))
        with self._conn:
            if search is None:
                self._conn.execute("INSERT OR IGNORE INTO searches (query, engine) VALUES (?, ?)", (query, engine))
                search = self._conn.execute(
                    "SELECT id FROM searches WHERE query=? AND engine=?", (query, engine)).fetchone()[0]
            self._conn.execute(
                "INSERT OR IGNORE INTO hits (search, page, rank, url, retrieved_at, is_repeat)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (search, page, rank, url, retrieved_at, int(is_repeat)),
            )
            row = self._conn.execute(
                "SELECT id FROM hits WHERE search=? AND page=? AND rank=? AND url=?",
                (search, page, rank, url),
            ).fetchone()
        self._searches[query, engine] = search  # once committed: a rolled-back number is not kept
        return int(row[0])

    # --- objects --------------------------------------------------------------

    def put_object(self, data: bytes) -> str:
        """Store the bytes zlib-compressed under objects/<sha256 of the bytes>, from any thread; returns
        the digest.  A file already there is kept only if it reads back to the bytes."""
        digest = hashlib.sha256(data).hexdigest()
        path = self.objects_dir / digest
        try:
            for _ in _inflated(path, digest):  # checked, never held whole
                pass
        except (OSError, ValueError):  # missing, or an older raw or a damaged object: write it
            tmp = path.with_name(f"{digest}.tmp{threading.get_ident()}")
            try:
                with tmp.open("wb") as fh:
                    deflate, view = zlib.compressobj(), memoryview(data)
                    for at in range(0, len(data), _CHUNK):  # no whole compressed copy beside the bytes
                        fh.write(deflate.compress(view[at:at + _CHUNK]))
                    fh.write(deflate.flush())
                    os.fsync(fh.fileno())  # on disk before it is named: a crash leaves no partial blob
                os.replace(tmp, path)  # atomic; concurrent writers race benignly
            finally:
                tmp.unlink(missing_ok=True)
        return digest

    def read_object(self, sha256: str) -> bytearray:
        """The bytes stored under the digest; ValueError unless the file decompresses to bytes of it."""
        data = bytearray()  # grown a chunk at a time, so the document is held once, not chunks and a join
        for part in _inflated(self.objects_dir / sha256, sha256):
            data += part
        return data

    # --- downloads --------------------------------------------------------------

    def record_download(
        self, hit_id: int, status: str, completed_at: str,
        reason: Optional[str] = None, sha256: Optional[str] = None,
        declared_type: Optional[str] = None, size_bytes: Optional[int] = None,
    ) -> None:
        """Record what fetching the hit gave in its row; IntegrityError, with nothing written, if there is
        no such hit."""
        with self._conn:
            if not self._conn.execute(
                "UPDATE hits SET status = ?, reason = ?, sha256 = ?, declared_type = ?, size_bytes = ?,"
                " completed_at = ? WHERE id = ?",
                (status, reason, None if sha256 is None else _digest(sha256), declared_type, size_bytes,
                 completed_at, hit_id),
            ).rowcount:
                raise sqlite3.IntegrityError(f"no hit {hit_id} to record a download of")

    # --- exposures ---------------------------------------------------------------

    def add_exposure(
        self, digits: str, sha256: str, url: str, query: str, engine: str,
        file_type: str, first_seen: str,
    ) -> bool:
        """Record an (id, document) pair; returns False if already present.

        Only ``digits`` and ``sha256`` are stored: an exposure's sources are
        the hits that downloaded its digest.
        """
        return self.add_exposures([(digits, sha256)]) > 0

    def add_exposures(self, rows: Iterable[tuple[str, str]]) -> int:
        """Record many (digits, sha256) pairs in one commit; returns how many were new.

        A digest not yet in ``documents`` is numbered there first.  Each ID is
        stored as the integer it spells and each digest as its bytes:
        ValueError, before any row is written, for digits other than 13 ASCII
        digits with the first not 0, or a digest that is not lowercase hex.
        """
        rows = [(_key(digits), sha256) for digits, sha256 in rows]
        blobs = {sha256: _digest(sha256) for sha256 in dict.fromkeys(sha256 for _, sha256 in rows)}
        with self._conn:
            self._conn.executemany("INSERT OR IGNORE INTO documents (sha256) VALUES (?)",
                                   ((blob,) for blob in blobs.values()))
            cur = self._conn.executemany(
                "INSERT OR IGNORE INTO exposures (digits, document) SELECT ?, id FROM documents WHERE sha256 = ?",
                ((digits, blobs[sha256]) for digits, sha256 in rows))
        return cur.rowcount

    def unique_id_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(DISTINCT digits) FROM exposures").fetchone()[0])

    def exposure_counts(self, digests: Iterable[str]) -> tuple[int, int]:
        """(distinct IDs, documents with an exposure) among the documents of ``digests``."""
        with self._conn:  # the digests go to a temporary table, so no ID is held in memory
            self._conn.execute("CREATE TEMP TABLE IF NOT EXISTS counted (sha256 BLOB PRIMARY KEY)")
            self._conn.execute("DELETE FROM counted")
            self._conn.executemany("INSERT OR IGNORE INTO counted VALUES (?)", ((_digest(d),) for d in digests))
            return self._conn.execute(
                "SELECT COUNT(DISTINCT e.digits), COUNT(DISTINCT e.document) FROM counted c"
                " JOIN documents d ON d.sha256 = c.sha256 JOIN exposures e ON e.document = d.id").fetchone()

    def id_ranges(self, most: int, min_rows: int = MIN_ROWS_PER_RANGE) -> list[ExposureRange]:
        """``exposures`` cut into at most ``most`` ranges of IDs, in ID order, none empty.

        There are as many ranges as give each at least ``min_rows`` rows, and
        at least one.  A range starts at the first row of the ID at its equal
        share of the rows, so ranges hold near-equal row counts and no ID is
        split; an ID that spans more than a share starts one range only.
        """
        rows = self._conn.execute("SELECT COUNT(*) FROM exposures").fetchone()[0]
        n = max(1, min(most, rows // min_rows))
        offsets = [rows * i // n for i in range(n)] if rows else []
        starts = dict.fromkeys(self._conn.execute(
            "SELECT CAST(digits AS TEXT) FROM exposures ORDER BY digits, document LIMIT 1 OFFSET ?",
            (offset,)).fetchone()[0] for offset in offsets)
        edges = [None, *list(starts)[1:], None]  # the first range starts with the store
        return [ExposureRange(self.db_path, lo, hi) for lo, hi in zip(edges, edges[1:])]

    def load_occurrences(self) -> list[Occurrence]:
        """Each exposure with the sources of its document, as (digits, sha256, sources).

        Rows are sorted by (digits, sha256), and an exposure with no
        successful download has none.  ``sources`` holds a (url, query,
        file_type) per distinct (url, query, engine, declared type) of the
        digest, in that order with a missing type first as SQL orders NULL;
        every row of a digest carries the same tuple.  Both reads run in one
        read transaction, so a scan that commits meanwhile cannot leave an
        exposure without its sources.  Reports read ``ExposureRange``s
        instead, through the same two reads.
        """
        with self.read() as read:
            return list(_joined(*read))

    @contextmanager
    def read(self) -> Iterator[tuple[dict, sqlite3.Cursor]]:
        """In one read transaction, ``ExposureRange.documents()`` and a cursor over
        every row as ``ExposureRange.read()`` gives them."""
        with _snapshot(self._conn) as conn:
            yield _documents(conn), _exposures(conn)

    # --- diagnostics ---------------------------------------------------------------

    def add_diagnostic(self, kind: str, subject: str, detail: str, created_at: str) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT INTO diagnostics (kind, subject, detail, created_at) VALUES (?, ?, ?, ?)",
                (kind, subject, detail, created_at),
            )

    def diagnostics(self) -> list[tuple[str, str, str]]:
        rows = self._conn.execute("SELECT kind, subject, detail FROM diagnostics ORDER BY id").fetchall()
        return [tuple(r) for r in rows]

"""Store reads: the occurrence join against the SQL it replaced."""

import sqlite3

from idsweep.store import ResultStore

# The join as one SQL statement; load_occurrences must return exactly its rows.
REFERENCE_SQL = """
    SELECT DISTINCT e.digits, e.sha256, h.url, h.query, h.engine, d.declared_type
    FROM exposures e
    JOIN downloads d ON d.sha256 = e.sha256 AND d.status = 'success'
    JOIN hits h ON h.id = d.hit_id
    ORDER BY e.digits, e.sha256, h.url, h.query
"""


def test_load_occurrences_matches_reference_join(tmp_path):
    with ResultStore(tmp_path / "store") as store:
        def fetched(query, page, rank, url, sha256, status="success", file_type="pdf"):
            hit_id = store.add_hit(query, "fixture", page, rank, url, "t", False)
            store.record_download(hit_id, status, "t", sha256=sha256, declared_type=file_type)

        fetched("q1", 1, 1, "http://b.go.th/mirror.pdf", "d1")
        fetched("q1", 1, 2, "http://a.go.th/doc.pdf", "d1")  # one digest, two URLs
        fetched("q2", 1, 1, "http://a.go.th/doc.pdf", "d1")  # same URL, another query
        fetched("q2", 2, 1, "http://a.go.th/doc.pdf", "d1")  # same URL and query again: one row
        fetched("q1", 1, 3, "http://c.ac.th/sheet.xls", "d2", file_type="xls")
        fetched("q1", 1, 4, "http://d.ac.th/failed.pdf", "d2", status="failed")  # no row
        fetched("q1", 1, 5, "http://e.ac.th/other.pdf", "d3", status="failed")  # d3 never succeeded
        store.add_exposures([
            ("3100000000002", "d2", "t"),
            ("1100000000001", "d1", "t"),
            ("3100000000002", "d1", "t"),
            ("2100000000003", "d3", "t"),  # no successful download: no row
        ])

        got = [(o.digits, o.sha256, o.url, o.query, o.engine, o.file_type)
               for o in store.load_occurrences()]
    conn = sqlite3.connect(tmp_path / "store" / "store.db")
    expected = conn.execute(REFERENCE_SQL).fetchall()
    conn.close()

    assert got == expected
    assert len(got) == 7  # 3 sources of d1 for each of two IDs, 1 of d2
    assert not any(row[0] == "2100000000003" or "failed" in row[2] for row in got)


class _WriteBeforeExposures:
    """A store connection that lets another writer try to commit between the
    store's read of its sources and its read of ``exposures``."""

    def __init__(self, conn, write):
        self._conn, self._write = conn, write

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def execute(self, sql, *args):
        if "FROM exposures" in sql:
            self._write()
        return self._conn.execute(sql, *args)


def test_occurrences_read_one_snapshot(tmp_path):
    db = tmp_path / "store" / "store.db"
    rows = lambda store: [(o.digits, o.sha256, o.url) for o in store.load_occurrences()]  # noqa: E731

    def scan_commits_a_mirror_and_its_exposure():
        other = sqlite3.connect(db, timeout=0)
        try:
            with other:
                hit_id = other.execute(
                    "INSERT INTO hits (query, engine, page, rank, url, retrieved_at)"
                    " VALUES ('q', 'fixture', 1, 2, 'http://b.go.th/mirror.pdf', 't')"
                ).lastrowid
                other.execute("INSERT INTO downloads (hit_id, status, sha256, declared_type, completed_at)"
                              " VALUES (?, 'success', 'd1', 'pdf', 't')", (hit_id,))
                other.execute("INSERT INTO exposures VALUES ('1100000000001', 'd1', 't')")
        except sqlite3.OperationalError as exc:  # held off by the reader's transaction, and only so
            assert "locked" in str(exc), exc
        finally:
            other.close()

    with ResultStore(tmp_path / "store") as store:
        hit_id = store.add_hit("q", "fixture", 1, 1, "http://a.go.th/doc.pdf", "t", False)
        store.record_download(hit_id, "success", "t", sha256="d1", declared_type="pdf")
        before = rows(store)
        real = store._conn
        store._conn = _WriteBeforeExposures(real, scan_commits_a_mirror_and_its_exposure)
        got = rows(store)
        store._conn = real
        assert not real.in_transaction
    with ResultStore(tmp_path / "store") as store:
        after = rows(store)
    # the rows of the store before the write or after it, never a mix: the
    # exposure with only the source that was there before the write
    assert before == []
    assert got in (before, after)

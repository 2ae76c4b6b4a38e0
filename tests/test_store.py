"""Store reads: the occurrence stream against the SQL join it replaced."""

import sqlite3

from idsweep.store import ResultStore

from conftest import expand

# The join as one SQL statement: one row per distinct source of an exposure,
# engines included, then the engine dropped.  The occurrence stream, expanded
# across each row's sources, must be exactly its rows.
REFERENCE_SQL = """
    SELECT digits, sha256, url, query, declared_type FROM (
        SELECT DISTINCT e.digits, e.sha256, h.url, h.query, h.engine, d.declared_type
        FROM exposures e
        JOIN downloads d ON d.sha256 = e.sha256 AND d.status = 'success'
        JOIN hits h ON h.id = d.hit_id
    ) ORDER BY digits, sha256, url, query, engine, declared_type
"""


def test_load_occurrences_matches_reference_join(tmp_path):
    with ResultStore(tmp_path / "store") as store:
        def fetched(query, page, rank, url, sha256, status="success", file_type="pdf", engine="fixture"):
            hit_id = store.add_hit(query, engine, page, rank, url, "t", False)
            store.record_download(hit_id, status, "t", sha256=sha256, declared_type=file_type)

        fetched("q1", 1, 1, "http://b.go.th/mirror.pdf", "d1")
        fetched("q1", 1, 2, "http://a.go.th/doc.pdf", "d1")  # one digest, two URLs
        fetched("q2", 1, 1, "http://a.go.th/doc.pdf", "d1")  # same URL, another query
        fetched("q2", 2, 1, "http://a.go.th/doc.pdf", "d1")  # same URL and query again: one row
        fetched("q1", 1, 1, "http://b.go.th/mirror.pdf", "d1", engine="other")  # another engine: a row
        fetched("q1", 1, 6, "http://a.go.th/doc.pdf", "d1", file_type=None)  # no declared type: a row
        fetched("q1", 1, 3, "http://c.ac.th/sheet.xls", "d2", file_type="xls")
        fetched("q1", 1, 4, "http://d.ac.th/failed.pdf", "d2", status="failed")  # no row
        fetched("q1", 1, 5, "http://e.ac.th/other.pdf", "d3", status="failed")  # d3 never succeeded
        store.add_exposures([
            ("3100000000002", "d2", "t"),
            ("1100000000001", "d1", "t"),
            ("3100000000002", "d1", "t"),
            ("2100000000003", "d3", "t"),  # no successful download: no row
        ])

        got = expand(store.load_occurrences())
    conn = sqlite3.connect(tmp_path / "store" / "store.db")
    expected = conn.execute(REFERENCE_SQL).fetchall()
    conn.close()

    assert got == expected
    assert len(got) == 11  # 5 sources of d1 for each of two IDs, 1 of d2
    # a missing type sorts first, and the mirror reached by two engines is two rows
    assert [o[2:] for o in got[:5]] == [
        ("http://a.go.th/doc.pdf", "q1", None), ("http://a.go.th/doc.pdf", "q1", "pdf"),
        ("http://a.go.th/doc.pdf", "q2", "pdf"), ("http://b.go.th/mirror.pdf", "q1", "pdf"),
        ("http://b.go.th/mirror.pdf", "q1", "pdf")]
    assert not any(row[0] == "2100000000003" or "failed" in row[2] for row in got)


def test_rows_of_a_digest_share_its_sources(tmp_path):
    with ResultStore(tmp_path / "store") as store:
        for rank, (url, sha256) in enumerate([("http://a.go.th/1.pdf", "d1"), ("http://b.go.th/1.pdf", "d1"),
                                               ("http://c.go.th/2.pdf", "d2")], 1):
            hit_id = store.add_hit("q", "fixture", 1, rank, url, "t", False)
            store.record_download(hit_id, "success", "t", sha256=sha256, declared_type="pdf")
        store.add_exposures([(f"110000000000{i}", sha256, "t") for i in range(3) for sha256 in ("d1", "d2")])
        rows = store.load_occurrences()
    by_digest = {}
    for digits, sha256, sources in rows:
        assert by_digest.setdefault(sha256, sources) is sources, (digits, sha256)
    assert len(rows) == 6
    assert by_digest == {"d1": (("http://a.go.th/1.pdf", "q", "pdf"), ("http://b.go.th/1.pdf", "q", "pdf")),
                         "d2": (("http://c.go.th/2.pdf", "q", "pdf"),)}


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
    rows = lambda store: [o[:3] for o in expand(store.load_occurrences())]  # noqa: E731

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

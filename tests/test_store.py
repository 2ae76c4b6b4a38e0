"""Store reads: the reference stream against the SQL join it replaced, and its ID ranges against the stream.

Store writes: the tables a fresh store holds, its object files, and the one thread that uses its database.
"""

import hashlib
import pickle
import random
import sqlite3
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from idsweep import store as store_module
from idsweep.store import ResultStore

from conftest import expand

# The join as one SQL statement: one row per distinct source of an exposure,
# engines included, then the engine dropped, each ID and digest read as its text.
# ``load_occurrences()``, expanded across each row's sources, must be exactly its rows.
REFERENCE_SQL = """
    SELECT digits, sha256, url, query, declared_type FROM (
        SELECT DISTINCT CAST(e.digits AS TEXT) AS digits, lower(hex(doc.sha256)) AS sha256, h.url, s.query,
            s.engine, d.declared_type
        FROM exposures e
        JOIN documents doc ON doc.id = e.document
        JOIN downloads d ON d.sha256 = doc.sha256 AND d.status = 'success'
        JOIN hits h ON h.id = d.hit_id
        JOIN searches s ON s.id = h.search
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
            ("3100000000002", "d2"),
            ("1100000000001", "d1"),
            ("3100000000002", "d1"),
            ("2100000000003", "d3"),  # no successful download: no row
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
        store.add_exposures([(f"110000000000{i}", sha256) for i in range(3) for sha256 in ("d1", "d2")])
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
                    "INSERT INTO hits (search, page, rank, url, retrieved_at)"
                    " SELECT id, 1, 2, 'http://b.go.th/mirror.pdf', 't' FROM searches"
                    " WHERE query = 'q' AND engine = 'fixture'"
                ).lastrowid
                other.execute("INSERT INTO downloads (hit_id, status, sha256, declared_type, completed_at)"
                              " VALUES (?, 'success', X'd1', 'pdf', 't')", (hit_id,))
                other.execute("INSERT OR IGNORE INTO documents (sha256) VALUES (X'd1')")
                other.execute("INSERT INTO exposures SELECT '1100000000001', id FROM documents WHERE sha256 = X'd1'")
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


def ranged_store(root, multiplicities):
    """A store whose i-th ID sits in ``multiplicities[i]`` of its documents, each at one URL."""
    store = ResultStore(root)
    docs = [f"d{j:03d}" for j in range(max(multiplicities, default=0))]  # even-length hex
    for rank, sha256 in enumerate(docs, 1):
        hit_id = store.add_hit("q", "fixture", 1, rank, f"http://a.go.th/{sha256}.pdf", "t", False)
        store.record_download(hit_id, "success", "t", sha256=sha256, declared_type="pdf")
    store.add_exposures((f"1{i:012d}", sha256) for i, k in enumerate(multiplicities) for sha256 in docs[:k])
    return store


def rows_of(rng):
    """What ``ExposureRange.read()`` gives, joined as ``load_occurrences()`` joins the whole store."""
    documents = rng.documents()
    with rng.read() as rows:
        return list(store_module._joined(documents, rows))


def test_id_ranges_split_the_stream_at_id_boundaries(tmp_path):
    multiplicities = [1, 3, 1, 1, 2, 5, 1, 1, 1, 2, 1, 4, 1, 1, 3, 1, 1, 1, 2, 1]
    with ranged_store(tmp_path / "store", multiplicities) as store:
        whole = store.load_occurrences()
        assert len(whole) == sum(multiplicities) == 34
        for n in range(1, 8):
            ranges = store.id_ranges(n, min_rows=1)
            parts = [rows_of(r) for r in ranges]
            assert len(ranges) == n and all(parts), n
            assert [row for part in parts for row in part] == whole, n  # in order, each row once
            for r, part in zip(ranges, parts):
                assert r.lo is None or r.lo == part[0][0]  # a range starts at its ID's first row
                assert r.hi is None or part[-1][0] < r.hi
            ids = [{row[0] for row in part} for part in parts]
            assert sum(map(len, ids)) == len(set().union(*ids)), n  # no ID in two ranges
            # each range is within one ID's rows of an equal share
            assert all(abs(len(part) - len(whole) / n) <= max(multiplicities) for part in parts), n
        assert len(store.id_ranges(4, min_rows=12)) == 2  # as many as hold the fewest rows each
        assert len(store.id_ranges(4)) == 1 == len(store.id_ranges(1, min_rows=1))
        assert store_module.MIN_ROWS_PER_RANGE > len(whole)


def test_an_id_wider_than_a_share_starts_one_range(tmp_path):
    # the shares start at rows 0, 2, 4 and 6: the second ID starts three of them
    with ranged_store(tmp_path / "store", [1, 6, 1]) as store:
        assert [len(rows_of(r)) for r in store.id_ranges(4, min_rows=1)] == [1, 7]
    with ranged_store(tmp_path / "empty", []) as store:
        assert [rows_of(r) for r in store.id_ranges(4, min_rows=1)] == [[]]


def test_range_reads_match_the_reference_stream(tmp_path):
    # documents numbered against digest order, some at two URLs, one never
    # downloaded, and IDs in one to three documents each
    digests = ["d3", "d1", "d4", "d0", "d2", "d5"]
    rng = random.Random(16)
    sources = [(sha256, f"http://{host}.go.th/{sha256}.pdf")
               for j, sha256 in enumerate(digests[:-1]) for host in ("a", "b")[:1 + j % 2]]
    with ResultStore(tmp_path / "store") as store:
        for rank, (sha256, url) in enumerate(sources, 1):
            hit_id = store.add_hit("q", "fixture", 1, rank, url, "t", False)
            store.record_download(hit_id, "success", "t", sha256=sha256, declared_type="pdf")
        store.add_exposures((f"1{i:012d}", sha256) for i in range(40)
                            for sha256 in rng.sample(digests, rng.randint(1, 3)))
        whole = store.load_occurrences()
        assert {sha256 for _, sha256, _ in whole} == set(digests[:-1])  # d5 has no row
        for n in range(1, 5):
            ranges = store.id_ranges(n, min_rows=1)
            parts = [rows_of(r) for r in ranges]
            assert len(ranges) == n
            for r, part in zip(ranges, parts):
                assert part == [row for row in whole if (r.lo is None or r.lo <= row[0])
                                and (r.hi is None or row[0] < r.hi)], (n, r)
            assert [row for part in parts for row in part] == whole, n


def test_exposure_range_pickles_and_reads_on_its_own(tmp_path, monkeypatch):
    with ranged_store(tmp_path / "store", [1, 2, 1, 3]) as store:
        ranges = store.id_ranges(2, min_rows=1)
        expected = [rows_of(r) for r in ranges]
    connect, uris = sqlite3.connect, []
    monkeypatch.setattr(sqlite3, "connect", lambda db, **kw: uris.append(db) or connect(db, **kw))
    copies = pickle.loads(pickle.dumps(ranges))
    assert copies == ranges and [rows_of(r) for r in copies] == expected
    # read-only, a connection for each range's documents map and one for its rows
    assert uris == [(tmp_path / "store" / "store.db").as_uri() + "?mode=ro"] * 4
    with copies[0].read() as rows:
        next(rows)
    with pytest.raises(sqlite3.ProgrammingError):  # a range read part-way closes its connection
        rows.connection.execute("SELECT 1")


def test_a_store_holds_an_exposure_in_under_20_bytes(tmp_path):
    # as a scan writes them: one call per document, its IDs in the order found,
    # some IDs in several documents
    rng = random.Random(14)
    ids = [f"{rng.randrange(10**12, 10**13)}" for _ in range(15_000)]
    with ResultStore(tmp_path / "store") as store:
        written = sum(store.add_exposures((digits, hashlib.sha256(str(j).encode()).hexdigest())
                                          for digits in rng.sample(ids, 100)) for j in range(200))
    conn = sqlite3.connect(tmp_path / "store" / "store.db")
    size = conn.execute("PRAGMA page_count").fetchone()[0] * conn.execute("PRAGMA page_size").fetchone()[0]
    conn.close()
    assert written == 20_000
    # a row spelling out its digest, as exposures once did, takes over 100,
    # and one spelling out its ID as text about 26
    assert size / written < 20, size / written


# queries as long as the paper's: Thai keywords, about 70 UTF-8 bytes each
LONG_QUERIES = [
    'site:go.th filetype:xlsx "เลขบัตรประชาชน"',
    'filetype:pdf "หนังสือรับรอง" "เลขประจำตัวประชาชน"',
    'site:ac.th (filetype:xls OR filetype:xlsx) "รายชื่อ"',
    'site:ac.th "รายชื่อนักเรียน"',
    '("เลขบัตรประชาชน" OR "เลขประจำตัวประชาชน") "ลำดับ"',
]


def fill_hits(store, n):
    """``n`` hits over the long queries, each with a successful download of a document of its own."""
    for i in range(n):
        hit_id = store.add_hit(LONG_QUERIES[i % 5], "fixture", i // 50 + 1, i % 10 + 1,
                               f"http://site{i % 97}.go.th/files/{i:05d}.pdf", "2026-01-01T00:00:00+00:00", False)
        store.record_download(hit_id, "success", "2026-01-01T00:00:00+00:00",
                              sha256=hashlib.sha256(str(i).encode()).hexdigest(), declared_type="pdf", size_bytes=4096)


def test_a_store_holds_a_hit_and_its_download_in_under_300_bytes(tmp_path):
    with ResultStore(tmp_path) as store:
        store._conn.execute("PRAGMA synchronous = OFF")
        fill_hits(store, 2_000)
    with ResultStore(tmp_path) as store:  # the same hits again: a re-run of the plan adds no row
        fill_hits(store, 2_000)
    conn = sqlite3.connect(tmp_path / "store.db")
    size = conn.execute("PRAGMA page_count").fetchone()[0] * conn.execute("PRAGMA page_size").fetchone()[0]
    counts = [conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0] for table in ("searches", "hits", "downloads")]
    kinds = {table: conn.execute(f"SELECT DISTINCT typeof(sha256) FROM {table}").fetchall()
             for table in ("documents", "downloads")}
    conn.close()
    assert counts == [5, 2_000, 2_000]  # one search per (query, engine)
    assert kinds == {"documents": [], "downloads": [("blob",)]}
    # each hit spelling out its query and engine, in its row and its index, with
    # a digest as 64 characters, took about 490
    assert size / 2_000 < 300, size / 2_000


def test_a_hit_that_is_not_written_keeps_no_search_number(tmp_path):
    with ResultStore(tmp_path) as store:
        with pytest.raises(sqlite3.ProgrammingError):  # a URL sqlite3 cannot bind: the whole write rolls back
            store.add_hit("q", "fixture", 1, 1, ["http://a.go.th/1.pdf"], "t", False)
        hit_id = store.add_hit("q", "fixture", 1, 1, "http://a.go.th/1.pdf", "t", False)
        assert store.add_hit("q", "fixture", 1, 1, "http://a.go.th/1.pdf", "t", False) == hit_id
        assert store._conn.execute("SELECT s.query, s.engine, h.url FROM hits h JOIN searches s ON s.id = h.search"
                                   ).fetchall() == [("q", "fixture", "http://a.go.th/1.pdf")]


@pytest.mark.parametrize("digest", [
    "d10",  # odd length
    "D1", "d1 ", " d1", "d1\n",  # capitals, or space that bytes.fromhex skips
    "zz", "๑๑",  # not hex
    b"\xd1",  # not text
])
def test_a_digest_that_would_not_read_back_is_refused_before_any_write(tmp_path, digest):
    with ResultStore(tmp_path) as store:
        store.add_exposures([("1100100000013", "d1")])
        hit_id = store.add_hit("q", "fixture", 1, 1, "http://a.go.th/1.pdf", "t", False)
        before = (tmp_path / "store.db").read_bytes()
        with pytest.raises(ValueError, match="lowercase hex"):
            store.add_exposures([("3100000000002", "d2"), ("3100000000002", digest)])
        with pytest.raises(ValueError, match="lowercase hex"):
            store.record_download(hit_id, "success", "t", sha256=digest)
        with pytest.raises(ValueError, match="lowercase hex"):
            store.exposure_counts(["d1", digest])
        assert (tmp_path / "store.db").read_bytes() == before
        assert store._conn.execute("SELECT sha256 FROM documents").fetchall() == [(b"\xd1",)]


@pytest.mark.parametrize("digits", [
    "๑๑๐๐๑๐๐๐๐๐๐๑๓",  # Thai numerals, which int() reads
    "1_100100000013",  # a separator int() skips
    " 1100100000013", "1100100000013\n",  # space around the digits, which int() strips
    "0110010000001",  # a leading 0 the integer loses
    "110010000001", "11001000000135",  # too short, too long
    "-110010000001", "+110010000001",  # a sign
    1100100000013,  # not text
])
def test_an_id_that_would_not_read_back_is_refused_before_any_write(tmp_path, digits):
    with ResultStore(tmp_path) as store:
        store.add_exposures([("1100100000013", "d1")])
        before = (tmp_path / "store.db").read_bytes()
        with pytest.raises(ValueError, match="13 ASCII digits"):
            store.add_exposures([("3100000000002", "d2"), (digits, "d3")])
        assert (tmp_path / "store.db").read_bytes() == before
        assert store.unique_id_count() == 1
        assert store._conn.execute("SELECT lower(hex(sha256)) FROM documents").fetchall() == [("d1",)]


def test_a_fresh_store_holds_exactly_its_tables(tmp_path):
    ResultStore(tmp_path).close()
    conn = sqlite3.connect(tmp_path / "store.db")
    tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")}
    hits = [row[1] for row in conn.execute("PRAGMA table_info(hits)")]
    conn.close()
    assert tables == {"searches", "hits", "downloads", "documents", "exposures", "diagnostics"}
    assert hits == ["id", "search", "page", "rank", "url", "retrieved_at", "is_repeat"]  # no query or engine


def test_a_failed_object_write_leaves_no_file(tmp_path, monkeypatch):
    def failed_rename(src, dst):
        raise OSError(28, "No space left on device")

    with ResultStore(tmp_path) as store:
        monkeypatch.setattr(store_module.os, "replace", failed_rename)
        with pytest.raises(OSError, match="No space left"):
            store.put_object(b"a document")
        assert list(store.objects_dir.iterdir()) == []


def test_an_object_is_synced_before_it_is_named(tmp_path, monkeypatch):
    calls = []
    fsync, replace = store_module.os.fsync, store_module.os.replace
    monkeypatch.setattr(store_module.os, "fsync", lambda fd: calls.append("fsync") or fsync(fd))
    monkeypatch.setattr(store_module.os, "replace", lambda src, dst: calls.append("replace") or replace(src, dst))
    with ResultStore(tmp_path) as store:
        digest = store.put_object(b"a document")
        store.put_object(b"a document")  # already stored: nothing written
        assert calls == ["fsync", "replace"]
        assert [p.name for p in store.objects_dir.iterdir()] == [digest]


THAI_DOCUMENT = "รายชื่อผู้มีสิทธิ์ เลขประจำตัวประชาชน 1-1001-23456-78-6 นายทดสอบ ใจดี\n".encode() * 40


@pytest.mark.parametrize("data", [b"", random.Random(1).randbytes(1 << 20), THAI_DOCUMENT, THAI_DOCUMENT * 500],
                         ids=["empty", "1 MiB random", "thai text", "3 MiB of thai text"])
def test_an_object_reads_back_as_put(tmp_path, data):
    with ResultStore(tmp_path) as store:
        digest = store.put_object(data)
        assert digest == hashlib.sha256(data).hexdigest()
        assert [p.name for p in store.objects_dir.iterdir()] == [digest]
        assert store.read_object(digest) == data
        n = len(data)  # bytes that do not deflate grow by no more than zlib's compressBound allows
        assert (store.objects_dir / digest).stat().st_size <= n + (n >> 12) + (n >> 14) + (n >> 25) + 13


def test_a_put_holds_no_whole_copy_of_the_object(tmp_path):
    data = random.Random(2).randbytes(16 << 20)  # does not deflate: its file is as big
    with ResultStore(tmp_path) as store:
        tracemalloc.start()
        try:
            for _ in range(2):  # written, then checked and kept
                tracemalloc.reset_peak()
                store.put_object(data)
                assert tracemalloc.get_traced_memory()[1] < 6 << 20  # a few MiB chunks, whatever its size
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("make", [random.Random(3).randbytes, lambda n: THAI_DOCUMENT * (n // len(THAI_DOCUMENT))],
                         ids=["random", "thai text"])
def test_a_read_holds_the_object_once(tmp_path, make):
    data = make(16 << 20)
    with ResultStore(tmp_path) as store:
        digest = store.put_object(data)
        tracemalloc.start()
        try:
            read = store.read_object(digest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert read == data
    assert peak <= 1.4 * len(data)  # a join of its chunks would hold it twice


def test_a_text_object_is_stored_compressed(tmp_path):
    with ResultStore(tmp_path) as store:
        digest = store.put_object(THAI_DOCUMENT)
        assert (store.objects_dir / digest).stat().st_size < len(THAI_DOCUMENT)
        assert THAI_DOCUMENT not in (store.objects_dir / digest).read_bytes()


def test_a_raw_object_is_rewritten_only_when_its_bytes_are_put(tmp_path):
    put, never_put = b"a document put again", b"a document never put"
    with ResultStore(tmp_path) as store:
        for data in (put, never_put):  # each as an older store wrote it: the raw bytes
            (store.objects_dir / hashlib.sha256(data).hexdigest()).write_bytes(data)
        digest = store.put_object(put)
        assert store.read_object(digest) == put
        assert (store.objects_dir / digest).read_bytes() != put
        assert (store.objects_dir / hashlib.sha256(never_put).hexdigest()).read_bytes() == never_put


@pytest.mark.parametrize("damage", [
    lambda packed, raw: raw,  # an older store's raw object
    lambda packed, raw: packed[:len(packed) // 2],  # truncated
    lambda packed, raw: packed[:-4] + bytes(4),  # its check value zeroed
    lambda packed, raw: zlib.compress(raw + b"!"),  # other bytes under the name
], ids=["raw", "truncated", "corrupt", "other bytes"])
def test_an_object_that_does_not_read_back_is_a_value_error(tmp_path, damage):
    with ResultStore(tmp_path) as store:
        digest = store.put_object(THAI_DOCUMENT)
        path = store.objects_dir / digest
        path.write_bytes(damage(path.read_bytes(), THAI_DOCUMENT))
        with pytest.raises(ValueError, match=f"object {digest} "):
            store.read_object(digest)
        store.put_object(THAI_DOCUMENT)  # the next put of its bytes mends it
        assert store.read_object(digest) == THAI_DOCUMENT


def test_a_missing_object_is_an_os_error(tmp_path):
    with ResultStore(tmp_path) as store, pytest.raises(FileNotFoundError):
        store.read_object(hashlib.sha256(b"never put").hexdigest())


def test_only_the_opening_thread_uses_the_database(tmp_path):
    with ResultStore(tmp_path) as store, ThreadPoolExecutor(1) as pool:
        assert pool.submit(store.put_object, b"a document").result() == hashlib.sha256(b"a document").hexdigest()
        with pytest.raises(sqlite3.ProgrammingError, match="thread"):
            pool.submit(store.diagnostics).result()

"""Harvester contract: pagination, politeness, retries, content addressing."""

from __future__ import annotations

import http.client
import http.server
import json
import sqlite3
import threading

import pytest

from idsweep import cli
from idsweep.harvest import (
    CrawlConfig,
    DownloadRecord,
    SearchHit,
    declared_type_of,
    download,
    download_all,
    execute_plan,
)
from idsweep.providers import FetchResult, FixtureProvider, HttpProvider, ProviderError
from idsweep.queries import QueryPlan, plan_to_json
from idsweep.store import ResultStore

from conftest import VirtualClock, write_doc, write_index


def paged(urls: list[str], per_page: int = 10) -> list[dict]:
    return [
        {"url": u, "page": 1 + i // per_page, "rank": 1 + i % per_page}
        for i, u in enumerate(urls)
    ]


def quick_config(**kw) -> CrawlConfig:
    base = dict(search_delay=0.0, download_timeout=5.0, download_max_retry=0, download_workers=1)
    base.update(kw)
    return CrawlConfig(**base)


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store") as s:
        yield s


# --- pagination ---------------------------------------------------------------

def test_pagination_fetches_all_pages(tmp_path, store, virtual_clock):
    urls = [f"https://a.go.th/f{i}.pdf" for i in range(23)]
    index = write_index(tmp_path, {"q": paged(urls)}, {})
    provider = FixtureProvider(index)
    hits = execute_plan(QueryPlan(("q",)), provider, quick_config(), store, virtual_clock)
    assert len(hits) == 23
    assert {h.page for h in hits} == {1, 2, 3}
    assert [h.url for h in hits] == urls  # rank order within page, page order overall


def test_pagination_respects_cap(tmp_path, store, virtual_clock):
    urls = [f"https://a.go.th/f{i}.pdf" for i in range(200)]
    index = write_index(tmp_path, {"q": paged(urls)}, {})
    provider = FixtureProvider(index)
    hits = execute_plan(QueryPlan(("q",), max_pages=10), provider, quick_config(), store, virtual_clock)
    assert len(hits) == 100
    assert max(h.page for h in hits) == 10


def test_plan_cap_and_config_cap_combine(tmp_path, store, virtual_clock):
    urls = [f"https://a.go.th/f{i}.pdf" for i in range(50)]
    index = write_index(tmp_path, {"q": paged(urls)}, {})
    provider = FixtureProvider(index)
    hits = execute_plan(
        QueryPlan(("q",), max_pages=10), provider, quick_config(max_pages=2), store, virtual_clock
    )
    assert len(hits) == 20


def test_zero_results(tmp_path, store, virtual_clock):
    index = write_index(tmp_path, {"q": []}, {})
    provider = FixtureProvider(index)
    hits = execute_plan(QueryPlan(("q", "unknown")), provider, quick_config(), store, virtual_clock)
    assert hits == [] and store.hit_count() == 0


# --- politeness -----------------------------------------------------------------

def test_search_requests_are_spaced(tmp_path, store, virtual_clock):
    urls = [f"https://a.go.th/f{i}.pdf" for i in range(25)]
    index = write_index(tmp_path, {"q1": paged(urls), "q2": paged(urls[:5])}, {})
    inner = FixtureProvider(index)
    times: list[float] = []

    class Spy:
        name = inner.name

        def search(self, query, page):
            times.append(virtual_clock.now())
            return inner.search(query, page)

    execute_plan(QueryPlan(("q1", "q2")), Spy(), quick_config(search_delay=1.5), store, virtual_clock)
    assert len(times) == 4  # 3 pages + 1 page
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap >= 1.5 for gap in gaps)


# --- error handling ----------------------------------------------------------------

def test_provider_error_skips_rest_of_query(tmp_path, store, virtual_clock):
    urls = [f"https://a.go.th/f{i}.pdf" for i in range(25)]
    index = write_index(tmp_path, {"bad": paged(urls), "good": paged(urls[:3])}, {})
    inner = FixtureProvider(index)

    class Flaky:
        name = inner.name

        def search(self, query, page):
            if query == "bad" and page == 2:
                raise ProviderError("engine said no")
            return inner.search(query, page)

    hits = execute_plan(QueryPlan(("bad", "good")), Flaky(), quick_config(), store, virtual_clock)
    assert [h.query for h in hits].count("bad") == 10  # page 1 only
    assert [h.query for h in hits].count("good") == 3
    kinds = [(k, s) for k, s, _ in store.diagnostics()]
    assert ("provider_error", "bad") in kinds


# --- duplicates and idempotence ------------------------------------------------------

def test_duplicate_within_page_recorded_once(tmp_path, store, virtual_clock):
    entries = [
        {"url": "https://a.go.th/same.pdf", "page": 1, "rank": 1},
        {"url": "https://a.go.th/same.pdf", "page": 1, "rank": 2},
        {"url": "https://a.go.th/other.pdf", "page": 1, "rank": 3},
    ]
    index = write_index(tmp_path, {"q": entries}, {})
    hits = execute_plan(QueryPlan(("q",)), FixtureProvider(index), quick_config(), store, virtual_clock)
    assert [h.url for h in hits] == ["https://a.go.th/same.pdf", "https://a.go.th/other.pdf"]


def test_repeat_urls_flagged_across_queries(tmp_path, store, virtual_clock):
    shared = {"url": "https://a.go.th/same.pdf", "page": 1, "rank": 1}
    index = write_index(tmp_path, {"q1": [shared], "q2": [shared]}, {})
    hits = execute_plan(QueryPlan(("q1", "q2")), FixtureProvider(index), quick_config(), store, virtual_clock)
    assert [h.is_repeat for h in hits] == [False, True]
    assert store.hit_count() == 2  # one row per (query, page, rank, url)


def test_execute_plan_idempotent(tmp_path, store, virtual_clock):
    urls = [f"https://a.go.th/f{i}.pdf" for i in range(7)]
    index = write_index(tmp_path, {"q": paged(urls)}, {})
    plan = QueryPlan(("q",))
    provider = FixtureProvider(index)
    execute_plan(plan, provider, quick_config(), store, virtual_clock)
    first = store.hit_count()
    execute_plan(plan, provider, quick_config(), store, virtual_clock)
    assert store.hit_count() == first == 7


# --- declared type --------------------------------------------------------------------

def test_declared_type_from_disposition_beats_url():
    assert declared_type_of("https://a.go.th/x.pdf", 'attachment; filename="list.xlsx"') == "xlsx"
    assert declared_type_of("https://a.go.th/x.pdf", None) == "pdf"
    assert declared_type_of("https://a.go.th/x", "attachment") == ""
    assert declared_type_of("https://a.go.th/x.PDF", None) == "pdf"


def test_declared_type_rfc2231_filename():
    cd = "attachment; filename*=UTF-8''%E0%B8%A3%E0%B8%B2%E0%B8%A2%E0%B8%8A%E0%B8%B7%E0%B9%88%E0%B8%AD.xlsx"
    assert declared_type_of("https://a.go.th/dl", cd) == "xlsx"


# --- downloads ---------------------------------------------------------------------------

def make_hit(store, url, query="q"):
    hit = SearchHit(query=query, engine="fixture", page=1, rank=1, url=url, retrieved_at="t")
    hit.hit_id = store.add_hit(query, "fixture", 1, 1, url, "t", False)
    return hit


def test_download_success_stores_by_digest(tmp_path, store):
    rel = write_doc(tmp_path, "doc.txt", "hello 1234567891011")
    url = "https://a.go.th/doc.txt"
    index = write_index(tmp_path, {}, {url: {"path": rel}})
    provider = FixtureProvider(index)
    record = download(make_hit(store, url), provider, quick_config(), store)
    assert record.status == "success" and record.attempts == 1
    assert record.declared_type == "txt"
    assert store.read_object(record.sha256).decode() == "hello 1234567891011"
    assert (store.root / "objects" / record.sha256).is_file()


def test_same_bytes_two_urls_one_object(tmp_path, store):
    rel = write_doc(tmp_path, "doc.txt", "same bytes")
    urls = ["https://a.go.th/one.txt", "https://b.ac.th/two.txt"]
    index = write_index(tmp_path, {}, {u: {"path": rel} for u in urls})
    provider = FixtureProvider(index)
    records = [download(make_hit(store, u), provider, quick_config(), store) for u in urls]
    assert {r.status for r in records} == {"success"}
    assert records[0].sha256 == records[1].sha256
    assert store.object_count() == 1
    assert store.download_counts() == {"success": 2}


def test_distinct_bytes_distinct_digests(tmp_path, store):
    rel_a = write_doc(tmp_path, "a.txt", "contents A")
    rel_b = write_doc(tmp_path, "b.txt", "contents B")
    index = write_index(
        tmp_path, {}, {"https://a.go.th/a.txt": {"path": rel_a}, "https://a.go.th/b.txt": {"path": rel_b}}
    )
    provider = FixtureProvider(index)
    r1 = download(make_hit(store, "https://a.go.th/a.txt"), provider, quick_config(), store)
    r2 = download(make_hit(store, "https://a.go.th/b.txt"), provider, quick_config(), store)
    assert r1.sha256 != r2.sha256 and store.object_count() == 2


class FlakyFetcher:
    """Fails a set number of times before serving; counts attempts."""

    name = "flaky"

    def __init__(self, failures: int, data: bytes = b"ok", exc=ProviderError("boom")):
        self.failures = failures
        self.calls = 0
        self.data = data
        self.exc = exc

    def fetch(self, url, timeout):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return FetchResult(data=self.data)


def test_retry_succeeds_within_budget(store):
    fetcher = FlakyFetcher(failures=2)
    hit = make_hit(store, "https://a.go.th/x.txt")
    record = download(hit, fetcher, quick_config(download_max_retry=2), store)
    assert record.status == "success" and record.attempts == 3 and fetcher.calls == 3


def test_retry_budget_exhausted(store):
    fetcher = FlakyFetcher(failures=5)
    hit = make_hit(store, "https://a.go.th/x.txt")
    record = download(hit, fetcher, quick_config(download_max_retry=1), store)
    assert record.status == "failed" and record.attempts == 2 and fetcher.calls == 2
    assert "network" in record.reason


def test_timeout_reason(store):
    fetcher = FlakyFetcher(failures=5, exc=TimeoutError())
    record = download(make_hit(store, "https://a.go.th/x.txt"), fetcher, quick_config(), store)
    assert record.status == "failed" and record.reason == "timeout" and record.attempts == 1


def test_type_mismatch_discards_bytes(tmp_path, store):
    rel = write_doc(tmp_path, "x.exe", "MZ fake binary")
    url = "https://a.go.th/x.exe"
    index = write_index(tmp_path, {}, {url: {"path": rel}})
    record = download(make_hit(store, url), FixtureProvider(index), quick_config(), store)
    assert record.status == "type_mismatch" and record.sha256 is None
    assert store.object_count() == 0  # bytes discarded, not stored


def test_oversize_fails_without_retry(store):
    fetcher = FlakyFetcher(failures=0, data=b"x" * 100)
    record = download(
        make_hit(store, "https://a.go.th/x.txt"), fetcher,
        quick_config(max_object_bytes=10, download_max_retry=3), store,
    )
    assert record.status == "failed" and record.reason == "too_large"
    assert record.attempts == 1 and fetcher.calls == 1


def test_download_all_paces_per_host(tmp_path, store, virtual_clock):
    rel = write_doc(tmp_path, "d.txt", "data")
    urls = [
        "https://a.go.th/1.txt",
        "https://a.go.th/2.txt",
        "https://b.ac.th/3.txt",
    ]
    index = write_index(tmp_path, {}, {u: {"path": rel} for u in urls})
    inner = FixtureProvider(index)
    times: dict[str, list[float]] = {}

    class Spy:
        name = inner.name

        def fetch(self, url, timeout):
            host = url.split("/")[2]
            times.setdefault(host, []).append(virtual_clock.now())
            return inner.fetch(url, timeout)

    hits = [make_hit(store, u, query=f"q{i}") for i, u in enumerate(urls)]
    records = download_all(hits, Spy(), quick_config(search_delay=2.0), store, virtual_clock)
    assert all(r.status == "success" for r in records)
    a_times = times["a.go.th"]
    assert len(a_times) == 2 and a_times[1] - a_times[0] >= 2.0


def test_crawl_config_validation():
    with pytest.raises(ValueError):
        CrawlConfig(search_delay=-1)
    with pytest.raises(ValueError):
        CrawlConfig(download_timeout=0)
    with pytest.raises(ValueError):
        CrawlConfig(download_max_retry=-1)
    with pytest.raises(ValueError):
        CrawlConfig(max_pages=0)
    assert "pdf" in CrawlConfig(accepted_types={"PDF"}).accepted_types


# --- live provider against a local server ------------------------------------------

BIG = 8 * 1024 * 1024  # body size the oversized document claims and sends


class _Origin(http.server.BaseHTTPRequestHandler):
    """Serves a search page and three documents: small, oversized, truncated."""

    def do_GET(self):
        path = self.path.split("?")[0]
        if path == "/search":
            base = f"http://127.0.0.1:{self.server.server_port}"
            body = json.dumps({"hits": [{"url": f"{base}/{name}", "page": 1, "rank": rank}
                                        for rank, name in enumerate(("ok.txt", "big.txt"), start=1)],
                               "total_pages": 1}).encode()
        elif path == "/ok.txt":
            body = b"small document"
        elif path == "/short.txt":
            self.send_response(200)
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b"only ten b")
            return
        elif path == "/big.txt":
            self.send_response(200)
            self.end_headers()  # no length: the body runs until the connection closes
            self.close_connection = True
            try:
                for _ in range(BIG // 65536):
                    self.wfile.write(b"x" * 65536)
            except OSError:
                pass  # the client stopped reading
            return
        else:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def origin():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Origin)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def live(max_bytes: int) -> HttpProvider:
    return HttpProvider(endpoint="", api_key="k", acknowledge_live_traffic=True, max_bytes=max_bytes)


def test_http_fetch_reads_at_most_one_byte_over_the_limit(origin, store):
    assert len(live(max_bytes=1000).fetch(f"{origin}/big.txt", timeout=5).data) == 1001
    assert live(max_bytes=1000).fetch(f"{origin}/ok.txt", timeout=5).data == b"small document"
    record = download(make_hit(store, f"{origin}/big.txt"), live(max_bytes=1000),
                      quick_config(max_object_bytes=1000), store)
    assert (record.status, record.reason, record.size_bytes) == ("failed", "too_large", 1001)
    assert store.object_count() == 0


def test_http_fetch_truncated_body_fails(origin, store):
    for max_bytes in (1000, 10):
        with pytest.raises(http.client.IncompleteRead):
            live(max_bytes).fetch(f"{origin}/short.txt", timeout=5)
    record = download(make_hit(store, f"{origin}/short.txt"), live(1000), quick_config(), store)
    assert record.status == "failed" and record.reason.startswith("network")


def test_scan_passes_max_object_bytes_to_http_provider(origin, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(plan_to_json(QueryPlan(("q",))), "utf-8")
    store_dir = tmp_path / "store"
    code = cli.entry([
        "scan", "run", "--plan", str(plan), "--store", str(store_dir), "--provider", "http",
        "--http-endpoint", f"{origin}/search", "--http-key", "k", "--i-accept-risk",
        "--search-delay", "0", "--max-object-bytes", "1000", "--accepted-types", "txt",
    ])
    capsys.readouterr()
    assert code == 0
    conn = sqlite3.connect(store_dir / "store.db")
    rows = conn.execute(
        "SELECT h.url, d.status, d.reason, d.size_bytes FROM downloads d"
        " JOIN hits h ON h.id = d.hit_id ORDER BY h.rank"
    ).fetchall()
    conn.close()
    assert rows == [(f"{origin}/ok.txt", "success", None, 14),
                    (f"{origin}/big.txt", "failed", "too_large", 1001)]

"""Release gate: one test per shipping criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion list.
Criteria assert exact values (no tolerances unless a runtime bound is part of
the criterion).  A FAIL here is meaningful and must not be masked.
"""

from __future__ import annotations

import random
import time
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

from idsweep import domains, reports, thai_id
from idsweep.extract import load_extractor_config
from idsweep.geo import default_registry
from idsweep.harvest import CrawlConfig, SearchHit, download, execute_plan
from idsweep.pipeline import run_scan
from idsweep.providers import FetchResult, FixtureProvider, ProviderError
from idsweep.queries import QueryPlan, load_plan_file, render
from idsweep.store import ResultStore
from idsweep.synth import make_corpus

from conftest import VirtualClock, object_count, occurrences, reference_ids, store_of, write_doc, write_index
from test_queries import golden_constructions
from test_thai_id import oracle_checksum

REG = default_registry()
REPO = Path(__file__).resolve().parent.parent


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label})"


# 1 -------------------------------------------------------------------------------

def test_criterion_1_checksum_ground_truth():
    ok = (
        thai_id.weighted_sum("123456789101") == 351
        and thai_id.compute_checksum("123456789101") == 1
        and (11 - 351 % 11) % 10 == 1
    )
    verdict(1, "checksum ground truth", ok)


# 2 -------------------------------------------------------------------------------

def test_criterion_2_oracle_agreement_10k():
    rng = random.Random(0xC2)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        prefix = f"{rng.randrange(10**12):012d}"
        if thai_id.compute_checksum(prefix) != oracle_checksum(prefix):
            mismatches += 1
    elapsed = time.perf_counter() - started
    verdict(2, "10k checksum oracle agreement", mismatches == 0 and elapsed < 1.0)


# 3 -------------------------------------------------------------------------------

def test_criterion_3_end_to_end_recall(tmp_path):
    started = time.perf_counter()
    manifest = make_corpus(
        tmp_path / "corpus", REG,
        n_ids=500, n_decoys=200, n_docs=60, n_queries=5, seed=0xF1D0,
    )
    store = ResultStore(tmp_path / "store")
    summary = run_scan(
        load_plan_file(manifest.plan_path),
        FixtureProvider(manifest.index_path),
        CrawlConfig(search_delay=0.0, download_workers=1),
        store,
        REG,
        load_extractor_config(manifest.extractor_config_path),
        clock=VirtualClock(),
    )
    found = {o.digits for o in occurrences(store)}
    planted = set(manifest.planted)
    elapsed = time.perf_counter() - started
    precision = len(found & planted) / len(found) if found else 0.0
    recall = len(found & planted) / len(planted)
    verdict(
        3,
        "500 planted + 200 decoys, precision=recall=1.0, <30 s",
        precision == 1.0 and recall == 1.0 and summary.unique_ids == 500 and elapsed < 30.0,
    )


# 4 -------------------------------------------------------------------------------

def _tables_in_areas(district_codes: list[str], count: int) -> dict[str, reports.AggregateTable]:
    rows = []
    for i in range(count):
        district = district_codes[i % len(district_codes)]
        digits = thai_id.generate_valid_id(f"{1 + i % 8}{district}", f"{i:07d}", REG)
        rows.append((digits, "s", "http://a.go.th/x.pdf", "q", "g", "pdf"))
    with store_of(rows) as store:
        return reports.tables(store, REG)[0]


def test_criterion_4_per_capita_arithmetic():
    province_tbl = _tables_in_areas(["9101", "9102", "9105"], 48_057)["province"]
    row_91 = next(r for r in province_tbl.rows if r.key == "91")
    district_tbl = _tables_in_areas(["2481"], 6_983)["district"]
    row_2481 = next(r for r in district_tbl.rows if r.key == "2481")
    verdict(
        4,
        "48,057/324,390 -> 14.81% and 6,983/4,231 -> 165.04%",
        row_91.population == 324_390
        and row_91.percent == Decimal("14.81")
        and row_2481.population == 4_231
        and row_2481.percent == Decimal("165.04"),
    )


# 5 -------------------------------------------------------------------------------

TOP_ROWS_FULL = {  # multiplicity -> (unique ids, printed percent), denominator 1,263,268
    15: (5, "0.0004"),
    13: (6, "0.0005"),
    12: (56, "0.0044"),
    11: (7, "0.0006"),
    10: (7, "0.0006"),
    9: (61, "0.0048"),
    8: (79, "0.0063"),
    7: (774, "0.0613"),
}


def _repeat_fixture(multiplicity_counts: dict[int, int]) -> reports.AggregateTable:
    rows = []
    serial = 0
    for multiplicity, n_ids in multiplicity_counts.items():
        for _ in range(n_ids):
            digits = thai_id.generate_valid_id("11001", f"{serial:07d}", REG)
            serial += 1
            rows += [(digits, f"s{serial}", f"http://h{j}.go.th/{serial}.pdf", "q", "g", "pdf")
                     for j in range(multiplicity)]
    with store_of(rows) as store:
        return reports.tables(store, REG)[0]["source_multiplicity"]


def test_criterion_5_repeat_distribution_scaled():
    # counts scaled 1/1000 from the three largest multiplicity-1..3 rows
    counts = {1: 1139, 2: 90, 3: 16}
    table = _repeat_fixture(counts)
    total = sum(counts.values())
    ok = True
    for row in table.rows:
        expected = (Fraction(counts[int(row.key)], total) * 100)
        quantized = Decimal(expected.numerator) / Decimal(expected.denominator)
        quantized = quantized.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
        ok = ok and row.percent == quantized and row.unique_ids == counts[int(row.key)]
    # the printed percents of the low-count rows reproduce exactly at full scale
    for mult, (n, printed) in TOP_ROWS_FULL.items():
        ok = ok and reports.percent_of(n, 1_263_268, 4) == Decimal(printed)
    verdict(5, "repeat distribution, scaled fixture + top-row percents", ok)


def test_criterion_5_full_scale_headline_percent():
    # gate target for the single-URL share is 90.2008; exact arithmetic yields
    # 90.1980, and no rounding mode closes the gap (that would need a numerator
    # near 1,139,478) -- kept red rather than adjusted
    computed = reports.percent_of(1_139_443, 1_263_268, 4)
    verdict(5, "full-scale 1,139,443/1,263,268 -> 90.2008", computed == Decimal("90.2008"))


# 6 -------------------------------------------------------------------------------

CLASSIFICATION_GOLDENS = [
    ("http://www.nfe.go.th/a.xlsx", "go.th"),
    ("http://cdd.go.th/b.pdf", "go.th"),
    ("http://pokkrongnakhon.com/c.pdf", "com"),
    ("https://chpao.org/d.xls", "org"),
    ("https://rta.mi.th/e.pdf", "mi.th"),
    ("http://edudev.in.th/f.html", "in.th"),
    ("https://baac.or.th/g.pdf", "or.th"),
    ("http://thai.ac/h.pdf", "ac"),
    ("http://122.154.253.83/i.pdf", "ip_address"),
]


def test_criterion_6_classification_goldens():
    ok = all(
        domains.classify_url(url).tld_class == expected
        for url, expected in CLASSIFICATION_GOLDENS
    )
    verdict(6, "TLD classification goldens", ok)


# 7 -------------------------------------------------------------------------------

class _Flaky:
    name = "flaky"

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def fetch(self, url, timeout):
        self.calls += 1
        if self.calls <= self.failures:
            raise ProviderError("boom")
        return FetchResult(data=b"payload")


def test_criterion_7_harvester_contract(tmp_path):
    started = time.perf_counter()
    clock = VirtualClock()
    store = ResultStore(tmp_path / "store")
    urls = [f"https://a.go.th/f{i}.pdf" for i in range(15)]
    index = write_index(
        tmp_path,
        {"q": [{"url": u, "page": 1 + i // 10, "rank": 1 + i % 10} for i, u in enumerate(urls)]},
        {},
    )
    inner = FixtureProvider(index)
    times: list[float] = []

    class Spy:
        name = inner.name

        def search(self, query, page):
            times.append(clock.now())
            return inner.search(query, page)

    config = CrawlConfig(search_delay=2.0, download_workers=1, download_max_retry=3)
    execute_plan(QueryPlan(("q",)), Spy(), config, store, clock)
    gaps_ok = len(times) == 2 and all(
        b - a >= config.search_delay for a, b in zip(times, times[1:])
    )

    flaky = _Flaky(failures=5)
    hit = SearchHit(query="q", engine="x", page=1, rank=1, url="https://a.go.th/x.txt", retrieved_at="t")
    hit.hit_id = store.add_hit("q", "x", 1, 1, hit.url, "t", False)
    record = download(hit, flaky, config, store)
    retries_ok = record.status == "failed" and record.attempts == 4 and flaky.calls == 4

    doc = write_doc(tmp_path, "same.txt", "identical bytes")
    dup_index = write_index(
        tmp_path, {}, {u: {"path": doc} for u in ("https://a.go.th/1.txt", "https://b.go.th/2.txt")}
    )
    dup_provider = FixtureProvider(dup_index)
    shas = set()
    for i, u in enumerate(("https://a.go.th/1.txt", "https://b.go.th/2.txt")):
        h = SearchHit(query="d", engine="x", page=1, rank=i + 1, url=u, retrieved_at="t")
        h.hit_id = store.add_hit("d", "x", 1, i + 1, u, "t", False)
        shas.add(download(h, dup_provider, config, store).sha256)
    dedupe_ok = len(shas) == 1 and object_count(store) == 1

    elapsed = time.perf_counter() - started
    verdict(
        7,
        "search gap, retry budget 1+max_retry, content addressing, <5 s",
        gaps_ok and retries_ok and dedupe_ok and elapsed < 5.0,
    )


# 8 -------------------------------------------------------------------------------

def test_criterion_8_redaction_completeness(tmp_path):
    manifest = make_corpus(tmp_path / "corpus", REG, seed=0xED1)
    store = ResultStore(tmp_path / "store")
    run_scan(
        load_plan_file(manifest.plan_path),
        FixtureProvider(manifest.index_path),
        CrawlConfig(search_delay=0.0, download_workers=1),
        store,
        REG,
        load_extractor_config(manifest.extractor_config_path),
        clock=VirtualClock(),
    )
    leaked = 0
    for fmt in ("markdown", "csv", "json"):
        out_dir = tmp_path / f"report_{fmt}"
        written, _, _ = reports.report(store.id_ranges(1), list(reports.TABLES), REG, out_dir, fmt=fmt,
                                       salt=b"acceptance")
        for path in written:
            leaked += len(reference_ids(path.read_text("utf-8"), REG))
    verdict(8, "redacted artifacts contain zero accepted IDs", leaked == 0)


# 9 -------------------------------------------------------------------------------

def test_criterion_9_query_rendering_goldens():
    ok = all(render(expr) == expected for expr, expected in golden_constructions())
    verdict(9, "five query strings byte-for-byte", ok)

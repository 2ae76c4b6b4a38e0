"""Whole-pipeline runs over generated corpora: recall, idempotence, provenance."""

import hashlib
import itertools
import json
import sqlite3
import sys
from datetime import datetime, timedelta

import pytest

from idsweep import cli, harvest, reports, synth, thai_id
from idsweep.extract import ExtractorSpec, load_extractor_config
from idsweep.harvest import CrawlConfig
from idsweep.pipeline import run_scan, scan_document
from idsweep.providers import FixtureProvider
from idsweep.queries import QueryPlan, load_plan_file, plan_to_json
from idsweep.store import ResultStore

from conftest import OVERLAPPED, VirtualClock, occurrences, write_doc, write_index


def build_corpus(tmp_path, registry, **kwargs):
    return synth.make_corpus(tmp_path / "corpus", registry, **kwargs)


def scan_corpus(tmp_path, registry, manifest, store_name="store"):
    plan = load_plan_file(manifest.plan_path)
    provider = FixtureProvider(manifest.index_path)
    extractors = load_extractor_config(manifest.extractor_config_path)
    config = CrawlConfig(search_delay=0.0, download_workers=1)
    store = ResultStore(tmp_path / store_name)
    summary = run_scan(
        plan, provider, config, store, registry, extractors, clock=VirtualClock()
    )
    return store, summary


def test_corpus_generation_is_deterministic(tmp_path, registry):
    a = synth.make_corpus(tmp_path / "a", registry, seed=7, python_command="python3")
    b = synth.make_corpus(tmp_path / "b", registry, seed=7, python_command="python3")
    assert a.planted == b.planted and a.decoys == b.decoys
    assert (
        (tmp_path / "a" / "index.json").read_text("utf-8")
        == (tmp_path / "b" / "index.json").read_text("utf-8")
    )
    for doc in sorted((tmp_path / "a" / "docs").iterdir()):
        assert doc.read_bytes() == (tmp_path / "b" / "docs" / doc.name).read_bytes()


def test_scan_recovers_exactly_the_planted_ids(tmp_path, registry):
    manifest = build_corpus(tmp_path, registry)
    store, summary = scan_corpus(tmp_path, registry, manifest)
    found = {o.digits for o in occurrences(store)}
    assert found == set(manifest.planted)  # no decoy accepted, none missed
    assert summary.unique_ids == len(manifest.planted) == 40
    assert summary.queries == 3
    assert summary.downloads_failed == 0


def test_rerun_is_idempotent(tmp_path, registry):
    manifest = build_corpus(tmp_path, registry)
    store, first = scan_corpus(tmp_path, registry, manifest)
    plan = load_plan_file(manifest.plan_path)
    provider = FixtureProvider(manifest.index_path)
    extractors = load_extractor_config(manifest.extractor_config_path)
    config = CrawlConfig(search_delay=0.0, download_workers=1)
    second = run_scan(
        plan, provider, config, store, registry, extractors, clock=VirtualClock()
    )
    assert second == first
    assert store.unique_id_count() == 40


def test_mirrored_document_yields_multi_url_occurrences(tmp_path, registry):
    manifest = build_corpus(tmp_path, registry)
    store, _ = scan_corpus(tmp_path, registry, manifest)
    urls_by_id = {}
    for o in occurrences(store):
        urls_by_id.setdefault(o.digits, set()).add(o.url)
    multiplicities = {len(urls) for urls in urls_by_id.values()}
    assert max(multiplicities) >= 2  # the mirrored doc and the repeated ID
    by_dim, skipped, _ = reports.tables(store, registry)
    assert skipped == []
    table = by_dim["source_multiplicity"]
    assert int(table.rows[0].key) >= 2


# result URLs the report cannot classify, each served by the fixture: a scan must not count what they hold
REFUSED_URLS = ("file:///srv/extra.txt", "ftp://a.go.th/extra.txt", "http:///extra.txt", "mailto:x@a.go.th")


@pytest.mark.parametrize("seed", range(5))
def test_the_scan_counts_what_the_report_counts(tmp_path, registry, seed):
    manifest = build_corpus(tmp_path, registry, seed=seed)
    extra = [thai_id.generate_valid_id("11001", f"{9000000 + i:07d}", registry) for i in range(len(REFUSED_URLS))]
    index = json.loads(manifest.index_path.read_text("utf-8"))
    hits = index["queries"][manifest.queries[0]]
    for url, digits in zip(REFUSED_URLS, extra):
        index["objects"][url] = {"path": write_doc(manifest.root, f"{digits}.txt", f"id {digits}\n")}
        hits.append({"url": url, "page": len(hits) // 10 + 1, "rank": len(hits) % 10 + 1})
    manifest.index_path.write_text(json.dumps(index), "utf-8")
    store, summary = scan_corpus(tmp_path, registry, manifest)
    _, skipped, ids = reports.tables(store, registry)
    assert (summary.unique_ids, skipped) == (ids, [])
    assert summary.downloads_failed == len(REFUSED_URLS)
    assert ids == len(manifest.planted)


def test_summary_line_shape(tmp_path, registry):
    manifest = build_corpus(tmp_path, registry)
    _, summary = scan_corpus(tmp_path, registry, manifest)
    line = summary.line()
    assert "3 queries" in line and "40 distinct IDs" in line


def test_unextractable_document_lands_in_diagnostics(tmp_path, registry):
    doc = write_doc(tmp_path, "data.csv", "name,id\nx,1100123456786\n")
    index = write_index(
        tmp_path,
        {"q": [{"url": "http://a.go.th/data.csv", "page": 1, "rank": 1}]},
        {"http://a.go.th/data.csv": {"path": doc}},
    )
    store = ResultStore(tmp_path / "store")
    summary = run_scan(
        QueryPlan(queries=("q",)),
        FixtureProvider(index),
        CrawlConfig(search_delay=0.0, download_workers=1),
        store,
        registry,
        extractors=[ExtractorSpec("plain", "plain", frozenset({"txt"}))],
        clock=VirtualClock(),
    )
    assert summary.unique_ids == 0
    kinds = [d[0] for d in store.diagnostics()]
    assert "unsupported_type" in kinds


@pytest.mark.parametrize("body, script, detail", [
    (b"id 1100123456786\n", "raise SystemExit(3)", "ext: exit 3: "),  # fails beside a reader that succeeds
    (b"id 1100123456786\n", "import sys; sys.stdout.buffer.write(open(sys.argv[1], 'rb').read() + bytes([255]))",
     "ext: invalid utf-8 replaced"),  # succeeds, but not wholly
    (b"id 1100123456786\n\xff\xfe bad bytes\n", None,
     "plain: invalid utf-8 replaced"),  # so does a builtin reader of bytes that are not UTF-8
], ids=["one extractor failed", "invalid utf-8", "invalid utf-8 builtin txt"])
def test_partly_read_document_lands_in_diagnostics(tmp_path, capsys, body, script, detail):
    doc = write_doc(tmp_path, "data.txt", "")
    (tmp_path / doc).write_bytes(body)
    index = write_index(
        tmp_path,
        {"q": [{"url": "http://a.go.th/data.txt", "page": 1, "rank": 1}]},
        {"http://a.go.th/data.txt": {"path": doc}},
    )
    (tmp_path / "plan.json").write_text(plan_to_json(QueryPlan(("q",))), "utf-8")
    external = [{"name": "ext", "kind": "external", "types": ["txt"],
                 "command": f'"{sys.executable}" -c "{script}" {{input}}'}] if script else []
    (tmp_path / "extractors.json").write_text(json.dumps({"extractors": [
        {"name": "plain", "kind": "plain", "types": ["txt"]}, *external,
    ]}), "utf-8")
    code = cli.entry(["scan", "run", "--plan", str(tmp_path / "plan.json"), "--fixture", str(index),
                      "--extractors", str(tmp_path / "extractors.json"), "--store", str(tmp_path / "store"),
                      "--search-delay", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.rstrip().endswith("1 distinct IDs across 1 of 1 documents; 1 partly read")
    sha256 = hashlib.sha256((tmp_path / doc).read_bytes()).hexdigest()
    with ResultStore(tmp_path / "store") as store:
        assert store.diagnostics() == [("extraction_partial", sha256, detail)]
        assert store.unique_id_count() == 1
    assert captured.err == f"warning: extraction_partial: {sha256}: {detail}\n"


def test_no_diagnostic_is_stamped_before_the_download_it_names(tmp_path, registry, monkeypatch):
    ticks = itertools.count()

    class Ticking(datetime):  # each reading of the clock a second after the one before
        @classmethod
        def now(cls, tz=None):
            return datetime(2026, 1, 1, tzinfo=tz) + timedelta(seconds=next(ticks))

    monkeypatch.setattr(harvest, "datetime", Ticking)
    urls = [f"http://a.go.th/{name}" for name in ("sheet.csv", "read.txt", "unread.pdf")]
    index = write_index(tmp_path, {"q": [{"url": url, "page": 1, "rank": rank} for rank, url in enumerate(urls, 1)]},
                        {url: {"path": write_doc(tmp_path, url.rsplit("/", 1)[1], f"id 1100123456786 {url}\n")}
                         for url in urls})
    store = ResultStore(tmp_path / "store")
    run_scan(QueryPlan(("q",)), FixtureProvider(index), CrawlConfig(search_delay=0.0, download_workers=1), store,
             registry, [ExtractorSpec("plain", "plain", frozenset({"txt"})),
                        ExtractorSpec("failing", "external", frozenset({"txt", "pdf"}),
                                      f'"{sys.executable}" -c "raise SystemExit(3)" {{input}}')],
             clock=VirtualClock())
    stamps = store._conn.execute(
        "SELECT d.kind, d.created_at, h.completed_at FROM diagnostics d"
        " JOIN hits h ON d.subject IN (h.url, lower(hex(h.sha256))) ORDER BY d.id").fetchall()
    assert [kind for kind, _, _ in stamps] == ["unsupported_type", "extraction_partial", "extraction_failed"]
    assert all(created > completed for _, created, completed in stamps), stamps


def test_scan_document_unit(registry):
    text = "นายทดสอบ เลขบัตรประชาชน 1-1001-23456-78-6 และเลขผิด 1-1001-23456-78-7\n"
    ids, failures = scan_document(
        text.encode(), "txt", registry, [ExtractorSpec("plain", "plain", frozenset({"txt"}))]
    )
    assert ids == ["1100123456786"]
    assert failures == []


def test_scan_document_finds_an_id_that_starts_on_a_candidates_last_digit(registry):
    ids, _ = scan_document(OVERLAPPED.encode(), "txt", registry, [ExtractorSpec("plain", "plain", frozenset({"txt"}))])
    assert ids == ["1100100000026"]


def test_corpus_manifest_matches_docs_on_disk(tmp_path, registry):
    manifest = build_corpus(tmp_path, registry)
    recorded = json.loads((manifest.root / "manifest.json").read_text("utf-8"))
    assert set(recorded["planted"]) == set(manifest.planted)
    assert len(recorded["docs"]) == 12
    for name in recorded["docs"]:
        assert (manifest.root / "docs" / name).exists()


# External extractor for the determinism test: sleeps for the seconds on the
# document's first line, so earlier documents finish later; "fail" exits 1.
SLOW_CAT = """\
import sys, time
text = open(sys.argv[1], encoding="utf-8").read()
first = text.splitlines()[0]
if first == "fail":
    sys.exit(1)
time.sleep(float(first))
sys.stdout.write(text)
"""


def test_concurrent_extraction_matches_sequential(tmp_path, registry):
    script = tmp_path / "slow_cat.py"
    script.write_text(SLOW_CAT, "utf-8")
    extractors = [
        ExtractorSpec("plain", "plain", frozenset({"txt"})),
        ExtractorSpec("slow", "external", frozenset({"pdf"}),
                      command=f'"{sys.executable}" "{script}" {{input}}'),
    ]
    shared = thai_id.generate_valid_id("11001", "0000099", registry)
    objects, q1, q2 = {}, [], []
    for i, delay in enumerate(("0.4", "0.3", "0.2", "0.1", "0", "fail")):
        own = thai_id.generate_valid_id("11001", f"{i + 1:07d}", registry)
        rel = write_doc(tmp_path, f"doc{i}.pdf", f"{delay}\n{own}\n{shared}\n")
        url = f"http://s{i}.go.th/doc{i}.pdf"
        objects[url] = {"path": rel}
        (q1 if i < 3 else q2).append(url)
    # one digest behind two URLs; the earlier hit declares pdf, the later a
    # type no extractor reads, so taking the later hit's type loses the ID
    mirror = thai_id.generate_valid_id("32007", "0000077", registry)
    rel = write_doc(tmp_path, "mirror.bin", f"0.2\n{mirror}\n")
    objects["http://a.go.th/mirror.pdf"] = {"path": rel}
    objects["http://b.ac.th/mirror.xls"] = {"path": rel}
    objects["http://c.go.th/table.xls"] = {"path": write_doc(tmp_path, "table.xls", shared)}
    q1.append("http://a.go.th/mirror.pdf")
    q2 += ["http://b.ac.th/mirror.xls", "http://c.go.th/table.xls", q1[0]]
    index = write_index(
        tmp_path,
        {q: [{"url": u, "page": 1, "rank": r} for r, u in enumerate(urls, 1)]
         for q, urls in (("q1", q1), ("q2", q2))},
        objects,
    )

    def scan(workers):
        with ResultStore(tmp_path / f"store{workers}") as store:
            summary = run_scan(
                QueryPlan(queries=("q1", "q2")), FixtureProvider(index),
                CrawlConfig(search_delay=0.0, download_workers=workers),
                store, registry, extractors, clock=VirtualClock(),
            )
            found = occurrences(store)
            diagnostics = store.diagnostics()
        conn = sqlite3.connect(store.db_path)
        exposures = conn.execute(  # read through documents: their numbers follow the order of writes
            "SELECT CAST(e.digits AS TEXT), lower(hex(d.sha256)) FROM exposures e"
            " JOIN documents d ON d.id = e.document ORDER BY e.digits, d.sha256"
        ).fetchall()
        downloads = conn.execute(  # completed_at left out too, and rows in id order
            "SELECT id, id AS hit_id, status, reason, sha256 FROM hits WHERE status IS NOT NULL ORDER BY id"
        ).fetchall()
        conn.close()
        return summary, found, exposures, diagnostics, downloads

    sequential, concurrent = scan(1), scan(4)
    assert concurrent == sequential
    summary, found, exposures, diagnostics, downloads = sequential
    assert [hit_id for _, hit_id, *_ in downloads] == sorted(hit_id for _, hit_id, *_ in downloads)
    assert (summary.documents, summary.unreadable, summary.unique_ids) == (8, 2, 7)
    # extracted once, as its first hit declared it, and found at both URLs
    assert [(o.url, o.query, o.file_type) for o in found if o.digits == mirror] == [
        ("http://a.go.th/mirror.pdf", "q1", "pdf"), ("http://b.ac.th/mirror.xls", "q2", "xls")]
    assert [o.query for o in found if o.url == q1[0]] == ["q1", "q2"] * 2  # its own ID and shared
    assert exposures == sorted({(o.digits, o.sha256) for o in found})
    assert len(exposures) == 11  # own IDs of five read documents, shared in each, the mirror's
    assert [kind for kind, _, _ in diagnostics] == ["extraction_failed", "unsupported_type"]
    assert diagnostics[1][1] == "http://c.go.th/table.xls"  # none for the mirror's later URL

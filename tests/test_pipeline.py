"""Whole-pipeline runs over generated corpora: recall, idempotence, provenance."""

import json
import sqlite3
import sys

from idsweep import reports, synth, thai_id
from idsweep.extract import ExtractorSpec, load_extractor_config
from idsweep.harvest import CrawlConfig
from idsweep.pipeline import run_scan, scan_document
from idsweep.providers import FixtureProvider
from idsweep.queries import QueryPlan, load_plan_file
from idsweep.store import ResultStore

from conftest import VirtualClock, write_doc, write_index


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
    found = {o.digits for o in store.load_occurrences()}
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
    occurrences = store.load_occurrences()
    urls_by_id = {}
    for occ in occurrences:
        urls_by_id.setdefault(occ.digits, set()).add(occ.url)
    multiplicities = {len(urls) for urls in urls_by_id.values()}
    assert max(multiplicities) >= 2  # the mirrored doc and the repeated ID
    by_dim, skipped, _ = reports.tables(occurrences, registry)
    assert skipped == []
    table = by_dim["source_multiplicity"]
    assert int(table.rows[0].key) >= 2


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


def test_scan_document_unit(registry):
    text = "นายทดสอบ เลขบัตรประชาชน 1-1001-23456-78-6 และเลขผิด 1-1001-23456-78-7\n"
    ids, candidates = scan_document(
        text.encode(), "txt", registry, [ExtractorSpec("plain", "plain", frozenset({"txt"}))]
    )
    assert ids == ["1100123456786"]
    assert candidates == 2


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
            occurrences = store.load_occurrences()
            diagnostics = store.diagnostics()
        conn = sqlite3.connect(store.db_path)
        exposures = conn.execute(  # first_seen left out: it is wall-clock time
            "SELECT digits, sha256 FROM exposures ORDER BY digits, sha256"
        ).fetchall()
        conn.close()
        return summary, occurrences, exposures, diagnostics

    sequential, concurrent = scan(1), scan(4)
    assert concurrent == sequential
    summary, occurrences, exposures, diagnostics = sequential
    assert (summary.documents, summary.unreadable, summary.unique_ids) == (8, 2, 7)
    # extracted once, as its first hit declared it, and found at both URLs
    assert [(o.url, o.query, o.file_type) for o in occurrences if o.digits == mirror] == [
        ("http://a.go.th/mirror.pdf", "q1", "pdf"), ("http://b.ac.th/mirror.xls", "q2", "xls")]
    assert [o.query for o in occurrences if o.url == q1[0]] == ["q1", "q2"] * 2  # its own ID and shared
    assert exposures == sorted({(o.digits, o.sha256) for o in occurrences})
    assert len(exposures) == 11  # own IDs of five read documents, shared in each, the mirror's
    assert [kind for kind, _, _ in diagnostics] == ["extraction_failed", "unsupported_type"]
    assert diagnostics[1][1] == "http://c.go.th/table.xls"  # none for the mirror's later URL

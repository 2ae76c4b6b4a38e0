"""Aggregation tables: distinct counts, per-capita rates, repeat exposure, emission."""

import contextlib
import csv
import dataclasses
import hashlib
import hmac
import io
import json
import pickle
import sqlite3
import tempfile
from collections import namedtuple
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from idsweep import domains, reports, synth, thai_id
from idsweep.geo import default_registry, load_registry
from idsweep.reports import AggregateRow, AggregateTable
from idsweep.store import ExposureRange

from conftest import expand, store_of, table_from_json


def occ(digits, sha, url, query="q1", engine="google", file_type="pdf"):
    """A row for ``store_of``: ``digits`` in document ``sha``, fetched from ``url``."""
    return digits, sha, url, query, engine, file_type


REG = default_registry()


def whole(store):
    """The store as the one range ``tables`` reads."""
    return [ExposureRange(store.db_path)]


def tables_of(*occs, registry=REG, geo_sort="count"):
    """Every dimension's table of a store holding the rows; none may be at an unusable URL."""
    with store_of(occs) as store:
        by_dim, skipped, _ = reports.tables(store, registry, geo_sort)
    assert skipped == []
    return by_dim


def rendered(tables, fmt):
    """Each table as ``emit_report`` writes it in ``fmt``, by file stem."""
    with tempfile.TemporaryDirectory() as out:
        return {path.stem: path.read_text("utf-8") for path in reports.emit_report(tables, out, fmt)}


ID_A = thai_id.generate_valid_id("11001", "0000001", REG)
ID_B = thai_id.generate_valid_id("32007", "0000002", REG)
ID_C = thai_id.generate_valid_id("38001", "0000003", REG)
ID_D = thai_id.generate_valid_id("19101", "0000004", REG)


# --- percent arithmetic -------------------------------------------------------

def test_percent_goldens():
    assert reports.percent_of(48057, 324390, 2) == Decimal("14.81")
    assert reports.percent_of(6983, 4231, 2) == Decimal("165.04")
    assert reports.percent_of(5, 1263268, 4) == Decimal("0.0004")
    assert reports.percent_of(774, 1263268, 4) == Decimal("0.0613")


def test_percent_half_up_not_bankers():
    assert reports.percent_of(1, 800, 2) == Decimal("0.13")   # 0.125 rounds up
    assert reports.percent_of(1, 8000, 2) == Decimal("0.01")  # 0.0125 rounds up


def test_percent_requires_positive_whole():
    with pytest.raises(ValueError):
        reports.percent_of(1, 0, 2)


# --- classifying sources ----------------------------------------------------------

def test_build_records_classifies_and_skips():
    occs = [
        occ(ID_A, "s1", "http://www.nfe.go.th/a.pdf"),
        occ(ID_A, "s1", "not a url"),
        occ(ID_B, "s2", "http://chpao.org/b.xls", file_type="xls"),
    ]
    with store_of(occs) as store:
        by_dim, skipped, ids = reports.tables(store, REG)
    assert [(r.key, r.unique_ids) for r in by_dim["tld"].rows] == [("go.th", 1), ("org", 1)]
    assert len(skipped) == 1 and skipped[0][0] == "not a url"
    assert ids == 2


def test_build_records_caches_per_url(monkeypatch):
    calls = []

    def counting(url, **kwargs):
        calls.append(url)
        return domains.classify_url(url, **kwargs)

    monkeypatch.setattr(reports, "classify_url", counting)
    occs = [occ(ID_A, "s1", "http://x.go.th/a.pdf"), occ(ID_B, "s2", "http://x.go.th/a.pdf")]
    by_dim = tables_of(*occs)
    assert calls == ["http://x.go.th/a.pdf"]
    assert [(r.key, r.urls, r.unique_ids) for r in by_dim["registered_domain"].rows] == [("x.go.th", 1, 2)]


# --- aggregate ------------------------------------------------------------------

def test_aggregate_file_type_hand_counted():
    # two xlsx docs share one ID; one pdf doc carries another
    table = tables_of(
        occ(ID_A, "sa", "http://a.go.th/1.xlsx", file_type="xlsx"),
        occ(ID_A, "sb", "http://b.go.th/2.xlsx", file_type="xlsx"),
        occ(ID_B, "sc", "http://c.go.th/3.pdf", file_type="pdf"),
    )["file_type"]
    rows = {r.key: r for r in table.rows}
    assert rows["xlsx"].files == 2 and rows["xlsx"].unique_ids == 1
    assert rows["pdf"].files == 1 and rows["pdf"].unique_ids == 1
    assert rows["xlsx"].urls == 2 and rows["xlsx"].fqdns == 2


def test_aggregate_category_digit():
    a = "3" + ID_A[1:12]
    b = "3" + ID_B[1:12]
    c = "1" + ID_C[1:12]
    table = tables_of(
        occ(a + str(thai_id.compute_checksum(a)), "s1", "http://x.go.th/1.pdf"),
        occ(b + str(thai_id.compute_checksum(b)), "s2", "http://x.go.th/2.pdf"),
        occ(c + str(thai_id.compute_checksum(c)), "s3", "http://x.go.th/3.pdf"),
    )["category_digit"]
    assert [(r.key, r.unique_ids) for r in table.rows] == [("3", 2), ("1", 1)]


def test_aggregate_sorts_by_ids_then_key():
    table = tables_of(
        occ(ID_A, "s1", "http://a.go.th/1.pdf", file_type="pdf"),
        occ(ID_B, "s2", "http://a.go.th/2.xls", file_type="xls"),
        occ(ID_C, "s3", "http://a.go.th/3.xls", file_type="xls"),
        occ(ID_D, "s4", "http://a.go.th/4.doc", file_type="doc"),
    )["file_type"]
    assert [r.key for r in table.rows] == ["xls", "doc", "pdf"]


def test_aggregate_tld_and_domain_dimensions():
    by_dim = tables_of(
        occ(ID_A, "s1", "http://www.nfe.go.th/a.pdf"),
        occ(ID_B, "s2", "http://cdd.go.th/b.pdf"),
        occ(ID_C, "s3", "http://chpao.org/c.pdf"),
        occ(ID_D, "s4", "http://122.154.253.83/d.pdf"),
    )
    tld = by_dim["tld"]
    assert {r.key: r.unique_ids for r in tld.rows} == {
        "go.th": 2, "org": 1, domains.IP_CLASS: 1,
    }
    reg = by_dim["registered_domain"]
    # the IP literal ranks by its literal since nothing was registered
    assert {r.key for r in reg.rows} == {
        "nfe.go.th", "cdd.go.th", "chpao.org", "122.154.253.83",
    }


def test_aggregate_spreadsheets_can_lead_ids_while_pdf_leads_urls():
    ids = [thai_id.generate_valid_id("11001", f"00001{i:02d}", REG) for i in range(6)]
    occs = [
        occ(i, "s-xlsx", "http://sheet.go.th/roster.xlsx", file_type="xlsx")
        for i in ids
    ]
    occs += [
        occ(ids[0], f"s-pdf{n}", f"http://pdf{n}.go.th/doc.pdf", file_type="pdf")
        for n in range(4)
    ]
    table = tables_of(*occs)["file_type"]
    assert table.rows[0].key == "xlsx"          # most unique IDs
    by_key = {r.key: r for r in table.rows}
    assert by_key["pdf"].urls > by_key["xlsx"].urls  # but PDFs span more URLs


# --- partition law ---------------------------------------------------------------

URL_POOL = (
    "http://www.nfe.go.th/a.pdf",
    "http://school.ac.th/b.xls",
    "http://pokkrongnakhon.com/c.pdf",
    "http://chpao.org/d.xlsx",
    "http://122.154.253.83/e.pdf",
    "http://thai.ac/f.doc",
)
ID_POOL = tuple(thai_id.generate_valid_id("11001", f"100000{i}", REG) for i in range(5)) + tuple(
    thai_id.generate_valid_id("32481", f"200000{i}", REG) for i in range(3)
)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(ID_POOL),
            st.sampled_from(["sa", "sb", "sc", "sd"]),
            st.sampled_from(URL_POOL),
            st.sampled_from(["pdf", "xls", "xlsx"]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_partition_law(raw):
    with store_of(occ(d, sha, url, file_type=ft) for d, sha, url, ft in raw) as store:
        by_dim, _, ids = reports.tables(store, REG)
        occs = expand(store.load_occurrences())  # each document at every URL any row gave it
    total_ids = len({o.digits for o in occs})
    assert ids == total_ids
    for dimension, key_of in (
        ("file_type", lambda o: o.file_type),
        ("tld", lambda o: domains.classify_url(o.url).tld_class),
        ("category_digit", lambda o: o.digits[0]),
    ):
        table = by_dim[dimension]
        pair_count = len({(key_of(o), o.digits) for o in occs})
        assert sum(row.unique_ids for row in table.rows) == pair_count
        assert max(row.unique_ids for row in table.rows) <= total_ids


# --- one fold against per-table reference definitions -------------------------------

# The tables and the listing as separate passes, one per table, kept here as
# the definition the one-pass fold must reproduce.  A record is an
# occurrence at a usable URL with its domain.
Record = namedtuple("Record", "digits sha256 url query file_type domain")


def naive_records(occurrences, owner_tags):
    records = []
    for o in occurrences:
        try:
            domain = domains.classify_url(o.url, owner_tags=owner_tags)
        except domains.ClassificationError:
            continue
        records.append(Record(o.digits, o.sha256, o.url, o.query, o.file_type, domain))
    return records


NAIVE_KEY_OF = {
    "file_type": lambda r: r.file_type,
    "tld": lambda r: r.domain.tld_class,
    "registered_domain": lambda r: r.domain.registered_domain or r.domain.fqdn,
    "owner_tag": lambda r: r.domain.owner_tag or "(untagged)",
    "query": lambda r: r.query,
    "category_digit": lambda r: r.digits[0],
}


def naive_count_groups(records, key_of):
    groups = {}
    for record in records:
        groups.setdefault(key_of(record), []).append(record)
    return [
        AggregateRow(
            key=key,
            urls=len({r.url for r in group}),
            files=len({r.sha256 for r in group}),
            fqdns=len({r.domain.fqdn for r in group}),
            registered_domains=len({r.domain.registered_domain or r.domain.fqdn for r in group}),
            unique_ids=len({r.digits for r in group}),
        )
        for key, group in groups.items()
    ]


def naive_aggregate(records, dimension):
    rows = sorted(naive_count_groups(records, NAIVE_KEY_OF[dimension]), key=lambda r: (-r.unique_ids, r.key))
    return AggregateTable(dimension=dimension, rows=tuple(rows))


def naive_geo_tables(records, registry, sort):
    def table(key_of, name_of, dim):
        rows = []
        for row in naive_count_groups(records, key_of):
            population = registry.population.get(row.key)
            percent = reports.percent_of(row.unique_ids, population, 2) if population else None
            rows.append(dataclasses.replace(row, name=name_of(row.key), population=population,
                                            percent=percent))
        if sort == "count":
            rows.sort(key=lambda r: (-r.unique_ids, r.key))
        else:
            rows.sort(key=lambda r: (r.percent is None, -(r.percent or 0), r.key))
        return AggregateTable(dimension=dim, rows=tuple(rows), columns=reports.GEO_COLUMNS)

    province = table(lambda r: r.digits[1:3],
                     lambda c: p.name if (p := registry.lookup_province(c)) else None, "province")
    district = table(lambda r: r.digits[1:5],
                     lambda c: x.name if (x := registry.lookup_district(c)) else None, "district")
    return province, district


def naive_repeat_table(records):
    urls_per_id = {}
    for record in records:
        urls_per_id.setdefault(record.digits, set()).add(record.url)
    rows = sorted(naive_count_groups(records, lambda r: str(len(urls_per_id[r.digits]))),
                  key=lambda r: -int(r.key))
    rows = [dataclasses.replace(row, percent=reports.percent_of(row.unique_ids, len(urls_per_id), 4))
            for row in rows]
    return AggregateTable(dimension="source_multiplicity", rows=tuple(rows), columns=reports.REPEAT_COLUMNS)


def naive_listing(records, salt):
    """The listing's rows: one per record, in the records' order, the ID as its token."""
    return [[thai_id.pseudonymize(r.digits, salt).token, r.domain.tld_class, r.domain.registered_domain or "",
             r.url, r.file_type, r.query] for r in records]


FOLD_URLS = (
    "http://www.nfe.go.th/a.pdf",
    "http://nfe.go.th/a.pdf",
    "https://mirror.nfe.go.th/a.pdf",
    "http://school.ac.th/b.xls",
    "http://chpao.org/d.xlsx",
    "http://122.154.253.83/e.pdf",
    "http://[2001:db8::1]/f.pdf",
    "http://thai.ac/g.doc",
    "not a url",
)
FOLD_OWNERS = {"nfe.go.th": "education", "chpao.org": "province", "school.ac.th": "education"}
# IDs from areas the bundled registry knows and from one it does not
FOLD_IDS = tuple(
    thai_id.generate_valid_id(prefix, f"30000{i:02d}", REG)
    for i, prefix in enumerate(["11001", "11001", "32481", "39395", "88401", "12007"])
) + ("5999900000011",)


# an ID found only at an unusable URL, which no table or listing may count
FOLD_UNUSABLE_ID = thai_id.generate_valid_id("11001", "3000099", REG)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(FOLD_IDS),
            st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
            st.sampled_from(FOLD_URLS),
            st.sampled_from(["q1", "q2", "q3"]),
            # two engines put one source (document, URL, query, type) under two listing rows
            st.sampled_from(["google", "bing"]),
            st.sampled_from(["pdf", "xls", "doc"]),
        ),
        max_size=40,
    ),
    st.sampled_from(["count", "percent"]),
)
def test_one_fold_matches_per_table_definitions(raw, geo_sort):
    rows = [occ(d, sha, url, query=q, engine=e, file_type=ft) for d, sha, url, q, e, ft in raw]
    # always one source found by both engines, and one ID found only at an unusable URL
    rows += [occ(FOLD_IDS[0], "d1", FOLD_URLS[0], engine=e) for e in ("google", "bing")]
    rows += [occ(FOLD_UNUSABLE_ID, "d9", "not a url", engine=e) for e in ("google", "bing")]
    with store_of(rows) as store:
        recs = naive_records(expand(store.load_occurrences()), FOLD_OWNERS)
        got, skipped, ids = reports.tables(store, REG, geo_sort, FOLD_OWNERS)
        # the resolved table's sources are the distinct (document, URL, query, type): no engine
        with store.read() as (documents, _):
            sources = reports._resolve(documents, FOLD_OWNERS, None).sources
        files = {fmt: report_files(whole(store), fmt, geo_sort=geo_sort) for fmt in reports.FORMATS}
    expected = {dim: naive_aggregate(recs, dim) for dim in NAIVE_KEY_OF}
    expected["province"], expected["district"] = naive_geo_tables(recs, REG, geo_sort)
    expected["source_multiplicity"] = naive_repeat_table(recs)
    unusable = [("not a url", "unsupported scheme in 'not a url'")]

    assert (skipped, ids) == (unusable, len({r.digits for r in recs}))
    assert got.keys() == expected.keys() == set(reports.DIMENSIONS)
    for dim, table in expected.items():
        assert reports.table_to_json(got[dim]) == reports.table_to_json(table), dim
    assert sorted((s.sha256, s.url, s.query, s.file_type) for s in sources) == \
        sorted({(r.sha256, r.url, r.query, r.file_type) for r in recs})
    assert [s.index for s in sources] == list(range(len(sources)))

    # a whole report in every format from one pass over the store, against
    # the reference tables rendered and the reference listing read back
    listing = [list(reports.LISTING_COLUMNS), *naive_listing(recs, b"pepper")]
    dimensions = {stem: dim for name in reports.TABLES for stem, dim in reports.TABLES[name].items()}
    for fmt, (written, skipped, ids) in files.items():
        assert (skipped, ids) == (unusable, len({r.digits for r in recs})), fmt
        text = written.pop(f"exposures.{reports.FORMATS[fmt][0]}").decode("utf-8")
        if fmt == "csv":
            assert list(csv.reader(io.StringIO(text))) == listing
        elif fmt == "json":
            assert json.loads(text) == {"redacted": True, "salt_id": thai_id.salt_id(b"pepper"),
                                        "columns": listing[0], "rows": listing[1:]}
        else:  # no cell of these occurrences needs a markdown escape
            rows = [listing[0], ["---"] * len(listing[0]), *listing[1:]]
            assert text == "".join("| " + " | ".join(row) + " |\n" for row in rows)
        want = rendered({stem: expected[dim] for stem, dim in dimensions.items()}, fmt)
        assert {Path(name).stem for name in written} == want.keys(), fmt
        for name, text in written.items():
            assert text.decode("utf-8") == want[Path(name).stem], (fmt, name)


# --- ranges of IDs ----------------------------------------------------------------

def report_files(ranges, fmt, unredacted=False, geo_sort="count"):
    """Every file a full report of the ranges writes, by name, with its unusable URLs and IDs."""
    with tempfile.TemporaryDirectory() as out:
        written, skipped, ids = reports.report(ranges, list(reports.TABLES), REG, out, fmt=fmt, geo_sort=geo_sort,
                                               salt=b"pepper", unredacted=unredacted, owner_tags=FOLD_OWNERS)
        assert sorted(p.name for p in Path(out).iterdir()) == sorted(p.name for p in written)  # no part left
        return {p.name: p.read_bytes() for p in written}, skipped, ids


def cut_at_ids(store, picks):
    """The store cut into ranges at its IDs, one cut per pick.

    A repeated cut, or one at the first ID, makes an empty range.
    """
    ids = sorted({digits for digits, _, _ in store.load_occurrences()})
    edges = [None, *sorted(ids[pick % len(ids)] for pick in picks if ids), None]
    return [ExposureRange(store.db_path, lo, hi) for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(FOLD_IDS + (FOLD_UNUSABLE_ID,)),
            st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
            st.sampled_from(FOLD_URLS),
            st.sampled_from(["q1", "q2"]),
            st.sampled_from(["google", "bing"]),
            st.sampled_from(["pdf", "xls"]),
        ),
        max_size=40,
    ),
    st.lists(st.integers(0, 40), max_size=4),
    st.sampled_from(["markdown", "csv", "json"]),
    st.booleans(),
)
def test_ranges_report_what_one_pass_reports(raw, picks, fmt, unredacted):
    with store_of(occ(d, sha, url, query=q, engine=e, file_type=ft) for d, sha, url, q, e, ft in raw) as store:
        ranges = cut_at_ids(store, picks)
        assert len(ranges) == (len(picks) + 1 if store.unique_id_count() else 1)
        assert report_files(ranges, fmt, unredacted) == report_files(whole(store), fmt, unredacted)


def test_ranges_name_an_unusable_url_once_in_first_seen_order():
    # "not a url" is met in both ranges, "bad://" only in the second, before it
    with store_of([occ(ID_A, "s1", "not a url"), occ(ID_A, "s2", "http://a.go.th/1.pdf"),
                   occ(ID_B, "s3", "bad://"), occ(ID_C, "s1", "not a url")]) as store:
        assert [row[0] for row in store.load_occurrences()] == [ID_A, ID_A, ID_B, ID_C]
        db = store.db_path
        # an empty range between them
        ranges = [ExposureRange(db, None, ID_B), ExposureRange(db, ID_B, ID_B), ExposureRange(db, ID_B)]
        for fmt in reports.FORMATS:
            files, skipped, ids = report_files(ranges, fmt)
            assert (files, skipped, ids) == report_files(whole(store), fmt), fmt
            assert [url for url, _ in skipped] == ["not a url", "bad://"] and ids == 1


def three_range_occurrences():
    """One URL serving a document in each of three ranges, and one unusable URL in the first and last."""
    first, second, third = sorted([ID_A, ID_B, ID_C])
    sha = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(5)]
    return [occ(first, sha[0], "http://x.go.th/a.pdf"), occ(first, sha[4], "not a url"),
            occ(second, sha[1], "http://x.go.th/a.pdf"), occ(second, sha[3], "http://y.go.th/b.pdf"),
            occ(third, sha[2], "http://x.go.th/a.pdf"), occ(third, sha[4], "not a url")]


def test_each_url_is_classified_once_per_report(tmp_path, monkeypatch):
    calls = []

    def counting(url, **kwargs):
        calls.append(url)
        return domains.classify_url(url, **kwargs)

    monkeypatch.setattr(reports, "classify_url", counting)
    with store_of(three_range_occurrences()) as store:
        ranges = store.id_ranges(3, min_rows=1)
        assert len(ranges) == 3
        _, skipped, ids = reports.report(ranges, list(reports.TABLES), REG, tmp_path, salt=b"pepper", run=map)
    assert (skipped, ids) == ([("not a url", "unsupported scheme in 'not a url'")], 3)
    # each host is classified once, and an unusable URL never is
    assert sorted(calls) == ["http://x.go.th/a.pdf", "http://y.go.th/b.pdf"]


def test_a_range_sends_back_counts_only(tmp_path):
    occs = three_range_occurrences()
    with store_of(occs) as store:
        ranges = store.id_ranges(3, min_rows=1)
        table = reports._resolve(ranges[0].documents(), None, REG, "json", thai_id.token_function(b"pepper"))
        sent = [pickle.dumps(reports._range(rng, tmp_path / f"part{i}", table))
                for i, rng in enumerate(ranges)]
    assert [(tmp_path / f"part{i}").stat().st_size > 0 for i in range(3)] == [True] * 3
    for text in {text for digits, sha256, url, *_ in occs for text in (digits, sha256, url)}:
        assert not any(text.encode() in blob for blob in sent), text


def test_empty_ranges_report_no_ids():
    with store_of([]) as store:
        for fmt in reports.FORMATS:
            files, skipped, ids = report_files(whole(store) * 2, fmt)
            assert (files, skipped, ids) == report_files(whole(store), fmt)
            assert (skipped, ids) == ([], 0)
    listing = json.loads(files["exposures.json"])
    assert listing == {"redacted": True, "salt_id": None, "columns": list(reports.LISTING_COLUMNS), "rows": []}


# each way into the fold, as (unusable URLs, IDs) of a report of the filetype table
ENTRIES = {
    "report": lambda store, out: reports.report(whole(store), ["filetype"], REG, out, salt=b"pepper")[1:],
    "tables": lambda store, out: reports.tables(store, REG)[1:],
}


def test_report_names_each_unusable_url_once(tmp_path, monkeypatch):
    calls = []

    def counting(url, **kwargs):
        calls.append(url)
        return domains.classify_url(url, **kwargs)

    monkeypatch.setattr(reports, "classify_url", counting)
    # two IDs at one usable URL, and three at one unusable URL, two of them found nowhere else
    occs = [occ(ID_A, "s1", "http://x.go.th/a.pdf"), occ(ID_B, "s2", "http://x.go.th/a.pdf"),
            occ(ID_B, "s3", "http://chpao.org/b.xls", file_type="xls")]
    with store_of(occs + [occ(d, "s9", "not a url") for d in (ID_B, ID_C, ID_D)]) as store:
        for name, entry in ENTRIES.items():
            calls.clear()
            assert entry(store, tmp_path) == ([("not a url", "unsupported scheme in 'not a url'")], 2), name
            # each host is classified once, and an unusable URL never is
            assert sorted(calls) == ["http://chpao.org/b.xls", "http://x.go.th/a.pdf"], name
        tld = reports.tables(store, REG)[0]["tld"]
    assert [(r.key, r.unique_ids) for r in tld.rows] == [("go.th", 2), ("org", 1)]


def test_unusable_urls_of_one_id_are_named_in_digest_order(tmp_path):
    first, second = sorted(hashlib.sha256(str(i).encode()).hexdigest() for i in range(2))
    # the later digest is written, and so numbered, first
    occs = [occ(ID_A, second, "bad://1"), occ(ID_A, first, "not a url"), occ(ID_A, first, "http://a.go.th/1.pdf")]
    with store_of(occs) as store:
        met = [o.url for o in expand(store.load_occurrences()) if o.url != "http://a.go.th/1.pdf"]
        assert met == ["not a url", "bad://1"]
        for name, entry in ENTRIES.items():
            skipped, ids = entry(store, tmp_path)
            assert ([url for url, _ in skipped], ids) == (met, 1), name


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_report_that_fails_part_way_leaves_no_listing(tmp_path, monkeypatch, fmt):
    read = ExposureRange.read

    @contextlib.contextmanager
    def read_fails_part_way(self):
        def rows(document):
            # more rows than one write of the listing holds, then a store error
            for i in range(5000):
                yield f"11001{i:08d}", document
            raise sqlite3.OperationalError("disk I/O error")

        with read(self):
            yield rows(next(iter(self.documents())))

    monkeypatch.setattr(ExposureRange, "read", read_fails_part_way)
    with store_of([occ(ID_A, "s1", "http://a.go.th/1.pdf")]) as store:
        out = tmp_path / "fresh"
        with pytest.raises(sqlite3.OperationalError):
            reports.report(whole(store), list(reports.TABLES), REG, out, fmt=fmt, salt=b"pepper")
        assert sorted(out.iterdir()) == []

        # a listing from an earlier run is left as it was
        out = tmp_path / "earlier"
        out.mkdir()
        earlier = out / f"exposures.{reports.FORMATS[fmt][0]}"
        earlier.write_text("earlier listing\n", "utf-8")
        with pytest.raises(sqlite3.OperationalError):
            reports.report(whole(store), ["exposures"], REG, out, fmt=fmt, salt=b"pepper")
    assert sorted(out.iterdir()) == [earlier]
    assert earlier.read_text("utf-8") == "earlier listing\n"


def test_report_refuses_bad_arguments_before_writing(tmp_path):
    out = tmp_path / "out"
    with store_of([occ(ID_A, "s1", "http://a.go.th/1.pdf")]) as store:
        with pytest.raises(ValueError, match="colour"):
            reports.report(whole(store), ["exposures", "colour"], REG, out, salt=b"pepper")
        with pytest.raises(ValueError, match="alpha"):
            reports.report(whole(store), ["exposures", "geo"], REG, out, geo_sort="alpha", salt=b"pepper")
    assert not out.exists() or sorted(out.iterdir()) == []


# --- geography --------------------------------------------------------------------

TINY_REGISTRY = load_registry(
    [
        "P,10,Bangkok",
        "P,20,Chon Buri",
        "D,1001,Phra Nakhon",
        "D,2007,Si Racha",
        "POP,10,81",
        "POP,1001,8",
    ],
    as_of="test",
)


def geo_occurrences():
    # 12 distinct IDs issued by district 1001, one by 2007
    occs = [
        occ(thai_id.generate_valid_id("11001", f"00000{i:02d}", REG), f"s{i}", "http://a.go.th/x.pdf")
        for i in range(12)
    ]
    occs.append(occ(thai_id.generate_valid_id("12007", "0000099", REG), "s99", "http://b.go.th/y.pdf"))
    return occs


def geo_tables(*occs, sort="count"):
    by_dim = tables_of(*occs, registry=TINY_REGISTRY, geo_sort=sort)
    return by_dim["province"], by_dim["district"]


def test_geographic_counts_and_percent():
    province, district = geo_tables(*geo_occurrences())
    prow = {r.key: r for r in province.rows}
    assert prow["10"].unique_ids == 12
    assert prow["10"].population == 81
    assert prow["10"].percent == Decimal("14.81")  # 12/81, half-up at 2 places
    assert prow["10"].name == "Bangkok"
    assert prow["20"].percent is None and prow["20"].population is None
    drow = {r.key: r for r in district.rows}
    assert drow["1001"].percent == Decimal("150.00")  # above 100 is legal
    assert drow["2007"].percent is None
    # provinces with no exposed IDs get no row
    assert set(prow) == {"10", "20"}


def test_geographic_sort_orders():
    province_c, _ = geo_tables(*geo_occurrences(), sort="count")
    assert [r.key for r in province_c.rows] == ["10", "20"]
    province_p, _ = geo_tables(*geo_occurrences(), sort="percent")
    # percent-less rows sink to the bottom
    assert [r.key for r in province_p.rows] == ["10", "20"]
    with store_of([]) as store, pytest.raises(ValueError):
        reports.tables(store, TINY_REGISTRY, geo_sort="alphabetical")


def test_geographic_unknown_area_has_no_name():
    province, district = geo_tables(occ(thai_id.generate_valid_id("19395", "0000001", REG), "s1", "http://a.go.th/x.pdf"))
    assert province.rows[0].key == "93" and province.rows[0].name is None
    assert district.rows[0].key == "9395" and district.rows[0].name is None


# --- repeat exposure -----------------------------------------------------------------

def test_repeat_table_two_ids():
    table = tables_of(
        occ(ID_A, "s1", "http://a.go.th/1.pdf"),
        occ(ID_A, "s2", "http://b.go.th/2.pdf"),
        occ(ID_A, "s3", "http://c.go.th/3.pdf"),
        occ(ID_B, "s4", "http://d.go.th/4.pdf"),
    )["source_multiplicity"]
    assert [(r.key, r.unique_ids, r.percent) for r in table.rows] == [
        ("3", 1, Decimal("50.0000")),
        ("1", 1, Decimal("50.0000")),
    ]


def test_repeat_table_single_document():
    table = tables_of(
        occ(ID_A, "s1", "http://a.go.th/1.pdf"),
        occ(ID_B, "s1", "http://a.go.th/1.pdf"),
    )["source_multiplicity"]
    assert [(r.key, r.unique_ids, r.percent) for r in table.rows] == [
        ("1", 2, Decimal("100.0000"))
    ]


def test_repeat_table_four_decimal_places():
    table = tables_of(
        occ(ID_A, "s1", "http://a.go.th/1.pdf"),
        occ(ID_A, "s2", "http://b.go.th/2.pdf"),
        occ(ID_B, "s3", "http://c.go.th/3.pdf"),
        occ(ID_C, "s4", "http://d.go.th/4.pdf"),
    )["source_multiplicity"]
    by_key = {r.key: r.percent for r in table.rows}
    assert by_key == {"2": Decimal("33.3333"), "1": Decimal("66.6667")}


# --- emission --------------------------------------------------------------------------

def test_render_markdown_repeat_golden():
    table = AggregateTable(
        dimension="source_multiplicity",
        rows=(
            AggregateRow(key="3", unique_ids=1, percent=Decimal("50.0000")),
            AggregateRow(key="1", unique_ids=1, percent=Decimal("50.0000")),
        ),
        columns=reports.REPEAT_COLUMNS,
    )
    assert rendered({"repeat": table}, "markdown") == {"repeat": (
        "| key | unique_ids | percent |\n"
        "| --- | --- | --- |\n"
        "| 3 | 1 | 50.0000 |\n"
        "| 1 | 1 | 50.0000 |\n"
    )}


def test_render_csv_parses_back():
    table = tables_of(occ(ID_A, "s1", "http://a.go.th/1.pdf"))["file_type"]
    rows = list(csv.reader(io.StringIO(rendered({"filetype": table}, "csv")["filetype"])))
    assert rows[0] == list(reports.BASE_COLUMNS)
    assert rows[1][0] == "pdf"


def test_json_round_trip():
    for table in tables_of(*geo_occurrences(), registry=TINY_REGISTRY).values():
        assert table_from_json(reports.table_to_json(table)) == table


def test_emit_report_deterministic(tmp_path):
    tables = {"filetype": tables_of(*geo_occurrences())["file_type"]}
    first = reports.emit_report(tables, tmp_path / "a", fmt="csv")
    second = reports.emit_report(tables, tmp_path / "b", fmt="csv")
    assert [p.name for p in first] == [p.name for p in second] == ["filetype.csv"]
    assert first[0].read_bytes() == second[0].read_bytes()
    with pytest.raises(ValueError):
        reports.emit_report(tables, tmp_path / "c", fmt="xml")


# --- detail listing / redaction -----------------------------------------------------

def listing_of(out, *occs, fmt="json", salt=b"pepper", unredacted=False):
    """The listing ``report`` writes of a store holding the rows, as text."""
    with store_of(occs) as store:
        (path,), _, _ = reports.report(whole(store), ["exposures"], REG, out, fmt=fmt, salt=salt,
                                       unredacted=unredacted)
    return path.read_text("utf-8")


def test_listing_redacts_by_default(tmp_path):
    one = occ(ID_A, "s1", "http://a.go.th/1.pdf")
    listing = json.loads(listing_of(tmp_path, one))
    assert listing["redacted"] and listing["salt_id"]
    shown = listing["rows"][0][0]
    assert shown != ID_A and len(shown) == 64
    for fmt in reports.FORMATS:
        assert ID_A not in listing_of(tmp_path, one, fmt=fmt), fmt


def test_listing_unredacted_needs_explicit_flag(tmp_path):
    one = occ(ID_A, "s1", "http://a.go.th/1.pdf")
    with pytest.raises(ValueError):
        listing_of(tmp_path, one, salt=None)
    listing = json.loads(listing_of(tmp_path, one, salt=None, unredacted=True))
    assert not listing["redacted"]
    assert listing["rows"][0][0] == ID_A


def test_listing_order_is_stable(tmp_path):
    occs = [occ(ID_B, "s2", "http://b.go.th/2.pdf"), occ(ID_A, "s1", "http://a.go.th/1.pdf")]
    listing = listing_of(tmp_path / "a", *occs)
    assert listing_of(tmp_path / "b", *occs) == listing
    rows = json.loads(listing_of(tmp_path / "c", *occs, salt=None, unredacted=True))["rows"]
    assert [row[0] for row in rows] == [ID_A, ID_B]  # in store order


def test_listing_pseudonymizes_each_id_once(tmp_path, monkeypatch):
    calls = []

    def counting(salt):
        token = thai_id.token_function(salt)
        return lambda digits: calls.append(digits) or token(digits)

    monkeypatch.setattr(reports, "token_function", counting)
    listing = json.loads(listing_of(
        tmp_path,
        occ(ID_A, "s1", "http://a.go.th/1.pdf"),
        occ(ID_B, "s2", "http://b.go.th/2.pdf"),
        occ(ID_A, "s3", "http://c.ac.th/3.pdf"),
    ))
    assert sorted(calls) == sorted([ID_A, ID_B])
    assert [row[0] for row in listing["rows"]] == [
        thai_id.pseudonymize(d, b"pepper").token for d in sorted([ID_A, ID_A, ID_B])
    ]
    assert listing["salt_id"] == thai_id.pseudonymize(ID_A, b"pepper").salt_id


def listing_ids(text, fmt):
    """The first cell of each row of a listing, read back from its format."""
    if fmt == "json":
        return [row[0] for row in json.loads(text)["rows"]]
    if fmt == "csv":
        return [row[0] for row in list(csv.reader(io.StringIO(text)))[1:]]
    return [line.split(" | ")[0].removeprefix("| ") for line in text.splitlines()[2:]]


@pytest.mark.parametrize("length", [1, 64, 65, 200])
def test_listing_tokens_are_stdlib_hmac_in_every_format(tmp_path, length):
    # salts shorter than, as long as and longer than SHA-256's 64-byte block,
    # which HMAC hashes first
    salt = bytes((7 * i + length) % 256 for i in range(length))
    occs = [occ(ID_A, "s1", "http://a.go.th/1.pdf"), occ(ID_B, "s2", "http://b.go.th/2.pdf"),
            occ(ID_A, "s3", "http://c.ac.th/3.pdf"), occ(ID_C, "s1", "http://a.go.th/1.pdf")]
    expected = [hmac.new(salt, d.encode("ascii"), hashlib.sha256).hexdigest()
                for d in sorted([ID_A, ID_A, ID_B, ID_C])]
    for fmt in reports.FORMATS:
        assert listing_ids(listing_of(tmp_path / fmt, *occs, fmt=fmt, salt=salt), fmt) == expected, fmt
    listing = json.loads(listing_of(tmp_path / "named", *occs, salt=salt))
    assert listing["salt_id"] == hashlib.sha256(b"idsweep-salt:" + salt).hexdigest()[:12]


def _gfm_cell_separators(line):
    """Pipes that split a GFM table row: a backslash escapes the next character."""
    count, escaped = 0, False
    for ch in line:
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "|":
            count += 1
    return count


def test_markdown_escapes_pipes_and_line_breaks_in_cells(tmp_path):
    text = listing_of(
        tmp_path,
        occ(ID_A, "s1", "http://a.go.th/a|b.pdf", query='"x" | "y"'),
        occ(ID_B, "s2", "http://b.go.th/2.pdf", query="one\r\ntwo\nthree"),
        occ(ID_C, "s3", "http://c.go.th/c\\|d.pdf", query="back\\"),
        fmt="markdown",
    )
    lines = text.splitlines()
    assert len(lines) == 5
    for line in lines:
        assert _gfm_cell_separators(line) == len(reports.LISTING_COLUMNS) + 1, line
    assert "| http://a.go.th/a\\|b.pdf | pdf | \"x\" \\| \"y\" |" in lines[2]
    assert lines[3].endswith("| one two three |")
    assert lines[4].endswith("| http://c.go.th/c\\\\\\|d.pdf | pdf | back\\\\ |")


# every district of the registry under every issued category digit: the area of a generated ID
AREAS = sorted(category + district for category in "12345678" for district in REG.districts)
valid_ids = st.builds(lambda area, serial: thai_id.generate_valid_id(area, f"{serial:07d}", REG),
                      st.sampled_from(AREAS), st.integers(0, 10**7 - 1))
# an ID and a form documents write it in
written_ids = st.tuples(valid_ids, st.sampled_from(synth.FORMS))
# where an ID sits in a source URL: a host label, the final label, the path, or a URL that cannot be used
URL_FORMS = ("http://x{}.go.th/a.pdf", "https://a.{}/a.pdf", "http://a.go.th/doc/{}.pdf", "bad://a.go.th/{}.pdf")
# (ID in the document, document, URL form, and an ID written in the URL, the query and the declared type)
planted_rows = st.lists(
    st.tuples(valid_ids, st.sampled_from(["d1", "d2", "d3"]), st.sampled_from(URL_FORMS),
              written_ids, written_ids, written_ids),
    min_size=1, max_size=6,
)


def planted(raw):
    """The planted rows for ``store_of``, and every ID they hold, in the documents or in their sources."""
    rows, ids = [], set()
    for digits, sha, url_form, *written in raw:
        in_url, in_query, in_type = (synth.render_id(*pair) for pair in written)
        rows.append(occ(digits, sha, url_form.format(in_url), query=f"q {in_query}", file_type=f"t {in_type}"))
        ids.update([digits, *(planted_digits for planted_digits, _ in written)])
    return rows, ids


def accepted_ids(text):
    return [found.normalized for found in thai_id.find_candidates(text)
            if thai_id.validate(found.normalized, REG).accepted]


@settings(max_examples=25, deadline=None)
@given(planted_rows, st.sampled_from(["markdown", "csv", "json"]), st.sampled_from([1, 2]))
def test_a_redacted_report_writes_no_id(raw, fmt, most):
    rows, ids = planted(raw)
    with store_of(rows) as store, tempfile.TemporaryDirectory() as out:
        written, skipped, _ = reports.report(store.id_ranges(most, min_rows=1), list(reports.TABLES), REG, out,
                                             fmt=fmt, salt=b"pepper")
        texts = [path.read_text("utf-8") for path in written] + [text for pair in skipped for text in pair]
    # a token is 64 hex digits, which by chance may spell an ID that validates: what the
    # report writes once the tokens of the store's IDs are cut out must hold none
    tokens = list(map(thai_id.token_function(b"pepper"), ids))
    for text in texts:
        for token in tokens:
            text = text.replace(token, "#")
        assert accepted_ids(text) == [], text


def refuse_ranges(function, *args):
    raise AssertionError("a range ran")


@settings(max_examples=25, deadline=None)
@given(planted_rows, st.lists(st.sampled_from(list(reports.TABLES)), unique=True),
       st.sampled_from(["markdown", "csv", "json"]))
def test_a_redacted_report_without_a_salt_reads_and_writes_nothing(raw, names, fmt):
    with store_of(planted(raw)[0]) as store, tempfile.TemporaryDirectory() as root:
        out = Path(root) / "out"
        with pytest.raises(ValueError, match="a redacted report needs a salt"):
            reports.report(store.id_ranges(2, min_rows=1), names, REG, out, fmt=fmt, run=refuse_ranges)
        assert not out.exists()

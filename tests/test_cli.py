"""Command surface: exit codes, flag/env/config precedence, goldens, redaction."""

import dataclasses
import fcntl
import hashlib
import json
import os
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from idsweep import cli, thai_id
from idsweep.geo import default_registry
from idsweep.harvest import CrawlConfig
from idsweep.pipeline import ScanSummary
from idsweep.queries import plan_from_json
from idsweep.reports import TABLES
from idsweep.store import ResultStore

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "data" / "demo"
SALT_FILE = Path(__file__).resolve().parent / "data" / "demo_salt.txt"
GOLDENS = Path(__file__).resolve().parent / "data" / "goldens"

REG = default_registry()


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in [env for _, _, env in cli.CRAWL_KNOBS] + ["IDSWEEP_SALT", "IDSWEEP_HTTP_KEY"]:
        monkeypatch.delenv(key, raising=False)


def run_cli(*argv):
    return cli.entry(list(argv))


def scan_args(store_dir, *extra):
    return (
        "scan", "run",
        "--plan", str(DEMO / "plan.json"),
        "--fixture", str(DEMO),
        "--store", str(store_dir),
        "--extractors", str(DEMO / "extractors.json"),
        "--search-delay", "0",
        "--download-workers", "1",
        *extra,
    )


@pytest.fixture(scope="module")
def demo_store(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("demo") / "store"
    assert run_cli(*scan_args(store_dir)) == 0
    return store_dir


# --- id validate -----------------------------------------------------------------

def test_validate_accepted_prints_area(capsys):
    digits = thai_id.generate_valid_id("11001", "2345678", REG)
    assert run_cli("id", "validate", digits) == 0
    out = capsys.readouterr().out
    assert "format   pass" in out and "checksum pass" in out and "prefix   pass" in out
    assert "Phra Nakhon / Bangkok" in out


def test_validate_accepts_grouped_and_thai_forms(capsys):
    digits = thai_id.generate_valid_id("11001", "2345678", REG)
    grouped = f"{digits[0]}-{digits[1:5]}-{digits[5:10]}-{digits[10:12]}-{digits[12]}"
    assert run_cli("id", "validate", grouped) == 0
    assert run_cli("id", "validate", digits.translate(
        str.maketrans("0123456789", thai_id.THAI_DIGITS))) == 0


def test_validate_checksum_pass_prefix_fail(capsys):
    assert run_cli("id", "validate", "1234567891011") == 1
    out = capsys.readouterr().out
    assert "checksum pass" in out and "prefix   fail" in out


def test_validate_format_fail_skips_later_stages(capsys):
    assert run_cli("id", "validate", "12345") == 1
    out = capsys.readouterr().out
    assert "format   fail" in out and "checksum skipped" in out


def test_validate_registry_error_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert run_cli("id", "validate", "1100123456786", "--registry", str(missing)) == 2


# --- plan build ------------------------------------------------------------------

def test_plan_build_queries_to_stdout(capsys):
    assert run_cli("plan", "build", "--queries", "site:go.th \"x\"", "--max-pages", "3") == 0
    plan = plan_from_json(capsys.readouterr().out)
    assert plan.queries == ('site:go.th "x"',) and plan.max_pages == 3


def test_plan_build_templates_and_bindings(tmp_path, capsys):
    templates = tmp_path / "t.txt"
    templates.write_text('filetype:pdf {prefix} "x"\n', "utf-8")
    bindings = tmp_path / "b.csv"
    bindings.write_text('prefix\n"1-1001-"\n"3-3501-"\n', "utf-8")
    out = tmp_path / "plan.json"
    assert run_cli(
        "plan", "build", "--templates", str(templates), "--bindings", str(bindings),
        "--out", str(out),
    ) == 0
    plan = plan_from_json(out.read_text("utf-8"))
    assert plan.queries == (
        'filetype:pdf "1-1001-" "x"',
        'filetype:pdf "3-3501-" "x"',
    )


def test_plan_build_requires_a_source(capsys):
    assert run_cli("plan", "build") == 2


# --- scan run ---------------------------------------------------------------------

def test_scan_demo_summary(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir)) == 0
    out = capsys.readouterr().out
    assert "40 distinct IDs" in out and "3 queries" in out
    assert "unreadable" not in out
    with ResultStore(store_dir) as store:
        assert store.unique_id_count() == 40


def test_scan_with_unreadable_documents_is_exit_2(tmp_path, capsys):
    config = json.loads((DEMO / "extractors.json").read_text("utf-8"))
    for spec in config["extractors"]:
        if spec["kind"] == "external":
            spec["command"] = f'"{sys.executable}" -c "raise SystemExit(3)" {{input}}'
    failing = tmp_path / "extractors.json"
    failing.write_text(json.dumps(config), "utf-8")
    # the later --extractors flag overrides the demo config in scan_args
    assert run_cli(*scan_args(tmp_path / "store", "--extractors", str(failing))) == 2
    captured = capsys.readouterr()
    assert "distinct IDs across" in captured.out
    assert captured.out.rstrip().endswith("; 6 unreadable")
    assert captured.err.count("warning: extraction_failed") == 6


def test_scan_rerun_identical_and_lock_released(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir)) == 0
    first = capsys.readouterr().out
    assert not (store_dir / ".lock").exists()
    assert run_cli(*scan_args(store_dir)) == 0
    assert capsys.readouterr().out == first


def test_scan_respects_existing_lock(tmp_path, capsys):
    # held through an open file description of its own, as another run holds it
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    fd = os.open(store_dir / ".lock", os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert run_cli(*scan_args(store_dir)) == 2
        assert "locked" in capsys.readouterr().err
        assert not (store_dir / "store.db").exists()
    finally:
        os.close(fd)
    assert run_cli(*scan_args(store_dir)) == 0


def test_scan_ignores_lock_file_of_dead_run(tmp_path, capsys):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, os, sys, time\n"
         "fd = os.open(sys.argv[1], os.O_CREAT | os.O_RDWR)\n"
         "fcntl.flock(fd, fcntl.LOCK_EX)\n"
         "os.write(fd, str(os.getpid()).encode())\n"
         "print('held', flush=True)\n"
         "time.sleep(60)\n",
         str(store_dir / ".lock")],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline() == "held\n"
        assert run_cli(*scan_args(store_dir)) == 2
        capsys.readouterr()
    finally:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdout.close()
    assert (store_dir / ".lock").read_text() == str(holder.pid)  # left behind
    assert run_cli(*scan_args(store_dir)) == 0
    assert not (store_dir / ".lock").exists()


def test_non_finite_delays_exit_2(tmp_path, monkeypatch, capsys):
    assert run_cli(*scan_args(tmp_path / "s", "--search-delay", "nan")) == 2
    assert "search_delay" in capsys.readouterr().err
    monkeypatch.setenv("IDSWEEP_DOWNLOAD_TIMEOUT", "inf")
    assert run_cli(*scan_args(tmp_path / "t")) == 2
    assert "download_timeout" in capsys.readouterr().err


def test_scan_empty_plan_is_usage_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"queries": []}', "utf-8")
    assert run_cli(
        "scan", "run", "--plan", str(plan), "--fixture", str(DEMO),
        "--store", str(tmp_path / "s"),
    ) == 2


def test_scan_no_results_is_domain_negative(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"queries": ["no such query"]}', "utf-8")
    assert run_cli(
        "scan", "run", "--plan", str(plan), "--fixture", str(DEMO),
        "--store", str(tmp_path / "s"), "--search-delay", "0",
    ) == 1


def test_scan_http_provider_refused_without_arming(tmp_path, capsys):
    assert run_cli(
        "scan", "run", "--plan", str(DEMO / "plan.json"), "--provider", "http",
        "--http-endpoint", "http://localhost:1", "--store", str(tmp_path / "s"),
    ) == 2
    assert "acknowledge" in capsys.readouterr().err


def test_flag_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IDSWEEP_ACCEPTED_TYPES", "txt")
    assert run_cli(*scan_args(tmp_path / "s", "--accepted-types",
                              "txt,csv,html,pdf,xlsx,xls")) == 0
    assert "40 distinct IDs" in capsys.readouterr().out


def test_env_beats_config_beats_default(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"accepted_types": ["txt"]}), "utf-8")
    # config only: txt docs alone carry 7 of the 40
    assert run_cli(*scan_args(tmp_path / "a", "--config", str(config))) == 0
    assert "7 distinct IDs" in capsys.readouterr().out
    # env overrides the file
    monkeypatch.setenv("IDSWEEP_ACCEPTED_TYPES", "txt,csv,html,pdf,xlsx,xls")
    assert run_cli(*scan_args(tmp_path / "b", "--config", str(config))) == 0
    assert "40 distinct IDs" in capsys.readouterr().out


def test_env_alone_overrides_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IDSWEEP_ACCEPTED_TYPES", "txt")
    assert run_cli(*scan_args(tmp_path / "s")) == 0
    assert "7 distinct IDs" in capsys.readouterr().out


def test_bad_config_values_exit_2_naming_the_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    for bad, named in (
        ({"max_pages": [1]}, "max_pages"),
        ({"download_worker": 1}, "download_worker"),
        ({"accepted_types": [1]}, "accepted_types"),
        ({"max_object_bytes": True}, "max_object_bytes"),
        ({"max_pages": "many"}, "max_pages"),
    ):
        config.write_text(json.dumps(bad), "utf-8")
        assert run_cli(*scan_args(tmp_path / "s", "--config", str(config))) == 2, bad
        assert named in capsys.readouterr().err, bad


def test_bad_env_or_flag_value_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IDSWEEP_MAX_PAGES", "abc")
    assert run_cli(*scan_args(tmp_path / "s")) == 2
    assert "IDSWEEP_MAX_PAGES" in capsys.readouterr().err
    assert run_cli(*scan_args(tmp_path / "s", "--max-pages", "1.5")) == 2
    assert "--max-pages" in capsys.readouterr().err


def _knob_settings(default):
    """Three settings of a knob, none its default: (text, JSON value, parsed)."""
    if isinstance(default, frozenset):
        return [(t, t.split(","), frozenset(t.split(","))) for t in ("pdf", "csv,txt", "html")]
    kind = type(default)
    return [(str(kind(n)), kind(n), kind(n)) for n in (7, 8, 9)]


README_KNOBS = set(re.findall(
    r"^\| `(--[a-z-]+)` \| `(IDSWEEP_[A-Z_]+)` \| `([a-z_]+)` \|",
    (REPO / "README.md").read_text("utf-8"), re.M,
))


@pytest.mark.parametrize("field", dataclasses.fields(CrawlConfig), ids=lambda f: f.name)
def test_each_crawl_knob_by_flag_env_and_config(field, tmp_path, monkeypatch, capsys):
    key = field.name
    flag, env = "--" + key.replace("_", "-"), "IDSWEEP_" + key.upper()
    assert (key, flag, env) in cli.CRAWL_KNOBS
    assert (flag, env, key) in README_KNOBS and len(README_KNOBS) == len(cli.CRAWL_KNOBS)

    seen = []

    def fake_run_scan(plan, provider, config, store, registry, extractors):
        seen.append(getattr(config, key))
        return ScanSummary(1, 1, 1, 1, 0, 1, 0, 0, 0, 0)

    monkeypatch.setattr(cli, "run_scan", fake_run_scan)
    (flag_text, _, by_flag), (env_text, _, by_env), (_, file_json, by_file) = _knob_settings(
        getattr(CrawlConfig(), key)
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: file_json}), "utf-8")
    base = ("scan", "run", "--plan", str(DEMO / "plan.json"), "--fixture", str(DEMO),
            "--store", str(tmp_path / "s"))
    with_file = (*base, "--config", str(config))
    assert run_cli(*with_file) == 0
    assert run_cli(*base, flag, flag_text) == 0
    monkeypatch.setenv(env, env_text)
    assert run_cli(*base) == 0
    assert run_cli(*with_file) == 0
    assert run_cli(*with_file, flag, flag_text) == 0
    assert seen == [by_file, by_flag, by_env, by_env, by_flag]


# --- report --------------------------------------------------------------------------

def test_report_matches_goldens(demo_store, tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "filetype,tld,geo,repeat",
        "--format", "markdown", "--out", str(out_dir), "--salt-file", str(SALT_FILE),
    ) == 0
    produced = sorted(p.name for p in out_dir.iterdir())
    assert produced == ["filetype.md", "geo_district.md", "geo_province.md", "repeat.md", "tld.md"]
    for name in produced:
        assert (out_dir / name).read_bytes() == (GOLDENS / name).read_bytes(), name


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_report_every_format_matches_goldens(demo_store, tmp_path, fmt):
    out_dir = tmp_path / "report"
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "filetype,tld,geo,repeat,exposures",
        "--format", fmt, "--out", str(out_dir), "--salt-file", str(SALT_FILE),
    ) == 0
    ext = {"markdown": "md", "csv": "csv", "json": "json"}[fmt]
    produced = sorted(p.name for p in out_dir.iterdir())
    assert produced == sorted(
        f"{stem}.{ext}"
        for stem in ("exposures", "filetype", "geo_district", "geo_province", "repeat", "tld")
    )
    for name in produced:
        assert (out_dir / name).read_bytes() == (GOLDENS / name).read_bytes(), name


MIRROR_GOLDENS = GOLDENS / "mirrors"
MIRROR_OWNERS = "nfe.go.th,education\nchpao.org,provincial office\n"
MIRROR_QUERY = 'site:go.th "เลขประจำตัว, ประชาชน" | filetype:pdf'


def mirror_store(store_dir):
    """A store whose documents sit at several URLs, reached by several queries and engines.

    Document d1 is at three URLs (one an IP literal), d2 at one, d3 only at
    an unusable URL and d4 at two, one of them reached by two engines.  An ID
    sits in d1 and d2, one only in d3, and one comes from an area the
    registry does not know.
    """
    ids = [thai_id.generate_valid_id(prefix, f"40000{i:02d}", REG)
           for i, prefix in enumerate(["11001", "32481", "11001", "39395", "12007"])] + ["5999900000011"]
    docs = {
        "d1": ("pdf", [("http://www.nfe.go.th/a.pdf", MIRROR_QUERY, "google"),
                       ("https://mirror.nfe.go.th/a.pdf", "q2", "bing"),
                       ("http://122.154.253.83/a.pdf", MIRROR_QUERY, "google")]),
        "d2": ("xls", [("http://school.ac.th/b|c.xls", "q2", "google")]),
        "d3": ("doc", [("not a url", "q3", "google")]),
        "d4": ("xlsx", [("http://chpao.org/d.xlsx", "q2", "google"), ("http://chpao.org/d.xlsx", "q2", "bing"),
                        ("http://[2001:db8::1]/d.xlsx", "q3", "bing")]),
    }
    placements = {ids[0]: ["d1"], ids[1]: ["d1", "d2"], ids[2]: ["d2", "d3"], ids[3]: ["d3"],
                  ids[4]: ["d4"], ids[5]: ["d4", "d1"]}
    with ResultStore(store_dir) as store:
        digests = {}
        for rank, (name, (file_type, urls)) in enumerate(docs.items(), start=1):
            digests[name] = store.put_object(name.encode(), "2026-01-01T00:00:00Z")
            for url, query, engine in urls:
                hit = store.add_hit(query, engine, 1, rank, url, "2026-01-01T00:00:00Z", False)
                store.record_download(hit, "success", "2026-01-01T00:00:00Z", sha256=digests[name],
                                      declared_type=file_type, size_bytes=2)
        store.add_exposures((digits, digests[name], "2026-01-01T00:00:00Z")
                            for digits, names in placements.items() for name in names)
    return store_dir


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_report_mirror_store_matches_goldens(tmp_path, fmt):
    # recorded before reports resolved each source once, and unchanged since
    owners = tmp_path / "owners.csv"
    owners.write_text(MIRROR_OWNERS, "utf-8")
    out_dir = tmp_path / "report"
    assert run_cli(
        "report", "--store", str(mirror_store(tmp_path / "store")), "--tables", ",".join(TABLES),
        "--format", fmt, "--out", str(out_dir), "--salt-file", str(SALT_FILE), "--owner-tags", str(owners),
    ) == 0
    ext = {"markdown": "md", "csv": "csv", "json": "json"}[fmt]
    produced = sorted(p.name for p in out_dir.iterdir())
    assert produced == sorted(f"{stem}.{ext}" for stem in (
        "category", "domain", "exposures", "filetype", "geo_district", "geo_province", "owner", "query",
        "repeat", "tld"))
    for name in produced:
        assert (out_dir / name).read_bytes() == (MIRROR_GOLDENS / name).read_bytes(), name


def test_report_warns_once_per_unusable_url(tmp_path, capsys):
    # three IDs in one document whose only URL is unusable, one elsewhere
    ids = [thai_id.generate_valid_id("11001", f"50000{i:02d}", REG) for i in range(4)]
    stamp = "2026-01-01T00:00:00Z"
    with ResultStore(tmp_path / "store") as store:
        for rank, (url, holders) in enumerate((("not a url", ids[:3]), ("http://www.nfe.go.th/a.pdf", ids[3:])), 1):
            digest = store.put_object(url.encode(), stamp)
            hit = store.add_hit("q1", "google", 1, rank, url, stamp, False)
            store.record_download(hit, "success", stamp, sha256=digest, declared_type="pdf", size_bytes=1)
            store.add_exposures((digits, digest, stamp) for digits in holders)
    assert run_cli(
        "report", "--store", str(tmp_path / "store"), "--tables", "filetype,exposures",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE),
    ) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning:")] == [
        "warning: unclassifiable url skipped: not a url: unsupported scheme in 'not a url'"
    ]
    assert (tmp_path / "r" / "exposures.md").read_text("utf-8").count("\n") == 3  # header, rule, one row


def test_report_json_round_trips(demo_store, tmp_path):
    from idsweep.reports import table_from_json

    out_dir = tmp_path / "report"
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "repeat",
        "--format", "json", "--out", str(out_dir), "--salt-file", str(SALT_FILE),
    ) == 0
    table = table_from_json((out_dir / "repeat.json").read_text("utf-8"))
    assert table.dimension == "source_multiplicity"
    assert sum(r.unique_ids for r in table.rows) == 40


def test_report_unknown_table_lists_names(demo_store, tmp_path, capsys):
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "filetype,colours",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE),
    ) == 2
    err = capsys.readouterr().err
    assert "colours" in err and "repeat" in err


def test_report_unredacted_needs_both_flags(demo_store, tmp_path, capsys):
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "exposures",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE), "--unredacted",
    ) == 2
    assert "i-accept-risk" in capsys.readouterr().err


def test_report_requires_salt_or_unsafe_pair(demo_store, tmp_path, capsys):
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "filetype",
        "--out", str(tmp_path / "r"),
    ) == 2
    assert "salt" in capsys.readouterr().err


def test_report_salt_env_accepted(demo_store, tmp_path, monkeypatch):
    monkeypatch.setenv("IDSWEEP_SALT", "pepper")
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "filetype",
        "--out", str(tmp_path / "r"),
    ) == 0


def test_report_exposures_redacted_by_default(demo_store, tmp_path):
    out_dir = tmp_path / "r"
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "exposures",
        "--format", "csv", "--out", str(out_dir), "--salt-file", str(SALT_FILE),
    ) == 0
    text = (out_dir / "exposures.csv").read_text("utf-8")
    manifest = json.loads((DEMO / "manifest.json").read_text("utf-8"))
    for digits in manifest["planted"]:
        assert digits not in text


def test_report_exposures_unredacted_with_interlock(demo_store, tmp_path):
    out_dir = tmp_path / "r"
    assert run_cli(
        "report", "--store", str(demo_store), "--tables", "exposures",
        "--format", "csv", "--out", str(out_dir),
        "--unredacted", "--i-accept-risk",
    ) == 0
    text = (out_dir / "exposures.csv").read_text("utf-8")
    manifest = json.loads((DEMO / "manifest.json").read_text("utf-8"))
    assert all(digits in text for digits in manifest["planted"])


# The tables as an older idsweep created them, when both object tables stored
# the object's path; objects.stored_path is NOT NULL.
OLD_SCHEMA = """
CREATE TABLE hits (
    id INTEGER PRIMARY KEY, query TEXT NOT NULL, engine TEXT NOT NULL,
    page INTEGER NOT NULL, rank INTEGER NOT NULL, url TEXT NOT NULL,
    retrieved_at TEXT NOT NULL, is_repeat INTEGER NOT NULL DEFAULT 0,
    UNIQUE (query, engine, page, rank, url)
);
CREATE TABLE downloads (
    id INTEGER PRIMARY KEY, hit_id INTEGER NOT NULL UNIQUE REFERENCES hits(id),
    status TEXT NOT NULL, reason TEXT, sha256 TEXT, declared_type TEXT,
    stored_path TEXT, size_bytes INTEGER, completed_at TEXT NOT NULL
);
CREATE TABLE objects (
    sha256 TEXT PRIMARY KEY, size_bytes INTEGER NOT NULL,
    stored_path TEXT NOT NULL, first_seen TEXT NOT NULL
);
CREATE TABLE exposures (
    digits TEXT NOT NULL, sha256 TEXT NOT NULL, url TEXT NOT NULL,
    query TEXT NOT NULL, engine TEXT NOT NULL, file_type TEXT NOT NULL,
    first_seen TEXT NOT NULL, PRIMARY KEY (digits, sha256)
);
CREATE TABLE diagnostics (
    id INTEGER PRIMARY KEY, kind TEXT NOT NULL, subject TEXT NOT NULL,
    detail TEXT NOT NULL, created_at TEXT NOT NULL
);
"""


def _report_bytes(store_dir, out_dir, *extra):
    assert run_cli(
        "report", "--store", str(store_dir), "--tables", ",".join(TABLES),
        "--out", str(out_dir), "--salt-file", str(SALT_FILE), *extra,
    ) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_older_store_is_migrated_on_open(demo_store, tmp_path):
    store_dir = tmp_path / "store"
    (store_dir / "objects").mkdir(parents=True)
    old = b"a document stored by an older idsweep"
    digest = hashlib.sha256(old).hexdigest()
    (store_dir / "objects" / digest).write_bytes(old)
    conn = sqlite3.connect(store_dir / "store.db")
    conn.executescript(OLD_SCHEMA)
    with conn:
        conn.execute("INSERT INTO objects VALUES (?, ?, ?, ?)",
                     (digest, len(old), str(store_dir / "objects" / digest), "t"))
    conn.close()

    assert run_cli(*scan_args(store_dir)) == 0
    with ResultStore(store_dir) as store:
        assert store.object_count() == len(list((store_dir / "objects").iterdir())) > 1
    conn = sqlite3.connect(store_dir / "store.db")
    for table in ("downloads", "objects"):
        columns = {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
        assert "stored_path" not in columns, table
    conn.close()
    assert _report_bytes(store_dir, tmp_path / "old") == _report_bytes(demo_store, tmp_path / "new")


def old_layout_copy(store_dir, old_dir, schema=OLD_SCHEMA):
    """The rows of a store in the tables an older idsweep wrote; returns its
    exposures as (digits, sha256, first_seen), each with its own first_seen."""
    (old_dir / "objects").mkdir(parents=True)
    conn = sqlite3.connect(old_dir / "store.db")
    conn.executescript(schema)
    conn.execute("ATTACH ? AS new", (str(store_dir / "store.db"),))
    exposures = [(digits, sha256, f"2025-12-31T00:00:{i:02d}Z") for i, (digits, sha256) in enumerate(
        conn.execute("SELECT digits, sha256 FROM new.exposures ORDER BY digits DESC, sha256"))]
    with conn:
        conn.execute("INSERT INTO hits SELECT * FROM new.hits")
        conn.execute("INSERT INTO downloads SELECT id, hit_id, status, reason, sha256, declared_type,"
                     " 'objects/' || sha256, size_bytes, completed_at FROM new.downloads")
        conn.execute("INSERT INTO objects SELECT sha256, size_bytes, 'objects/' || sha256, first_seen"
                     " FROM new.objects")
        # out of key order, with the source columns nothing reads
        conn.executemany("INSERT INTO exposures VALUES (?, ?, '-', '-', '-', '-', ?)", exposures)
    conn.close()
    return exposures


def exposures_layout(db):
    conn = sqlite3.connect(db)
    columns = [row[1] for row in conn.execute("PRAGMA table_info(exposures)")]
    without_rowid = conn.execute("SELECT wr FROM pragma_table_list WHERE name = 'exposures'").fetchone()[0]
    tables = sorted(row[0] for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'"))
    rows = conn.execute("SELECT digits, sha256, first_seen FROM exposures").fetchall()
    conn.close()
    return columns, without_rowid, tables, rows


def test_older_store_with_exposures_is_migrated_on_open(tmp_path):
    new = mirror_store(tmp_path / "new")
    old = tmp_path / "old"
    exposures = old_layout_copy(new, old)
    assert exposures_layout(old / "store.db")[:2] == (
        ["digits", "sha256", "url", "query", "engine", "file_type", "first_seen"], 0)

    ResultStore(old).close()
    migrated = old.joinpath("store.db").read_bytes()
    conn = sqlite3.connect(old / "store.db")
    assert conn.execute("PRAGMA freelist_count").fetchone()[0] == 0  # the pages the copy freed are gone
    conn.close()
    columns, without_rowid, tables, rows = exposures_layout(old / "store.db")
    assert (columns, without_rowid) == (["digits", "sha256", "first_seen"], 1)
    assert exposures_layout(new / "store.db")[:3] == (columns, 1, tables)  # a fresh store is the same
    assert sorted(rows) == rows == sorted(exposures) and len(rows) == 9  # in key order, as stored
    ResultStore(old).close()
    assert old.joinpath("store.db").read_bytes() == migrated  # a second open changes nothing
    for fmt in ("markdown", "csv", "json"):
        assert _report_bytes(old, tmp_path / f"old-{fmt}", "--format", fmt) == _report_bytes(
            new, tmp_path / f"new-{fmt}", "--format", fmt), fmt


def test_failed_vacuum_leaves_the_migrated_store(tmp_path, monkeypatch, capsys):
    new = mirror_store(tmp_path / "new")
    old = tmp_path / "old"
    old_layout_copy(new, old)

    class NoVacuum(sqlite3.Connection):
        def execute(self, sql, *args):
            if sql == "VACUUM":
                raise sqlite3.OperationalError("database or disk is full")
            return super().execute(sql, *args)

    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect", lambda db, **kw: connect(db, factory=NoVacuum, **kw))
    assert run_cli(
        "report", "--store", str(old), "--tables", "filetype",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE),
    ) == 2
    err = capsys.readouterr().err
    assert f"store {old}: database or disk is full" in err and "Traceback" not in err
    monkeypatch.undo()
    assert exposures_layout(old / "store.db")[:3] == exposures_layout(new / "store.db")[:3]
    assert _report_bytes(old, tmp_path / "old-report") == _report_bytes(new, tmp_path / "new-report")


@pytest.mark.parametrize("failure", ["read-only file", "row the new table refuses"])
def test_failed_migration_leaves_the_older_store(tmp_path, monkeypatch, capsys, failure):
    new = mirror_store(tmp_path / "new")
    old = tmp_path / "old"
    if failure == "read-only file":
        old_layout_copy(new, old)
        connect = sqlite3.connect  # file modes do not stop root writing, so open it read-only
        monkeypatch.setattr(sqlite3, "connect", lambda db, **kw: connect(f"file:{db}?mode=ro", uri=True, **kw))
    else:  # the copy into the new exposures fails after the other columns were dropped
        old_layout_copy(new, old, OLD_SCHEMA.replace("first_seen TEXT NOT NULL, PRIMARY", "first_seen TEXT, PRIMARY"))
        conn = sqlite3.connect(old / "store.db")
        with conn:
            conn.execute("UPDATE exposures SET first_seen = NULL WHERE rowid = 9")
        conn.close()
    before = old.joinpath("store.db").read_bytes()
    assert run_cli(
        "report", "--store", str(old), "--tables", "filetype",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE),
    ) == 2
    err = capsys.readouterr().err
    assert f"store {old}: " in err and "Traceback" not in err
    assert old.joinpath("store.db").read_bytes() == before


def test_open_keeps_columns_it_does_not_declare(tmp_path):
    ResultStore(tmp_path).close()
    conn = sqlite3.connect(tmp_path / "store.db")
    conn.execute("ALTER TABLE objects ADD COLUMN added_later TEXT")
    conn.close()
    ResultStore(tmp_path).close()
    conn = sqlite3.connect(tmp_path / "store.db")
    assert "added_later" in {row[1] for row in conn.execute("PRAGMA table_info(objects)")}
    conn.close()


def test_report_unreadable_store_is_exit_2(tmp_path, capsys):
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "store.db").write_bytes(b"not a sqlite database " * 8)
    assert run_cli(
        "report", "--store", str(tmp_path / "store"), "--tables", "filetype",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE),
    ) == 2
    assert "store" in capsys.readouterr().err


def test_report_missing_store(tmp_path, capsys):
    assert run_cli(
        "report", "--store", str(tmp_path / "void"), "--tables", "filetype",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE),
    ) == 2


def test_committed_demo_matches_generator(tmp_path):
    from idsweep.synth import make_corpus

    regen = make_corpus(
        tmp_path / "demo", REG, n_ids=40, n_decoys=10, n_docs=12, n_queries=3,
        seed=20250601, python_command="python3",
    )
    assert (tmp_path / "demo" / "index.json").read_bytes() == (DEMO / "index.json").read_bytes()
    assert (tmp_path / "demo" / "manifest.json").read_bytes() == (DEMO / "manifest.json").read_bytes()
    for doc in sorted((tmp_path / "demo" / "docs").iterdir()):
        assert doc.read_bytes() == (DEMO / "docs" / doc.name).read_bytes(), doc.name


def test_run_demo_script_writes_every_report(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_demo.py"), "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "40 distinct IDs" in proc.stdout
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == sorted(
        f"{stem}.md" for stem in (
            "category", "domain", "exposures", "filetype", "geo_district", "geo_province",
            "query", "repeat", "tld",
        )
    )

"""Command surface: exit codes, flag/env/config precedence, goldens, redaction."""

import argparse
import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import random
import re
import runpy
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from idsweep import cli, domains, pipeline, reports, synth, thai_id
from idsweep import store as store_module
from idsweep.geo import default_registry
from idsweep.harvest import CrawlConfig, download_all
from idsweep.pipeline import ScanSummary
from idsweep.queries import plan_from_json
from idsweep.reports import TABLES
from idsweep.store import ExposureRange, ResultStore

from conftest import (OVERLAPPED, occurrences, reference_ids, table_from_json, write_doc, write_index,
                      written_ids)

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "data" / "demo"
SALT_FILE = Path(__file__).resolve().parent / "data" / "demo_salt.txt"
GOLDENS = Path(__file__).resolve().parent / "data" / "goldens"

REG = default_registry()


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in [env for _, _, env in cli.crawl_knobs()] + ["IDSWEEP_SALT", "IDSWEEP_HTTP_KEY"]:
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
    for form in synth.FORMS:
        assert run_cli("id", "validate", f" {synth.render_id(digits, form)}\n") == 0, form
        assert "prefix   pass" in capsys.readouterr().out


def test_validate_checksum_pass_prefix_fail(capsys):
    assert run_cli("id", "validate", "1234567891011") == 1
    out = capsys.readouterr().out
    assert "checksum pass" in out and "prefix   fail" in out


def test_validate_format_fail_skips_later_stages(capsys):
    # all but the first would pass every stage with their separators dropped, but the scan reads none as an ID
    for number in ("12345", "1100-1000-00026", "11001 00000026", "1--1001--00000--02--6",
                   synth._decoy_text("wrong_grouping", REG, random.Random(0))):
        assert run_cli("id", "validate", number) == 1, number
        out = capsys.readouterr().out
        assert "format   fail" in out and "checksum skipped" in out, number


def test_validate_registry_error_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert run_cli("id", "validate", "1100123456786", "--registry", str(missing)) == 2


# --- plan build ------------------------------------------------------------------

def test_plan_build_queries_to_stdout(capsys):
    assert run_cli("plan", "build", "--queries", "site:go.th \"x\"") == 0
    plan = plan_from_json(capsys.readouterr().out)
    assert plan.queries == ('site:go.th "x"',)


def test_plan_build_has_no_page_cap(capsys):
    # pages are capped by the crawl knob max_pages at scan time, not by the plan
    with pytest.raises(SystemExit) as exit_info:
        run_cli("plan", "build", "--queries", "x", "--max-pages", "3")
    assert exit_info.value.code == 2
    assert "--max-pages" in capsys.readouterr().err


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
    runs = []
    for _ in range(2):  # a second run into the same store prints only the warnings it recorded
        # the later --extractors flag overrides the demo config in scan_args
        assert run_cli(*scan_args(tmp_path / "store", "--extractors", str(failing))) == 2
        runs.append(capsys.readouterr())
    captured = runs[0]
    assert "distinct IDs across" in captured.out
    assert captured.out.rstrip().endswith("; 6 unreadable")
    assert captured.err.count("warning: extraction_failed") == 6
    assert runs[1] == captured


def test_an_object_damaged_before_extraction_is_one_unreadable_document(demo_store, tmp_path, capsys, monkeypatch):
    damaged = []

    def download_then_damage(hits, provider, config, store, **kwargs):
        records = download_all(hits, provider, config, store, **kwargs)
        damaged.append(next(r.sha256 for r in records if r.status == "success"))
        path = store.objects_dir / damaged[0]
        path.write_bytes(path.read_bytes()[:10])
        return records

    monkeypatch.setattr(pipeline, "download_all", download_then_damage)
    assert run_cli(*scan_args(tmp_path / "store")) == 2
    captured = capsys.readouterr()
    [sha256] = damaged
    assert captured.out.rstrip().endswith("of 12 documents; 1 unreadable")
    assert captured.err == f"warning: extraction_failed: {sha256}: object {sha256} does not read back to its digest\n"
    with ResultStore(demo_store) as clean, ResultStore(tmp_path / "store") as scanned:
        expected = {(o.digits, o.sha256) for o in occurrences(clean)}
        assert sha256 in {digest for _, digest in expected}  # the damaged document held IDs
        # every other document was scanned
        assert {(o.digits, o.sha256) for o in occurrences(scanned)} == {
            (digits, digest) for digits, digest in expected if digest != sha256}
        assert scanned.diagnostics() == [("extraction_failed", sha256,
                                          f"object {sha256} does not read back to its digest")]


def test_a_rerun_mends_an_object_overwritten_with_junk(tmp_path, capsys):
    store_dir = tmp_path / "store"
    fetched = {hashlib.sha256(doc.read_bytes()).hexdigest(): doc.read_bytes()
               for doc in (DEMO / "docs").iterdir()}
    assert run_cli(*scan_args(store_dir)) == 0
    junked = min(fetched)
    (store_dir / "objects" / junked).write_bytes(b"junk")
    assert run_cli(*scan_args(store_dir)) == 0
    runs = capsys.readouterr().out.splitlines()
    assert runs[0] == runs[1]
    with ResultStore(store_dir) as store:
        assert sorted(p.name for p in store.objects_dir.iterdir()) == sorted(fetched)
        assert all(store.read_object(digest) == data for digest, data in fetched.items())


# an external extractor that fails, echoing the start of its input on stderr
ECHO_AND_FAIL = """import sys
sys.stderr.write(open(sys.argv[1], encoding="utf-8").read()[:200])
sys.exit(1)
"""


def scan_with_three_warnings(tmp_path, doc_text: str, query: str, sheet: str) -> None:
    """A scan into ``tmp_path/store`` that warns, in order, that ``query`` has a page past the cap, that
    a PDF's extractor failed echoing ``doc_text``, and that no extractor reads the ``sheet`` URL; exit 2."""
    doc = write_doc(tmp_path, "doc.pdf", doc_text)
    index = write_index(tmp_path, {query: [{"url": "http://a.go.th/doc.pdf", "page": 1, "rank": 1},
                                           {"url": sheet, "page": 1, "rank": 2},
                                           {"url": "http://a.go.th/later.pdf", "page": 2, "rank": 1}]},
                        {"http://a.go.th/doc.pdf": {"path": doc}, sheet: {"path": write_doc(tmp_path, "sheet", "")},
                         "http://a.go.th/later.pdf": {"path": doc}})
    script = tmp_path / "echo_and_fail.py"
    script.write_text(ECHO_AND_FAIL, "utf-8")
    extractors = tmp_path / "extractors.json"
    extractors.write_text(json.dumps({"extractors": [{"name": "echo", "kind": "external", "types": ["pdf"],
                                                      "command": f'"{sys.executable}" "{script}" {{input}}'}]}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"queries": [query]}, ensure_ascii=False), "utf-8")
    assert run_cli("scan", "run", "--plan", str(plan), "--fixture", str(index), "--store", str(tmp_path / "store"),
                   "--extractors", str(extractors), "--search-delay", "0", "--max-pages", "1") == 2


def test_scan_warnings_mask_every_accepted_id(tmp_path, capsys):
    ids = [thai_id.generate_valid_id("11001", f"50000{i:02d}", REG) for i in range(len(synth.FORMS) + 2)]
    in_doc, in_query, in_url = ids[:-2], ids[-2], ids[-1]
    query = f'"{synth.render_id(in_query, "hyphen")}"'
    sheet = f"http://a.go.th/{in_url}.xls"  # a type no extractor reads
    scan_with_three_warnings(tmp_path, "".join(f"row {synth.render_id(digits, form)}\n"
                                               for digits, form in zip(in_doc, synth.FORMS)), query, sheet)
    store_dir = tmp_path / "store"
    err = capsys.readouterr().err
    assert re.findall(r"^warning: (\w+): ", err, re.M) == ["page_cap", "extraction_failed", "unsupported_type"]
    assert err.count(cli.ID_MASK) == len(ids)
    assert not [(digits, form) for digits in ids for form in synth.FORMS if synth.render_id(digits, form) in err]
    with ResultStore(store_dir) as store:  # the store keeps the raw text
        diagnostics = {kind: (subject, detail) for kind, subject, detail in store.diagnostics()}
    assert diagnostics["page_cap"][0] == query and diagnostics["unsupported_type"][0] == sheet
    assert all(synth.render_id(digits, form) in diagnostics["extraction_failed"][1]
               for digits, form in zip(in_doc, synth.FORMS))


def test_an_error_line_masks_an_accepted_id(tmp_path, capsys):
    digits = thai_id.generate_valid_id("11001", "5000099", REG)
    missing = tmp_path / f"registry-{digits}.txt"
    assert run_cli("id", "validate", digits, "--registry", str(missing)) == 2
    err = capsys.readouterr().err
    assert err == f"error: --registry: [Errno 2] No such file or directory: '{tmp_path}/registry-{cli.ID_MASK}.txt'\n"


def test_scan_warnings_mask_an_id_that_starts_on_a_candidates_last_digit(tmp_path, capsys):
    scan_with_three_warnings(tmp_path, f"row {OVERLAPPED}\n", f'"{OVERLAPPED}"',
                             f"http://a.go.th/{OVERLAPPED.replace(' ', '-')}.xls")
    err = capsys.readouterr().err
    assert re.findall(r"^warning: (\w+): ", err, re.M) == ["page_cap", "extraction_failed", "unsupported_type"]
    assert err.count(cli.ID_MASK) == 3
    assert reference_ids(err, REG) == []


@pytest.mark.parametrize("argv", [
    ("report", "--store", "s", "--out", "o", "--format", "{}"),
    ("scan", "run", "--plan", "p", "--store", "s", "--provider", "{}"),
    ("{}",),
    ("id", "validate", "1", "{}"),
], ids=["choice", "subcommand choice", "command", "extra argument"])
def test_a_usage_error_masks_an_accepted_id(argv, capsys):
    digits = thai_id.generate_valid_id("11001", "2345678", REG)
    with pytest.raises(SystemExit) as exited:
        run_cli(*(word.format(digits) for word in argv))
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert cli.ID_MASK in err and digits not in err and reference_ids(err, REG) == []


@pytest.mark.parametrize("argv", [(), ("id",), ("id", "validate"), ("plan",), ("plan", "build"), ("scan",),
                                  ("scan", "run"), ("report",)], ids=lambda argv: " ".join(argv) or "idsweep")
def test_help_is_what_argparse_writes(argv, capsys, monkeypatch):
    def helped():
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, "--help")
        assert exited.value.code == 0
        return capsys.readouterr()

    ours = helped()
    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    assert helped() == ours and ours.out.startswith("usage: idsweep") and ours.err == ""


def test_summary_counts_the_documents_of_this_run(tmp_path, capsys):
    query = plan_from_json((DEMO / "plan.json").read_text("utf-8")).queries[1]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"queries": [query]}), "utf-8")
    one_query = ("--plan", str(plan))  # the later --plan flag overrides the demo plan in scan_args
    assert run_cli(*scan_args(tmp_path / "fresh", *one_query)) == 0
    fresh = capsys.readouterr().out
    assert run_cli(*scan_args(tmp_path / "store")) == 0
    assert "40 distinct IDs across 12 of 12 documents" in capsys.readouterr().out
    assert run_cli(*scan_args(tmp_path / "store", *one_query)) == 0
    assert capsys.readouterr().out == fresh
    assert "40 distinct IDs" not in fresh


@pytest.mark.parametrize("command", ["id validate", "plan build", "scan run", "report"])
def test_a_file_that_is_not_utf8_is_exit_2_with_one_line(demo_store, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1001,\xff\xfe\n")
    argv = {
        "id validate": ("id", "validate", "1100123456786", "--registry", str(bad)),
        "plan build": ("plan", "build", "--templates", str(bad)),
        "scan run": scan_args(tmp_path / "store", "--registry", str(bad)),
        "report": ("report", "--store", str(demo_store), "--out", str(tmp_path / "r"),
                   "--salt-file", str(SALT_FILE), "--owner-tags", str(bad)),
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "utf-8" in err[0], err


# flag -> the command line that reads ``path`` as that flag's operator file, from a store, a
# templates file and a salt file that are fine
FILE_FLAGS = {
    "--registry": lambda path, store, templates: ("id", "validate", "1100123456786", "--registry", path),
    "--templates": lambda path, store, templates: ("plan", "build", "--templates", path),
    "--bindings": lambda path, store, templates: ("plan", "build", "--templates", templates, "--bindings", path),
    "--config": lambda path, store, templates: scan_args(store, "--config", path),
    "--extractors": lambda path, store, templates: scan_args(store, "--extractors", path),
    "--plan": lambda path, store, templates: scan_args(store, "--plan", path),
    "--fixture": lambda path, store, templates: scan_args(store, "--fixture", path),
    "--owner-tags": lambda path, store, templates: ("report", "--store", store, "--out", f"{store}-r",
                                                    "--salt-file", str(SALT_FILE), "--owner-tags", path),
    "--salt-file": lambda path, store, templates: ("report", "--store", store, "--out", f"{store}-r",
                                                   "--salt-file", path),
}


@pytest.mark.parametrize("flag, fault", [(flag, fault) for flag in FILE_FLAGS for fault in ("missing", "not utf-8")
                                         if (flag, fault) != ("--salt-file", "not utf-8")])  # a salt is bytes
def test_a_bad_operator_file_is_named_by_its_flag(demo_store, tmp_path, capsys, flag, fault):
    path = tmp_path / "file"
    if fault == "not utf-8":
        path.write_bytes(b"\xff\xfe")
    templates = tmp_path / "templates.txt"
    templates.write_text("q {prefix}\n", "utf-8")
    store = str(demo_store if flag in ("--owner-tags", "--salt-file") else tmp_path / "store")
    assert run_cli(*FILE_FLAGS[flag](str(path), store, str(templates))) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}: "), err


@pytest.mark.parametrize("case", ["no tables", "fixture provider without --fixture", "config a list",
                                  "ragged bindings", "template with a conversion",
                                  "http provider without --http-endpoint", "http endpoint with no scheme"])
def test_operator_error_is_exit_2_with_its_line(demo_store, tmp_path, capsys, case):
    data = tmp_path / "data"
    data.write_text({"config a list": "[]", "ragged bindings": "prefix\na,b\n"}.get(case, "q {x!r}\n"), "utf-8")
    scan = ("scan", "run", "--plan", str(DEMO / "plan.json"), "--store", str(tmp_path / "store"))
    # an armed live provider is refused before it sends any query, with its key, to a URL it cannot open
    http = (*scan, "--provider", "http", "--http-key", "k", "--i-accept-risk")
    argv, line = {
        "no tables": (("report", "--store", str(demo_store), "--tables", "", "--out", str(tmp_path / "r"),
                       "--salt-file", str(SALT_FILE)), "no tables requested"),
        "fixture provider without --fixture": (scan, "fixture provider needs --fixture <corpus dir or index.json>"),
        "http provider without --http-endpoint": (http, "http provider needs --http-endpoint <http or https URL>"),
        "http endpoint with no scheme": ((*http, "--http-endpoint", "localhost:1"),
                                         "--http-endpoint: unsupported scheme in 'localhost:1'"),
        "config a list": (scan_args(tmp_path / "store", "--config", str(data)),
                          f"--config: config {data} must be a JSON object"),
        "ragged bindings": (("plan", "build", "--templates", str(DEMO / "plan.json"), "--bindings", str(data)),
                            f"--bindings: ragged binding file {data}"),
        "template with a conversion": (("plan", "build", "--templates", str(data)),
                                       "bad placeholder in template: 'q {x!r}'"),
    }[case]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "store").exists()


def test_malformed_extractor_config_exits_2(tmp_path, capsys):
    config = tmp_path / "extractors.json"
    config.write_text(json.dumps({"extractors": [{"name": "x", "kind": "plain"}]}), "utf-8")
    assert run_cli(*scan_args(tmp_path / "store", "--extractors", str(config))) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "entry 0: 'types' must be a list of strings" in err
    assert "Traceback" not in err


def assert_lock_free(store_dir):
    """The store's lock can be taken at once: the file may stay, no process holds it."""
    fd = os.open(store_dir / ".lock", os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


def test_scan_rerun_identical_and_lock_released(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir)) == 0
    first = capsys.readouterr().out
    assert_lock_free(store_dir)
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
    assert_lock_free(store_dir)


def hold_lock(store_dir, mode):
    """The store's lock, held through an open file description of its own, as another run holds it."""
    fd = os.open(store_dir / ".lock", os.O_CREAT | os.O_RDWR)
    fcntl.flock(fd, mode | fcntl.LOCK_NB)
    return fd


def report_args(store_dir, out_dir, *extra):
    return ("report", "--store", str(store_dir), "--tables", "filetype,exposures", "--out", str(out_dir),
            "--salt-file", str(SALT_FILE), *extra)


def test_report_and_scan_exclude_each_other_at_once(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir)) == 0
    before = (store_dir / "store.db").read_bytes()
    # a scan holds the lock exclusively, and a report shares it; either fails
    # at once, where SQLite would have waited out its 5 s busy timeout
    for held, command in ((fcntl.LOCK_EX, report_args(store_dir, tmp_path / "r")),
                          (fcntl.LOCK_SH, scan_args(store_dir))):
        capsys.readouterr()
        fd = hold_lock(store_dir, held)
        try:
            started = time.monotonic()
            assert run_cli(*command) == 2
            assert time.monotonic() - started < 2.5
            assert "store is locked" in capsys.readouterr().err
        finally:
            os.close(fd)
    assert not (tmp_path / "r").exists()
    assert (store_dir / "store.db").read_bytes() == before


def test_reports_share_the_store(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir)) == 0
    fd = hold_lock(store_dir, fcntl.LOCK_SH)  # another report
    try:
        assert run_cli(*report_args(store_dir, tmp_path / "r")) == 0
    finally:
        os.close(fd)
    assert_lock_free(store_dir)


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


def test_scan_plan_with_page_cap_is_usage_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"queries": ["q"], "max_pages": 3}', "utf-8")
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir), "--plan", str(plan)) == 2
    err = capsys.readouterr().err
    assert "'max_pages'" in err and "--max-pages" in err
    assert not (store_dir / "store.db").exists()


@pytest.mark.parametrize("index", [None, "{", "[]", '{"queries": [], "objects": {}}'],
                         ids=["missing", "not JSON", "a list", "queries a list"])
def test_bad_fixture_index_is_usage_error(tmp_path, capsys, index):
    if index is not None:
        (tmp_path / "index.json").write_text(index, "utf-8")
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir), "--fixture", str(tmp_path / "index.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not store_dir.exists()


def test_scan_plan_with_a_query_not_a_string_is_usage_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"queries": [1]}', "utf-8")
    store_dir = tmp_path / "store"
    assert run_cli(*scan_args(store_dir), "--plan", str(plan)) == 2
    assert "'queries' must be a list of strings" in capsys.readouterr().err
    assert not (store_dir / "store.db").exists()


@pytest.mark.parametrize("case", ["a url that does not split", "an object that cannot be read"])
def test_scan_with_a_failed_download(tmp_path, capsys, case):
    corpus, good = tmp_path / "corpus", "http://a.go.th/a.txt"
    corpus.mkdir()
    doc = write_doc(corpus, "a.txt", "id 1100123456786\n")
    if case == "a url that does not split":  # the same document at both URLs
        urls, objects = ["http://[::1/a.txt", good], {"http://[::1/a.txt": {"path": doc}, good: {"path": doc}}
    else:
        urls, objects = [good], {good: {"path": "docs/gone.txt"}}
    index = write_index(corpus, {"q": [{"url": url, "page": 1, "rank": rank} for rank, url in enumerate(urls, 1)]},
                        objects)
    plan = tmp_path / "plan.json"
    plan.write_text('{"queries": ["q"]}', "utf-8")
    store_dir = tmp_path / "store"
    code = run_cli("scan", "run", "--plan", str(plan), "--fixture", str(index), "--store", str(store_dir),
                   "--search-delay", "0", "--download-max-retry", "0")
    captured = capsys.readouterr()
    with ResultStore(store_dir) as store:
        reasons = [reason for (reason,) in store._conn.execute("SELECT reason FROM hits WHERE status = 'failed'")]
    if case == "a url that does not split":
        assert code == 0 and captured.err == ""
        assert captured.out == ("1 queries yielded 2 result URLs; 1 fetched (1 failed);"
                                " 1 distinct IDs across 1 of 1 documents\n")
        assert reasons == ["bad url: Invalid IPv6 URL"]
    else:
        assert code == 1 and captured.err == "every download failed\n"
        assert len(reasons) == 1 and reasons[0].startswith("network: cannot read fixture object "), reasons


def test_a_url_the_report_cannot_classify_is_neither_fetched_nor_counted(tmp_path, capsys):
    corpus, good, refused = tmp_path / "corpus", "http://a.go.th/a.txt", "file:///srv/b.txt"
    corpus.mkdir()
    objects = {url: {"path": write_doc(corpus, name, f"id {digits}\n")}
               for url, name, digits in ((good, "a.txt", "1100123456786"), (refused, "b.txt", "1100100000026"))}
    index = write_index(corpus, {"q": [{"url": url, "page": 1, "rank": rank} for rank, url in enumerate(objects, 1)]},
                        objects)
    plan = tmp_path / "plan.json"
    plan.write_text('{"queries": ["q"]}', "utf-8")
    store_dir = tmp_path / "store"
    assert run_cli("scan", "run", "--plan", str(plan), "--fixture", str(index), "--store", str(store_dir),
                   "--search-delay", "0") == 0
    captured = capsys.readouterr()
    assert captured.out == ("1 queries yielded 2 result URLs; 1 fetched (1 failed);"
                            " 1 distinct IDs across 1 of 1 documents\n")
    with ResultStore(store_dir) as store:
        rows = store._conn.execute("SELECT url, status, reason FROM hits ORDER BY rank").fetchall()
    assert rows == [(good, "success", None), (refused, "failed", f"bad url: unsupported scheme in {refused!r}")]
    assert len(list((store_dir / "objects").iterdir())) == 1
    assert run_cli("report", "--store", str(store_dir), "--out", str(tmp_path / "r"),
                   "--salt-file", str(SALT_FILE)) == 0
    assert "warning:" not in capsys.readouterr().err


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
        ({"max_pages": None}, "max_pages"),
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
    assert (key, flag, env) in cli.crawl_knobs()
    assert (flag, env, key) in README_KNOBS and len(README_KNOBS) == len(cli.crawl_knobs())

    seen = []

    def fake_run_scan(plan, provider, config, store, registry, extractors):
        seen.append(getattr(config, key))
        return ScanSummary(1, 1, 1, 1, 0, 1, 0, 0, 0, 0)

    monkeypatch.setattr("idsweep.pipeline.run_scan", fake_run_scan)
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


def forced_ranges(n):
    """``cli._id_ranges`` made to cut the store into ``n`` ranges, whatever its size and the CPUs."""
    def id_ranges(store):
        ranges = store.id_ranges(n, min_rows=1)
        assert len(ranges) == n
        return ranges
    return id_ranges


def child_pids():
    """The processes this one has started and not yet reaped."""
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(map(int, (task / "children").read_text().split()))
        except FileNotFoundError:  # the thread ended after the listing
            continue
    return pids


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_report_in_forced_ranges_matches_goldens(demo_store, tmp_path, monkeypatch, fmt, n):
    monkeypatch.setattr(cli, "_id_ranges", forced_ranges(n))
    children = child_pids()
    test_report_every_format_matches_goldens(demo_store, tmp_path, fmt)
    assert child_pids() == children


@pytest.mark.parametrize("failure", ["store error", "worker killed", "killed by a signal"])
def test_report_with_a_failing_range_leaves_nothing(demo_store, tmp_path, monkeypatch, capsys, failure):
    monkeypatch.setattr(cli, "_id_ranges", forced_ranges(2))
    read = ExposureRange.read

    @contextlib.contextmanager
    def second_range_fails(self):
        def failing(rows):
            yield next(rows)  # a listing row, then the failure
            if self.lo is not None:
                if failure == "worker killed":
                    os._exit(1)
                if failure == "killed by a signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise sqlite3.OperationalError("disk I/O error")
            yield from rows

        with read(self) as rows:
            yield failing(rows)

    monkeypatch.setattr(ExposureRange, "read", second_range_fails)
    children = child_pids()
    out_dir = tmp_path / "r"
    assert run_cli(*report_args(demo_store, out_dir, "--format", "json")) == 2
    err = capsys.readouterr().err
    assert ("disk I/O error" if failure == "store error" else "terminated abruptly") in err
    assert "Traceback" not in err
    assert sorted(out_dir.iterdir()) == []  # no listing, whole or part
    assert child_pids() == children


class NotPickled(Exception):
    """A range's failure that holds what pickle refuses."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class NotUnpickled(Exception):
    """A range's failure that pickles, but whose class cannot be made again from its arguments."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@pytest.mark.parametrize("failure", [NotPickled("range failed: lock held"),
                                     NotUnpickled("range failed", "lock held")])
def test_report_with_a_range_failure_that_does_not_pickle_exits_2(demo_store, tmp_path, monkeypatch, capsys,
                                                                    failure):
    monkeypatch.setattr(cli, "_id_ranges", forced_ranges(2))
    read = ExposureRange.read

    @contextlib.contextmanager
    def second_range_fails(self):
        if self.lo is not None:
            raise failure
        with read(self) as rows:
            yield rows

    monkeypatch.setattr(ExposureRange, "read", second_range_fails)
    children = child_pids()
    assert run_cli(*report_args(demo_store, tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert err == "error: range failed: lock held\n"
    assert sorted((tmp_path / "r").iterdir()) == []
    assert child_pids() == children


def test_in_processes_maps_a_function_that_does_not_pickle():
    lock = threading.Lock()

    def under_lock(n, letter):
        with lock:
            return n * 10, letter, os.getpid()

    children = child_pids()
    results = cli._in_processes(under_lock, [1, 2, 3], "abc")
    assert [result[:2] for result in results] == [(10, "a"), (20, "b"), (30, "c")]
    assert len({pid for _, _, pid in results} - {os.getpid()}) == 3  # each in a process of its own
    assert child_pids() == children


def test_report_in_ranges_prints_each_path_once_to_a_pipe(demo_store, tmp_path):
    # stdout to a pipe is block-buffered: a line printed before the ranges
    # fork is still in the buffer each child inherits
    code = "\n".join([
        "import sys, idsweep.cli",
        "idsweep.cli._id_ranges = lambda store: store.id_ranges(3, min_rows=1)",
        "print('before the report')",
        f"sys.exit(idsweep.cli.entry({list(report_args(demo_store, tmp_path / 'r'))!r}))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    written = sorted(str(path) for path in (tmp_path / "r").iterdir())
    assert len(written) == 2
    assert sorted(proc.stdout.splitlines()) == sorted(["before the report", *written])


def test_report_forks_with_no_store_connection_open(demo_store, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_id_ranges", forced_ranges(2))
    connect, opened, open_at_fork, forks = sqlite3.connect, [], [], []
    monkeypatch.setattr(sqlite3, "connect", lambda *a, **kw: opened.append(connect(*a, **kw)) or opened[-1])

    def count_open():
        for conn in opened:
            try:
                conn.total_changes
            except sqlite3.ProgrammingError:  # closed
                continue
            open_at_fork.append(conn)

    monkeypatch.setattr(os, "fork", lambda fork=os.fork: forks.append(count_open()) or fork())
    assert run_cli(*report_args(demo_store, tmp_path / "r")) == 0
    assert len(forks) == 2 and opened and open_at_fork == []


def test_report_of_a_store_with_no_exposures_is_exit_1(tmp_path, monkeypatch, capsys):
    ResultStore(tmp_path / "store").close()
    for n in (1, 2):
        monkeypatch.setattr(cli, "_id_ranges", lambda store: store.id_ranges(n, min_rows=1))
        assert run_cli(*report_args(tmp_path / "store", tmp_path / f"r{n}")) == 1
        assert "store holds no exposures" in capsys.readouterr().err


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
            digests[name] = store.put_object(name.encode())
            for url, query, engine in urls:
                hit = store.add_hit(query, engine, 1, rank, url, "2026-01-01T00:00:00Z", False)
                store.record_download(hit, "success", "2026-01-01T00:00:00Z", sha256=digests[name],
                                      declared_type=file_type, size_bytes=2)
        store.add_exposures((digits, digests[name]) for digits, names in placements.items() for name in names)
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_report_mirror_store_in_forced_ranges_matches_goldens(tmp_path, monkeypatch, fmt, n):
    monkeypatch.setattr(cli, "_id_ranges", forced_ranges(n))
    children = child_pids()
    test_report_mirror_store_matches_goldens(tmp_path, fmt)
    assert child_pids() == children


def resolved_as_classified(urls, owner_tags):
    """Resolve one document per URL and check each source's domain, and each unusable URL's
    warning, against ``classify_url`` on that URL alone; each host is classified once."""
    documents = {n: (f"{n:064x}", ((url, "q", "pdf"),)) for n, url in enumerate(urls)}
    expected, unusable = {}, {}
    for url in urls:
        try:
            expected[url] = domains.classify_url(url, owner_tags=owner_tags)
        except domains.ClassificationError as exc:
            unusable.setdefault((url, str(exc)))
    with mock.patch.object(reports, "classify_url", wraps=domains.classify_url) as classify:
        table = reports._resolve(documents, owner_tags, REG, fmt="markdown")
    assert {source.url: source.domain for source in table.sources} == expected
    assert all(source.domain.url == source.url for source in table.sources)
    assert table.skipped == list(unusable)
    assert classify.call_count == len({domain.fqdn for domain in expected.values()})


def test_mirror_store_urls_resolve_as_classified(tmp_path):
    (tmp_path / "owners.csv").write_text(MIRROR_OWNERS, "utf-8")
    with ResultStore(mirror_store(tmp_path / "store")) as store, store.read() as (documents, _):
        urls = list(dict.fromkeys(url for _, found in documents.values() for url, _, _ in found))
    assert len(urls) == 7
    resolved_as_classified(urls, domains.load_owner_tags(tmp_path / "owners.csv"))


LABELS = st.sampled_from(["www", "WWW", "nfe", "NFE", "go", "Go", "th", "TH", "ac", "co", "chpao", "org", "Com"])
HOSTS = st.one_of(
    st.tuples(st.lists(LABELS, min_size=1, max_size=4), st.sampled_from(["", "."]))
    .map(lambda name: ".".join(name[0]) + name[1]),
    st.ip_addresses(v=4).map(str),
    st.ip_addresses(v=6).map(lambda address: f"[{address}]"),
    st.sampled_from(["", "."]),
)
URLS = st.one_of(
    st.builds("{}://{}{}{}{}".format,
              st.sampled_from(["http", "HTTP", "Https", "ftp", "FTP", "file", "mailto"]),
              st.sampled_from(["", "user@", "user:secret@"]), HOSTS, st.sampled_from(["", ":80", ":8443"]),
              st.sampled_from(["", "/", "/a.pdf", "/x/b.xls?q=1#top"])),
    st.sampled_from(["not a url", "bad://", "//nfe.go.th/a.pdf", "http:///a.pdf", "http://user@/a.pdf"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(URLS, max_size=25))
def test_each_url_resolves_as_classify_url_classifies_it(urls):
    resolved_as_classified(urls, {"nfe.go.th": "education", "chpao.org": "provincial office"})


def test_report_warns_once_per_unusable_url(tmp_path, capsys):
    # three IDs in one document whose only URL is unusable, one elsewhere
    ids = [thai_id.generate_valid_id("11001", f"50000{i:02d}", REG) for i in range(4)]
    stamp = "2026-01-01T00:00:00Z"
    with ResultStore(tmp_path / "store") as store:
        for rank, (url, holders) in enumerate((("not a url", ids[:3]), ("http://www.nfe.go.th/a.pdf", ids[3:])), 1):
            digest = store.put_object(url.encode())
            hit = store.add_hit("q1", "google", 1, rank, url, stamp, False)
            store.record_download(hit, "success", stamp, sha256=digest, declared_type="pdf", size_bytes=1)
            store.add_exposures((digits, digest) for digits in holders)
    assert run_cli(
        "report", "--store", str(tmp_path / "store"), "--tables", "filetype,exposures",
        "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE),
    ) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning:")] == [
        "warning: unclassifiable url skipped: not a url: unsupported scheme in 'not a url'"
    ]
    assert (tmp_path / "r" / "exposures.md").read_text("utf-8").count("\n") == 3  # header, rule, one row


@pytest.mark.parametrize("n", [1, 2, 3])
def test_report_warns_of_unusable_urls_in_digest_order(tmp_path, monkeypatch, capsys, n):
    # the first ID is at "bad://" and the last at "not a url", whose document's digest sorts first;
    # each ID is in two documents, so the ranges cut evenly
    ids = sorted(thai_id.generate_valid_id(prefix, "9000001", REG) for prefix in ("11001", "32481", "39395"))
    stamp = "2026-01-01T00:00:00Z"
    with ResultStore(tmp_path / "store") as store:
        digests = {}
        for rank, url in enumerate(("not a url", "http://www.nfe.go.th/a.pdf", "http://school.ac.th/b.xls",
                                    "bad://"), 1):
            digests[url] = store.put_object(f"document {rank}".encode())
            hit = store.add_hit("q1", "google", 1, rank, url, stamp, False)
            store.record_download(hit, "success", stamp, sha256=digests[url], declared_type="pdf", size_bytes=1)
        store.add_exposures((digits, digests["http://www.nfe.go.th/a.pdf"]) for digits in ids)
        store.add_exposures([(ids[0], digests["bad://"]), (ids[1], digests["http://school.ac.th/b.xls"]),
                             (ids[2], digests["not a url"])])
    assert digests["not a url"] < digests["bad://"]
    monkeypatch.setattr(cli, "_id_ranges", forced_ranges(n))
    capsys.readouterr()
    _report_bytes(tmp_path / "store", tmp_path / "r")
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")] == [
        "warning: unclassifiable url skipped: not a url: unsupported scheme in 'not a url'",
        "warning: unclassifiable url skipped: bad://: unsupported scheme in 'bad://'",
    ]


def test_report_json_round_trips(demo_store, tmp_path):
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


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_report_tokenises_an_id_in_a_listing_cell(tmp_path, capsys, fmt):
    listed, in_url, in_query, in_unusable = (thai_id.generate_valid_id("11001", f"70000{i:02d}", REG)
                                             for i in range(4))
    decoy = in_url[:12] + str((int(in_url[12]) + 1) % 10)  # fails the checksum, so it is no ID
    url, query = f"http://a.go.th/view.txt?pid={in_url}&ref={decoy}", f'"{in_query}" filetype:txt'
    stamp = "2026-01-01T00:00:00Z"
    with ResultStore(tmp_path / "store") as store:
        for rank, (at, found_by) in enumerate(((url, query), (f"not a url {in_unusable}", "q")), 1):
            digest = store.put_object(at.encode())
            hit = store.add_hit(found_by, "google", 1, rank, at, stamp, False)
            store.record_download(hit, "success", stamp, sha256=digest, declared_type="txt", size_bytes=1)
            store.add_exposures([(listed, digest)])
    out_dir = tmp_path / "r"
    assert run_cli("report", "--store", str(tmp_path / "store"), "--tables", "filetype,exposures",
                   "--format", fmt, "--out", str(out_dir), "--salt-file", str(SALT_FILE)) == 0
    err = capsys.readouterr().err
    written = err + "".join(path.read_text("utf-8") for path in sorted(out_dir.iterdir()))
    assert not {listed, in_url, in_query, in_unusable} & {digits for _, _, digits in written_ids(written)}
    token = thai_id.token_function(SALT_FILE.read_bytes().strip())
    assert f"http://a.go.th/view.txt?pid={token(in_url)}&ref={decoy}" in written
    assert token(in_query) in written
    assert f"warning: unclassifiable url skipped: not a url {token(in_unusable)}:" in err


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_report_tokenises_an_id_in_a_table_key(tmp_path, capsys, fmt):
    # the same host ID and query ID, each written in two forms, at two documents:
    # a key that redacts alike is one row, with the IDs of both
    *listed, in_host, in_query = (thai_id.generate_valid_id("11001", f"80000{i:02d}", REG) for i in range(4))
    stamp = "2026-01-01T00:00:00Z"
    with ResultStore(tmp_path / "store") as store:
        for rank, (form, digits) in enumerate(zip(("contiguous", "hyphen"), listed), 1):
            url = f"http://{synth.render_id(in_host, form)}.go.th/{rank}.txt"
            digest = store.put_object(url.encode())
            hit = store.add_hit(f'"{synth.render_id(in_query, form)}"', "google", 1, rank, url, stamp, False)
            store.record_download(hit, "success", stamp, sha256=digest, declared_type="txt", size_bytes=1)
            store.add_exposures([(digits, digest)])
    out_dir = tmp_path / "r"
    assert run_cli("report", "--store", str(tmp_path / "store"), "--tables", ",".join(set(TABLES) - {"exposures"}),
                   "--format", fmt, "--out", str(out_dir), "--salt-file", str(SALT_FILE)) == 0
    assert capsys.readouterr().err == ""
    written = {path.name: path.read_text("utf-8") for path in out_dir.iterdir()}
    assert len(written) == 9
    assert not [name for name, text in written.items()
                if {*listed, in_host, in_query} & {digits for _, _, digits in written_ids(text)}]
    token, ext = thai_id.token_function(SALT_FILE.read_bytes().strip()), reports.FORMATS[fmt][0]
    assert written[f"domain.{ext}"].count(f"{token(in_host)}.go.th") == 1
    assert written[f"query.{ext}"].count(token(in_query)) == 1
    assert run_cli("report", "--store", str(tmp_path / "store"), "--tables", "domain,query", "--format", "json",
                   "--out", str(tmp_path / "j"), "--salt-file", str(SALT_FILE)) == 0
    rows = [row for stem in ("domain", "query")
            for row in table_from_json((tmp_path / "j" / f"{stem}.json").read_text("utf-8")).rows]
    assert [(row.key, row.unique_ids) for row in rows] == [(f"{token(in_host)}.go.th", 2), (f'"{token(in_query)}"', 2)]


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


def numbered_store(store_dir, descending):
    """Five documents, numbered in the store in digest order or its reverse.

    Two of them are only at an unusable URL, and four IDs sit in two or
    more documents.  A document is numbered when its exposures are first
    written, so writing them in the chosen order of digests numbers them so.
    """
    ids = [thai_id.generate_valid_id(prefix, f"60000{i:02d}", REG)
           for i, prefix in enumerate(["11001", "32481", "11001", "39395", "12007"])]
    urls = ["http://www.nfe.go.th/0.pdf", "not a url", "http://school.ac.th/2.xls", "bad://3.pdf",
            "http://chpao.org/4.doc"]
    holders = {0: [0, 1], 1: [0, 1, 3], 2: [0, 2, 3, 4], 3: [1, 3, 4], 4: [2, 4]}  # document -> IDs
    stamp = "2026-01-01T00:00:00Z"
    with ResultStore(store_dir) as store:
        digests = {}
        for j, url in enumerate(urls):
            digests[j] = store.put_object(f"document {j}".encode())
            hit = store.add_hit("q", "google", 1, j + 1, url, stamp, False)
            store.record_download(hit, "success", stamp, sha256=digests[j], declared_type="pdf", size_bytes=10)
        for j in sorted(digests, key=digests.get, reverse=descending):
            store.add_exposures((ids[i], digests[j]) for i in holders[j])
        pairs = [(o.digits, o.sha256) for o in occurrences(store)]
    conn = sqlite3.connect(store_dir / "store.db")
    numbered = [sha256 for (sha256,) in conn.execute("SELECT lower(hex(sha256)) FROM documents ORDER BY id")]
    conn.close()
    assert numbered == sorted(digests.values(), reverse=descending)
    return pairs


@pytest.mark.parametrize("n", [1, 2])
def test_listing_order_within_an_id_follows_the_digest(tmp_path, monkeypatch, capsys, n):
    monkeypatch.setattr(cli, "_id_ranges", forced_ranges(n))
    pairs = {descending: numbered_store(tmp_path / f"store-{descending}", descending) for descending in (False, True)}
    assert pairs[True] == pairs[False] == sorted(pairs[False]) and len(pairs[True]) == 14
    capsys.readouterr()
    for fmt in ("markdown", "csv", "json"):
        reports, warnings = {}, {}
        for descending in (False, True):
            reports[descending] = _report_bytes(tmp_path / f"store-{descending}",
                                                tmp_path / f"r-{fmt}-{descending}", "--format", fmt)
            warnings[descending] = [line for line in capsys.readouterr().err.splitlines()
                                    if line.startswith("warning:")]
        assert reports[True] == reports[False], fmt
        # each unusable URL once, in document digest order
        assert warnings[True] == warnings[False] and len(warnings[True]) == 2, fmt


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
    assert (store_dir / "objects" / digest).read_bytes() == old
    conn = sqlite3.connect(store_dir / "store.db")
    assert "stored_path" not in {row[1] for row in conn.execute("PRAGMA table_info(hits)")}
    assert not conn.execute("SELECT 1 FROM sqlite_master WHERE name = 'objects'").fetchall()
    conn.close()
    assert _report_bytes(store_dir, tmp_path / "old") == _report_bytes(demo_store, tmp_path / "new")


# exposures as idsweep kept them before documents were numbered: each row
# spelled out its digest, and a first_seen stamp nothing read
DIGEST_KEYED_EXPOSURES = """
CREATE TABLE exposures (
    digits TEXT NOT NULL, sha256 TEXT NOT NULL, first_seen TEXT NOT NULL,
    PRIMARY KEY (digits, sha256)
) WITHOUT ROWID;
"""
# exposures as idsweep kept them once documents were numbered, while each ID
# was spelled out as text; the objects table and downloads.stored_path were gone
TEXT_KEYED_EXPOSURES = """
CREATE TABLE documents (id INTEGER PRIMARY KEY, sha256 TEXT NOT NULL UNIQUE);
CREATE TABLE exposures (
    digits TEXT NOT NULL, document INTEGER NOT NULL,
    PRIMARY KEY (digits, document)
) WITHOUT ROWID;
"""
# the older layouts a store is migrated from: exposures with the source
# columns, exposures keyed by digest, exposures keyed by document number
# with text IDs, and exposures keyed by the integer of each ID while every
# hit spelled out its query and engine and every digest was text
OLD_LAYOUTS = {
    "source columns": OLD_SCHEMA,
    "digest keyed": OLD_SCHEMA[:OLD_SCHEMA.index("CREATE TABLE exposures")] + DIGEST_KEYED_EXPOSURES
    + OLD_SCHEMA[OLD_SCHEMA.index("CREATE TABLE diagnostics"):],
    "text keyed": OLD_SCHEMA[:OLD_SCHEMA.index("CREATE TABLE objects")].replace("stored_path TEXT, ", "")
    + TEXT_KEYED_EXPOSURES + OLD_SCHEMA[OLD_SCHEMA.index("CREATE TABLE diagnostics"):],
}
OLD_LAYOUTS["text digests"] = OLD_LAYOUTS["text keyed"].replace("digits TEXT NOT NULL, document",
                                                                "digits INTEGER NOT NULL, document")
# the tables as idsweep created them once each search and digest was stored once,
# while each download was a row of its own that named its hit
OLD_LAYOUTS["downloads table"] = """
CREATE TABLE searches (
    id INTEGER PRIMARY KEY, query TEXT NOT NULL, engine TEXT NOT NULL, UNIQUE (query, engine)
);
CREATE TABLE hits (
    id INTEGER PRIMARY KEY, search INTEGER NOT NULL REFERENCES searches(id),
    page INTEGER NOT NULL, rank INTEGER NOT NULL, url TEXT NOT NULL,
    retrieved_at TEXT NOT NULL, is_repeat INTEGER NOT NULL DEFAULT 0,
    UNIQUE (search, page, rank, url)
);
CREATE TABLE downloads (
    id INTEGER PRIMARY KEY, hit_id INTEGER NOT NULL UNIQUE REFERENCES hits(id),
    status TEXT NOT NULL, reason TEXT, sha256 BLOB, declared_type TEXT,
    size_bytes INTEGER, completed_at TEXT NOT NULL
);
CREATE TABLE documents (id INTEGER PRIMARY KEY, sha256 BLOB NOT NULL UNIQUE);
CREATE TABLE exposures (
    digits INTEGER NOT NULL, document INTEGER NOT NULL,
    PRIMARY KEY (digits, document)
) WITHOUT ROWID;
""" + OLD_SCHEMA[OLD_SCHEMA.index("CREATE TABLE diagnostics"):]

# a digest as text, as the older layouts kept it: lowercase hex, and NULL for none
TEXT_DIGEST = "CASE WHEN typeof({0}) = 'blob' THEN lower(hex({0})) ELSE {0} END"


def old_layout_copy(store_dir, old_dir, schema=OLD_SCHEMA):
    """The rows of a store in the tables an older idsweep wrote; returns its
    exposures as (digits, sha256, first_seen), each with its own first_seen."""
    (old_dir / "objects").mkdir(parents=True)
    conn = sqlite3.connect(old_dir / "store.db")
    conn.executescript(schema)
    conn.execute("ATTACH ? AS new", (str(store_dir / "store.db"),))
    # a digest as the layout keeps it: text, or its bytes
    text = "sha256" if ("sha256", "BLOB") in conn.execute("SELECT name, type FROM pragma_table_info('downloads')"
                                                          ).fetchall() else TEXT_DIGEST.format("sha256")
    exposures = [(digits, sha256, f"2025-12-31T00:00:{i:02d}Z") for i, (digits, sha256) in enumerate(
        conn.execute(f"SELECT CAST(e.digits AS TEXT), {TEXT_DIGEST.format('d.sha256')} FROM new.exposures e"
                     " JOIN new.documents d ON d.id = e.document ORDER BY e.digits DESC, d.sha256"))]
    columns = [row[1] for row in conn.execute("PRAGMA table_info(exposures)")]
    # the source columns, where the layout has them, hold what nothing reads
    unread = "'-', " * (len(columns) - 3)
    # each fetched hit's download, numbered in hit order, as a row of its own
    downloads = "FROM new.hits WHERE status IS NOT NULL ORDER BY id"
    with conn:
        if "search" in {row[1] for row in conn.execute("PRAGMA table_info(hits)")}:  # hits name their search
            conn.execute("INSERT INTO searches SELECT * FROM new.searches")
            conn.execute("INSERT INTO hits SELECT id, search, page, rank, url, retrieved_at, is_repeat FROM new.hits")
        else:
            conn.execute("INSERT INTO hits SELECT h.id, s.query, s.engine, h.page, h.rank, h.url, h.retrieved_at,"
                         " h.is_repeat FROM new.hits h JOIN new.searches s ON s.id = h.search")
        if "document" in columns:
            conn.execute(f"INSERT INTO downloads (hit_id, status, reason, sha256, declared_type, size_bytes,"
                         f" completed_at) SELECT id, status, reason, {text}, declared_type, size_bytes, completed_at"
                         f" {downloads}")
            # numbered in digest order, as a migration from the older layouts numbers them
            conn.execute(f"INSERT INTO documents (sha256) SELECT {text} FROM new.documents ORDER BY sha256")
            conn.executemany(f"INSERT INTO exposures SELECT ?, id FROM documents WHERE {TEXT_DIGEST.format('sha256')}"
                             " = ?", [exposure[:2] for exposure in exposures])  # out of key order
        else:
            conn.execute(f"INSERT INTO downloads (hit_id, status, reason, sha256, declared_type, stored_path,"
                         f" size_bytes, completed_at) SELECT id, status, reason, {text}, declared_type,"
                         f" 'objects/' || {text}, size_bytes, completed_at {downloads}")
            conn.execute(f"INSERT OR IGNORE INTO objects SELECT {text}, size_bytes, 'objects/' || {text},"
                         " completed_at FROM new.hits WHERE status = 'success'")
            conn.executemany(f"INSERT INTO exposures VALUES (?, ?, {unread}?)", exposures)  # out of key order
    conn.close()
    return exposures


def exposures_layout(db):
    """The columns of ``exposures``, whether it is WITHOUT ROWID, the tables, and
    its rows as (digits, sha256) in the order the table holds them."""
    conn = sqlite3.connect(db)
    columns = [row[1] for row in conn.execute("PRAGMA table_info(exposures)")]
    without_rowid = conn.execute("SELECT wr FROM pragma_table_list WHERE name = 'exposures'").fetchone()[0]
    tables = sorted(row[0] for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'"))
    if "documents" in tables:
        digest_of = dict(conn.execute(f"SELECT id, {TEXT_DIGEST.format('sha256')} FROM documents"))
        rows = [(digits, digest_of[document]) for digits, document in
                conn.execute("SELECT CAST(digits AS TEXT), document FROM exposures")]
    else:
        rows = conn.execute("SELECT digits, sha256 FROM exposures").fetchall()
    conn.close()
    return columns, without_rowid, tables, rows


def test_older_store_with_exposures_is_migrated_on_open(tmp_path):
    migrated_on_open(tmp_path, "source columns",
                     ["digits", "sha256", "url", "query", "engine", "file_type", "first_seen"], 0)


def test_store_with_digest_keyed_exposures_is_migrated_on_open(tmp_path):
    migrated_on_open(tmp_path, "digest keyed", ["digits", "sha256", "first_seen"], 1)


def test_store_with_text_ids_is_migrated_on_open(tmp_path):
    migrated_on_open(tmp_path, "text keyed", ["digits", "document"], 1)


def test_store_with_text_digests_is_migrated_on_open(tmp_path):
    migrated_on_open(tmp_path, "text digests", ["digits", "document"], 1)


def test_store_with_a_downloads_table_is_migrated_on_open(tmp_path):
    migrated_on_open(tmp_path, "downloads table", ["digits", "document"], 1)


def migrated_on_open(tmp_path, layout, columns, without_rowid):
    """A store in an older layout, whose exposures have ``columns``, opened:
    it is migrated whole and vacuumed, and reads and reports what a fresh store does."""
    new = mirror_store(tmp_path / "new")
    with ResultStore(new) as store:  # a failed download and a hit never fetched, which no report reads
        store.record_download(store.add_hit("q2", "google", 2, 1, "http://x.go.th/late.pdf", "t1", True),
                              "failed", "t2", reason="timeout")
        store.add_hit("q3", "bing", 2, 2, "http://x.go.th/never.pdf", "t3", False)
        hits = store._conn.execute("SELECT * FROM hits ORDER BY id").fetchall()
    old = tmp_path / "old"
    exposures = old_layout_copy(new, old, OLD_LAYOUTS[layout])
    assert exposures_layout(old / "store.db")[:2] == (columns, without_rowid)

    with ResultStore(old) as store:
        migrated_rows = occurrences(store)
    with ResultStore(new) as store:
        assert migrated_rows == occurrences(store)
    migrated = old.joinpath("store.db").read_bytes()
    conn = sqlite3.connect(old / "store.db")
    assert conn.execute("PRAGMA freelist_count").fetchone()[0] == 0  # the pages the copy freed are gone
    # each ID is the integer it spells, each digest its bytes, and each hit names its search by number
    assert [row[2] for row in conn.execute("PRAGMA table_info(exposures)")] == ["INTEGER", "INTEGER"]
    assert conn.execute("SELECT DISTINCT typeof(digits) FROM exposures").fetchall() == [("integer",)]
    for table in ("documents", "hits"):
        assert conn.execute(f"SELECT DISTINCT typeof(sha256) FROM {table} WHERE sha256 IS NOT NULL"
                            ).fetchall() == [("blob",)], table
    assert [row[1] for row in conn.execute("PRAGMA table_info(hits)")][:2] == ["id", "search"]
    assert conn.execute("SELECT COUNT(*) FROM searches").fetchone()[0] == 5
    assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
    # every hit, its id and every field of its download kept
    assert conn.execute("SELECT * FROM hits ORDER BY id").fetchall() == hits and len(hits) == 10
    conn.close()
    columns, without_rowid, tables, rows = exposures_layout(old / "store.db")
    assert (columns, without_rowid) == (["digits", "document"], 1)
    assert exposures_layout(new / "store.db")[:3] == (columns, 1, tables)  # a fresh store is the same
    # in key order, as stored: the documents are numbered in digest order
    assert sorted(rows) == rows == [row[:2] for row in sorted(exposures)] and len(rows) == 9
    ResultStore(old).close()
    assert old.joinpath("store.db").read_bytes() == migrated  # a second open changes nothing
    with pytest.MonkeyPatch.context() as monkeypatch:
        for n in (1, 2, 3):
            monkeypatch.setattr(cli, "_id_ranges", forced_ranges(n))
            for fmt in ("markdown", "csv", "json"):
                assert _report_bytes(old, tmp_path / f"old-{fmt}-{n}", "--format", fmt) == _report_bytes(
                    new, tmp_path / f"new-{fmt}-{n}", "--format", fmt), (fmt, n)


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


def test_a_store_opened_twice_at_once_is_migrated_once(tmp_path, monkeypatch):
    new = mirror_store(tmp_path / "new")
    old = tmp_path / "old"
    old_layout_copy(new, old, OLD_LAYOUTS["downloads table"])
    executed = []

    class Recording(sqlite3.Connection):
        def execute(self, sql, *args):
            executed.append(sql)
            return super().execute(sql, *args)

    connect, layout = sqlite3.connect, store_module._schema_script
    reads = []

    def second_open_after_first_read(conn):
        reads.append(layout(conn))
        if len(reads) == 1:  # the first store has read the older layout: a second store opens meanwhile
            ResultStore(old).close()
        return reads[-1]

    monkeypatch.setattr(sqlite3, "connect", lambda db, **kw: connect(db, factory=Recording, **kw))
    monkeypatch.setattr(store_module, "_schema_script", second_open_after_first_read)
    with ResultStore(old) as store:
        migrated_rows = occurrences(store)
    monkeypatch.undo()
    assert reads[0][1] and not reads[-1][1]  # the first store read the older layout, then the migrated one
    assert executed.count("VACUUM") == 1
    assert exposures_layout(old / "store.db")[:3] == exposures_layout(new / "store.db")[:3]
    with ResultStore(new) as store:
        assert migrated_rows == occurrences(store)


@pytest.mark.parametrize("failure", ["read-only file", "row the new table refuses", "ID that does not read back",
                                     "digest that is not lowercase hex", "download of no hit"])
def test_failed_migration_leaves_the_older_store(tmp_path, monkeypatch, capsys, failure):
    new = mirror_store(tmp_path / "new")
    old = tmp_path / "old"
    if failure == "read-only file":
        old_layout_copy(new, old)
        connect = sqlite3.connect  # file modes do not stop root writing, so open it read-only
        monkeypatch.setattr(sqlite3, "connect", lambda db, **kw: connect(f"file:{db}?mode=ro", uri=True, **kw))
    elif failure == "row the new table refuses":
        # the copy into the new exposures fails after the other columns were dropped
        old_layout_copy(new, old, OLD_SCHEMA.replace("digits TEXT NOT NULL, sha256", "digits TEXT, sha256"))
        conn = sqlite3.connect(old / "store.db")
        with conn:
            conn.execute("UPDATE exposures SET digits = NULL WHERE rowid = 9")
        conn.close()
    elif failure == "ID that does not read back":  # one planted ID that no integer spells: its leading 0 would be lost
        old_layout_copy(new, old, OLD_LAYOUTS["text keyed"])
        conn = sqlite3.connect(old / "store.db")
        with conn:
            conn.execute("INSERT INTO exposures VALUES ('0110100000013', 1)")
        conn.close()
    else:  # one download's digest in capitals, which would not read back as written, or of a hit not there
        old_layout_copy(new, old, OLD_LAYOUTS["text digests"])
        conn = sqlite3.connect(old / "store.db")
        with conn:
            if failure == "download of no hit":
                conn.execute("UPDATE downloads SET hit_id = 999 WHERE id = 2")
            else:
                conn.execute("UPDATE downloads SET sha256 = upper(sha256) WHERE id = 2")
        conn.close()
    before = old.joinpath("store.db").read_bytes()
    commands = [("report", "--store", str(old), "--tables", "filetype",
                 "--out", str(tmp_path / "r"), "--salt-file", str(SALT_FILE)), scan_args(old)]
    for command in commands:
        assert run_cli(*command) == 2, command[0]
        err = capsys.readouterr().err
        assert f"store {old}: " in err and "Traceback" not in err, command[0]
        assert len(err.splitlines()) == 1, command[0]
        if failure == "digest that is not lowercase hex":
            assert "a stored digest is not lowercase hex of even length: '" in err, command[0]
        elif failure == "download of no hit":
            assert "a migrated row refers to a row that is not there" in err, command[0]
        assert old.joinpath("store.db").read_bytes() == before, command[0]


def test_open_keeps_columns_it_does_not_declare(tmp_path):
    ResultStore(tmp_path).close()
    conn = sqlite3.connect(tmp_path / "store.db")
    conn.execute("ALTER TABLE hits ADD COLUMN added_later TEXT")
    conn.close()
    ResultStore(tmp_path).close()
    conn = sqlite3.connect(tmp_path / "store.db")
    assert "added_later" in {row[1] for row in conn.execute("PRAGMA table_info(hits)")}
    conn.close()


# the table a store kept of its objects before objects/ became their only record
OBJECTS_TABLE = """
CREATE TABLE objects (
    sha256 TEXT PRIMARY KEY, size_bytes INTEGER NOT NULL, first_seen TEXT NOT NULL
);
"""


def test_store_with_an_objects_table_loses_it_on_first_open(tmp_path, monkeypatch):
    new = mirror_store(tmp_path / "new")
    old = tmp_path / "old"
    shutil.copytree(new, old)
    conn = sqlite3.connect(old / "store.db")
    conn.executescript(OBJECTS_TABLE)
    with conn:
        conn.execute("INSERT OR IGNORE INTO objects SELECT sha256, size_bytes, completed_at FROM hits"
                     " WHERE status = 'success'")
    assert conn.execute("SELECT COUNT(*) FROM objects").fetchone()[0] == 4
    conn.close()
    blobs = {p.name: p.read_bytes() for p in (old / "objects").iterdir()}
    expected = {fmt: _report_bytes(new, tmp_path / f"new-{fmt}", "--format", fmt)
                for fmt in ("markdown", "csv", "json")}

    connect = sqlite3.connect

    def read_only(db, **kw):  # file modes do not stop root writing; ranges open read-only already
        return connect(db, **kw) if kw.get("uri") else connect(f"file:{db}?mode=ro", uri=True, **kw)

    monkeypatch.setattr(sqlite3, "connect", read_only)
    with pytest.raises(sqlite3.OperationalError, match="readonly"):  # dropping the table writes
        ResultStore(old)
    monkeypatch.undo()
    ResultStore(old).close()
    assert exposures_layout(old / "store.db")[2] == exposures_layout(new / "store.db")[2]
    assert {p.name: p.read_bytes() for p in (old / "objects").iterdir()} == blobs
    monkeypatch.setattr(sqlite3, "connect", read_only)  # migrated, it opens and reports read-only
    for fmt in ("markdown", "csv", "json"):
        assert _report_bytes(old, tmp_path / f"old-{fmt}", "--format", fmt) == expected[fmt], fmt


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


def failed_rename(src, dst):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("case", ["store under a file", "blob write fails", "missing salt file",
                                  "plan out in a missing directory"])
def test_io_error_is_exit_2_with_one_line(demo_store, tmp_path, monkeypatch, capsys, case):
    (tmp_path / "file").write_text("not a directory", "utf-8")
    argv = {
        "store under a file": scan_args(tmp_path / "file" / "store"),
        "blob write fails": scan_args(tmp_path / "store"),
        "missing salt file": ("report", "--store", str(demo_store), "--out", str(tmp_path / "r"),
                              "--salt-file", str(tmp_path / "no-salt")),
        "plan out in a missing directory": ("plan", "build", "--queries", "q",
                                            "--out", str(tmp_path / "void" / "plan.json")),
    }[case]
    if case == "blob write fails":
        monkeypatch.setattr(os, "replace", failed_rename)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    flag = "--salt-file: " if case == "missing salt file" else ""  # an operator file's error is led by its flag
    assert len(err) == 1 and err[0].startswith(f"error: {flag}[Errno "), err


def test_committed_demo_matches_generator(tmp_path):
    runpy.run_path(str(REPO / "scripts" / "make_demo_corpus.py"))["main"](tmp_path)
    files = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(DEMO) for p in DEMO.rglob("*") if p.is_file())
    for rel in files:
        assert (tmp_path / rel).read_bytes() == (DEMO / rel).read_bytes(), rel


def test_run_demo_script_writes_every_report(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_demo.py"), "--out", str(tmp_path)], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "40 distinct IDs" in proc.stdout
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == sorted(
        f"{stem}.md" for stem in (
            "category", "domain", "exposures", "filetype", "geo_district", "geo_province",
            "query", "repeat", "tld",
        )
    )


def test_store_bytes_script_measures_every_table_without_migrating(demo_store, tmp_path):
    old = tmp_path / "old"
    old_layout_copy(demo_store, old, OLD_LAYOUTS["text digests"])
    before = (old / "store.db").read_bytes()
    tables = {"hits", "documents", "exposures", "diagnostics"}
    docs = {hashlib.sha256(doc.read_bytes()).hexdigest(): doc.stat().st_size for doc in (DEMO / "docs").iterdir()}
    objects = list((demo_store / "objects").iterdir())
    on_disk = sum(path.stat().st_size for path in objects)
    assert len(objects) == len(docs) and on_disk < sum(docs.values())
    for store, expected, files, stored in ((demo_store, tables | {"searches"}, len(objects), on_disk),
                                           (old, tables | {"downloads"}, 0, 0)):  # the copy holds no objects
        proc = subprocess.run([sys.executable, str(REPO / "scripts" / "store_bytes.py"), str(store)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert {line.split()[0] for line in lines if line.split()[1] == "table"} == expected, proc.stdout
        assert lines[-2].split()[-1] == f"{(store / 'store.db').stat().st_size:,}", proc.stdout
        assert lines[-1] == (f"{'objects/':<32} {files:,} files, {stored:,} bytes on disk,"
                             f" {sum(docs.values()):,} raw bytes"), proc.stdout
    assert (old / "store.db").read_bytes() == before  # read-only: an older layout is measured as it is

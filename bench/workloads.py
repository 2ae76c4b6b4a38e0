"""Benchmark inputs, generated from a seed, and the truth each run is checked against.

Three workloads:

``scan-external``
    The acceptance-criterion-3 corpus (500 IDs, 200 decoys, 60 documents,
    5 queries) with its generated extractor config, so the 30 pdf/xls/xlsx
    stand-ins go through ``python -m idsweep.textcat`` subprocesses.
``scan-builtin``
    A 20 k-ID corpus (about 3.1 MB of Thai text) whose extractor config sends
    every type to a builtin reader: no subprocesses, so store writes and ID
    detection dominate.
``report-paper``
    A result store holding the paper's repeat-exposure distribution at a
    quarter of its scale, built through ``ResultStore``'s public write
    methods and then only read by ``idsweep report``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from idsweep.geo import GeoRegistry
from idsweep.store import ResultStore
from idsweep.synth import make_corpus

SCAN_SIZES = {
    # name -> make_corpus keyword arguments, at full and at self-test size
    "scan-external": (
        dict(n_ids=500, n_decoys=200, n_docs=60, n_queries=5),
        dict(n_ids=24, n_decoys=6, n_docs=12, n_queries=3),
    ),
    "scan-builtin": (
        dict(n_ids=20_000, n_decoys=8_000, n_docs=120, n_queries=5),
        dict(n_ids=60, n_decoys=20, n_docs=12, n_queries=3),
    ),
}

# Unique IDs per source multiplicity at the paper's full scale (1,263,268 IDs).
# Multiplicities 1-6 are the paper's headline rows; 7-15 are the rows pinned
# as TOP_ROWS_FULL in tests/test_acceptance.py.
PAPER_REPEAT_FULL = {
    1: 1_139_443, 2: 90_000, 3: 16_000, 4: 9_000, 5: 5_000, 6: 2_830,
    7: 774, 8: 79, 9: 61, 10: 7, 11: 7, 12: 56, 13: 6, 15: 5,
}
# (share of the paper's scale, documents, hosts): full run, self-test
REPORT_SIZES = ((0.25, 5_000, 500), (0.002, 60, 20))

# Host name suffixes cycled over the report store's hosts, one per TLD class
# the domain classifier distinguishes; None stands for an IPv4 literal host.
HOST_SUFFIXES = ("go.th", "ac.th", "or.th", "mi.th", "in.th", "co.th", "th", "com", "org", "ac", None)
REPORT_FILE_TYPES = ("pdf", "xlsx", "xls", "csv", "html", "txt", "doc")
REPORT_QUERIES = (
    'site:go.th filetype:xlsx "เลขบัตรประชาชน"',
    'filetype:pdf "หนังสือรับรอง" "เลขประจำตัวประชาชน"',
    'site:ac.th (filetype:xls OR filetype:xlsx) "รายชื่อ"',
    'site:ac.th "รายชื่อนักเรียน"',
    '("เลขบัตรประชาชน" OR "เลขประจำตัวประชาชน") "ลำดับ"',
)
STAMP = "2026-01-01T00:00:00+00:00"


def builtin_extractors() -> dict:
    """Extractor config for scan-builtin: the stand-ins are UTF-8 text."""
    return {
        "extractors": [
            {"name": "plain", "kind": "plain", "types": ["txt", "pdf", "xls", "xlsx", "doc"]},
            {"name": "cells", "kind": "csv", "types": ["csv"]},
            {"name": "markup", "kind": "html", "types": ["html"]},
        ]
    }


@dataclass
class ScanInputs:
    corpus: Path
    plan: Path
    extractors: Path
    planted: list[str]
    n_docs: int


def make_scan_inputs(workload: str, out: Path, registry: GeoRegistry, seed: int, tiny: bool) -> ScanInputs:
    sizes = SCAN_SIZES[workload][1 if tiny else 0]
    manifest = make_corpus(out, registry, seed=seed, **sizes)
    if workload == "scan-builtin":
        manifest.extractor_config_path.write_text(json.dumps(builtin_extractors(), indent=2), "utf-8")
    return ScanInputs(
        corpus=out,
        plan=manifest.plan_path,
        extractors=manifest.extractor_config_path,
        planted=list(manifest.planted),
        n_docs=sizes["n_docs"],
    )


# --- report-paper ------------------------------------------------------------------

def check_digit(prefix12: str) -> str:
    """Mod-11 check digit, computed here rather than by the program under test."""
    total = sum(int(d) * w for d, w in zip(prefix12, range(13, 1, -1)))
    return str((11 - total % 11) % 10)


def scaled_distribution(scale: float) -> dict[int, int]:
    return {m: max(1, round(n * scale)) for m, n in PAPER_REPEAT_FULL.items()}


def host_name(i: int) -> str:
    suffix = HOST_SUFFIXES[i % len(HOST_SUFFIXES)]
    if suffix is None:
        return f"10.{i // 250 % 250}.{i % 250}.7"
    return f"site{i}.{suffix}"


@dataclass
class ReportTruth:
    """What the report tables must say about the built store."""

    repeat: dict[int, int]                 # multiplicity -> unique IDs
    unique_ids: int
    occurrences: int
    category: dict[str, int] = field(default_factory=dict)   # first digit -> unique IDs
    query: dict[str, int] = field(default_factory=dict)      # query -> unique IDs
    filetype: dict[str, int] = field(default_factory=dict)   # file type -> unique IDs
    province: dict[str, int] = field(default_factory=dict)   # province code -> unique IDs


@dataclass
class ReportInputs:
    store: Path
    planted: list[str]
    truth: ReportTruth


def _fast_commits(store: ResultStore) -> None:
    """Make per-row commits cheap while the benchmark fills its own store.

    Every public write commits, and a synced commit per row would make the
    untimed build take minutes.  These pragmas last only as long as the
    connection and leave the file format unchanged.
    """
    for value in vars(store).values():
        if isinstance(value, sqlite3.Connection):
            for pragma in ("synchronous = OFF", "journal_mode = MEMORY", "locking_mode = EXCLUSIVE"):
                value.execute(f"PRAGMA {pragma}")


def build_report_store(out: Path, registry: GeoRegistry, seed: int, tiny: bool) -> ReportInputs:
    """Fill a store with the paper's repeat distribution through public writes.

    Every ID sits in as many distinct documents as its multiplicity, and
    every document is reachable from exactly one URL, so an ID's source
    multiplicity is exactly the number of documents holding it.
    """
    rng = random.Random(seed)
    scale, n_docs, n_hosts = REPORT_SIZES[1 if tiny else 0]
    distribution = scaled_distribution(scale)

    hosts = [host_name(i) for i in range(n_hosts)]
    docs = []  # (sha256, url, query, file type)
    for j in range(n_docs):
        file_type = REPORT_FILE_TYPES[j % len(REPORT_FILE_TYPES)]
        url = f"http://{hosts[rng.randrange(n_hosts)]}/files/{seed}-{j:05d}.{file_type}"
        digest = hashlib.sha256(f"{seed}:{j}".encode()).hexdigest()
        docs.append((digest, url, REPORT_QUERIES[j % len(REPORT_QUERIES)], file_type))

    districts = sorted(registry.districts)
    serial_base = rng.randrange(10**6, 8 * 10**6)
    planted: list[str] = []
    placements: list[tuple[str, list[int]]] = []
    for multiplicity, count in distribution.items():
        for _ in range(count):
            i = len(planted)
            prefix = f"{i // len(districts) % 8 + 1}{districts[i % len(districts)]}"
            body = prefix + f"{serial_base + i // (8 * len(districts)):07d}"
            digits = body + check_digit(body)
            planted.append(digits)
            placements.append((digits, rng.sample(range(n_docs), multiplicity)))

    truth = ReportTruth(repeat=dict(distribution), unique_ids=len(planted),
                        occurrences=sum(len(where) for _, where in placements))
    for digits, where in placements:
        for table, keys in (
            (truth.category, {digits[0]}),
            (truth.province, {digits[1:3]}),
            (truth.query, {docs[j][2] for j in where}),
            (truth.filetype, {docs[j][3] for j in where}),
        ):
            for key in keys:
                table[key] = table.get(key, 0) + 1

    store_dir = out / "store"
    with ResultStore(store_dir) as store:
        _fast_commits(store)
        per_query_rank: dict[str, int] = {}
        for digest, url, query, file_type in docs:
            rank = per_query_rank.get(query, 0)
            per_query_rank[query] = rank + 1
            hit_id = store.add_hit(query, "fixture", rank // 10 + 1, rank % 10 + 1, url, STAMP, False)
            store.record_download(hit_id, "success", STAMP, sha256=digest, declared_type=file_type,
                                  size_bytes=4096)
        # key order appends to the primary-key index instead of splitting pages
        placements.sort()
        for digits, where in placements:
            for j in sorted(where, key=lambda j: docs[j][0]):
                digest, url, query, file_type = docs[j]
                store.add_exposure(digits, digest, url, query, "fixture", file_type, STAMP)
    return ReportInputs(store=store_dir, planted=planted, truth=truth)


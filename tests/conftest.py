"""Shared fixtures: virtual clock, fixture-corpus helpers, registries, throwaway stores."""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
from collections import namedtuple
from contextlib import closing, contextmanager
from dataclasses import fields
from decimal import Decimal
from pathlib import Path
from typing import Iterator

import pytest

from idsweep.geo import GeoRegistry, default_registry
from idsweep.harvest import Clock
from idsweep.reports import AggregateRow, AggregateTable
from idsweep.store import ResultStore
from idsweep.thai_id import THAI_DIGITS, validate

# what the tests start -- a script, an external extractor's ``python -m idsweep.textcat``,
# a fresh interpreter -- imports this checkout's package, as the tests themselves do
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))


class VirtualClock(Clock):
    """Monotonic fake; sleeping advances time instantly and is recorded."""

    def __init__(self):
        self.t = 0.0
        self.sleeps: list[float] = []

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.sleeps.append(seconds)
            self.t += seconds


@pytest.fixture
def virtual_clock():
    return VirtualClock()


@pytest.fixture(scope="session")
def registry():
    return default_registry()


def write_index(
    root: Path,
    queries: dict[str, list[dict]],
    objects: dict[str, dict],
) -> Path:
    """Materialize a corpus index JSON under root; returns its path."""
    index = root / "index.json"
    index.write_text(json.dumps({"queries": queries, "objects": objects}, ensure_ascii=False), "utf-8")
    return index


def write_doc(root: Path, name: str, text: str) -> str:
    """Write a document file under root/docs; returns the index-relative path."""
    docs = root / "docs"
    docs.mkdir(exist_ok=True)
    (docs / name).write_text(text, encoding="utf-8")
    return f"docs/{name}"


def fake_digest(label: str) -> str:
    """``label`` if the store takes it as a digest (lowercase hex of even length), else the
    hex of its UTF-8 bytes, which keeps the order of such labels."""
    try:
        if bytes.fromhex(label).hex() == label:
            return label
    except ValueError:
        pass
    return label.encode().hex()


@contextmanager
def store_of(rows) -> Iterator[ResultStore]:
    """A fresh store holding the rows, for the block's length.

    Each (digits, sha256, url, query, engine, file_type) row is an exposure
    of ``digits`` in document ``sha256``, successfully downloaded from
    ``url`` as found by ``query`` on ``engine``.  The store gives each
    document every source any row names for it.  A ``sha256`` label such as
    ``"s1"`` is stored as ``fake_digest`` of it.  The throwaway store skips
    syncing its commits, which would otherwise take most of the time.
    """
    rows = [(digits, fake_digest(sha256), *source) for digits, sha256, *source in rows]
    with tempfile.TemporaryDirectory() as root, ResultStore(root) as store:
        store._conn.execute("PRAGMA synchronous = OFF")
        for rank, (sha256, *source) in enumerate(dict.fromkeys(row[1:] for row in rows), 1):
            url, query, engine, file_type = source
            hit_id = store.add_hit(query, engine, 1, rank, url, "t", False)
            store.record_download(hit_id, "success", "t", sha256=sha256, declared_type=file_type)
        store.add_exposures((digits, sha256) for digits, sha256, *_ in rows)
        yield store


def _rows(store: ResultStore, sql: str) -> list[tuple]:
    """What ``sql`` reads from the store's committed rows, through a connection of its own."""
    with closing(sqlite3.connect(store.db_path)) as conn:
        return conn.execute(sql).fetchall()


def hit_count(store: ResultStore) -> int:
    return _rows(store, "SELECT COUNT(*) FROM hits")[0][0]


def object_count(store: ResultStore) -> int:
    return sum(1 for _ in store.objects_dir.iterdir())


def download_counts(store: ResultStore) -> dict[str, int]:
    """The number of downloads of each status."""
    return dict(_rows(store, "SELECT status, COUNT(*) FROM hits WHERE status IS NOT NULL GROUP BY status"))


Occurrence = namedtuple("Occurrence", "digits sha256 url query file_type")

# one row per distinct source of an exposure, engines included, then the engine dropped,
# each ID and digest read as its text
_OCCURRENCES = """
    SELECT digits, sha256, url, query, declared_type FROM (
        SELECT DISTINCT CAST(e.digits AS TEXT) AS digits, lower(hex(doc.sha256)) AS sha256, h.url, s.query,
            s.engine, h.declared_type
        FROM exposures e
        JOIN documents doc ON doc.id = e.document
        JOIN hits h ON h.sha256 = doc.sha256 AND h.status = 'success'
        JOIN searches s ON s.id = h.search
    ) ORDER BY digits, sha256, url, query, engine, declared_type
"""


def occurrences(store: ResultStore) -> list[Occurrence]:
    """Each occurrence of the store's committed rows: an exposure at one source of its document,
    one for each distinct (URL, query, engine, declared type) that successfully downloaded it, in
    that order after (digits, sha256).  One SQL join, read through a connection of its own, and
    none of the store's readers: the tests' reference for what a report must count."""
    return [Occurrence(*row) for row in _rows(store, _OCCURRENCES)]


def table_from_json(text: str) -> AggregateTable:
    """A table read back from its JSON form, as ``reports.table_to_json`` writes it."""
    data = json.loads(text)
    rows = []
    for r in data["rows"]:
        row = {f.name: r[f.name] for f in fields(AggregateRow) if f.name in r}
        if row.get("percent") is not None:
            row["percent"] = Decimal(row["percent"])
        rows.append(AggregateRow(**row))
    return AggregateTable(dimension=data["dimension"], rows=tuple(rows), columns=tuple(data["columns"]))


def dump_registry(registry: GeoRegistry) -> str:
    """Serialize back to the line format; load(dump(r)) reproduces r."""
    out: list[str] = []
    for code in sorted(registry.provinces):
        out.append(f"P,{code},{registry.provinces[code].name}")
    for code in sorted(registry.districts):
        out.append(f"D,{code},{registry.districts[code].name}")
    for code in sorted(registry.population):
        out.append(f"POP,{code},{registry.population[code]}")
    return "\n".join(out) + "\n"


# a grouped candidate that fails the checksum, then the accepted ID 1100100000026 that starts on
# its last digit: a scan that takes candidates one after another never sees that ID
OVERLAPPED = "9 8765 43210 98 1 1001 00000 02 6"

# every digit the scan reads, with its value
_DIGIT_VALUE = {d: str(i % 10) for i, d in enumerate("0123456789" + THAI_DIGITS)}
# a written ID: 13 digits in a row, or grouped 1-4-5-2-1 with a - or space between groups
_LAYOUTS = ("#" * 13, "#-####-#####-##-#")


def _written_at(text, i, layout):
    """Whether ``layout`` is written at ``i`` of ``text`` with no digit right after it."""
    end = i + len(layout)
    window = text[i:end]
    return (len(window) == len(layout) and text[end:end + 1] not in _DIGIT_VALUE
            and all(ch in _DIGIT_VALUE if slot == "#" else ch in "- " for ch, slot in zip(window, layout)))


def written_ids(text: str) -> list[tuple[int, int, str]]:
    """Every place an ID is written, overlapping or not, as (start, end, its 13 digits), by a
    slow scan independent of the library's: each start with no digit right before it, in
    either layout, as ``bench/run.py``'s ``count_leaks`` tries every window."""
    return [(i, i + len(layout), "".join(_DIGIT_VALUE[ch] for ch in text[i:i + len(layout)] if ch in _DIGIT_VALUE))
            for i in range(len(text)) if i == 0 or text[i - 1] not in _DIGIT_VALUE
            for layout in _LAYOUTS if _written_at(text, i, layout)]


def reference_ids(text: str, registry: GeoRegistry) -> list[tuple[int, int, str]]:
    """The places of ``written_ids`` whose digits validation accepts."""
    return [found for found in written_ids(text) if validate(found[2], registry).accepted]

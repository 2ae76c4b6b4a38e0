"""Shared fixtures: virtual clock, fixture-corpus helpers, registries, throwaway stores."""

from __future__ import annotations

import json
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
    return dict(_rows(store, "SELECT status, COUNT(*) FROM downloads GROUP BY status"))


Occurrence = namedtuple("Occurrence", "digits sha256 url query file_type")


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
    for province in registry.iter_provinces():
        out.append(f"P,{province.code},{province.name}")
    for district in registry.iter_districts():
        out.append(f"D,{district.code},{district.name}")
    for code in sorted(registry.population):
        out.append(f"POP,{code},{registry.population[code]}")
    return "\n".join(out) + "\n"


def expand(occurrences) -> list[Occurrence]:
    """Each occurrence of ``load_occurrences()``, one per source of each row, in its order."""
    return [Occurrence(digits, sha256, *source) for digits, sha256, sources in occurrences for source in sources]

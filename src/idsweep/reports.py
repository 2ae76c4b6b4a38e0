"""Exposure analytics: aggregation tables, per-capita rates, emission.

Every table is a fold over exposure occurrences -- one per (id, document,
source URL) co-occurrence -- so row counts stay consistent across
dimensions.  There are two ways in, and both make the same one pass over
occurrences in a store's key order, as ``ResultStore.occurrences()`` yields
them: ``report`` writes the named tables and the per-ID listing to files,
and ``tables`` returns every dimension's table in memory.  The pass
resolves each distinct source (document, URL, query, type) once: its
domain, or why its URL is unusable (reported once per URL); its key in each
source dimension; and its listing cells after the ID, written in the output
format.  Each ID's run of sources then costs the fold a few counter bumps
and the listing one token.  Percent arithmetic is decimal with
round-half-up at a fixed number of places, which keeps emission
byte-deterministic.  ``TABLES`` maps each report table name to the
dimension of each table it writes, and ``FORMATS`` maps each output format
to how it writes a row.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from dataclasses import dataclass, fields, replace
from decimal import ROUND_HALF_UP, Decimal, localcontext
from itertools import chain, compress, islice
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Optional, TextIO

from .domains import ClassificationError, DomainInfo, classify_url, default_suffix_list
from .geo import GeoRegistry
from .store import ExposureOccurrence
from .thai_id import pseudonymize, salt_id

BASE_COLUMNS = ("key", "urls", "files", "fqdns", "registered_domains", "unique_ids")
GEO_COLUMNS = ("key", "name", "unique_ids", "population", "percent")
REPEAT_COLUMNS = ("key", "unique_ids", "percent")


@dataclass(slots=True, eq=False)
class _Source:
    """A distinct (document, URL, query, type) and what a report needs of it, resolved once."""

    index: int  # its place among the fold's sources
    sha256: str
    url: str
    query: str
    file_type: str
    domain: DomainInfo
    keys: tuple[tuple[str, str], ...] = ()  # (source dimension, key) pairs
    tail: object = None  # its listing cells after the ID, as written
    alone: int = 0  # IDs of the fold found here only


# dimension -> the key of a source (document, URL, query, type, host)
_SOURCE_KEY_OF: dict[str, Callable[[_Source], str]] = {
    "file_type": lambda s: s.file_type,
    "tld": lambda s: s.domain.tld_class,
    # IP literals have no registered domain; they rank by their literal
    "registered_domain": lambda s: s.domain.registered_domain or s.domain.fqdn,
    "owner_tag": lambda s: s.domain.owner_tag or "(untagged)",
    "query": lambda s: s.query,
}
# dimension -> the key of an ID, from its first five digits (its area) and
# how many distinct URLs carry it
_ID_KEY_OF: dict[str, Callable[[str, int], str]] = {
    "category_digit": lambda digits, urls: digits[0],
    "province": lambda digits, urls: digits[1:3],
    "district": lambda digits, urls: digits[1:5],
    "source_multiplicity": lambda digits, urls: str(urls),
}
# the dimensions tables() returns, one table each
DIMENSIONS = (*_SOURCE_KEY_OF, *_ID_KEY_OF)


@dataclass(frozen=True)
class AggregateRow:
    key: str
    urls: int = 0
    files: int = 0
    fqdns: int = 0
    registered_domains: int = 0
    unique_ids: int = 0
    name: Optional[str] = None
    population: Optional[int] = None
    percent: Optional[Decimal] = None


def _cell(value) -> str:
    return "" if value is None else str(value)


@dataclass(frozen=True)
class AggregateTable:
    dimension: str
    rows: tuple[AggregateRow, ...]
    columns: tuple[str, ...] = BASE_COLUMNS

    def cells(self) -> Iterable[list[str]]:
        """Each row as the strings it prints as, in column order."""
        return ([_cell(getattr(row, c)) for c in self.columns] for row in self.rows)


def percent_of(part: int, whole: int, places: int) -> Decimal:
    """100*part/whole, round-half-up to ``places`` decimal places."""
    if whole <= 0:
        raise ValueError("whole must be positive")
    with localcontext() as ctx:
        ctx.prec = 50
        value = Decimal(part) * 100 / Decimal(whole)
        return value.quantize(Decimal(10) ** -places, rounding=ROUND_HALF_UP)


def _row(key: str, sources: list[_Source], unique_ids: int) -> AggregateRow:
    return AggregateRow(
        key=key,
        urls=len({s.url for s in sources}),
        files=len({s.sha256 for s in sources}),
        fqdns=len({s.domain.fqdn for s in sources}),
        registered_domains=len({s.domain.registered_domain or s.domain.fqdn for s in sources}),
        unique_ids=unique_ids,
    )


class _Fold:
    """Distinct counts for every dimension, from ID runs added one at a time.

    Its state is bounded by sources and keys, not by IDs: per source, the
    IDs found there only (given to its keys when rows are read); per key of
    a source dimension, the IDs of wider runs that reach it; per key of an
    ID dimension, its IDs and a flag per source they reach.
    """

    def __init__(self) -> None:
        self.ids = 0
        self.sources: list[_Source] = []
        self._shared: dict[tuple[str, str], int] = {}
        self._by_id_key: list[dict[str, list]] = [{} for _ in _ID_KEY_OF]
        # sorted IDs come area (digits 1-5) by area: an area's IDs and the
        # sources they reach are kept by URL count until the area ends
        self._area, self._pending = "", {}

    def runs(self, occurrences: Iterable[ExposureOccurrence], domain_of: Callable[[str], Optional[DomainInfo]],
             tail: Callable) -> Iterator[tuple[str, list[_Source]]]:
        """Each ID with its sources, from occurrences sorted by ID, added to the fold as it passes."""
        interned: dict[tuple[str, str, str, str], Optional[_Source]] = {}
        last, run = None, []
        for item in occurrences:
            key = (item.sha256, item.url, item.query, item.file_type)
            source = interned.get(key, False)
            if source is False:  # first met: resolve it, or None if its URL is unusable
                domain = domain_of(item.url)
                source = interned[key] = domain and _Source(len(self.sources), *key, domain)
                if source:
                    source.keys = tuple((dim, key_of(source)) for dim, key_of in _SOURCE_KEY_OF.items())
                    source.tail = tail((domain.tld_class, domain.registered_domain or "", source.url,
                                        source.file_type, source.query))
                    self.sources.append(source)
            if item.digits != last:
                if run:
                    self.add(last, run)
                    yield last, run
                if last is not None and item.digits < last:
                    raise ValueError("occurrences are not sorted by ID")
                last, run = item.digits, []
            if source is not None:
                run.append(source)
        if run:
            self.add(last, run)
            yield last, run

    def add(self, digits: str, run: list[_Source]) -> None:
        if len(run) == 1 or len(reach := {s.index for s in run}) == 1:
            run[0].alone += 1
            reach, urls = (run[0].index,), 1
        else:
            for key in {key for s in run for key in s.keys}:
                self._shared[key] = self._shared.get(key, 0) + 1
            urls = len({s.url for s in run})
        if digits[:5] != self._area:
            self._flush()
            self._area = digits[:5]
        entry = self._pending.get(urls)
        if entry is None:
            entry = self._pending[urls] = [0, set()]
        entry[0] += 1
        entry[1].update(reach)
        self.ids += 1

    def _flush(self) -> None:
        for urls, (ids, reach) in self._pending.items():
            for key_of, by_key in zip(_ID_KEY_OF.values(), self._by_id_key):
                entry = by_key.setdefault(key_of(self._area, urls), [0, bytearray()])
                entry[0] += ids
                entry[1].extend(bytes(len(self.sources) - len(entry[1])))
                for index in reach:
                    entry[1][index] = 1
        self._pending = {}

    def rows(self, dimension: str) -> list[AggregateRow]:
        """One row of distinct counts per key of the dimension, unsorted."""
        self._flush()
        if dimension in _ID_KEY_OF:
            by_key = {key: (ids, list(compress(self.sources, reached)))
                      for key, (ids, reached) in self._by_id_key[list(_ID_KEY_OF).index(dimension)].items()}
        else:
            by_key = {}
            for source in self.sources:
                key = _SOURCE_KEY_OF[dimension](source)
                entry = by_key.setdefault(key, [self._shared.get((dimension, key), 0), []])
                entry[0] += source.alone
                entry[1].append(source)
        return [_row(key, sources, ids) for key, (ids, sources) in by_key.items()]


def _pass(occurrences: Iterable[ExposureOccurrence], owner_tags: Optional[dict[str, str]],
          tail: Callable) -> tuple[_Fold, Iterator[tuple[str, list[_Source]]], list[tuple[str, str]]]:
    """A fold, the runs that fill it as they pass, and the unusable URLs they meet, each once with why."""
    psl, skipped = default_suffix_list(), []

    @functools.cache  # each URL is classified once
    def domain_of(url: str) -> Optional[DomainInfo]:
        try:
            return classify_url(url, psl=psl, owner_tags=owner_tags)
        except ClassificationError as exc:
            skipped.append((url, str(exc)))
            return None

    fold = _Fold()
    return fold, fold.runs(occurrences, domain_of, tail), skipped


def _finish(dimension: str, rows: list[AggregateRow], registry: GeoRegistry, geo_sort: str) -> AggregateTable:
    """The table of a dimension's rows: sorted, and with names and percents where it has them."""
    if dimension == "source_multiplicity":
        # each ID has one multiplicity, so the rows' IDs are all the IDs
        total = sum(row.unique_ids for row in rows)
        rows = [replace(row, percent=percent_of(row.unique_ids, total, 4))
                for row in sorted(rows, key=lambda r: -int(r.key))]
        return AggregateTable(dimension=dimension, rows=tuple(rows), columns=REPEAT_COLUMNS)
    if dimension in ("province", "district"):
        if geo_sort not in ("count", "percent"):
            raise ValueError("sort must be 'count' or 'percent'")
        lookup = registry.lookup_province if dimension == "province" else registry.lookup_district
        named = []
        for row in rows:
            population = registry.population.get(row.key)
            percent = percent_of(row.unique_ids, population, 2) if population else None
            area = lookup(row.key)
            named.append(replace(row, name=area.name if area else None, population=population,
                                 percent=percent))
        if geo_sort == "count":
            named.sort(key=lambda r: (-r.unique_ids, r.key))
        else:
            named.sort(key=lambda r: (r.percent is None, -(r.percent or 0), r.key))
        return AggregateTable(dimension=dimension, rows=tuple(named), columns=GEO_COLUMNS)
    rows = sorted(rows, key=lambda r: (-r.unique_ids, r.key))
    return AggregateTable(dimension=dimension, rows=tuple(rows))


# --- report tables ------------------------------------------------------------

# report table name -> {file stem: dimension} of the tables it writes.
# "exposures" writes no table: it names the per-ID listing, which needs the
# salt.
TABLES: dict[str, dict[str, str]] = {
    "filetype": {"filetype": "file_type"},
    "tld": {"tld": "tld"},
    "domain": {"domain": "registered_domain"},
    "owner": {"owner": "owner_tag"},
    "query": {"query": "query"},
    "category": {"category": "category_digit"},
    "geo": {"geo_province": "province", "geo_district": "district"},
    "repeat": {"repeat": "source_multiplicity"},
    "exposures": {},
}


LISTING_COLUMNS = ("id", "tld_class", "registered_domain", "url", "file_type", "query")


@dataclass(frozen=True)
class ExposureListing:
    """What a per-occurrence listing's file says about it; its rows are only ever streamed."""

    redacted: bool
    salt_id: Optional[str] = None
    columns: ClassVar[tuple[str, ...]] = LISTING_COLUMNS


def _listing(runs: Iterable[tuple[str, list[_Source]]], salt: Optional[bytes], unredacted: bool,
             head: Callable) -> tuple[ExposureListing, Iterator]:
    """A listing of sorted runs, and its rows as a stream: ``head`` of the shown ID + each tail."""
    if not unredacted and not salt:
        raise ValueError("redacted listing needs a salt")

    def rows() -> Iterator:
        for digits, run in runs:
            # each ID's token is computed once for all its rows
            shown = head(digits if unredacted else pseudonymize(digits, salt).token)
            for source in run:
                yield shown + source.tail

    stream = rows()
    first = next(stream, None)
    named = first is not None and not unredacted  # an empty listing names no salt
    listing = ExposureListing(redacted=not unredacted, salt_id=salt_id(salt) if named else None)
    return listing, iter(()) if first is None else chain((first,), stream)


# --- emission -----------------------------------------------------------------

def _markdown_cell(text: str) -> str:
    if text.isalnum():  # as every ID and token is
        return text
    text = text.replace("\\", "\\\\").replace("|", "\\|")
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _csv_row(cells: Iterable[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


_json_cell = json.JSONEncoder(ensure_ascii=False).encode

# format -> (file extension, a row's first cell as written, the rest of the
# row as written).  A row is the two joined, so a listing writes each
# source's rest of row once.  Markdown writes \ as \\, | as \| and a line
# break as a space, so no cell can split its row; csv.writer quotes each
# cell on its own.
FORMATS: dict[str, tuple[str, Callable[[str], str], Callable[[Iterable[str]], str]]] = {
    "markdown": ("md", lambda cell: "| " + _markdown_cell(cell),
                 lambda cells: "".join(" | " + _markdown_cell(c) for c in cells) + " |\n"),
    "csv": ("csv", lambda cell: _csv_row((cell, ""))[:-2],
            lambda cells: _csv_row(("", *cells))),
    "json": ("json", lambda cell: "    [\n      " + _json_cell(cell),
             lambda cells: "".join(",\n      " + _json_cell(c) for c in cells) + "\n    ]"),
}


def _text(grid: AggregateTable | ExposureListing, fmt: str, rows: Optional[Iterator[str]] = None) -> Iterator[str]:
    """The file a table or listing is written as, in pieces; a listing's ``rows`` come as written."""
    _, head, tail = FORMATS[fmt]
    if fmt == "json" and isinstance(grid, AggregateTable):
        return iter((table_to_json(grid),))
    if rows is None:
        rows = (head(row[0]) + tail(row[1:]) for row in grid.cells())
    if fmt == "json":
        return _json_listing(grid, rows)
    header = (grid.columns, ("---",) * len(grid.columns)) if fmt == "markdown" else (grid.columns,)
    return chain((head(row[0]) + tail(row[1:]) for row in header), rows)


def _json_listing(listing: ExposureListing, rows: Iterable[str]) -> Iterator[str]:
    """The listing as ``json.dumps(..., ensure_ascii=False, indent=2)`` writes it, a row at a time."""
    text = json.dumps({"redacted": listing.redacted, "salt_id": listing.salt_id,
                       "columns": list(listing.columns), "rows": []}, ensure_ascii=False, indent=2) + "\n"
    # the rows go inside the '[]' that text ends with, each two levels deep
    sep = text[:-len("]\n}\n")] + "\n"
    for row in rows:
        yield sep + row
        sep = ",\n"
    yield text if sep != ",\n" else "\n  ]\n}\n"


def _write_lines(lines: Iterable[str], fh: TextIO) -> None:
    # a few thousand lines per write: one write per line costs more than
    # making the lines, and the whole text at once costs memory
    lines = iter(lines)
    while text := "".join(islice(lines, 4096)):
        fh.write(text)


def render_markdown(table: AggregateTable) -> str:
    return "".join(_text(table, "markdown"))


def render_csv(table: AggregateTable) -> str:
    return "".join(_text(table, "csv"))


def table_to_json(table: AggregateTable) -> str:
    payload = {
        "dimension": table.dimension,
        "columns": list(table.columns),
        "rows": [{f.name: getattr(r, f.name) for f in fields(AggregateRow)} for r in table.rows],
    }
    # default=str writes each Decimal percent as its exact string
    return json.dumps(payload, ensure_ascii=False, indent=2, default=str) + "\n"


def table_from_json(text: str) -> AggregateTable:
    data = json.loads(text)
    rows = []
    for r in data["rows"]:
        row = {f.name: r[f.name] for f in fields(AggregateRow) if f.name in r}
        if row.get("percent") is not None:
            row["percent"] = Decimal(row["percent"])
        rows.append(AggregateRow(**row))
    return AggregateTable(dimension=data["dimension"], rows=tuple(rows), columns=tuple(data["columns"]))


def emit_report(tables: dict[str, AggregateTable], out_dir: str | Path, fmt: str = "markdown") -> list[Path]:
    """Write one file per table; deterministic bytes, each file whole or not at all."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {sorted(FORMATS)}")
    return _write_files(out_dir, FORMATS[fmt][0], ((name, _text(tables[name], fmt)) for name in sorted(tables)))


def _write_files(out_dir: str | Path, ext: str, texts: Iterable[tuple[str, Iterable[str]]]) -> list[Path]:
    """Write each (file stem, text in pieces) under a temporary name, renamed into place when it is whole."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, text in texts:
        path = out / f"{stem}.{ext}"
        part = path.with_name(path.name + ".part")
        try:
            with part.open("w", encoding="utf-8") as fh:
                _write_lines(text, fh)
            os.replace(part, path)
        finally:
            part.unlink(missing_ok=True)
        paths.append(path)
    return paths


def report(
    occurrences: Iterable[ExposureOccurrence],
    names: Iterable[str],
    registry: GeoRegistry,
    out_dir: str | Path,
    fmt: str = "markdown",
    geo_sort: str = "count",
    salt: Optional[bytes] = None,
    unredacted: bool = False,
    owner_tags: Optional[dict[str, str]] = None,
) -> tuple[list[Path], list[tuple[str, str]], int]:
    """Write the named report tables from one pass over the occurrences.

    The occurrences must come sorted by (digits, sha256, url, query), as
    ``ResultStore.occurrences()`` yields them; an ID out of order is a
    ``ValueError``.  Each ID's run of sources goes into one fold that builds
    every table, and into the listing, which is written as the pass goes.
    Returns the files written, each unusable URL once with why (in the order
    first seen), and the number of IDs.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {sorted(FORMATS)}")
    ext, head, tail = FORMATS[fmt]
    names = list(names)
    fold, runs, skipped = _pass(occurrences, owner_tags, tail)
    written = []
    if "exposures" in names:
        listing, rows = _listing(runs, salt, unredacted, head)
        written = _write_files(out_dir, ext, [("exposures", _text(listing, fmt, rows))])
    for _ in runs:  # what the listing did not take
        pass
    by_stem = {
        stem: _finish(dim, fold.rows(dim), registry, geo_sort)
        for name in names for stem, dim in TABLES[name].items()
    }
    return emit_report(by_stem, out_dir, fmt) + written, skipped, fold.ids


def tables(
    occurrences: Iterable[ExposureOccurrence],
    registry: GeoRegistry,
    geo_sort: str = "count",
    owner_tags: Optional[dict[str, str]] = None,
) -> tuple[dict[str, AggregateTable], list[tuple[str, str]], int]:
    """Every dimension's table from the same one pass as ``report``, in memory.

    The occurrences must come in the order ``report`` needs.  Province and
    district come from the ID itself (digits 2-3 and 2-5), with percent =
    100 x IDs / residents, half-up at 2 places, where the registry has a
    population; ``source_multiplicity`` counts IDs by how many distinct URLs
    carry them, percent of all IDs at 4 places.  Returns each dimension of
    ``DIMENSIONS`` with its table, each unusable URL once with why, and the
    number of IDs.
    """
    fold, runs, skipped = _pass(occurrences, owner_tags, tuple)  # no listing: tails stay cells
    for _ in runs:
        pass
    return {dim: _finish(dim, fold.rows(dim), registry, geo_sort) for dim in DIMENSIONS}, skipped, fold.ids

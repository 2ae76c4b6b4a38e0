"""Exposure analytics: aggregation tables, per-capita rates, emission.

Every table is a fold over exposure occurrences -- one per (id, document,
source URL) co-occurrence -- so row counts stay consistent across
dimensions.  ``report`` writes the named tables and the per-ID listing to
files, and ``tables`` returns every dimension's table in memory; both make
the same one pass over a store's exposures in key order.

First a store's documents are resolved once (``_resolve``): each URL is
classified once, an unusable one kept with why, and each distinct source
(document, URL, query, type) at a usable URL gets a fixed number, its
domain, its key in each source dimension and its listing cells after the
ID in the output format, with any ID in them that validation accepts as its
token in a redacted report.  Then one flat loop reads the (ID, document number)
rows of a cursor (``_count``).  When an ID's rows end, it puts the ID's
documents in digest order, so the listing and the order URLs are first met
do not depend on how the store numbered them, counts the ID and writes its
listing rows: fixed text around the ID or its token (one keyed HMAC), which
no format escapes.  An ID at one source only, as most are, costs a lookup
of its document, a count on that source, a count and an index for its area,
and one line.  Percents are decimal, round-half-up at a fixed number of
places, so emission is byte-deterministic.  ``TABLES`` maps each report
table name to the dimension of each table it writes, and ``FORMATS`` maps
each output format to how it writes a row.

``report`` reads a store as ranges of IDs, in ID order, each through the
loop on its own (``_range``), in as many processes as the caller maps it in,
all against the one resolved table.  A range sends back counts only, by
source number and key, so the folds merge by adding, and documents with
unusable URLs keep the order one pass meets them in.  Each range writes its
listing rows, with no header or trailer, to a part file of its own; the
listing is the header, the parts in range order and the trailer, in one
file.  Memory is per process: the resolved documents and a fold, not IDs.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from decimal import ROUND_HALF_UP, Decimal, localcontext
from itertools import chain, compress
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .domains import ClassificationError, DomainInfo, classify_url, default_suffix_list, url_host
from .geo import GeoRegistry
# pseudonymize is token_function one ID at a time; bench/tracing.py wraps it where it is bound here
from .thai_id import pseudonymize, redacting, salt_id, token_function  # noqa: F401

if TYPE_CHECKING:
    from .store import ExposureRange, ResultStore

BASE_COLUMNS = ("key", "urls", "files", "fqdns", "registered_domains", "unique_ids")
GEO_COLUMNS = ("key", "name", "unique_ids", "population", "percent")
REPEAT_COLUMNS = ("key", "unique_ids", "percent")


@dataclass(slots=True, eq=False)
class _Source:
    """A distinct (document, URL, query, type) and what a report needs of it, resolved once."""

    index: int  # its number, the same in every range
    sha256: str
    url: str
    query: str
    file_type: str
    domain: DomainInfo
    keys: tuple[int, ...] = ()  # the number of its (source dimension, key) pair in each source dimension
    tail: object = None  # what its listing row writes after the ID


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


# what a row counts distinct of a key's sources: its URLs, files, FQDNs and registered domains
_COUNTED = (attrgetter("url"), attrgetter("sha256"), attrgetter("domain.fqdn"), _SOURCE_KEY_OF["registered_domain"])
_INDEX, _KEYS = attrgetter("index"), attrgetter("keys")


class _Fold:
    """Distinct counts for every dimension, from IDs added one at a time in ID order.

    Its state is bounded by sources and keys, not by IDs, and both are
    counted by their number: per source, the IDs found there only; per
    (source dimension, key) pair, the IDs of wider runs that reach it; per
    key of an ID dimension, its IDs and a flag per source they reach: an
    integer whose byte n is 1 if they reach source n, so flags are added by
    OR-ing integers.  IDs in order come area (digits 1-5) by area: an area's
    IDs and the set of sources they reach are kept by URL count until the
    area ends.
    """

    def __init__(self, sources: int) -> None:
        self.ids = 0
        self.alone = [0] * sources  # per source, the IDs found there only
        self.met: dict[int, None] = {}  # the documents with unusable URLs, in the order first met
        self._shared: Counter[int] = Counter()  # per key number, the IDs of wider runs
        self._by_id_key: list[dict[str, list]] = [{} for _ in _ID_KEY_OF]
        self._area, self._pending = "", {}  # an area's [IDs, reach] by URL count

    def add(self, run: tuple[_Source, ...]) -> None:
        """An ID of the current area with more sources than one: its run, a source per listing row."""
        reach = set(map(_INDEX, run))
        if len(reach) == 1:  # one source, found under two engines
            self.alone[run[0].index] += 1
            urls = 1
        else:
            self._shared.update(set().union(*map(_KEYS, run)))
            urls = len({s.url for s in run})
        entry = self._pending.get(urls) or self._pending.setdefault(urls, [0, set()])
        entry[0] += 1
        entry[1] |= reach

    def _flush(self, area: str = "") -> list:
        """Count the pending area's IDs and start ``area``; returns its [IDs, reach] of IDs at one URL."""
        for urls, (ids, reach) in self._pending.items():
            if not ids:  # no ID of the area at one URL
                continue
            self.ids += ids
            marks = bytearray(len(self.alone))
            for index in reach:
                marks[index] = 1
            flags = int.from_bytes(marks, "little")
            for key_of, by_key in zip(_ID_KEY_OF.values(), self._by_id_key):
                key = key_of(self._area, urls)
                entry = by_key.get(key) or by_key.setdefault(key, [0, 0])
                entry[0] += ids
                entry[1] |= flags
        self._area, self._pending = area, {1: [0, set()]}
        return self._pending[1]

    def merge(self, other: "_Fold") -> "_Fold":
        """Add the counts of a fold made over a later range of IDs, with the same sources; returns this fold."""
        self.ids += other.ids
        self.met.update(other.met)
        self.alone = [mine + theirs for mine, theirs in zip(self.alone, other.alone)]
        self._shared.update(other._shared)
        for by_key, theirs in zip(self._by_id_key, other._by_id_key):
            for key, (ids, reached) in theirs.items():
                entry = by_key.setdefault(key, [0, 0])
                entry[0] += ids
                entry[1] |= reached
        return self

    def rows(self, dimension: str, table: _Table) -> list[AggregateRow]:
        """One row of distinct counts per key of the dimension, unsorted, from the table the fold counted."""
        columns, rows = table.columns, []
        if dimension in _ID_KEY_OF:
            for key, (ids, reached) in self._by_id_key[list(_ID_KEY_OF).index(dimension)].items():
                marks = reached.to_bytes(len(self.alone), "little")
                rows.append(AggregateRow(key, *(len(set(compress(column, marks))) for column in columns), ids))
            return rows
        alone = self.alone.__getitem__
        return [AggregateRow(key, *(len(set(map(column.__getitem__, members))) for column in columns),
                             self._shared[number] + sum(map(alone, members)))
                for (dim, key), (number, members) in table.keys.items() if dim == dimension]


def _finish(dimension: str, rows: list[AggregateRow], registry: GeoRegistry, geo_sort: str) -> AggregateTable:
    """The table of a dimension's rows: sorted, and with names and percents where it has them."""
    if dimension == "source_multiplicity":
        # each ID has one multiplicity, so the rows' IDs are all the IDs
        total = sum(row.unique_ids for row in rows)
        rows = [replace(row, percent=percent_of(row.unique_ids, total, 4))
                for row in sorted(rows, key=lambda r: -int(r.key))]
        return AggregateTable(dimension=dimension, rows=tuple(rows), columns=REPEAT_COLUMNS)
    if dimension in ("province", "district"):
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


# how the province and district tables may be ordered
GEO_SORTS = ("count", "percent")


def check_arguments(names: Iterable[str], geo_sort: str) -> None:
    """Refuse unknown table names or geography sort before any pass is made or file written."""
    unknown = [n for n in names if n not in TABLES]
    if unknown:
        raise ValueError(f"unknown table(s) {', '.join(unknown)}; valid names: {', '.join(TABLES)}")
    if geo_sort not in GEO_SORTS:
        raise ValueError(f"geo sort must be one of {GEO_SORTS}, not {geo_sort!r}")


LISTING_COLUMNS = ("id", "tld_class", "registered_domain", "url", "file_type", "query")


# --- emission -----------------------------------------------------------------

def _markdown_cell(text: str) -> str:
    text = text.replace("\\", "\\\\").replace("|", "\\|")
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _csv_row(cells: Iterable[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


_json_cell = json.JSONEncoder(ensure_ascii=False).encode

# format -> (file extension, a row's first cell as written, each later cell
# as written, the end of a row).  A row is its cells as written, joined, and
# its end, so a listing writes each source's rest of row once, and each
# distinct cell once.  Markdown writes \ as \\, | as \| and a line break as
# a space, so no cell can split its row; csv.writer quotes each cell on its
# own.  A JSON row (only the listing writes rows one by one) starts with the
# comma before it, which the listing drops from its first.
FORMATS: dict[str, tuple[str, Callable[[str], str], Callable[[str], str], str]] = {
    "markdown": ("md", lambda cell: "| " + _markdown_cell(cell), lambda cell: " | " + _markdown_cell(cell), " |\n"),
    "csv": ("csv", lambda cell: _csv_row((cell, ""))[:-2], lambda cell: _csv_row(("", cell))[:-1], "\n"),
    "json": ("json", lambda cell: ",\n    [\n      " + _json_cell(cell), lambda cell: ",\n      " + _json_cell(cell),
             "\n    ]"),
}


def _lines(rows: Iterable[tuple[str, ...]], fmt: str) -> Iterator[str]:
    """Markdown or CSV rows of cells, as written."""
    _, head, later, end = FORMATS[fmt]
    return (head(row[0]) + "".join(map(later, row[1:])) + end for row in rows)


def _header(columns: tuple[str, ...], fmt: str) -> tuple[tuple[str, ...], ...]:
    """The rows a markdown or CSV file starts with."""
    return (columns, ("---",) * len(columns)) if fmt == "markdown" else (columns,)


def _text(table: AggregateTable, fmt: str) -> Iterator[str]:
    """The file a table is written as, in pieces."""
    if fmt == "json":
        return iter((table_to_json(table),))
    return _lines(chain(_header(table.columns, fmt), table.cells()), fmt)


def _listing_frame(fmt: str, redacted: bool, salt_id: Optional[str], rows: bool) -> tuple[str, str]:
    """The text of a listing file before its rows and after them.

    The JSON listing is what ``json.dumps(..., ensure_ascii=False,
    indent=2)`` writes, its rows inside the '[]' that the text ends with.
    """
    if fmt != "json":
        return "".join(_lines(_header(LISTING_COLUMNS, fmt), fmt)), ""
    text = json.dumps({"redacted": redacted, "salt_id": salt_id, "columns": list(LISTING_COLUMNS),
                       "rows": []}, ensure_ascii=False, indent=2) + "\n"
    return (text[:-len("]\n}\n")], "\n  ]\n}\n") if rows else (text, "")


def table_to_json(table: AggregateTable) -> str:
    payload = {
        "dimension": table.dimension,
        "columns": list(table.columns),
        "rows": [{f.name: getattr(r, f.name) for f in fields(AggregateRow)} for r in table.rows],
    }
    # default=str writes each Decimal percent as its exact string
    return json.dumps(payload, ensure_ascii=False, indent=2, default=str) + "\n"


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
                fh.writelines(text)
            os.replace(part, path)
        finally:
            part.unlink(missing_ok=True)
        paths.append(path)
    return paths


def _join_listing(path: Path, fmt: str, salt: Optional[bytes], parts: list[Path]) -> Path:
    """Write the listing at ``path`` from the rows of its ranges, in order, as one file.

    The header, each range's rows and the trailer go to a temporary name,
    renamed into place when it is whole.  The rows are copied file to file
    inside the kernel.  A JSON listing drops the comma before its first row,
    and a redacted listing (one with a ``salt``) names its salt only if it has rows.
    """
    filled = [part for part in parts if part.stat().st_size]
    header, trailer = _listing_frame(fmt, bool(salt), salt_id(salt) if salt and filled else None, bool(filled))
    whole = path.with_name(path.name + ".part")
    try:
        with whole.open("wb") as out:
            out.write(header.encode("utf-8"))
            out.flush()
            skip = int(fmt == "json")  # the comma before the first row
            for part in filled:
                with part.open("rb") as rows:
                    offset, size, skip = skip, os.fstat(rows.fileno()).st_size, 0
                    while offset < size:
                        offset += os.sendfile(out.fileno(), rows.fileno(), offset, size - offset)
            out.write(trailer.encode("utf-8"))
        os.replace(whole, path)
    finally:
        whole.unlink(missing_ok=True)
    return path


class _Table(NamedTuple):
    """Every document of a store, resolved once before any range is read, and how the report writes an ID."""

    sources: list[_Source]  # every usable source, by its number
    runs: dict[int, tuple[_Source, ...]]  # document number -> its usable sources, a source per listing row
    digest: dict[int, str]  # document number -> its sha256
    unusable: dict[int, tuple[tuple[str, str], ...]]  # document number -> each of its unusable URLs with why
    keys: dict[tuple[str, str], tuple[int, list[int]]]  # (source dimension, key) -> its number, its sources
    columns: tuple[list[int], ...]  # per ``_COUNTED``, each source's value numbered, by source number
    shown: Callable[[str], str]  # an ID as the report writes it: its token, or itself if unredacted
    redact: Callable[[str], str]  # text with each ID in it that validation accepts as ``shown`` writes it
    head: str  # what a listing row writes before the ID

    def skipped(self, documents: Iterable[int]) -> list[tuple[str, str]]:
        """The unusable URLs of the documents, each once with why, redacted, in the documents' order."""
        found = dict.fromkeys(chain.from_iterable(map(self.unusable.__getitem__, documents)))
        return [(self.redact(url), self.redact(why)) for url, why in found]


def _resolve(documents: dict, owner_tags: Optional[dict[str, str]], registry: GeoRegistry,
             fmt: Optional[str] = None, shown: Callable[[str], str] = str) -> _Table:
    """The table of a store's documents, from each number's (sha256, sources), for IDs written as ``shown``.

    Each distinct source (document, URL, query, type) at a usable URL is
    numbered in the order met, with its domain, its key in each source
    dimension and, if ``fmt`` names a listing format, its cells after the ID,
    each key and cell with any ID that validation accepts in it as ``shown``.
    Each URL is split once and each host classified once, at the first URL
    met there; each distinct (source dimension, key) pair is numbered too, so
    keys that redact alike are one key.
    """
    redact = str if shown is str else redacting(registry, shown)
    psl, sources, keys, key = default_suffix_list(), [], {}, functools.cache(redact)
    head = ""
    if fmt:
        # an ID or token is [0-9a-f], which no format escapes or quotes: its
        # cell is what the format writes around it, and a source's tail
        # starts with what follows it
        _, first, escape, end = FORMATS[fmt]
        # each distinct cell redacted and written once
        (head, _, after), cell = first("0").partition("0"), functools.cache(lambda text: escape(redact(text)))
    table = _Table(sources, {}, {}, {}, keys, (), shown, redact, head)
    hosts: dict[str, tuple] = {}  # host -> its domain's fields after ``url``, from the first URL met there

    @functools.cache  # each URL is split once
    def domain_of(url: str) -> tuple[Optional[DomainInfo], str]:
        try:
            host = url_host(url)
        except ClassificationError as exc:
            return None, str(exc)
        if host not in hosts:
            domain = classify_url(url, psl=psl, owner_tags=owner_tags)
            hosts[host] = domain.fqdn, domain.registered_domain, domain.tld_class, domain.owner_tag
        return DomainInfo(url, *hosts[host]), ""

    @functools.cache  # each source is resolved once
    def source_of(sha256: str, url: str, query: str, file_type: str) -> _Source:
        domain = domain_of(url)[0]
        tail = fmt and after + "".join(map(cell, (domain.tld_class, domain.registered_domain or "", url, file_type,
                                                  query))) + end
        source = _Source(len(sources), sha256, url, query, file_type, domain, tail=tail)
        pairs = [keys.setdefault((dim, key(key_of(source))), (len(keys), [])) for dim, key_of in _SOURCE_KEY_OF.items()]
        source.keys = tuple(number for number, _ in pairs)
        for _, members in pairs:
            members.append(source.index)
        sources.append(source)
        return source

    for document, (sha256, found) in documents.items():
        table.digest[document] = sha256
        table.runs[document] = tuple(source_of(sha256, *entry) for entry in found if domain_of(entry[0])[0])
        table.unusable[document] = tuple(dict.fromkeys((url, domain_of(url)[1]) for url, _, _ in found
                                                       if not domain_of(url)[0]))
    return table._replace(columns=tuple(_numbered(map(value_of, sources)) for value_of in _COUNTED))


def _numbered(values: Iterable[str]) -> list[int]:
    """Each value as a number, equal values alike: the distinct values numbered in the order met."""
    numbers: dict[str, int] = {}
    return [numbers.setdefault(value, len(numbers)) for value in values]


# a row after every ID's rows: it ends the last ID's run
_END = (("~", None),)


def _count(table: _Table, rows: Iterable[tuple[str, int]], fh=None) -> _Fold:
    """Sorted (digits, document) rows through a fold, and their listing rows as the table writes them to ``fh``
    if one is open, with no header or trailer.  An ID at one source only, as most are, is counted in place."""
    listed = fh is not None
    if listed:
        before, shown, write = table.head, table.shown, fh.write
    runs, digest, unusable = table.runs, table.digest.__getitem__, table.unusable
    fold = _Fold(len(table.sources))
    alone, met = fold.alone, fold.met
    area, last, first, more = "", "", None, []  # the ID's first document, and any more
    for digits, document in chain(rows, _END):
        if digits != last:
            if first is not None:  # the last ID's rows have ended
                if more:  # listed, and first met, in digest order
                    more.append(first)
                    more.sort(key=digest)
                    met.update((d, None) for d in more if unusable[d])
                    run = tuple(chain.from_iterable(map(runs.__getitem__, more)))
                    more = []
                else:
                    if unusable[first]:
                        met[first] = None
                    run = runs[first]
                if run:
                    if last[:5] != area:
                        area = last[:5]
                        one = fold._flush(area)
                    if len(run) == 1:  # what fold.add(run) does for one source
                        source = run[0]
                        alone[source.index] += 1
                        one[0] += 1
                        one[1].add(source.index)
                        if listed:
                            write(before + shown(last) + source.tail)
                    else:
                        fold.add(run)
                        if listed:
                            head = before + shown(last)
                            write("".join([head + s.tail for s in run]))
            last, first = digits, document
        else:
            more.append(document)
    fold._flush()  # what is left of the last area
    return fold


def _range(exposures: ExposureRange, part: Optional[Path], table: _Table) -> _Fold:
    """One range of IDs through ``_count`` against the store's resolved table, reading only its own
    cursor, with its listing rows into ``part`` if one is named.  Its fold holds no URL or digest."""
    with exposures.read() as rows, part.open("w", encoding="utf-8") if part else nullcontext() as fh:
        return _count(table, rows, fh)


def report(
    ranges: Sequence[ExposureRange],
    names: Iterable[str],
    registry: GeoRegistry,
    out_dir: str | Path,
    fmt: str = "markdown",
    geo_sort: str = "count",
    salt: Optional[bytes] = None,
    unredacted: bool = False,
    owner_tags: Optional[dict[str, str]] = None,
    run: Callable = map,
) -> tuple[list[Path], list[tuple[str, str]], int]:
    """Write the named report tables from one pass over the ranges of a store.

    The ranges are ``ExposureRange``s that hold the store between them, in
    ID order, as ``ResultStore.id_ranges()`` cuts them.  The store's documents
    are resolved once, here, before any range is read.  ``run`` maps the
    range function over the ranges and their listing parts as ``map`` does:
    each range counts its IDs in a fold of its own, against that one table,
    and writes its part of the listing as it goes.  ``run`` may map in
    processes forked from this one, which hold the function and its table
    already: only the folds it returns need to pickle.  It must return once
    no range is still running.  The folds are then added up, the tables
    written, and the parts joined into one listing.  Returns the files
    written, each unusable URL once with why (in the order first seen), and
    the number of IDs.  Unless ``unredacted``, it needs a salt (ValueError
    before anything is read or written) and writes each listed ID, and each
    ID that validation accepts in a cell, a key or an unusable URL, as its token.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {sorted(FORMATS)}")
    names = list(names)
    check_arguments(names, geo_sort)
    if not unredacted and not salt:
        raise ValueError("a redacted report needs a salt")
    shown = str if unredacted else token_function(salt)  # how every file and unusable URL writes an ID
    listed = "exposures" in names
    listing = Path(out_dir) / f"exposures.{FORMATS[fmt][0]}"
    parts = [listing.with_name(f"{listing.name}.part{i}") if listed else None for i in range(len(ranges))]
    if listed:
        listing.parent.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        table = _resolve(ranges[0].documents(), owner_tags, registry, fmt if listed else None, shown)
        fold = functools.reduce(_Fold.merge, run(functools.partial(_range, table=table), ranges, parts))
        if listed:
            written = [_join_listing(listing, fmt, None if unredacted else salt, parts)]
    finally:
        for part in filter(None, parts):
            part.unlink(missing_ok=True)
    by_stem = {
        stem: _finish(dim, fold.rows(dim, table), registry, geo_sort)
        for name in names for stem, dim in TABLES[name].items()
    }
    return emit_report(by_stem, out_dir, fmt) + written, table.skipped(fold.met), fold.ids


def tables(
    store: ResultStore,
    registry: GeoRegistry,
    geo_sort: str = "count",
    owner_tags: Optional[dict[str, str]] = None,
) -> tuple[dict[str, AggregateTable], list[tuple[str, str]], int]:
    """Every dimension's table from the same one pass as ``report``, in memory, with any ID in a key or URL raw.

    It reads the store's documents and rows in one read transaction.  Province and district come
    from the ID itself (digits 2-3 and 2-5), with percent
    = 100 x IDs / residents, half-up at 2 places, where the registry has a
    population; ``source_multiplicity`` counts IDs by how many distinct URLs
    carry them, percent of all IDs at 4 places.  Returns each dimension of
    ``DIMENSIONS`` with its table, each unusable URL once with why, and the
    number of IDs.
    """
    check_arguments((), geo_sort)
    with store.read() as (documents, rows):
        table = _resolve(documents, owner_tags, registry)
        fold = _count(table, rows)
    by_dim = {dim: _finish(dim, fold.rows(dim, table), registry, geo_sort) for dim in DIMENSIONS}
    return by_dim, table.skipped(fold.met), fold.ids

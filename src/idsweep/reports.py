"""Exposure analytics: aggregation tables, per-capita rates, emission.

Every table is a fold over exposure records -- one record per
(id, document, source URL) co-occurrence -- so row counts stay consistent
across dimensions.  ``report`` makes one pass over a store's occurrences in
key order: each ID's run of records goes into one fold, which builds every
table, and into the listing, which is written as the pass goes.  Percent
arithmetic is decimal with round-half-up at a fixed number of places, which
keeps emission byte-deterministic.

``TABLES`` maps each report table name to the dimension of each table it
writes, and ``FORMATS`` maps each output format to the functions that write
its files.  Markdown and CSV write an aggregate table and the exposure
listing alike, from their columns and string cells; JSON has one payload
shape for each.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, fields, replace
from decimal import ROUND_HALF_UP, Decimal, localcontext
from itertools import chain, groupby, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Optional, TextIO

from .domains import ClassificationError, DomainInfo, PublicSuffixList, classify_url, default_suffix_list
from .geo import GeoRegistry
from .store import ExposureOccurrence
from .thai_id import pseudonymize, salt_id

BASE_COLUMNS = ("key", "urls", "files", "fqdns", "registered_domains", "unique_ids")
GEO_COLUMNS = ("key", "name", "unique_ids", "population", "percent")
REPEAT_COLUMNS = ("key", "unique_ids", "percent")


@dataclass(slots=True)  # not frozen: a frozen __init__ costs 3x, once per occurrence
class ExposureRecord:
    """One (id, document, URL) co-occurrence with its source classified."""

    digits: str
    sha256: str
    url: str
    query: str
    engine: str
    file_type: str
    domain: DomainInfo


# dimension -> the key of a record's source (document, URL, query, type, host)
_SOURCE_KEY_OF: dict[str, Callable[[ExposureRecord], str]] = {
    "file_type": lambda r: r.file_type,
    "tld": lambda r: r.domain.tld_class,
    # IP literals have no registered domain; they rank by their literal
    "registered_domain": lambda r: r.domain.registered_domain or r.domain.fqdn,
    "owner_tag": lambda r: r.domain.owner_tag or "(untagged)",
    "query": lambda r: r.query,
}
# dimension -> the key of an ID, from its digits and how many distinct URLs
# carry it
_ID_KEY_OF: dict[str, Callable[[str, int], str]] = {
    "category_digit": lambda digits, urls: digits[0],
    "province": lambda digits, urls: digits[1:3],
    "district": lambda digits, urls: digits[1:5],
    "source_multiplicity": lambda digits, urls: str(urls),
}
# the dimensions aggregate() groups by
DIMENSIONS = (*_SOURCE_KEY_OF, "category_digit")


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


def _classify(
    occurrences: Iterable[ExposureOccurrence],
    psl: Optional[PublicSuffixList],
    owner_tags: Optional[dict[str, str]],
    skipped: list[tuple[str, str]],
) -> Iterator[ExposureRecord]:
    """Each occurrence as a record, each distinct URL classified once.

    Occurrences of an unusable URL are left out and added to ``skipped``.
    """
    if psl is None:
        psl = default_suffix_list()
    domains: dict[str, DomainInfo | str] = {}  # url -> its domain, or why it has none
    for occ in occurrences:
        info = domains.get(occ.url)
        if info is None:
            try:
                info = classify_url(occ.url, psl=psl, owner_tags=owner_tags)
            except ClassificationError as exc:
                info = str(exc)
            domains[occ.url] = info
        if isinstance(info, str):
            skipped.append((occ.url, info))
        else:
            yield ExposureRecord(
                occ.digits, occ.sha256, occ.url, occ.query, occ.engine, occ.file_type, info
            )


def build_records(
    occurrences: Iterable[ExposureOccurrence],
    psl: Optional[PublicSuffixList] = None,
    owner_tags: Optional[dict[str, str]] = None,
) -> tuple[list[ExposureRecord], list[tuple[str, str]]]:
    """Classify each distinct URL once; occurrences of unusable URLs are skipped and reported."""
    skipped: list[tuple[str, str]] = []
    return list(_classify(occurrences, psl, owner_tags, skipped)), skipped


_DIGITS = attrgetter("digits")
# the listing's order, which is also the order ResultStore.occurrences() yields
_LISTING_ORDER = attrgetter("digits", "sha256", "url", "query")


_Run = tuple[str, list[ExposureRecord]]  # an ID and its records


def _runs(records: Iterable[ExposureRecord]) -> Iterator[_Run]:
    """Each ID with its records, from records sorted by ID."""
    last = None
    for digits, run in groupby(records, key=_DIGITS):
        if last is not None and digits <= last:
            raise ValueError("records are not sorted by ID")
        last = digits
        yield digits, list(run)


def _row(key: str, sources: Iterable[ExposureRecord], unique_ids: int) -> AggregateRow:
    sources = list(sources)
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

    It keeps the first record of each distinct source (document, URL, query,
    type), per key of each dimension the number of IDs that reach the key,
    and per key of an ID dimension the sources those IDs reach: state
    bounded by sources and keys, not by IDs.  A key's URL, file, FQDN and
    registered-domain counts come from its distinct sources, and its
    unique_ids counts each ID that reaches it once.
    """

    def __init__(self) -> None:
        self.ids = 0
        self._sources: list[ExposureRecord] = []
        self._index: dict[tuple[str, ...], int] = {}  # source -> its position in _sources
        self._ids: dict[str, dict[str, int]] = {d: {} for d in (*_SOURCE_KEY_OF, *_ID_KEY_OF)}
        self._reached: dict[str, dict[str, set[int]]] = {d: {} for d in _ID_KEY_OF}

    def add(self, digits: str, run: list[ExposureRecord]) -> None:
        sources, index = self._sources, self._index
        reach = set()
        for r in run:
            source = (r.sha256, r.url, r.query, r.file_type)
            i = index.get(source)
            if i is None:
                i = index[source] = len(sources)
                sources.append(r)
            reach.add(i)
        for dimension, key_of in _SOURCE_KEY_OF.items():
            ids = self._ids[dimension]
            for key in {key_of(r) for r in run}:
                ids[key] = ids.get(key, 0) + 1
        urls = len({r.url for r in run})
        for dimension, key_of in _ID_KEY_OF.items():
            key = key_of(digits, urls)
            ids, reached = self._ids[dimension], self._reached[dimension]
            ids[key] = ids.get(key, 0) + 1
            if key in reached:
                reached[key] |= reach
            else:
                reached[key] = set(reach)
        self.ids += 1

    def feed(self, runs: Iterable[_Run]) -> Iterator[_Run]:
        """The runs, each added to the fold as it passes."""
        for digits, run in runs:
            self.add(digits, run)
            yield digits, run

    def rows(self, dimension: str) -> list[AggregateRow]:
        """One row of distinct counts per key of the dimension, unsorted."""
        reached = self._reached.get(dimension)
        if reached is None:
            # every source is reached by an ID, so a key of a source
            # dimension reaches every source under it
            reached = {}
            key_of = _SOURCE_KEY_OF[dimension]
            for i, source in enumerate(self._sources):
                reached.setdefault(key_of(source), set()).add(i)
        return [_row(key, (self._sources[i] for i in reached[key]), ids)
                for key, ids in self._ids[dimension].items()]


def _folded(records: Iterable[ExposureRecord]) -> _Fold:
    """The fold of records in any order: sorted stably by ID, linear when they already are."""
    fold = _Fold()
    for digits, run in _runs(sorted(records, key=_DIGITS)):
        fold.add(digits, run)
    return fold


def _finish(
    dimension: str,
    rows: list[AggregateRow],
    registry: Optional[GeoRegistry] = None,
    geo_sort: str = "count",
) -> AggregateTable:
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


def aggregate(records: Iterable[ExposureRecord], dimension: str) -> AggregateTable:
    """Distinct-count table grouped by the dimension, most-exposed rows first."""
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension {dimension!r}; expected one of {DIMENSIONS}")
    return _finish(dimension, _folded(records).rows(dimension))


def geographic_report(
    records: Iterable[ExposureRecord],
    registry: GeoRegistry,
    sort: str = "count",
) -> tuple[AggregateTable, AggregateTable]:
    """(province, district) tables with per-capita percents where known.

    The area key comes from the ID itself (digits 2-3 province, 2-5 district),
    not from where the document was hosted.  Percent = 100 x unique IDs /
    resident count, half-up at 2 decimals; areas with no exposed IDs have no
    row.  ``sort`` is "count" or "percent".
    """
    fold = _folded(records)
    province, district = (_finish(dim, fold.rows(dim), registry, sort) for dim in ("province", "district"))
    return province, district


def repeat_exposure(records: Iterable[ExposureRecord]) -> AggregateTable:
    """IDs grouped by how many distinct URLs carry them, highest first.

    Percent is of all unique IDs, half-up at 4 decimals.
    """
    return _finish("source_multiplicity", _folded(records).rows("source_multiplicity"))


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
    """Per-occurrence detail rows; the id column is tokens unless unredacted.

    ``rows`` is a tuple, except inside ``report``, where it is a stream that
    is written once, as it is made.
    """

    rows: Iterable[tuple[str, ...]]
    redacted: bool
    salt_id: Optional[str] = None
    columns: ClassVar[tuple[str, ...]] = LISTING_COLUMNS

    def cells(self) -> Iterable[tuple[str, ...]]:
        return self.rows


def _listing(runs: Iterable[_Run], salt: Optional[bytes], unredacted: bool) -> ExposureListing:
    """The listing of runs sorted by (digits, sha256, url, query), its rows a stream."""
    if not unredacted and not salt:
        raise ValueError("redacted listing needs a salt")

    def rows() -> Iterator[tuple[str, ...]]:
        for digits, run in runs:
            # each ID's token is computed once for all its rows
            shown = digits if unredacted else pseudonymize(digits, salt).token
            for r in run:
                yield (shown, r.domain.tld_class, r.domain.registered_domain or "",
                       r.url, r.file_type, r.query)

    stream = rows()
    first = next(stream, None)
    if first is None:
        return ExposureListing(rows=(), redacted=not unredacted)
    return ExposureListing(rows=chain((first,), stream), redacted=not unredacted,
                           salt_id=None if unredacted else salt_id(salt))


def exposure_listing(
    records: Iterable[ExposureRecord],
    salt: Optional[bytes],
    unredacted: bool = False,
) -> ExposureListing:
    """Detail listing; IDs become keyed-hash tokens unless explicitly unredacted."""
    listing = _listing(_runs(sorted(records, key=_LISTING_ORDER)), salt, unredacted)
    return replace(listing, rows=tuple(listing.rows))


# --- emission -----------------------------------------------------------------

def _markdown_cell(text: str) -> str:
    text = text.replace("\\", "\\\\").replace("|", "\\|")
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _markdown_lines(grid: AggregateTable | ExposureListing) -> Iterator[str]:
    """Pipe table of ``grid.columns`` over ``grid.cells()``.

    A backslash in a cell is written ``\\\\``, a pipe ``\\|`` and a line
    break a space, so no cell can split its row.  The cells after a row's
    first are escaped once for all rows that repeat them, as a listing's
    rows from one source do.
    """
    tails: dict[tuple[str, ...], str] = {}
    for cells in chain((grid.columns, ("---",) * len(grid.columns)), grid.cells()):
        tail = tuple(cells[1:])
        text = tails.get(tail)
        if text is None:
            text = tails[tail] = "".join(" | " + _markdown_cell(c) for c in tail)
        yield "| " + _markdown_cell(cells[0]) + text + " |\n"


def _write_lines(lines: Iterable[str], fh: TextIO) -> None:
    # a few thousand lines per write: one write per line costs more than
    # making the lines, and the whole text at once costs memory
    lines = iter(lines)
    while text := "".join(islice(lines, 4096)):
        fh.write(text)


def _write_markdown(grid: AggregateTable | ExposureListing, fh: TextIO) -> None:
    _write_lines(_markdown_lines(grid), fh)


def _write_csv(grid: AggregateTable | ExposureListing, fh: TextIO) -> None:
    csv.writer(fh, lineterminator="\n").writerows(chain((grid.columns,), grid.cells()))


def render_markdown(grid: AggregateTable | ExposureListing) -> str:
    return "".join(_markdown_lines(grid))


def render_csv(grid: AggregateTable | ExposureListing) -> str:
    buf = io.StringIO()
    _write_csv(grid, buf)
    return buf.getvalue()


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


def _json_listing_lines(listing: ExposureListing) -> Iterator[str]:
    """The listing as ``json.dumps(..., ensure_ascii=False, indent=2)`` writes it, a row at a time."""
    text = json.dumps({"redacted": listing.redacted, "salt_id": listing.salt_id,
                       "columns": list(listing.columns), "rows": []}, ensure_ascii=False, indent=2) + "\n"
    encode = json.JSONEncoder(ensure_ascii=False).encode
    # the rows go inside the '[]' that text ends with, each two levels deep
    sep = text[:-len("]\n}\n")] + "\n"
    for row in listing.cells():
        yield sep + "    [\n      " + ",\n      ".join(map(encode, row)) + "\n    ]"
        sep = ",\n"
    yield text if sep != ",\n" else "\n  ]\n}\n"


def render_listing_json(listing: ExposureListing) -> str:
    return "".join(_json_listing_lines(listing))


# format -> (file extension, table writer, listing writer); a writer writes
# its table or listing to an open text file
FORMATS: dict[str, tuple[str, Callable, Callable]] = {
    "markdown": ("md", _write_markdown, _write_markdown),
    "csv": ("csv", _write_csv, _write_csv),
    "json": ("json", lambda table, fh: fh.write(table_to_json(table)),
             lambda listing, fh: _write_lines(_json_listing_lines(listing), fh)),
}


def emit_report(
    tables: dict[str, AggregateTable],
    out_dir: str | Path,
    fmt: str = "markdown",
    listing: Optional[ExposureListing] = None,
) -> list[Path]:
    """Write one file per table (plus optional detail listing); deterministic bytes.

    Each file is written under a temporary name and renamed into place when
    it is whole, so a write that fails part-way leaves no partial file.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {sorted(FORMATS)}")
    ext, write_table, write_listing = FORMATS[fmt]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(out / f"{name}.{ext}", write_table, tables[name]) for name in sorted(tables)]
    if listing is not None:
        jobs.append((out / f"exposures.{ext}", write_listing, listing))
    for path, write, grid in jobs:
        part = path.with_name(path.name + ".part")
        try:
            with part.open("w", encoding="utf-8") as fh:
                write(grid, fh)
            os.replace(part, path)
        finally:
            part.unlink(missing_ok=True)
    return [path for path, _, _ in jobs]


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
    ``ResultStore.occurrences()`` yields them.  Each ID's run of records goes
    into one fold that builds every table, and into the listing, which is
    written as the pass goes; no list of occurrences or records is kept.
    Returns the files written, the skipped (url, reason) pairs and the
    number of IDs.
    """
    names = list(names)
    skipped: list[tuple[str, str]] = []
    fold = _Fold()
    runs = fold.feed(_runs(_classify(occurrences, None, owner_tags, skipped)))
    written = []
    if "exposures" in names:
        written = emit_report({}, out_dir, fmt, listing=_listing(runs, salt, unredacted))
    else:
        for _ in runs:
            pass
    tables = {
        stem: _finish(dim, fold.rows(dim), registry, geo_sort)
        for name in names for stem, dim in TABLES[name].items()
    }
    return emit_report(tables, out_dir, fmt) + written, skipped, fold.ids

"""Exposure analytics: aggregation tables, per-capita rates, emission.

Every table is a fold over exposure records -- one record per
(id, document, source URL) co-occurrence -- so row counts stay consistent
across dimensions.  Percent arithmetic is decimal with round-half-up at a
fixed number of places, which keeps emission byte-deterministic.

``TABLES`` maps each report table name to the builder of its table(s), and
``FORMATS`` maps each output format to its renderers.  Markdown and CSV
render an aggregate table and the exposure listing alike, from their
columns and string cells; JSON has one payload shape for each.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, replace
from decimal import ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Optional, Sequence

from .domains import ClassificationError, DomainInfo, PublicSuffixList, classify_url
from .geo import GeoRegistry
from .store import ExposureOccurrence
from .thai_id import pseudonymize

BASE_COLUMNS = ("key", "urls", "files", "fqdns", "registered_domains", "unique_ids")
GEO_COLUMNS = ("key", "name", "unique_ids", "population", "percent")
REPEAT_COLUMNS = ("key", "unique_ids", "percent")


@dataclass(frozen=True)
class ExposureRecord:
    """One (id, document, URL) co-occurrence with its source classified."""

    digits: str
    sha256: str
    url: str
    query: str
    engine: str
    file_type: str
    domain: DomainInfo


# dimension -> the key a record is grouped under in that dimension
_KEY_OF: dict[str, Callable[[ExposureRecord], str]] = {
    "file_type": lambda r: r.file_type,
    "tld": lambda r: r.domain.tld_class,
    # IP literals have no registered domain; they rank by their literal
    "registered_domain": lambda r: r.domain.registered_domain or r.domain.fqdn,
    "owner_tag": lambda r: r.domain.owner_tag or "(untagged)",
    "query": lambda r: r.query,
    "category_digit": lambda r: r.digits[0],
}
DIMENSIONS = tuple(_KEY_OF)


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


def build_records(
    occurrences: Iterable[ExposureOccurrence],
    psl: Optional[PublicSuffixList] = None,
    owner_tags: Optional[dict[str, str]] = None,
) -> tuple[list[ExposureRecord], list[tuple[str, str]]]:
    """Classify every occurrence's URL; unusable URLs are skipped and reported."""
    records: list[ExposureRecord] = []
    skipped: list[tuple[str, str]] = []
    cache: dict[str, DomainInfo] = {}
    for occ in occurrences:
        info = cache.get(occ.url)
        if info is None:
            try:
                info = classify_url(occ.url, psl=psl, owner_tags=owner_tags)
            except ClassificationError as exc:
                skipped.append((occ.url, str(exc)))
                continue
            cache[occ.url] = info
        records.append(
            ExposureRecord(
                digits=occ.digits, sha256=occ.sha256, url=occ.url, query=occ.query,
                engine=occ.engine, file_type=occ.file_type, domain=info,
            )
        )
    return records, skipped


def _count_groups(
    records: Sequence[ExposureRecord], key_of: Callable[[ExposureRecord], str]
) -> list[AggregateRow]:
    """One row of distinct counts per key, for the records grouped under it."""
    groups: dict[str, list[ExposureRecord]] = {}
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


def aggregate(records: Sequence[ExposureRecord], dimension: str) -> AggregateTable:
    """Distinct-count table grouped by the dimension, most-exposed rows first."""
    key_of = _KEY_OF.get(dimension)
    if key_of is None:
        raise ValueError(f"unknown dimension {dimension!r}; expected one of {DIMENSIONS}")
    rows = sorted(_count_groups(records, key_of), key=lambda r: (-r.unique_ids, r.key))
    return AggregateTable(dimension=dimension, rows=tuple(rows))


def geographic_report(
    records: Sequence[ExposureRecord],
    registry: GeoRegistry,
    sort: str = "count",
) -> tuple[AggregateTable, AggregateTable]:
    """(province, district) tables with per-capita percents where known.

    The area key comes from the ID itself (digits 2-3 province, 2-5 district),
    not from where the document was hosted.  Percent = 100 x unique IDs /
    resident count, half-up at 2 decimals; areas with no exposed IDs have no
    row.  ``sort`` is "count" or "percent".
    """
    if sort not in ("count", "percent"):
        raise ValueError("sort must be 'count' or 'percent'")

    def table(
        key_of: Callable[[ExposureRecord], str], name_of: Callable[[str], Optional[str]], dim: str
    ) -> AggregateTable:
        rows = []
        for row in _count_groups(records, key_of):
            population = registry.population.get(row.key)
            percent = percent_of(row.unique_ids, population, 2) if population else None
            rows.append(replace(row, name=name_of(row.key), population=population, percent=percent))
        if sort == "count":
            rows.sort(key=lambda r: (-r.unique_ids, r.key))
        else:
            rows.sort(key=lambda r: (r.percent is None, -(r.percent or 0), r.key))
        return AggregateTable(dimension=dim, rows=tuple(rows), columns=GEO_COLUMNS)

    province = table(
        lambda r: r.digits[1:3],
        lambda c: p.name if (p := registry.lookup_province(c)) else None,
        "province",
    )
    district = table(
        lambda r: r.digits[1:5],
        lambda c: x.name if (x := registry.lookup_district(c)) else None,
        "district",
    )
    return province, district


def repeat_exposure(records: Sequence[ExposureRecord]) -> AggregateTable:
    """IDs grouped by how many distinct URLs carry them, highest first.

    Percent is of all unique IDs, half-up at 4 decimals.
    """
    urls_per_id: dict[str, set[str]] = {}
    for record in records:
        urls_per_id.setdefault(record.digits, set()).add(record.url)
    # the group for m holds exactly the IDs with m URLs, so its unique_ids
    # is how many IDs have m URLs
    rows = sorted(
        _count_groups(records, lambda r: str(len(urls_per_id[r.digits]))), key=lambda r: -int(r.key)
    )
    rows = [replace(row, percent=percent_of(row.unique_ids, len(urls_per_id), 4)) for row in rows]
    return AggregateTable(dimension="source_multiplicity", rows=tuple(rows), columns=REPEAT_COLUMNS)


# --- report tables ------------------------------------------------------------

TableBuilder = Callable[[Sequence[ExposureRecord], GeoRegistry, str], dict[str, AggregateTable]]


def _aggregate_by(name: str, dimension: str) -> TableBuilder:
    return lambda records, registry, geo_sort: {name: aggregate(records, dimension)}


def _geo_tables(records, registry, geo_sort) -> dict[str, AggregateTable]:
    province, district = geographic_report(records, registry, sort=geo_sort)
    return {"geo_province": province, "geo_district": district}


# report table name -> builder(records, registry, geo_sort) of the tables it
# writes, keyed by file stem.  "exposures" writes no table: it names the
# per-ID listing, which exposure_listing builds because it needs the salt.
TABLES: dict[str, TableBuilder] = {
    "filetype": _aggregate_by("filetype", "file_type"),
    "tld": _aggregate_by("tld", "tld"),
    "domain": _aggregate_by("domain", "registered_domain"),
    "owner": _aggregate_by("owner", "owner_tag"),
    "query": _aggregate_by("query", "query"),
    "category": _aggregate_by("category", "category_digit"),
    "geo": _geo_tables,
    "repeat": lambda records, registry, geo_sort: {"repeat": repeat_exposure(records)},
    "exposures": lambda records, registry, geo_sort: {},
}


LISTING_COLUMNS = ("id", "tld_class", "registered_domain", "url", "file_type", "query")


@dataclass(frozen=True)
class ExposureListing:
    """Per-occurrence detail rows; the id column is tokens unless unredacted."""

    rows: tuple[tuple[str, ...], ...]
    redacted: bool
    salt_id: Optional[str] = None
    columns: ClassVar[tuple[str, ...]] = LISTING_COLUMNS

    def cells(self) -> Iterable[tuple[str, ...]]:
        return self.rows


def exposure_listing(
    records: Sequence[ExposureRecord],
    salt: Optional[bytes],
    unredacted: bool = False,
) -> ExposureListing:
    """Detail listing; IDs become keyed-hash tokens unless explicitly unredacted."""
    if not unredacted and not salt:
        raise ValueError("redacted listing needs a salt")
    rows = []
    salt_id = None
    digits = shown = None
    # sorted by digits, so each ID's token is computed once and reused
    for record in sorted(records, key=lambda r: (r.digits, r.sha256, r.url, r.query)):
        if record.digits != digits:
            digits = record.digits
            if unredacted:
                shown = digits
            else:
                token = pseudonymize(digits, salt)
                shown, salt_id = token.token, token.salt_id
        rows.append(
            (shown, record.domain.tld_class, record.domain.registered_domain or "",
             record.url, record.file_type, record.query)
        )
    return ExposureListing(rows=tuple(rows), redacted=not unredacted, salt_id=salt_id)


# --- emission -----------------------------------------------------------------

def _markdown_cell(text: str) -> str:
    text = text.replace("\\", "\\\\").replace("|", "\\|")
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def render_markdown(grid: AggregateTable | ExposureListing) -> str:
    """Pipe table of ``grid.columns`` over ``grid.cells()``.

    A backslash in a cell is written ``\\\\``, a pipe ``\\|`` and a line
    break a space, so no cell can split its row.
    """
    lines = [grid.columns, ["---"] * len(grid.columns), *grid.cells()]
    return "".join("| " + " | ".join(map(_markdown_cell, cells)) + " |\n" for cells in lines)


def render_csv(grid: AggregateTable | ExposureListing) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(grid.columns)
    writer.writerows(grid.cells())
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


def render_listing_json(listing: ExposureListing) -> str:
    payload = {
        "redacted": listing.redacted,
        "salt_id": listing.salt_id,
        "columns": list(listing.columns),
        "rows": [list(r) for r in listing.rows],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


# format -> (file extension, table renderer, listing renderer)
FORMATS = {
    "markdown": ("md", render_markdown, render_markdown),
    "csv": ("csv", render_csv, render_csv),
    "json": ("json", table_to_json, render_listing_json),
}


def emit_report(
    tables: dict[str, AggregateTable],
    out_dir: str | Path,
    fmt: str = "markdown",
    listing: Optional[ExposureListing] = None,
) -> list[Path]:
    """Write one file per table (plus optional detail listing); deterministic bytes."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {sorted(FORMATS)}")
    ext, render_table, render_listing = FORMATS[fmt]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in sorted(tables):
        path = out / f"{name}.{ext}"
        path.write_text(render_table(tables[name]), encoding="utf-8")
        written.append(path)
    if listing is not None:
        path = out / f"exposures.{ext}"
        path.write_text(render_listing(listing), encoding="utf-8")
        written.append(path)
    return written

"""Operator command surface.

    idsweep id validate <number>        stage-by-stage check of one ID
    idsweep plan build ...              render a query plan to JSON
    idsweep scan run ...                execute a plan against a provider
    idsweep report ...                  emit aggregate tables from a store

Exit codes are uniform: 0 success, 1 domain-negative (ID rejected, nothing
found), 2 operator or I/O error, including a scan that left documents
unreadable.  Every crawl knob is settable by flag or by IDSWEEP_* environment
variable or by a JSON config file; flags win over the environment, which wins
over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Optional, Sequence

from . import reports
from .extract import default_extractors, load_extractor_config
from .geo import GeoRegistry, RegistryError, default_registry, load_registry_file
from .harvest import CrawlConfig
from .pipeline import run_scan
from .providers import FixtureProvider, HttpProvider, ProviderDisabled
from .queries import (
    QueryError,
    QueryPlan,
    build_plan_from_templates,
    load_bindings,
    load_plan_file,
    load_templates,
    plan_to_json,
)
from .store import ResultStore
from .thai_id import decode, normalize_numerals, validate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

ENV_PREFIX = "IDSWEEP_"

_CRAWL_FIELDS = {
    "search_delay": float,
    "download_timeout": float,
    "download_max_retry": int,
    "max_pages": int,
    "download_workers": int,
    "max_object_bytes": int,
    "accepted_types": lambda s: frozenset(t.strip() for t in s.split(",") if t.strip()),
}

TABLE_NAMES = ("filetype", "tld", "domain", "owner", "query", "category", "geo", "repeat", "exposures")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_registry(path: Optional[str]) -> GeoRegistry:
    return load_registry_file(path) if path else default_registry()


def _resolve_crawl_config(args, file_config: dict) -> CrawlConfig:
    """flag > environment > config file > dataclass default, per field."""
    chosen = {}
    for name, parse in _CRAWL_FIELDS.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            chosen[name] = parse(flag_value) if isinstance(flag_value, str) else flag_value
            continue
        env_value = os.environ.get(ENV_PREFIX + name.upper())
        if env_value is not None:
            chosen[name] = parse(env_value)
            continue
        if name in file_config:
            raw = file_config[name]
            chosen[name] = parse(raw) if isinstance(raw, str) else raw
    defaults = {f.name: getattr(CrawlConfig(), f.name) for f in dataclass_fields(CrawlConfig)}
    defaults.update(chosen)
    if isinstance(defaults["accepted_types"], (list, tuple)):
        defaults["accepted_types"] = frozenset(defaults["accepted_types"])
    return CrawlConfig(**defaults)


def _load_file_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return data


def _read_salt(args) -> Optional[bytes]:
    if getattr(args, "salt_file", None):
        return Path(args.salt_file).read_bytes().strip() or None
    env = os.environ.get(ENV_PREFIX + "SALT")
    if env:
        return env.encode("utf-8")
    return None


class _StoreLock:
    """Exclusive ownership of a store directory for one CLI invocation."""

    def __init__(self, store_dir: Path):
        self.path = store_dir / ".lock"
        self._fd: Optional[int] = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"store is locked by another run (remove {self.path} if stale)"
            ) from None
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            self.path.unlink(missing_ok=True)


# --- id validate -----------------------------------------------------------------

def cmd_id_validate(args) -> int:
    try:
        registry = _load_registry(args.registry)
    except (OSError, RegistryError) as exc:
        return _fail(str(exc))
    digits = re.sub(r"[- ]", "", normalize_numerals(args.number))
    outcome = validate(digits, registry)
    reached_failure = False
    for name, ok in outcome.stages():
        if reached_failure:
            print(f"{name:9s}skipped")
            continue
        print(f"{name:9s}{'pass' if ok else 'fail'}")
        reached_failure = not ok
    if not outcome.accepted:
        return EXIT_NEGATIVE
    decoded = decode(digits, registry)
    print(f"category {decoded.category}: {decoded.category_description}")
    print(f"area     {decoded.district_name} / {decoded.province_name}"
          f" (district {decoded.district_code}, province {decoded.province_code})")
    print(f"serial   {decoded.sequence}  check digit {decoded.check_digit}")
    return EXIT_OK


# --- plan build ---------------------------------------------------------------------

def cmd_plan_build(args) -> int:
    try:
        if args.queries:
            plan = QueryPlan(
                queries=tuple(args.queries),
                engines=tuple(args.engines.split(",")),
                max_pages=args.max_pages,
                tags=tuple(t for t in args.tags.split(",") if t) if args.tags else (),
            )
        elif args.templates:
            bindings = load_bindings(args.bindings) if args.bindings else None
            plan = build_plan_from_templates(
                load_templates(args.templates),
                bindings,
                engines=tuple(args.engines.split(",")),
                max_pages=args.max_pages,
                tags=tuple(t for t in args.tags.split(",") if t) if args.tags else (),
            )
        else:
            return _fail("plan build needs --queries or --templates")
    except (OSError, QueryError, ValueError) as exc:
        return _fail(str(exc))
    text = plan_to_json(plan)
    if args.out:
        Path(args.out).write_text(text + "\n", "utf-8")
    else:
        print(text)
    return EXIT_OK


# --- scan run -------------------------------------------------------------------------

def _make_provider(args):
    if args.provider == "fixture":
        if not args.fixture:
            raise ValueError("fixture provider needs --fixture <corpus dir or index.json>")
        index = Path(args.fixture)
        if index.is_dir():
            index = index / "index.json"
        return FixtureProvider(index)
    if args.provider == "http":
        key = args.http_key or os.environ.get(ENV_PREFIX + "HTTP_KEY")
        return HttpProvider(
            endpoint=args.http_endpoint or "",
            api_key=key,
            acknowledge_live_traffic=args.i_accept_risk,
        )
    raise ValueError(f"unknown provider {args.provider!r}")


def cmd_scan_run(args) -> int:
    try:
        file_config = _load_file_config(args.config)
        config = _resolve_crawl_config(args, file_config)
        registry = _load_registry(args.registry)
        extractors = (
            load_extractor_config(args.extractors) if args.extractors else default_extractors()
        )
        plan = load_plan_file(args.plan)
        provider = _make_provider(args)
    except (OSError, RegistryError, QueryError, ValueError) as exc:
        return _fail(str(exc))
    except ProviderDisabled as exc:
        return _fail(str(exc))

    store_dir = Path(args.store)
    try:
        with _StoreLock(store_dir):
            with ResultStore(store_dir) as store:
                summary = run_scan(plan, provider, config, store, registry, extractors)
                for kind, subject, detail in store.diagnostics():
                    print(f"warning: {kind}: {subject}: {detail}", file=sys.stderr)
    except RuntimeError as exc:
        return _fail(str(exc))
    print(summary.line())
    if summary.unreadable:
        return EXIT_USAGE  # a partial scan; the warnings above say which documents
    if summary.hits == 0:
        print("no results for any query", file=sys.stderr)
        return EXIT_NEGATIVE
    if summary.downloads_ok == 0:
        print("every download failed", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# --- report ------------------------------------------------------------------------------

def _build_tables(store: ResultStore, registry: GeoRegistry, names: list[str], geo_sort: str,
                  owner_tags: Optional[dict[str, str]]):
    occurrences = store.load_occurrences()
    records, skipped = reports.build_records(occurrences, owner_tags=owner_tags)
    tables: dict[str, reports.AggregateTable] = {}
    for name in names:
        if name == "filetype":
            tables["filetype"] = reports.aggregate(records, "file_type")
        elif name == "tld":
            tables["tld"] = reports.aggregate(records, "tld")
        elif name == "domain":
            tables["domain"] = reports.aggregate(records, "registered_domain")
        elif name == "owner":
            tables["owner"] = reports.aggregate(records, "owner_tag")
        elif name == "query":
            tables["query"] = reports.aggregate(records, "query")
        elif name == "category":
            tables["category"] = reports.aggregate(records, "category_digit")
        elif name == "geo":
            province, district = reports.geographic_report(records, registry, sort=geo_sort)
            tables["geo_province"] = province
            tables["geo_district"] = district
        elif name == "repeat":
            tables["repeat"] = reports.repeat_exposure(records)
    return records, tables, skipped


def cmd_report(args) -> int:
    names = [n.strip() for n in args.tables.split(",") if n.strip()]
    unknown = [n for n in names if n not in TABLE_NAMES]
    if unknown:
        return _fail(
            f"unknown table(s) {', '.join(unknown)}; valid names: {', '.join(TABLE_NAMES)}"
        )
    if not names:
        return _fail("no tables requested")
    if args.unredacted and not args.i_accept_risk:
        return _fail("--unredacted exposes raw IDs; add --i-accept-risk to confirm")
    salt = _read_salt(args)
    if salt is None and not (args.unredacted and args.i_accept_risk):
        return _fail(
            "a pseudonymization salt is required (--salt-file or IDSWEEP_SALT);"
            " or pass --unredacted --i-accept-risk to emit raw IDs"
        )
    try:
        registry = _load_registry(args.registry)
        owner_tags = None
        if args.owner_tags:
            from .domains import load_owner_tags

            owner_tags = load_owner_tags(args.owner_tags)
    except (OSError, RegistryError, ValueError) as exc:
        return _fail(str(exc))
    store_dir = Path(args.store)
    if not (store_dir / "store.db").exists():
        return _fail(f"no store at {store_dir}")
    with ResultStore(store_dir) as store:
        records, tables, skipped = _build_tables(
            store, registry, names, args.geo_sort, owner_tags
        )
    for url, reason in skipped:
        print(f"warning: unclassifiable url skipped: {url}: {reason}", file=sys.stderr)
    listing = None
    if "exposures" in names:
        listing = reports.exposure_listing(records, salt, unredacted=args.unredacted)
    try:
        written = reports.emit_report(tables, args.out, fmt=args.format, listing=listing)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    for path in written:
        print(path)
    if not records:
        print("store holds no exposures", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# --- parser -----------------------------------------------------------------------------

def _add_crawl_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--search-delay", dest="search_delay", type=float, default=None)
    parser.add_argument("--download-timeout", dest="download_timeout", type=float, default=None)
    parser.add_argument("--download-max-retry", dest="download_max_retry", type=int, default=None)
    parser.add_argument("--max-pages", dest="max_pages", type=int, default=None)
    parser.add_argument("--download-workers", dest="download_workers", type=int, default=None)
    parser.add_argument("--max-object-bytes", dest="max_object_bytes", type=int, default=None)
    parser.add_argument(
        "--accepted-types", dest="accepted_types", default=None,
        help="comma-separated extensions to keep (default: pdf,xls,xlsx,doc,docx,txt,csv,html)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idsweep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("id", help="single-ID operations")
    id_sub = p_id.add_subparsers(dest="id_command", required=True)
    p_validate = id_sub.add_parser("validate", help="stage-by-stage validation of one number")
    p_validate.add_argument("number")
    p_validate.add_argument("--registry", default=None, help="area registry file (default: bundled)")
    p_validate.set_defaults(func=cmd_id_validate)

    p_plan = sub.add_parser("plan", help="query-plan operations")
    plan_sub = p_plan.add_subparsers(dest="plan_command", required=True)
    p_build = plan_sub.add_parser("build", help="render a plan to JSON")
    p_build.add_argument("--queries", nargs="+", default=None, help="literal query strings")
    p_build.add_argument("--templates", default=None, help="template file, one query template per line")
    p_build.add_argument("--bindings", default=None, help="delimited binding table for template slots")
    p_build.add_argument("--engines", default="google")
    p_build.add_argument("--max-pages", dest="max_pages", type=int, default=10)
    p_build.add_argument("--tags", default="")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_plan_build)

    p_scan = sub.add_parser("scan", help="run the pipeline")
    scan_sub = p_scan.add_subparsers(dest="scan_command", required=True)
    p_run = scan_sub.add_parser("run", help="execute a plan against a provider")
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--store", required=True)
    p_run.add_argument("--registry", default=None)
    p_run.add_argument("--extractors", default=None, help="extractor config JSON")
    p_run.add_argument("--config", default=None, help="JSON config mirroring these flags")
    p_run.add_argument("--provider", choices=("fixture", "http"), default="fixture")
    p_run.add_argument("--fixture", default=None, help="corpus directory or index.json")
    p_run.add_argument("--http-endpoint", default=None)
    p_run.add_argument("--http-key", default=None)
    p_run.add_argument("--i-accept-risk", action="store_true",
                       help="required to let the http provider touch the network")
    _add_crawl_flags(p_run)
    p_run.set_defaults(func=cmd_scan_run)

    p_report = sub.add_parser("report", help="emit aggregate tables from a store")
    p_report.add_argument("--store", required=True)
    p_report.add_argument("--tables", default="filetype,tld,geo,repeat",
                          help=f"comma-separated from: {', '.join(TABLE_NAMES)}")
    p_report.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p_report.add_argument("--out", required=True, help="output directory")
    p_report.add_argument("--registry", default=None)
    p_report.add_argument("--geo-sort", dest="geo_sort", choices=("count", "percent"), default="count")
    p_report.add_argument("--owner-tags", dest="owner_tags", default=None,
                          help="domain,tag file for the owner dimension")
    p_report.add_argument("--salt-file", dest="salt_file", default=None,
                          help="file whose bytes key the ID pseudonymization")
    p_report.add_argument("--unredacted", action="store_true",
                          help="emit raw IDs instead of tokens (needs --i-accept-risk)")
    p_report.add_argument("--i-accept-risk", action="store_true")
    p_report.set_defaults(func=cmd_report)

    return parser


def entry(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(entry())

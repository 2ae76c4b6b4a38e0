"""Operator command surface.

    idsweep id validate <number>        stage-by-stage check of one ID
    idsweep plan build ...              render a query plan to JSON
    idsweep scan run ...                execute a plan against a provider
    idsweep report ...                  emit aggregate tables from a store

Exit codes are uniform: 0 success, 1 domain-negative (ID rejected, nothing
found), 2 operator or I/O error, including a scan that left documents
unreadable.

Every CrawlConfig field is a crawl knob: field ``x_y`` is set by the flag
``--x-y``, the environment variable ``IDSWEEP_X_Y`` or the key ``x_y`` of a
JSON config file, and flags win over the environment, which wins over the
file.  A value is read as the type of the field's default (a set field takes
comma-separated names); an unknown config key or a value of the wrong type
exits 2 naming the flag, variable or key.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import json
import os
import re
import sqlite3
import sys
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

# (config key, --flag, environment variable) for every CrawlConfig field
CRAWL_KNOBS = tuple(
    (f.name, "--" + f.name.replace("_", "-"), ENV_PREFIX + f.name.upper())
    for f in dataclasses.fields(CrawlConfig)
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_registry(path: Optional[str]) -> GeoRegistry:
    return load_registry_file(path) if path else default_registry()


def _knob_value(value, default):
    """A flag, env var or config value as the type of the knob's default.

    Text is parsed (a set knob takes comma-separated names); any other JSON
    value must already have the default's type.
    """
    if isinstance(default, frozenset):
        if isinstance(value, str):
            return frozenset(t.strip() for t in value.split(",") if t.strip())
        if isinstance(value, list) and all(isinstance(t, str) for t in value):
            return value  # CrawlConfig makes it a frozenset
        raise ValueError(f"expected a list of names, got {json.dumps(value)}")
    if isinstance(value, str):
        return type(default)(value)
    if isinstance(value, (int, type(default))) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected {type(default).__name__}, got {json.dumps(value)}")


def _resolve_crawl_config(args, file_config: dict) -> CrawlConfig:
    """flag > environment > config file > dataclass default, per field."""
    keys = [key for key, _, _ in CRAWL_KNOBS]
    unknown = sorted(set(file_config) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; valid keys: {', '.join(keys)}")
    defaults = CrawlConfig()
    chosen = {}
    for key, flag, env in CRAWL_KNOBS:
        for source, value in ((flag, getattr(args, key)), (env, os.environ.get(env)),
                              (f"config key {key}", file_config.get(key))):
            if value is None:
                continue
            try:
                chosen[key] = _knob_value(value, getattr(defaults, key))
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
            break
    return dataclasses.replace(defaults, **chosen)


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
    """Exclusive ownership of a store directory for one CLI invocation.

    An ``flock`` on ``.lock``, which the kernel releases when the process
    ends, however it ends: a file left behind by a run that died blocks
    nothing.
    """

    def __init__(self, store_dir: Path):
        self.path = store_dir / ".lock"
        self._fd: Optional[int] = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while self._fd is None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise RuntimeError(f"store is locked by another run ({self.path})") from None
            # a holder that was releasing may have unlinked the file we locked;
            # the lock counts only on the file that is still at the path
            try:
                same = os.path.samestat(os.fstat(fd), os.stat(self.path))
            except FileNotFoundError:
                same = False
            if same:
                self._fd = fd
            else:
                os.close(fd)
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            self.path.unlink(missing_ok=True)
            os.close(self._fd)
            self._fd = None


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
    intent = {
        "engines": tuple(args.engines.split(",")),
        "max_pages": args.max_pages,
        "tags": tuple(t for t in args.tags.split(",") if t),
    }
    try:
        if args.queries:
            plan = QueryPlan(queries=tuple(args.queries), **intent)
        elif args.templates:
            bindings = load_bindings(args.bindings) if args.bindings else None
            plan = build_plan_from_templates(load_templates(args.templates), bindings, **intent)
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

def _make_provider(args, config: CrawlConfig):
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
            max_bytes=config.max_object_bytes,
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
        provider = _make_provider(args, config)
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
    except sqlite3.Error as exc:
        return _fail(f"store {store_dir}: {exc}")
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

def cmd_report(args) -> int:
    names = [n.strip() for n in args.tables.split(",") if n.strip()]
    unknown = [n for n in names if n not in reports.TABLES]
    if unknown:
        return _fail(
            f"unknown table(s) {', '.join(unknown)}; valid names: {', '.join(reports.TABLES)}"
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
    try:
        # the stream is closed, ending its read transaction, before the store
        with ResultStore(store_dir) as store, contextlib.closing(store.occurrences()) as occurrences:
            written, skipped, ids = reports.report(
                occurrences, names, registry, args.out, fmt=args.format,
                geo_sort=args.geo_sort, salt=salt, unredacted=args.unredacted, owner_tags=owner_tags,
            )
    except sqlite3.Error as exc:
        return _fail(f"store {store_dir}: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    for url, reason in skipped:
        print(f"warning: unclassifiable url skipped: {url}: {reason}", file=sys.stderr)
    for path in written:
        print(path)
    if not ids:
        print("store holds no exposures", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# --- parser -----------------------------------------------------------------------------

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
    defaults = CrawlConfig()
    for key, flag, env in CRAWL_KNOBS:
        default = getattr(defaults, key)
        shown = ",".join(sorted(default)) if isinstance(default, frozenset) else default
        p_run.add_argument(flag, dest=key, default=None,
                           help=f"default {shown}; also {env} or config key {key}")
    p_run.set_defaults(func=cmd_scan_run)

    p_report = sub.add_parser("report", help="emit aggregate tables from a store")
    p_report.add_argument("--store", required=True)
    p_report.add_argument("--tables", default="filetype,tld,geo,repeat",
                          help=f"comma-separated from: {', '.join(reports.TABLES)}")
    p_report.add_argument("--format", choices=tuple(reports.FORMATS), default="markdown")
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

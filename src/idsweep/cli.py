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
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from .geo import GeoRegistry
    from .harvest import CrawlConfig
    from .store import ExposureRange, ResultStore

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

ENV_PREFIX = "IDSWEEP_"
# what a warning: or error: line writes for each ID that validation accepts: a scan has no salt to token it with
ID_MASK = "<ID>"


@functools.cache
def crawl_knobs() -> tuple[tuple[str, str, str], ...]:
    """(config key, --flag, environment variable) for every CrawlConfig field."""
    from .harvest import CrawlConfig

    return tuple(
        (f.name, "--" + f.name.replace("_", "-"), ENV_PREFIX + f.name.upper())
        for f in dataclasses.fields(CrawlConfig)
    )


def _load(flag: str, path, load: Callable):
    """``load(path)`` of the operator file that ``flag`` named; an error it raises
    is raised again as a ``ValueError`` whose text starts with the flag."""
    try:
        return load(path)
    except (OSError, ValueError, RuntimeError) as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _load_registry(path: Optional[str]) -> GeoRegistry:
    from .geo import default_registry, load_registry_file

    return _load("--registry", path, load_registry_file) if path else default_registry()


def _masking(registry: GeoRegistry) -> Callable[[str], str]:
    """A line with each ID in it that ``registry`` accepts, in any written form, as ``ID_MASK``."""
    from .thai_id import redacting

    return redacting(registry, lambda digits: ID_MASK)


def _knob_value(value, default):
    """A flag, env var or config value as the type of the knob's default.

    Text is parsed (a set knob takes comma-separated names); any other JSON
    value must already have the default's type.
    """
    import json

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
    from .harvest import CrawlConfig

    keys = [key for key, _, _ in crawl_knobs()]
    unknown = sorted(set(file_config) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; valid keys: {', '.join(keys)}")
    defaults = CrawlConfig()
    chosen = {}
    for key, flag, env in crawl_knobs():
        given = [(source, value) for source, value in ((flag, getattr(args, key)), (env, os.environ.get(env)))
                 if value is not None]  # a flag or variable not set is None
        if key in file_config:  # set, and so checked, even to null
            given.append((f"config key {key}", file_config[key]))
        for source, value in given[:1]:
            try:
                chosen[key] = _knob_value(value, getattr(defaults, key))
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
    return dataclasses.replace(defaults, **chosen)


def _load_file_config(path: str) -> dict:
    import json

    data = json.loads(Path(path).read_text("utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return data


def _read_salt(args) -> Optional[bytes]:
    if args.salt_file:
        return _load("--salt-file", Path(args.salt_file), Path.read_bytes).strip() or None
    env = os.environ.get(ENV_PREFIX + "SALT")
    if env:
        return env.encode("utf-8")
    return None


@contextlib.contextmanager
def _store_lock(store_dir: Path, shared: bool = False):
    """Ownership of a store directory for one CLI invocation: exclusive to
    write it (``scan run``), shared to read it (``report``).

    An ``flock`` on ``.lock``, released when the run closes the file or its
    process ends, however it ends.  A run that cannot take it at once fails:
    a scan while anything holds it, a report while a scan does.  The file
    itself stays: it blocks nothing once no process holds the lock.
    """
    path = store_dir / ".lock"
    store_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_CREAT | os.O_RDWR)
    try:
        try:
            fcntl.flock(fd, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"store is locked by another run ({path})") from None
        yield
    finally:
        os.close(fd)


# --- id validate -----------------------------------------------------------------

def cmd_id_validate(args) -> int:
    from .thai_id import decode, find_candidates, normalize_numerals, validate

    registry = _load_registry(args.registry)
    # an ID as the scan reads one; any other text fails the format stage
    number = args.number.strip()
    digits = next((found.normalized for found in find_candidates(number) if found.raw_text == number),
                  normalize_numerals(number))
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
    from .queries import (
        QueryPlan,
        build_plan_from_templates,
        load_bindings,
        load_templates,
        plan_to_json,
    )

    if args.queries:
        plan = QueryPlan(tuple(args.queries))
    elif args.templates:
        bindings = _load("--bindings", args.bindings, load_bindings) if args.bindings else None
        plan = build_plan_from_templates(_load("--templates", args.templates, load_templates), bindings)
    else:
        raise ValueError("plan build needs --queries or --templates")
    text = plan_to_json(plan)
    if args.out:
        Path(args.out).write_text(text + "\n", "utf-8")
    else:
        print(text)
    return EXIT_OK


# --- scan run -------------------------------------------------------------------------

def _make_provider(args, config: CrawlConfig):
    from .domains import ClassificationError, url_host
    from .providers import FixtureProvider, HttpProvider

    if args.provider == "fixture":
        if not args.fixture:
            raise ValueError("fixture provider needs --fixture <corpus dir or index.json>")
        index = Path(args.fixture)
        if index.is_dir():
            index = index / "index.json"
        return _load("--fixture", index, FixtureProvider)
    if not args.http_endpoint:
        raise ValueError("http provider needs --http-endpoint <http or https URL>")
    try:
        url_host(args.http_endpoint)  # refused here, not once per query in a URL that carries the key
    except ClassificationError as exc:
        raise ValueError(f"--http-endpoint: {exc}") from None
    return HttpProvider(
        endpoint=args.http_endpoint,
        api_key=args.http_key or os.environ.get(ENV_PREFIX + "HTTP_KEY"),
        acknowledge_live_traffic=args.i_accept_risk,
        max_bytes=config.max_object_bytes,
    )


def cmd_scan_run(args) -> int:
    from .extract import default_extractors, load_extractor_config
    from .pipeline import run_scan
    from .queries import load_plan_file
    from .store import ResultStore

    config = _resolve_crawl_config(args, _load("--config", args.config, _load_file_config) if args.config else {})
    registry = _load_registry(args.registry)
    extractors = (_load("--extractors", args.extractors, load_extractor_config) if args.extractors
                  else default_extractors())
    plan = _load("--plan", args.plan, load_plan_file)
    provider = _make_provider(args, config)

    store_dir = Path(args.store)
    mask = _masking(registry)  # the store keeps the raw text
    with _store_lock(store_dir), ResultStore(store_dir) as store:
        recorded = len(store.diagnostics())  # by earlier runs into this store
        summary = run_scan(plan, provider, config, store, registry, extractors)
        for kind, subject, detail in store.diagnostics()[recorded:]:
            print(mask(f"warning: {kind}: {subject}: {detail}"), file=sys.stderr)
    print(summary.line())
    if summary.unreadable or summary.partly_read:
        return EXIT_USAGE  # a partial scan; the warnings above say which documents
    if summary.hits == 0:
        print("no results for any query", file=sys.stderr)
        return EXIT_NEGATIVE
    if summary.downloads_ok == 0:
        print("every download failed", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# --- report ------------------------------------------------------------------------------

def _id_ranges(store: ResultStore) -> list[ExposureRange]:
    """The ranges of IDs a report reads, at most one per CPU this process may run on."""
    return store.id_ranges(len(os.sched_getaffinity(0)))


def _in_processes(fn, ranges, *rest) -> list:
    """``map`` of each range in a forked process of its own; returns once every process has ended.

    Each child starts at once with ``fn`` already in its memory, the
    documents the report resolved included, so nothing is sent to it; only
    its result, or the exception it raised, comes back, pickled, through a
    pipe.  It then leaves with ``os._exit``: it flushes none of the buffers
    it inherited and runs no exit handler.  The parent reads each pipe to
    its end, re-raises a child's exception (a ``RuntimeError`` with its text
    if it does not pickle), and reaps every child however it ends, killing
    those whose results it will not read.  Forking is safe here: the
    report's process runs no other thread, and holds no store connection
    open (the one that read the documents is closed by then).
    """
    import pickle
    import signal

    def outcome(args) -> bytes:
        """``fn(*args)``, or the exception it raised, pickled; an exception that does not
        pickle, or not back, as a ``RuntimeError`` with its text."""
        try:
            return pickle.dumps((True, fn(*args)))
        except BaseException as exc:
            try:
                sent = pickle.dumps((False, exc))
                pickle.loads(sent)
                return sent
            except BaseException:
                return pickle.dumps((False, RuntimeError(str(exc))))

    children = {}  # pid -> the read end of its pipe, until the child is reaped
    try:
        for args in zip(ranges, *rest):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: its outcome into the pipe, and out without unwinding the parent's stack
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(outcome(args))
                finally:
                    os._exit(0)
            os.close(write)
            children[pid] = open(read, "rb")
        results = []
        for pid, pipe in list(children.items()):
            with pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            try:
                ok, result = pickle.loads(sent)
            except Exception:
                raise RuntimeError(f"a report range process terminated abruptly (exit code {code})") from None
            if not ok:
                raise result
            results.append(result)
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_report(args) -> int:
    from . import reports
    from .domains import load_owner_tags  # loaded by reports already
    from .store import ResultStore

    names = [n.strip() for n in args.tables.split(",") if n.strip()]
    reports.check_arguments(names, args.geo_sort)
    if not names:
        raise ValueError("no tables requested")
    if args.unredacted and not args.i_accept_risk:
        raise ValueError("--unredacted exposes raw IDs; add --i-accept-risk to confirm")
    salt = _read_salt(args)
    if salt is None and not (args.unredacted and args.i_accept_risk):
        raise ValueError(
            "a pseudonymization salt is required (--salt-file or IDSWEEP_SALT);"
            " or pass --unredacted --i-accept-risk to emit raw IDs"
        )
    registry = _load_registry(args.registry)
    owner_tags = _load("--owner-tags", args.owner_tags, load_owner_tags) if args.owner_tags else None
    store_dir = Path(args.store)
    if not (store_dir / "store.db").exists():
        raise ValueError(f"no store at {store_dir}")
    # the lock keeps the documents the report resolves and every range on one committed store
    with _store_lock(store_dir, shared=True):
        # migrates an older store; closed before any process is forked
        with ResultStore(store_dir) as store:
            ranges = _id_ranges(store)
        written, skipped, ids = reports.report(
            ranges, names, registry, args.out, fmt=args.format, geo_sort=args.geo_sort, salt=salt,
            unredacted=args.unredacted, owner_tags=owner_tags, run=_in_processes if len(ranges) > 1 else map,
        )
    mask = _masking(registry)
    for url, reason in skipped:
        print(mask(f"warning: unclassifiable url skipped: {url}: {reason}"), file=sys.stderr)
    for path in written:
        print(path)
    if not ids:
        print("store holds no exposures", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# --- parser -----------------------------------------------------------------------------

def _id_arguments(p_id: argparse.ArgumentParser) -> None:
    id_sub = p_id.add_subparsers(dest="id_command", required=True)
    p_validate = id_sub.add_parser("validate", help="stage-by-stage validation of one number")
    p_validate.add_argument("number")
    p_validate.add_argument("--registry", default=None, help="area registry file (default: bundled)")
    p_validate.set_defaults(func=cmd_id_validate)


def _plan_arguments(p_plan: argparse.ArgumentParser) -> None:
    plan_sub = p_plan.add_subparsers(dest="plan_command", required=True)
    p_build = plan_sub.add_parser("build", help="render a plan to JSON")
    p_build.add_argument("--queries", nargs="+", default=None, help="literal query strings")
    p_build.add_argument("--templates", default=None, help="template file, one query template per line")
    p_build.add_argument("--bindings", default=None, help="delimited binding table for template slots")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_plan_build)


def _scan_arguments(p_scan: argparse.ArgumentParser) -> None:
    from .harvest import CrawlConfig

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
    for key, flag, env in crawl_knobs():
        default = getattr(defaults, key)
        shown = ",".join(sorted(default)) if isinstance(default, frozenset) else default
        p_run.add_argument(flag, dest=key, default=None,
                           help=f"default {shown}; also {env} or config key {key}")
    p_run.set_defaults(func=cmd_scan_run)


def _report_arguments(p_report: argparse.ArgumentParser) -> None:
    from . import reports

    p_report.add_argument("--store", required=True)
    p_report.add_argument("--tables", default="filetype,tld,geo,repeat",
                          help=f"comma-separated from: {', '.join(reports.TABLES)}")
    p_report.add_argument("--format", choices=tuple(reports.FORMATS), default="markdown")
    p_report.add_argument("--out", required=True, help="output directory")
    p_report.add_argument("--registry", default=None)
    p_report.add_argument("--geo-sort", dest="geo_sort", choices=reports.GEO_SORTS, default="count")
    p_report.add_argument("--owner-tags", dest="owner_tags", default=None,
                          help="domain,tag file for the owner dimension")
    p_report.add_argument("--salt-file", dest="salt_file", default=None,
                          help="file whose bytes key the ID pseudonymization")
    p_report.add_argument("--unredacted", action="store_true",
                          help="emit raw IDs instead of tokens (needs --i-accept-risk)")
    p_report.add_argument("--i-accept-risk", action="store_true")
    p_report.set_defaults(func=cmd_report)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage error masks an ID it echoes (a bad choice, command
    or argument) as ``entry`` masks an ``error:`` line; every subcommand's parser is one too."""

    def error(self, message: str):
        from .geo import default_registry

        super().error(_masking(default_registry())(message))


# command -> (its help, what adds its arguments and subcommands)
_COMMANDS = {
    "id": ("single-ID operations", _id_arguments),
    "plan": ("query-plan operations", _plan_arguments),
    "scan": ("run the pipeline", _scan_arguments),
    "report": ("emit aggregate tables from a store", _report_arguments),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of every command with the arguments of ``command`` alone.

    Every command is listed either way, so help and errors read the same;
    only a command's arguments import modules (the crawl knobs, the report's
    tables and formats), and only the command that runs needs them.
    """
    parser = _Parser(prog="idsweep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p_command)
    return parser


def entry(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command ``argv`` names.

    Each ``cmd_*`` imports the modules it runs at its top, so ``import
    idsweep.cli`` loads none of them, and the parser holds the arguments of
    that command alone.  A command raises its operator errors, an operator file's led by its flag (``_load``);
    here alone an ``OSError``, ``ValueError``, ``RuntimeError`` or ``sqlite3.Error`` (named with its store) is
    printed as the one ``error:`` line, and becomes exit 2.  An ID the command's
    registry (or, if that does not load, the bundled one) accepts is masked in it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first word: the program itself takes no option but --help
    args = build_parser(next((word for word in argv if not word.startswith("-")), None)).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        message = str(exc)
    except Exception as exc:
        import sqlite3

        if not isinstance(exc, sqlite3.Error):
            raise
        message = f"store {Path(args.store)}: {exc}"
    try:
        registry = _load_registry(getattr(args, "registry", None))
    except ValueError:
        from .geo import default_registry

        registry = default_registry()
    print(_masking(registry)(f"error: {message}"), file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(entry())

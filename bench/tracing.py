"""Spans around every public idsweep function, recorded from outside the program.

``Tracer.install()`` replaces each public function and public method of the
layer modules with a wrapper that records a span (id, parent, name, start,
end, a value observed at the call, failure flag).  A function imported by name
into another idsweep module (``from .thai_id import validate``) is replaced
there too, because that is where the call looks it up.  ``uninstall()`` puts
every original object back.  Spans stay in memory until the run ends.

Worker threads start with no open span of their own; their first span's
parent is the span open on the main thread at that moment, which for the
download pool is ``download_all``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable

LAYERS = ("providers", "harvest", "store", "extract", "thai_id", "pipeline", "domains", "geo", "reports", "cli")

# Helpers that run once per candidate or per lookup inside an already traced
# call.  Wrapping them would cost more than the work they do and inflate
# their callers' figures, so they are left alone.
UNTRACED = frozenset({
    "thai_id.compute_checksum",
    "thai_id.weighted_sum",
    "thai_id.normalize_numerals",
    "geo.GeoRegistry.lookup_district",
    "geo.GeoRegistry.lookup_province",
    "geo.PopulationTable.get",
    "harvest.Clock.now",
    "harvest.Clock.sleep",
    "domains.PublicSuffixList.match",
    "reports.percent_of",
})

_STAGES = {None: 0, "format": 1, "checksum": 2, "prefix": 3}


def _emitted_bytes(args, kwargs, paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# span name -> observer(args, kwargs, result) giving the span's value
OBSERVERS: dict[str, Callable] = {
    "thai_id.find_candidates": lambda a, k, r: (len(r), len(a[0].encode("utf-8"))),
    "thai_id.validate": lambda a, k, r: _STAGES[r.failed_stage],
    "extract.extract_text": lambda a, k, r: (len(a[0]), len(r.failures)),
    "store.ResultStore.put_object": lambda a, k, r: len(a[1]),
    "store.ResultStore.load_occurrences": lambda a, k, r: len(r),
    "harvest.execute_plan": lambda a, k, r: len(r),
    "harvest.download_all": lambda a, k, r: (sum(rec.status == "success" for rec in r), len(r)),
    "providers.FixtureProvider.fetch": lambda a, k, r: len(r.data),
    "reports.build_records": lambda a, k, r: len(r[0]),
    "reports.emit_report": _emitted_bytes,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        # (span id, parent id or 0, name index, start, end, value, failed)
        self.spans: list[tuple] = []
        self.patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    # --- span recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                # a worker thread's root spans hang under whatever the main
                # thread has open when the worker first calls in
                stack = [self._main_stack[-1]] if self._main_stack else []
            self._local.stack = stack
        return stack

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_index = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name_index, start, end, None, True))
                raise
            end = clock()
            stack.pop()
            value = observe(args, kwargs, result) if observe else None
            spans.append((span_id, parent, name_index, start, end, value, False))
            return result

        traced.__bench_span__ = name
        return traced

    # --- installation -----------------------------------------------------------

    def _targets(self):
        """(owner, attribute, raw object, span name) for every traced callable."""
        for layer in LAYERS:
            module = sys.modules[f"idsweep.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, obj, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for method, raw in sorted(vars(obj).items()):
                        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if not method.startswith("_") and inspect.isfunction(func):
                            yield obj, method, raw, f"{layer}.{attr}.{method}"

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"idsweep.{layer}")
        replacement: dict[int, object] = {}
        for owner, attr, raw, name in self._targets():
            if name in UNTRACED:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            if inspect.isclass(owner):
                self.patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                replacement[id(raw)] = (raw, wrapped)
        # patch every module-level name bound to a traced function, in every
        # loaded idsweep module, since callers look names up in their own globals
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "idsweep" or module_name.startswith("idsweep.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON: a name table and one row per span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        payload = {
            "run_id": self.run_id,
            "columns": ["id", "parent", "name", "start_s", "end_s", "value", "failed"],
            "names": self.names,
            "spans": [
                [sid, parent, name, start - origin, end - origin, value, failed]
                for sid, parent, name, start, end, value, failed in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# --- per-layer metrics -----------------------------------------------------------

def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class SpanIndex:
    """Spans grouped by name, with children and self time."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.spans = tracer.spans
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict[int, list[tuple]] = {}
        self.by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            self.children.setdefault(span[1], []).append(span)
            self.by_name.setdefault(self.names[span[2]], []).append(span)

    def named(self, *suffixes: str) -> list[tuple]:
        return [s for name, spans in self.by_name.items() if name.endswith(suffixes) for s in spans]

    def total(self, *suffixes: str) -> float:
        return sum(s[4] - s[3] for s in self.named(*suffixes))

    def self_time(self, span: tuple) -> float:
        kids = [(c[3], c[4]) for c in self.children.get(span[0], ())]
        return (span[4] - span[3]) - _union(kids)

    def layer_of(self, span: tuple) -> str:
        return self.names[span[2]].split(".", 1)[0]

    def covered(self, root: tuple) -> float:
        """Time under ``root`` spent inside spans of layers other than cli."""
        tops, todo = [], list(self.children.get(root[0], ()))
        while todo:
            span = todo.pop()
            if self.layer_of(span) == "cli":
                todo.extend(self.children.get(span[0], ()))
            else:
                tops.append((span[3], span[4]))
        return _union(tops)


def layer_metrics(tracer: Tracer, unique_ids: int) -> dict[str, tuple[float, str]]:
    """Every per-layer figure a traced run reports, as name -> (value, unit).

    ``unique_ids`` is the number of distinct IDs the run's store holds.
    """
    ix = SpanIndex(tracer)
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # extract
    external = ix.named("extract.run_external")
    extract_calls = ix.named("extract.extract_text")
    builtin = [s for s in extract_calls
               if not any(ix.names[c[2]] == "extract.run_external" for c in ix.children.get(s[0], ()))]
    builtin_s = sum(s[4] - s[3] for s in builtin)
    builtin_bytes = sum(s[5][0] for s in builtin if s[5] is not None)
    put("extract.external_spawns", len(external), "count")
    put("extract.external_s", ix.total("extract.run_external"), "s")
    put("extract.external_ms_per_spawn", _quantile([1e3 * (s[4] - s[3]) for s in external], 0.5), "ms")
    put("extract.builtin_calls", len(builtin), "count")
    put("extract.builtin_s", builtin_s, "s")
    put("extract.builtin_mb_per_s", ratio(builtin_bytes / 1e6, builtin_s), "MB/s")
    put("extract.failures", sum(1 for s in extract_calls if s[6])
        + sum(s[5][1] for s in extract_calls if s[5] is not None), "count")

    # store
    writes = ("add_hit", "put_object", "record_download", "add_exposure", "add_diagnostic")
    adds = ix.named("ResultStore.add_exposure")
    add_s = ix.total("ResultStore.add_exposure")
    put("store.add_exposure_calls", len(adds), "count")
    put("store.add_exposure_s", add_s, "s")
    put("store.add_exposure_us_per_row", ratio(1e6 * add_s, len(adds)), "us")
    put("store.add_hit_s", ix.total("ResultStore.add_hit"), "s")
    put("store.put_object_s", ix.total("ResultStore.put_object"), "s")
    put("store.put_object_bytes", sum(s[5] or 0 for s in ix.named("ResultStore.put_object")), "bytes")
    put("store.record_download_s", ix.total("ResultStore.record_download"), "s")
    put("store.write_calls", len(ix.named(*(f"ResultStore.{w}" for w in writes))), "count")
    loads = ix.named("ResultStore.load_occurrences")
    occurrence_rows = sum(s[5] or 0 for s in loads)
    put("store.load_occurrences_s", ix.total("ResultStore.load_occurrences"), "s")
    put("store.occurrence_rows", occurrence_rows, "count")

    # thai_id
    finds = ix.named("thai_id.find_candidates")
    find_s = ix.total("thai_id.find_candidates")
    candidates = sum(s[5][0] for s in finds if s[5] is not None)
    validations = [s for s in ix.named("thai_id.validate") if s[5] is not None]
    stages = [0, 0, 0, 0]
    for s in validations:
        stages[s[5]] += 1
    pseudo = ix.named("thai_id.pseudonymize")
    put("thai_id.find_candidates_s", find_s, "s")
    put("thai_id.find_mb_per_s", ratio(sum(s[5][1] for s in finds if s[5]) / 1e6, find_s), "MB/s")
    put("thai_id.candidates", candidates, "count")
    put("thai_id.validate_us_per_call", ratio(1e6 * ix.total("thai_id.validate"), len(validations)), "us")
    put("thai_id.accept_ratio", ratio(stages[0], len(validations)), "ratio")
    put("thai_id.reject_format", stages[1], "count")
    put("thai_id.reject_checksum", stages[2], "count")
    put("thai_id.reject_prefix", stages[3], "count")
    put("thai_id.pseudonymize_calls", len(pseudo), "count")
    put("thai_id.pseudonymize_s", ix.total("thai_id.pseudonymize"), "s")
    put("thai_id.pseudonymize_calls_per_id", ratio(len(pseudo), unique_ids), "ratio")

    # harvest and providers
    plans = ix.named("harvest.execute_plan")
    downloads = ix.named("harvest.download_all")
    fetches = ix.named("Provider.fetch")
    put("harvest.execute_plan_s", ix.total("harvest.execute_plan"), "s")
    put("harvest.hits", sum(s[5] or 0 for s in plans), "count")
    put("harvest.download_all_s", ix.total("harvest.download_all"), "s")
    put("harvest.downloads_ok", sum(s[5][0] for s in downloads if s[5]), "count")
    put("harvest.downloads_failed", sum(s[5][1] - s[5][0] for s in downloads if s[5]), "count")
    put("providers.search_calls", len(ix.named("Provider.search")), "count")
    put("providers.fetch_calls", len(fetches), "count")
    put("providers.fetch_s", ix.total("Provider.fetch"), "s")
    put("providers.fetch_bytes", sum(s[5] or 0 for s in fetches), "bytes")

    # pipeline
    scans = [1e3 * (s[4] - s[3]) for s in ix.named("pipeline.scan_document")]
    put("pipeline.scan_document_calls", len(scans), "count")
    put("pipeline.scan_document_ms_p50", _quantile(scans, 0.5), "ms")
    put("pipeline.scan_document_ms_p90", _quantile(scans, 0.9), "ms")
    put("pipeline.run_scan_self_s", sum(ix.self_time(s) for s in ix.named("pipeline.run_scan")), "s")

    # domains
    classify = ix.named("domains.classify_url")
    put("domains.classify_url_calls", len(classify), "count")
    put("domains.classify_url_s", ix.total("domains.classify_url"), "s")
    put("domains.cache_ratio", ratio(len(classify), occurrence_rows), "ratio")

    # reports
    put("reports.build_records_s", ix.total("reports.build_records"), "s")
    put("reports.aggregate_s", ix.total("reports.aggregate"), "s")
    put("reports.geographic_report_s", ix.total("reports.geographic_report"), "s")
    put("reports.repeat_exposure_s", ix.total("reports.repeat_exposure"), "s")
    put("reports.exposure_listing_s", ix.total("reports.exposure_listing"), "s")
    put("reports.emit_report_s", ix.total("reports.emit_report"), "s")
    put("reports.emit_bytes", sum(s[5] or 0 for s in ix.named("reports.emit_report")), "bytes")

    # cli
    for command, metric in (("cli.cmd_scan_run", "cli.scan_self_s"), ("cli.cmd_report", "cli.report_self_s")):
        put(metric, sum((s[4] - s[3]) - ix.covered(s) for s in ix.named(command)), "s")

    entries = ix.named("cli.entry")
    traced_run_s = sum(s[4] - s[3] for s in entries)
    put("trace.coverage", ratio(sum(ix.covered(s) for s in entries), traced_run_s), "ratio")
    put("trace.spans", len(ix.spans), "count")
    return out

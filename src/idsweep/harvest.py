"""Crawl execution: paginated searches, paced downloads, typed results.

Timing is injectable via Clock so the politeness contract (a full
``search_delay`` between consecutive provider requests, per host for
downloads) is testable without real sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Optional
from urllib.parse import urlsplit

from .domains import ClassificationError, url_host

if TYPE_CHECKING:
    from .queries import QueryPlan
    from .store import ResultStore

DEFAULT_ACCEPTED_TYPES = frozenset({"pdf", "xls", "xlsx", "doc", "docx", "txt", "csv", "html"})


@dataclass
class CrawlConfig:
    """Operator-tunable crawl behaviour; every field has a CLI flag and env var.

    ``download_workers`` sizes the download pool and also bounds how many
    documents ``run_scan`` extracts at once.
    """

    search_delay: float = 1.0          # seconds between provider requests
    download_timeout: float = 30.0     # per-attempt bound
    download_max_retry: int = 2        # retries after the first attempt
    max_pages: int = 10                # pagination cap per query
    accepted_types: frozenset[str] = DEFAULT_ACCEPTED_TYPES
    download_workers: int = 4
    max_object_bytes: int = 64 * 1024 * 1024

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN fails like infinity
        if not (0 <= self.search_delay < math.inf and 0 < self.download_timeout < math.inf):
            raise ValueError("search_delay must be finite and >= 0, download_timeout finite and > 0")
        if self.download_max_retry < 0:
            raise ValueError("download_max_retry must be >= 0")
        if self.max_pages < 1 or self.download_workers < 1:
            raise ValueError("max_pages and download_workers must be >= 1")
        if self.max_object_bytes < 1:
            raise ValueError("max_object_bytes must be >= 1")
        self.accepted_types = frozenset(t.lower() for t in self.accepted_types)


class Clock:
    """Wall clock; swap for a virtual one in tests."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


@dataclass
class SearchHit:
    query: str
    engine: str
    page: int
    rank: int
    url: str
    retrieved_at: str
    is_repeat: bool = False
    hit_id: Optional[int] = None


@dataclass(frozen=True)
class DownloadRecord:
    url: str
    status: str                      # success | failed | type_mismatch
    attempts: int
    reason: Optional[str] = None     # timeout|network|too_large|bad url, or the odd type
    sha256: Optional[str] = None
    declared_type: Optional[str] = None
    size_bytes: Optional[int] = None
    hit_id: Optional[int] = None


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class _Pacer:
    """Reserves send slots so consecutive requests to one key stay spaced."""

    def __init__(self, min_gap: float, clock: Clock):
        self._min_gap = min_gap
        self._clock = clock
        self._next_free: dict[str, float] = {}
        self._lock = threading.Lock()

    def wait_turn(self, key: str) -> None:
        with self._lock:
            now = self._clock.now()
            slot = max(now, self._next_free.get(key, now))
            self._next_free[key] = slot + self._min_gap
        self._clock.sleep(slot - now)


def execute_plan(
    plan: QueryPlan,
    provider,
    config: CrawlConfig,
    store: ResultStore,
    clock: Optional[Clock] = None,
) -> list[SearchHit]:
    """Run every query page by page; returns hits in retrieval order.

    Pages 1..min(config.max_pages, provider pages) are fetched with a search_delay
    gap between provider requests, and a query that the cap stops short of
    the provider's last page gets a ``page_cap`` diagnostic.  A provider
    error abandons the remaining pages of that query only.  URLs already seen
    earlier in the plan are recorded but flagged as repeats; an exact
    duplicate within one page is recorded once.  Re-running the same plan
    over the same store adds no hit rows.
    """
    clock = clock or Clock()
    pacer = _Pacer(config.search_delay, clock)
    hits: list[SearchHit] = []
    seen_urls: set[str] = set()

    for query in plan.queries:
        total_pages: Optional[int] = None
        page = 1
        while page <= config.max_pages and (total_pages is None or page <= total_pages):
            pacer.wait_turn("search")
            try:
                page_hits, total_pages = provider.search(query, page)
            except Exception as exc:
                store.add_diagnostic("provider_error", query, f"page {page}: {exc}", _utcnow())
                break
            page_urls: set[str] = set()
            for ph in sorted(page_hits, key=lambda h: h.rank):
                if ph.url in page_urls:
                    continue  # duplicate within one result page
                page_urls.add(ph.url)
                hit = SearchHit(
                    query=query,
                    engine=provider.name,
                    page=page,
                    rank=ph.rank,
                    url=ph.url,
                    retrieved_at=_utcnow(),
                    is_repeat=ph.url in seen_urls,
                )
                seen_urls.add(ph.url)
                hit.hit_id = store.add_hit(
                    hit.query, hit.engine, hit.page, hit.rank, hit.url,
                    hit.retrieved_at, hit.is_repeat,
                )
                hits.append(hit)
            page += 1
        if page > config.max_pages and total_pages > config.max_pages:
            detail = f"stopped at page {config.max_pages} of {total_pages}"
            store.add_diagnostic("page_cap", query, detail, _utcnow())
    return hits


def declared_type_of(url: str, content_disposition: Optional[str]) -> str:
    """File type from the Content-Disposition filename, else the URL path."""
    if content_disposition:
        from email.message import Message

        msg = Message()
        msg["content-disposition"] = content_disposition
        filename = msg.get_filename()
        if filename:
            ext = PurePosixPath(filename).suffix.lstrip(".").lower()
            if ext:
                return ext
    return PurePosixPath(urlsplit(url).path).suffix.lstrip(".").lower()


def download(
    hit: SearchHit,
    provider,
    config: CrawlConfig,
    store: ResultStore,
    pacer: Optional[_Pacer] = None,
) -> DownloadRecord:
    """Fetch one hit with bounded retries; store accepted bytes by digest.

    At most ``1 + download_max_retry`` attempts are made, each bounded by
    ``download_timeout``.  Bytes whose declared type is not accepted are
    discarded (status ``type_mismatch``); oversize payloads fail without
    retry (``too_large``).  A URL that ``domains.url_host`` refuses, one the
    report could not count, fails unfetched with 0 attempts (``bad url: …``);
    the pacer waits on the host it returns.  Accepted bytes go to
    ``objects/`` only; the download's row is left to the caller
    (``download_all`` records it).
    """
    try:
        host = url_host(hit.url)
    except ClassificationError as exc:
        return DownloadRecord(url=hit.url, status="failed", attempts=0, reason=f"bad url: {exc}", hit_id=hit.hit_id)
    attempts = 0
    outcome: dict = {"status": "failed", "reason": "network"}

    while attempts < 1 + config.download_max_retry:
        attempts += 1
        if pacer is not None:
            pacer.wait_turn(host)
        try:
            result = provider.fetch(hit.url, timeout=config.download_timeout)
        except TimeoutError:
            outcome["reason"] = "timeout"
            continue
        except Exception as exc:
            outcome["reason"] = f"network: {exc}" if str(exc) else "network"
            continue

        outcome = {"size_bytes": len(result.data)}
        declared = declared_type_of(hit.url, result.content_disposition)
        if len(result.data) > config.max_object_bytes:
            outcome.update(status="failed", reason="too_large")
        elif declared not in config.accepted_types:
            outcome.update(status="type_mismatch", reason=declared or "no-extension",
                           declared_type=declared or None)
        else:
            digest = store.put_object(result.data)
            outcome.update(status="success", sha256=digest, declared_type=declared)
        break

    return DownloadRecord(url=hit.url, attempts=attempts, hit_id=hit.hit_id, **outcome)


def download_all(
    hits: list[SearchHit],
    provider,
    config: CrawlConfig,
    store: ResultStore,
    clock: Optional[Clock] = None,
) -> list[DownloadRecord]:
    """Download every hit through a bounded pool with per-host pacing; hit order kept.

    Each download's row is recorded on this thread as its turn comes, in
    hit order, so the rows are the same whatever ``download_workers`` is.
    """
    pacer = _Pacer(config.search_delay, clock or Clock())
    records = []
    with ThreadPoolExecutor(max_workers=config.download_workers) as pool:
        for record in pool.map(lambda h: download(h, provider, config, store, pacer), hits):
            if record.hit_id is not None:
                store.record_download(
                    record.hit_id, record.status, _utcnow(), reason=record.reason,
                    sha256=record.sha256, declared_type=record.declared_type,
                    size_bytes=record.size_bytes,
                )
            records.append(record)
    return records

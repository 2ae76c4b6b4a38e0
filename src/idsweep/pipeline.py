"""End-to-end scan: search, download, extract, detect, persist.

The stages are glued with at-least-once semantics everywhere the store is
idempotent, so re-running a plan over the same store stores no hit, object
or exposure a second time and the summary comes out identical.  What does
repeat is ``diagnostics``: each run adds its warnings again.

``download_workers`` bounds two pools in turn: the downloads, then the
extraction of distinct documents.  Pool threads touch only ``objects/``;
rows are written in hit order on the calling thread, which opened the store,
so they do not depend on how many workers ran or which finished first.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .extract import (
    ExtractionError,
    ExtractorSpec,
    UnsupportedTypeError,
    default_extractors,
    describe_failures,
    extract_text,
)
from .geo import GeoRegistry
from .harvest import Clock, CrawlConfig, DownloadRecord, _utcnow, download_all, execute_plan
from .queries import QueryPlan
from .store import ResultStore
from .thai_id import find_ids
# find_ids' two steps, unread here: bench/tests/test_bench.py checks that its tracer wraps them where bound
from .thai_id import find_candidates, validate  # noqa: F401


@dataclass(frozen=True)
class ScanSummary:
    queries: int
    hits: int
    urls: int
    downloads_ok: int
    downloads_failed: int
    documents: int
    unique_ids: int  # distinct IDs in this run's documents, whichever run stored them
    exposed_documents: int  # this run's documents with an accepted ID
    unreadable: int  # distinct documents no extractor could read
    partly_read: int  # distinct documents read, but with an extractor's failure or warning

    def line(self) -> str:
        line = (
            f"{self.queries} queries yielded {self.urls} result URLs; "
            f"{self.downloads_ok} fetched ({self.downloads_failed} failed); "
            f"{self.unique_ids} distinct IDs across {self.exposed_documents} "
            f"of {self.documents} documents"
        )
        line = f"{line}; {self.unreadable} unreadable" if self.unreadable else line
        return f"{line}; {self.partly_read} partly read" if self.partly_read else line


def scan_document(
    data: bytes,
    declared_type: str,
    registry: GeoRegistry,
    extractors: Sequence[ExtractorSpec],
) -> tuple[list[str], list[tuple[str, str]]]:
    """Extract text and return (accepted ID digits in reading order, the (extractor,
    error) of each failure or warning of a read that still gave text)."""
    result = extract_text(data, declared_type, extractors)
    return [found.normalized for found in find_ids(result.merged, registry)], result.failures


def run_scan(
    plan: QueryPlan,
    provider,
    config: CrawlConfig,
    store: ResultStore,
    registry: GeoRegistry,
    extractors: Optional[Sequence[ExtractorSpec]] = None,
    clock: Optional[Clock] = None,
) -> ScanSummary:
    """Execute the plan and persist every accepted ID, once per document.

    Extraction runs once per distinct object digest no matter how many URLs
    delivered it, as the first delivering hit declared its type; an exposure
    row is (digits, document number), the store numbering each digest, and
    every URL, query and type of the digest is recovered from the hits that
    downloaded it.
    Documents that cannot be extracted, or whose stored object no longer
    reads back, land in diagnostics, never silently, and so, once each, do
    documents only partly read.
    """
    clock = clock or Clock()
    extractors = list(extractors) if extractors is not None else default_extractors()

    hits = execute_plan(plan, provider, config, store, clock=clock)
    records = download_all(hits, provider, config, store, clock=clock)

    # the first successful download of a digest, in hit order, picks the
    # declared type of that document
    documents: dict[str, DownloadRecord] = {}
    failed = 0
    for record in records:
        if record.status != "success":
            failed += 1
        else:
            assert record.sha256 is not None and record.declared_type is not None
            documents.setdefault(record.sha256, record)

    def extract(record: DownloadRecord):
        try:
            data = store.read_object(record.sha256)
        except (OSError, ValueError) as exc:  # gone or damaged since its download: it failed extraction
            return exc
        try:
            return scan_document(data, record.declared_type, registry, extractors)
        except (UnsupportedTypeError, ExtractionError) as exc:
            return exc

    unreadable = partly_read = 0
    with ThreadPoolExecutor(max_workers=config.download_workers) as pool:
        for record, outcome in zip(documents.values(), pool.map(extract, documents.values())):
            if isinstance(outcome, Exception):
                unreadable += 1
                if isinstance(outcome, UnsupportedTypeError):
                    store.add_diagnostic("unsupported_type", record.url, str(outcome), _utcnow())
                else:
                    store.add_diagnostic("extraction_failed", record.sha256, str(outcome), _utcnow())
                continue
            ids, failures = outcome
            if failures:
                partly_read += 1
                store.add_diagnostic("extraction_partial", record.sha256, describe_failures(failures), _utcnow())
            if ids:
                store.add_exposures((digits, record.sha256) for digits in ids)

    unique_ids, exposed_documents = store.exposure_counts(documents)
    return ScanSummary(
        queries=len(plan.queries),
        hits=len(hits),
        urls=len({h.url for h in hits}),
        downloads_ok=len(records) - failed,
        downloads_failed=failed,
        documents=len(documents),
        unique_ids=unique_ids,
        exposed_documents=exposed_documents,
        unreadable=unreadable,
        partly_read=partly_read,
    )

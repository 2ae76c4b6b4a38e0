"""End-to-end scan: search, download, extract, detect, persist.

The stages are glued with at-least-once semantics everywhere the store is
idempotent, so re-running a plan over the same store changes nothing and the
summary comes out identical.

``download_workers`` bounds two pools in turn: the downloads, then the
extraction of distinct documents.  Extraction results are persisted on the
calling thread in hit order, so the store's rows do not depend on how many
workers ran or which finished first.
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
    extract_text,
)
from .geo import GeoRegistry
from .harvest import Clock, CrawlConfig, DownloadRecord, download_all, execute_plan
from .queries import QueryPlan
from .store import ResultStore
from .thai_id import find_candidates, validate


@dataclass(frozen=True)
class ScanSummary:
    queries: int
    hits: int
    urls: int
    downloads_ok: int
    downloads_failed: int
    documents: int
    candidates: int
    unique_ids: int
    exposed_documents: int
    unreadable: int  # distinct documents no extractor could read

    def line(self) -> str:
        line = (
            f"{self.queries} queries yielded {self.urls} result URLs; "
            f"{self.downloads_ok} fetched ({self.downloads_failed} failed); "
            f"{self.unique_ids} distinct IDs across {self.exposed_documents} "
            f"of {self.documents} documents"
        )
        return f"{line}; {self.unreadable} unreadable" if self.unreadable else line


def scan_document(
    data: bytes,
    declared_type: str,
    registry: GeoRegistry,
    extractors: Sequence[ExtractorSpec],
) -> tuple[list[str], int]:
    """Extract text and return (accepted ID digits in reading order, candidate count)."""
    result = extract_text(data, declared_type, extractors)
    accepted: list[str] = []
    candidates = find_candidates(result.merged)
    for candidate in candidates:
        if validate(candidate.normalized, registry).accepted:
            accepted.append(candidate.normalized)
    return accepted, len(candidates)


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
    row is (id, digest, first seen), and every URL, query and type of the
    digest is recovered from the downloads and hits tables.
    Documents that cannot be extracted land in diagnostics, never silently.
    """
    clock = clock or Clock()
    extractors = list(extractors) if extractors is not None else default_extractors()

    hits = execute_plan(plan, provider, config, store, clock=clock)
    records = download_all(hits, provider, config, store, clock=clock)

    # the first successful download of a digest, in hit order, picks the
    # declared type and the first-seen time of that document
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
            return scan_document(
                store.read_object(record.sha256), record.declared_type, registry, extractors
            )
        except (UnsupportedTypeError, ExtractionError) as exc:
            return exc

    hit_by_id = {hit.hit_id: hit for hit in hits}
    candidates_total = 0
    unreadable = 0
    with ThreadPoolExecutor(max_workers=config.download_workers) as pool:
        for record, outcome in zip(documents.values(), pool.map(extract, documents.values())):
            hit = hit_by_id.get(record.hit_id)
            first_seen = hit.retrieved_at if hit else ""
            if isinstance(outcome, Exception):
                unreadable += 1
                if isinstance(outcome, UnsupportedTypeError):
                    store.add_diagnostic("unsupported_type", record.url, str(outcome), first_seen)
                else:
                    store.add_diagnostic("extraction_failed", record.sha256, str(outcome), first_seen)
                continue
            ids, n_candidates = outcome
            candidates_total += n_candidates
            if ids:
                store.add_exposures((digits, record.sha256, first_seen) for digits in ids)

    return ScanSummary(
        queries=len(plan.queries),
        hits=len(hits),
        urls=len({h.url for h in hits}),
        downloads_ok=len(records) - failed,
        downloads_failed=failed,
        documents=len(documents),
        candidates=candidates_total,
        unique_ids=store.unique_id_count(),
        exposed_documents=store.exposed_document_count(),
        unreadable=unreadable,
    )

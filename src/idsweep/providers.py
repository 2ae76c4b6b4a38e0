"""Search/result providers behind a minimal duck-typed interface.

A provider exposes two methods:

    search(query, page) -> (list[ProviderHit], total_pages)
    fetch(url, timeout) -> FetchResult

The default is the deterministic FixtureProvider, which serves results and
document bytes out of a JSON corpus index so whole crawls replay offline.
A live HTTP provider exists for operators with an engine-API bridge but is
disabled unless explicitly armed.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


class ProviderError(RuntimeError):
    """Search or fetch failed at the provider level."""


class ProviderDisabled(RuntimeError):
    """Live provider used without explicit arming."""


@dataclass(frozen=True)
class ProviderHit:
    url: str
    page: int
    rank: int


@dataclass(frozen=True)
class FetchResult:
    data: bytes
    content_disposition: Optional[str] = None


class FixtureProvider:
    """Replays a recorded corpus index.

    Index schema (JSON, UTF-8)::

        {
          "queries": {"<rendered query>": [{"url": ..., "page": N, "rank": N}, ...]},
          "objects": {"<url>": {"path": "relative/or/absolute",
                                 "content_disposition": "... or absent"}}
        }

    Object paths resolve relative to the index file's directory.
    """

    def __init__(self, index_path: str | Path, name: str = "fixture"):
        self.name = name
        self._root = Path(index_path).resolve().parent
        try:
            raw = json.loads(Path(index_path).read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ProviderError(f"cannot load corpus index {index_path}: {exc}") from exc
        self._queries: dict[str, list[dict]] = raw.get("queries", {})
        self._objects: dict[str, dict] = raw.get("objects", {})

    def search(self, query: str, page: int) -> tuple[list[ProviderHit], int]:
        entries = self._queries.get(query, [])
        total_pages = max((int(e["page"]) for e in entries), default=0)
        page_hits = sorted(
            (e for e in entries if int(e["page"]) == page), key=lambda e: int(e["rank"])
        )
        return [ProviderHit(e["url"], int(e["page"]), int(e["rank"])) for e in page_hits], total_pages

    def fetch(self, url: str, timeout: float) -> FetchResult:
        entry = self._objects.get(url)
        if entry is None:
            raise ProviderError(f"no object recorded for {url}")
        path = Path(entry["path"])
        if not path.is_absolute():
            path = self._root / path
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ProviderError(f"cannot read fixture object {path}: {exc}") from exc
        return FetchResult(data=data, content_disposition=entry.get("content_disposition"))


class HttpProvider:
    """Live provider speaking to a JSON search-API bridge.  Off by default.

    Arming requires both an API key and ``acknowledge_live_traffic=True``;
    the point of the gate is that nothing in this package hits the network
    unless an operator has decided to, twice.  The bridge endpoint must
    answer ``GET <endpoint>?q=...&page=N`` with
    ``{"hits": [{"url","page","rank"}...], "total_pages": N}``.

    ``fetch`` reads at most ``max_bytes + 1`` bytes of a body, so a document
    over the limit is known to be too large without reading all of it.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        acknowledge_live_traffic: bool = False,
        name: str = "http",
        *,
        max_bytes: int,
    ):
        if not api_key or not acknowledge_live_traffic:
            raise ProviderDisabled(
                "live provider needs an API key and an explicit live-traffic acknowledgement"
            )
        self.name = name
        self._endpoint = endpoint
        self._api_key = api_key
        self._max_bytes = max_bytes

    def search(self, query: str, page: int) -> tuple[list[ProviderHit], int]:
        params = urllib.parse.urlencode({"q": query, "page": page, "key": self._api_key})
        try:
            with urllib.request.urlopen(f"{self._endpoint}?{params}", timeout=30) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, json.JSONDecodeError, TimeoutError) as exc:
            raise ProviderError(f"search failed: {exc}") from exc
        hits = [ProviderHit(h["url"], int(h["page"]), int(h["rank"])) for h in payload.get("hits", [])]
        return hits, int(payload.get("total_pages", 0))

    def fetch(self, url: str, timeout: float) -> FetchResult:
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                limit = self._max_bytes + 1
                data = resp.read(limit)
                if len(data) < limit and resp.length:
                    # the body ended short of its Content-Length, which an
                    # unbounded read() also reports this way
                    raise http.client.IncompleteRead(data, resp.length)
                disposition = resp.headers.get("Content-Disposition")
        except (urllib.error.URLError, TimeoutError) as exc:
            raise ProviderError(f"fetch failed for {url}: {exc}") from exc
        return FetchResult(data=data, content_disposition=disposition)

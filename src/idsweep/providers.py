"""Search/result providers behind a minimal duck-typed interface.

A provider exposes a ``name``, recorded as the engine of every hit it
serves, and two methods:

    search(query, page) -> (list[ProviderHit], total_pages)
    fetch(url, timeout) -> FetchResult

The default is the deterministic FixtureProvider, which serves results and
document bytes out of a JSON corpus index so whole crawls replay offline.
A live HTTP provider exists for operators with an engine-API bridge but is
disabled unless explicitly armed; it imports the HTTP stack when it first
searches or fetches, so a fixture scan never loads it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .domains import ClassificationError, url_host

SEARCH_TIMEOUT_S = 30.0  # bounds a live search: connecting, each read, and the whole response


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

    name = "fixture"

    def __init__(self, index_path: str | Path):
        self._root = Path(index_path).resolve().parent
        try:
            raw = json.loads(Path(index_path).read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ProviderError(f"cannot load corpus index {index_path}: {exc}") from exc
        if not (isinstance(raw, dict) and all(isinstance(raw.get(key, {}), dict) for key in ("queries", "objects"))):
            raise ProviderError(f"corpus index {index_path} must be an object, its 'queries' and 'objects' too")
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

    Both methods read a body under the same bounds: at most ``max_bytes + 1``
    bytes, so a body over the limit is known to be too large without reading
    all of it, and as it comes, with a ``TimeoutError`` at the first read that
    ends at or after a deadline set when the request began, so a body that
    trickles in cannot outlast it by more than one read.  A read that gets
    nothing is bounded by the same number of seconds on its own, and so is
    connecting.  ``search``'s deadline is ``SEARCH_TIMEOUT_S``; ``fetch``'s
    is its ``timeout``.
    """

    name = "http"

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        acknowledge_live_traffic: bool = False,
        *,
        max_bytes: int,
    ):
        if not api_key or not acknowledge_live_traffic:
            raise ProviderDisabled(
                "live provider needs an API key and an explicit live-traffic acknowledgement"
            )
        self._endpoint = endpoint
        self._api_key = api_key
        self._max_bytes = max_bytes

    def search(self, query: str, page: int) -> tuple[list[ProviderHit], int]:
        """One page of results; raises ``ProviderError`` if the request fails, the
        response is not JSON, runs over ``max_bytes`` or outlasts ``SEARCH_TIMEOUT_S``."""
        import urllib.error
        import urllib.parse
        import urllib.request

        params = urllib.parse.urlencode({"q": query, "page": page, "key": self._api_key})
        deadline = time.monotonic() + SEARCH_TIMEOUT_S
        try:
            with urllib.request.urlopen(f"{self._endpoint}?{params}", timeout=SEARCH_TIMEOUT_S) as resp:
                body = _read_body(resp, self._max_bytes, deadline, "search")
            if len(body) > self._max_bytes:
                raise ProviderError(f"search failed: response over {self._max_bytes} bytes")
            payload = json.loads(body.decode("utf-8"))
        except (urllib.error.URLError, json.JSONDecodeError, TimeoutError) as exc:
            raise ProviderError(f"search failed: {exc}") from exc
        hits = [ProviderHit(h["url"], int(h["page"]), int(h["rank"])) for h in payload.get("hits", [])]
        return hits, int(payload.get("total_pages", 0))

    def fetch(self, url: str, timeout: float) -> FetchResult:
        """The body at ``url``, read within ``timeout`` seconds; at most ``max_bytes + 1``
        bytes of it.  A URL that ``domains.url_host`` refuses (not http or https,
        no host) raises ``ProviderError`` and is never opened; running out of
        time raises ``TimeoutError``."""
        import urllib.error
        import urllib.request

        try:
            url_host(url)
        except ClassificationError as exc:
            raise ProviderError(f"refused to fetch {url}: {exc}") from None
        deadline = time.monotonic() + timeout
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                data = _read_body(resp, self._max_bytes, deadline, f"fetch of {url}")
                disposition = resp.headers.get("Content-Disposition")
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):  # what urllib makes of a connect that timed out
                raise TimeoutError(f"fetch of {url} timed out connecting: {exc.reason}") from exc
            raise ProviderError(f"fetch failed for {url}: {exc}") from exc
        return FetchResult(data=data, content_disposition=disposition)


def _read_body(resp, max_bytes: int, deadline: float, what: str) -> bytes:
    """At most ``max_bytes + 1`` bytes of ``resp``'s body, read as they come; raises
    ``TimeoutError`` at the first read that ends at or after ``deadline``
    (``time.monotonic()``)."""
    import http.client

    limit, data = max_bytes + 1, bytearray()
    while len(data) < limit and (chunk := resp.read1(min(limit - len(data), 1 << 16))):
        data += chunk
        if time.monotonic() >= deadline:
            raise TimeoutError(f"{what} ran past its deadline")
    if len(data) < limit and resp.length:
        # the body ended short of its Content-Length, which an
        # unbounded read() also reports this way
        raise http.client.IncompleteRead(bytes(data), resp.length)
    return bytes(data)

"""Source-domain classification for exposure analytics.

Thai sites mostly sit under seven purpose-bound second-level domains of
``.th`` (go.th government, ac.th academic, co.th commercial, mi.th military,
or.th non-profit, in.th individual, net.th network).  Hosts are bucketed by
those, by bare com/org/net, by their final label otherwise, or as
``ip_address`` for literals.  The registered domain (one label beneath the
effective suffix) comes from a configurable public-suffix list.

``url_host`` is the one rule for what a result URL must be to count as a
source: http or https, with a host.  The harvester asks it before it fetches
(and paces downloads by the host it returns), the live provider before it
opens a URL, and the report before it counts one, so a URL the report would
skip is never fetched, stored or counted by a scan.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional
from urllib.parse import urlsplit

TH_SECOND_LEVEL = ("go.th", "ac.th", "co.th", "mi.th", "or.th", "in.th", "net.th")
IP_CLASS = "ip_address"


class ClassificationError(ValueError):
    """URL cannot be classified (no host, unsupported scheme, ...)."""


@dataclass(frozen=True)
class DomainInfo:
    url: str
    fqdn: str
    registered_domain: Optional[str]  # absent for IP literals and bare suffixes
    tld_class: str  # one of TH_SECOND_LEVEL, com/org/net, ip_address, or final label
    owner_tag: Optional[str] = None


class PublicSuffixList:
    """Longest-match effective suffixes, one a line; blank lines and # comments, indented or not, are skipped."""

    def __init__(self, suffixes: list[str]):
        self.suffixes = {s.strip(".").lower() for s in map(str.strip, suffixes) if s and not s.startswith("#")}

    @classmethod
    def from_file(cls, path: str | Path) -> "PublicSuffixList":
        return cls(Path(path).read_text("utf-8").splitlines())

    def match(self, host: str) -> Optional[str]:
        labels = host.split(".")
        for take in range(len(labels), 0, -1):
            candidate = ".".join(labels[-take:])
            if candidate in self.suffixes:
                return candidate
        return None

    def registered_domain(self, host: str) -> Optional[str]:
        suffix = self.match(host)
        if suffix is None:
            # fall back to the last two labels
            labels = host.split(".")
            return host if len(labels) <= 2 else ".".join(labels[-2:])
        if host == suffix:
            return None
        label = host[: -(len(suffix) + 1)].rsplit(".", 1)[-1]
        return f"{label}.{suffix}"


def default_suffix_list() -> PublicSuffixList:
    text = resources.files("idsweep.data").joinpath("public_suffixes.txt").read_text("utf-8")
    return PublicSuffixList(text.splitlines())


def load_owner_tags(path: str | Path) -> dict[str, str]:
    """registered_domain -> operator tag, from `domain,tag` lines."""
    tags: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        domain, sep, tag = line.partition(",")
        if not sep or not domain.strip() or not tag.strip():
            raise ValueError(f"tag file line {lineno}: expected 'domain,tag'")
        tags[domain.strip().lower()] = tag.strip()
    return tags


def url_host(url: str) -> str:
    """The host a source URL is classified by, lower case with no trailing dot;
    raises ClassificationError if the URL is not http or https, has no host,
    or does not split (with ``urlsplit``'s own message)."""
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise ClassificationError(str(exc)) from None
    if parts.scheme not in ("http", "https"):
        raise ClassificationError(f"unsupported scheme in {url!r}")
    host = parts.hostname
    if not host:
        raise ClassificationError(f"no host in {url!r}")
    host = host.rstrip(".").lower()
    if not host:
        raise ClassificationError(f"empty host in {url!r}")
    return host


def classify_url(
    url: str,
    psl: Optional[PublicSuffixList] = None,
    owner_tags: Optional[Mapping[str, str]] = None,
) -> DomainInfo:
    """Bucket a source URL by host type; raises ClassificationError if unusable.

    Everything but the result's ``url`` depends on ``url_host(url)`` alone.
    """
    host = url_host(url)
    try:
        ipaddress.ip_address(host)
    except ValueError:
        pass
    else:
        return DomainInfo(url=url, fqdn=host, registered_domain=None, tld_class=IP_CLASS)

    if psl is None:
        psl = default_suffix_list()
    registered = psl.registered_domain(host)
    if host.endswith(".th") or host == "th":
        tld_class = next(
            (sld for sld in TH_SECOND_LEVEL if host == sld or host.endswith("." + sld)),
            "th",
        )
    else:
        tld_class = host.rsplit(".", 1)[-1]
    owner = None
    if owner_tags and registered:
        owner = owner_tags.get(registered)
    return DomainInfo(url=url, fqdn=host, registered_domain=registered, tld_class=tld_class, owner_tag=owner)

"""Thai national identification numbers: discovery, validation, decoding.

A Thai national ID is 13 digits.  Digit 1 encodes the holder's registration
category; digits 2-5 encode the issuing district (first two of which are the
province); digits 6-12 are a serial; digit 13 is a mod-11 checksum over the
first twelve.  Documents write the number either as a contiguous run or
grouped 1-4-5-2-1 with hyphens or spaces, in ASCII or Thai numerals.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .geo import GeoRegistry

THAI_DIGITS = "๐๑๒๓๔๕๖๗๘๙"  # U+0E50..U+0E59
_TH_TO_ASCII = str.maketrans(THAI_DIGITS, "0123456789")

# Digit i (1-based, leftmost first) is weighted 14-i; i.e. 13 down to 2.
CHECKSUM_MULTIPLIERS = tuple(range(13, 1, -1))

# Registration category encoded by the first digit.  Only 1-8 are issued.
CATEGORY_DESCRIPTIONS: dict[int, str] = {
    1: "Thai national born after 1984-01-01 and registered within 15 days of birth",
    2: "Thai national born after 1984-01-01 and registered late",
    3: "Thai national or resident foreigner on a house registration before 1984-05-31",
    4: "Thai national or resident foreigner who missed the pre-1984 registration round",
    5: "person added to a house registration during a census or by special case",
    6: "foreign national living temporarily, or illegal migrant",
    7: "child of a category-6 holder born in Thailand",
    8: "foreign national granted permanent residence or Thai citizenship after 1984",
}

# A candidate is either 13 contiguous digits or the grouped 1-4-5-2-1 layout
# with single hyphen/space separators (mixed separators occur in the wild).
# Digit runs longer than 13 are excluded by the boundary lookarounds; ASCII
# classes are deliberate -- \d would also match non-Thai Unicode digits.
_CONTIGUOUS = r"[0-9]{13}"
_GROUPED = r"[0-9][- ][0-9]{4}[- ][0-9]{5}[- ][0-9]{2}[- ][0-9]"
_CANDIDATE_RE = re.compile(
    rf"(?<![0-9])(?:{_CONTIGUOUS}(?![0-9])|{_GROUPED}(?![0-9]))"
)

_FORMAT_RE = re.compile(r"[0-9]{13}")
_PREFIX12_RE = re.compile(r"[0-9]{12}")
_SEPARATORS_RE = re.compile(r"[- ]")


@dataclass(frozen=True)
class RawCandidate:
    """A possible ID as it appeared in text, before validation.

    ``start``/``end`` index the original source string, so
    ``source[start:end] == raw_text`` always holds.
    """

    start: int
    end: int
    raw_text: str
    normalized: str  # 13 ASCII digits, separators stripped


@dataclass(frozen=True)
class ValidationOutcome:
    """Per-stage results; stages run in order and stop at the first failure."""

    format_ok: bool
    checksum_ok: bool
    prefix_ok: bool

    @property
    def accepted(self) -> bool:
        return self.format_ok and self.checksum_ok and self.prefix_ok

    @property
    def failed_stage(self) -> Optional[str]:
        for name, ok in self.stages():
            if not ok:
                return name
        return None

    def stages(self) -> tuple[tuple[str, bool], ...]:
        return (
            ("format", self.format_ok),
            ("checksum", self.checksum_ok),
            ("prefix", self.prefix_ok),
        )


@dataclass(frozen=True)
class NationalId:
    """A validated ID broken into its positional fields."""

    digits: str
    category: int
    province_code: str
    district_code: str
    sequence: str
    check_digit: int
    province_name: str
    district_name: str

    @property
    def category_description(self) -> str:
        return CATEGORY_DESCRIPTIONS.get(self.category, "unassigned")


@dataclass(frozen=True, slots=True)
class PseudonymToken:
    """Keyed-hash stand-in for an ID in emitted reports."""

    token: str
    salt_id: str


def normalize_numerals(text: str) -> str:
    """Map Thai numerals to ASCII digits; everything else passes through."""
    return text.translate(_TH_TO_ASCII)


def find_candidates(text: str) -> list[RawCandidate]:
    """Scan text for ID-shaped digit runs, in source order, non-overlapping.

    Matching happens on the numeral-normalized view of the text, so Thai and
    ASCII digits are interchangeable.  A run of more or fewer than 13 digits
    is never a candidate, nor is a 13-digit window inside a longer run.
    """
    normalized_text = normalize_numerals(text)
    found: list[RawCandidate] = []
    for match in _CANDIDATE_RE.finditer(normalized_text):
        start, end = match.start(), match.end()
        found.append(
            RawCandidate(
                start=start,
                end=end,
                raw_text=text[start:end],
                normalized=_SEPARATORS_RE.sub("", match.group()),
            )
        )
    return found


def weighted_sum(prefix12: str) -> int:
    """Sum of digit x multiplier over the first twelve digits."""
    if not _PREFIX12_RE.fullmatch(prefix12):
        raise ValueError(f"expected 12 ASCII digits, got {prefix12!r}")
    return sum(int(d) * m for d, m in zip(prefix12, CHECKSUM_MULTIPLIERS))


def compute_checksum(prefix12: str) -> int:
    """Check digit for a 12-digit prefix: (11 - weighted sum mod 11) mod 10."""
    return (11 - weighted_sum(prefix12) % 11) % 10


def validate(candidate: str, registry: "GeoRegistry") -> ValidationOutcome:
    """Run the format, checksum and prefix stages against a digit string.

    The prefix stage requires the first digit to be an issued category (1-8)
    and digits 2-5 to name a district present in the registry.
    """
    if not _FORMAT_RE.fullmatch(candidate):
        return ValidationOutcome(False, False, False)
    if compute_checksum(candidate[:12]) != int(candidate[12]):
        return ValidationOutcome(True, False, False)
    prefix_ok = candidate[0] in "12345678" and registry.lookup_district(candidate[1:5]) is not None
    return ValidationOutcome(True, True, prefix_ok)


def decode(digits: str, registry: "GeoRegistry") -> NationalId:
    """Split an accepted ID into its fields, resolving area names."""
    outcome = validate(digits, registry)
    if not outcome.accepted:
        raise ValueError(f"cannot decode: {outcome.failed_stage} stage failed")
    district = registry.lookup_district(digits[1:5])
    province = registry.lookup_province(digits[1:3])
    assert district is not None and province is not None
    return NationalId(
        digits=digits,
        category=int(digits[0]),
        province_code=province.code,
        district_code=district.code,
        sequence=digits[5:12],
        check_digit=int(digits[12]),
        province_name=province.name,
        district_name=district.name,
    )


def generate_valid_id(prefix5: str, sequence7: str, registry: "GeoRegistry") -> str:
    """Build a checksum-correct ID from a category+district prefix and serial."""
    if not re.fullmatch(r"[1-8][0-9]{4}", prefix5):
        raise ValueError(f"bad prefix {prefix5!r}: need category digit 1-8 then 4-digit district")
    if registry.lookup_district(prefix5[1:]) is None:
        raise ValueError(f"district {prefix5[1:]} not in registry")
    if not re.fullmatch(r"[0-9]{7}", sequence7):
        raise ValueError(f"bad sequence {sequence7!r}: need 7 ASCII digits")
    body = prefix5 + sequence7
    return body + str(compute_checksum(body))


def salt_id(salt: bytes) -> str:
    """A short public name for a salt, which pseudonyms carry."""
    return hashlib.sha256(b"idsweep-salt:" + salt).hexdigest()[:12]


@functools.lru_cache(maxsize=8)
def token_function(salt: bytes) -> Callable[[str], str]:
    """The HMAC-SHA-256 (RFC 2104) of an ID keyed with the salt, in hex, as a function of
    the ID.  The salt is keyed once: each ID costs a copy of the keyed inner and outer hashes."""
    if not salt:
        raise ValueError("empty salt")
    key = (hashlib.sha256(salt).digest() if len(salt) > 64 else salt).ljust(64, b"\0")
    inner, outer = (hashlib.sha256(bytes(b ^ pad for b in key)) for pad in (0x36, 0x5C))

    def token(digits: str) -> str:
        first, second = inner.copy(), outer.copy()
        first.update(digits.encode("ascii"))
        second.update(first.digest())
        return second.hexdigest()

    return token


def redacting(registry: "GeoRegistry", replace: Callable[[str], str]) -> Callable[[str], str]:
    """Text with each ID in it that validation accepts, in any written form, as ``replace`` of its digits."""

    def redact(text: str) -> str:
        out, at = [], 0
        for found in find_candidates(text):
            if validate(found.normalized, registry).accepted:
                out += text[at:found.start], replace(found.normalized)
                at = found.end
        return "".join(out) + text[at:]

    return redact


def pseudonymize(digits: str, salt: bytes) -> PseudonymToken:
    """Deterministic keyed hash of an ID (HMAC-SHA-256); unlinkable across distinct salts."""
    return PseudonymToken(token=token_function(salt)(digits), salt_id=salt_id(salt))

"""Core ID behaviour: numerals, candidate discovery, checksum, validation."""

from __future__ import annotations

import hashlib
import hmac
import random

import hypothesis
import hypothesis.strategies as st
import pytest

from idsweep import thai_id
from idsweep.geo import default_registry

from conftest import _DIGIT_VALUE, _LAYOUTS, OVERLAPPED, _written_at, reference_ids


# --- independent checksum oracle -------------------------------------------
#
# Deliberately literal restatement of the published procedure, kept separate
# from the library so the two can disagree: write the twelve digits down,
# multiply the first by 13, the second by 12, ... the twelfth by 2, add the
# products, take the remainder mod 11, subtract it from 11, and if the result
# has two digits keep only the units digit.

def oracle_checksum(prefix12: str) -> int:
    multipliers = [13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2]
    products = []
    for ch, mul in zip(prefix12, multipliers):
        products.append(int(ch) * mul)
    total = 0
    for p in products:
        total += p
    remainder = total % 11
    result = 11 - remainder
    return int(str(result)[-1])


REGISTRY = default_registry()

# Frozen oracle outputs (recomputed by test_oracle_self_check).
ORACLE_FROZEN = {
    "123456789101": 1,  # weighted sum 351
    "000000000000": 1,
    "110012345678": 6,
    "999999999999": 4,
}


def test_oracle_self_check():
    for prefix, expected in ORACLE_FROZEN.items():
        assert oracle_checksum(prefix) == expected


def test_checksum_worked_example():
    assert thai_id.weighted_sum("123456789101") == 351
    assert thai_id.compute_checksum("123456789101") == 1


def test_checksum_all_zeros():
    assert thai_id.compute_checksum("000000000000") == 1


def test_checksum_matches_oracle_frozen():
    for prefix, expected in ORACLE_FROZEN.items():
        assert thai_id.compute_checksum(prefix) == expected


def test_checksum_rejects_bad_input():
    for bad in ("", "12345678910", "1234567891012", "12345678910a", "๑๒๓๔๕๖๗๘๙๑๐๑"):
        with pytest.raises(ValueError):
            thai_id.compute_checksum(bad)


@hypothesis.given(st.text(alphabet="0123456789", min_size=12, max_size=12))
def test_checksum_agrees_with_oracle(prefix):
    assert thai_id.compute_checksum(prefix) == oracle_checksum(prefix)


def test_checksum_sensitivity():
    # Altering one of the first twelve digits while keeping the check digit
    # is supposed to trip the checksum stage in at least 10/11 of cases, the
    # survivors being weighted deltas that are multiples of 11.
    rng = random.Random(191)
    failures = 0
    trials = 0
    for _ in range(50):
        prefix = "".join(rng.choice("0123456789") for _ in range(12))
        original = thai_id.compute_checksum(prefix)
        for pos in range(12):
            for replacement in "0123456789":
                if replacement == prefix[pos]:
                    continue
                mutated = prefix[:pos] + replacement + prefix[pos + 1 :]
                trials += 1
                if thai_id.compute_checksum(mutated) != original:
                    failures += 1
    assert failures / trials >= 10 / 11


def test_checksum_sensitivity_true_law():
    # What actually holds.  A perturbation survives in exactly two cases:
    # the weighted delta is 0 mod 11 (the multiplier-11 position), or the
    # weighted-sum remainder crosses the 0<->10 fold, since (11-0) % 10 and
    # (11-10) % 10 are both 1.  Everything else is caught, and the exact
    # survival probability works out to 1/12 + 1/60 = 1/10.
    rng = random.Random(191)
    caught = 0
    trials = 0
    for _ in range(200):
        prefix = "".join(rng.choice("0123456789") for _ in range(12))
        original_digit = thai_id.compute_checksum(prefix)
        original_rem = thai_id.weighted_sum(prefix) % 11
        for pos in range(12):
            for replacement in "0123456789":
                if replacement == prefix[pos]:
                    continue
                mutated = prefix[:pos] + replacement + prefix[pos + 1 :]
                mutated_rem = thai_id.weighted_sum(mutated) % 11
                trials += 1
                if thai_id.compute_checksum(mutated) != original_digit:
                    caught += 1
                    assert mutated_rem != original_rem
                else:
                    assert mutated_rem == original_rem or {original_rem, mutated_rem} == {0, 10}
    # residue-level sensitivity: 11 of 12 positions always change the
    # remainder, so restricted to remainder changes the catch rate is >= 10/11
    assert caught / trials == pytest.approx(0.9, abs=0.01)


# --- numeral normalization ---------------------------------------------------

def test_normalize_thai_numerals():
    assert thai_id.normalize_numerals("๑๒๓๔๕๖๗๘๙๐") == "1234567890"


def test_normalize_mixed_text():
    assert thai_id.normalize_numerals("เกิด พ.ศ. ๒๕๒๗ id 12") == "เกิด พ.ศ. 2527 id 12"


def test_normalize_leaves_ascii_alone():
    text = "no thai digits 0123456789 here"
    assert thai_id.normalize_numerals(text) == text


# --- candidate discovery -----------------------------------------------------

def test_find_contiguous_candidate():
    found = thai_id.find_candidates("id: 1234567891011.")
    assert [c.normalized for c in found] == ["1234567891011"]


def test_find_grouped_candidate():
    found = thai_id.find_candidates("เลขที่ 1-1001-23456-78-9 ลงชื่อ")
    assert len(found) == 1
    assert found[0].normalized == "1100123456789"
    assert found[0].raw_text == "1-1001-23456-78-9"


def test_find_grouped_with_spaces_and_mixed_separators():
    found = thai_id.find_candidates("a 1 1001 23456 78 9 b 1-1001 23456-78 9 c")
    assert [c.normalized for c in found] == ["1100123456789", "1100123456789"]


def test_reject_wrong_grouping():
    # 4-4-4-1 and other layouts are not the documented shape.
    assert thai_id.find_candidates("1234-5678-9101-1") == []


def test_reject_embedded_runs():
    assert thai_id.find_candidates("12345678910113456") == []
    assert thai_id.find_candidates("x91234567891011") == []
    assert thai_id.find_candidates("12345678910119") == []


def test_reject_short_runs():
    assert thai_id.find_candidates("123456789101") == []


def test_thai_numeral_candidate():
    found = thai_id.find_candidates("๑๒๓๔๕๖๗๘๙๑๐๑๑")
    assert [c.normalized for c in found] == ["1234567891011"]


def test_thai_digit_extends_run():
    # A Thai digit glued to an ASCII run, before or after it, makes it 14 long -- no
    # candidate; so does an ASCII digit glued to a Thai run, in either layout.
    for text in ("๑1234567891011", "1234567891011๑", "1๑๒๓๔๕๖๗๘๙๑๐๑๑", "๑๒๓๔๕๖๗๘๙๑๐๑๑1",
                 "๑1-1001-23456-78-9", "1-1001-23456-78-9๑", "1๑-๑๐๐๑-๒๓๔๕๖-๗๘-๙", "๑-๑๐๐๑-๒๓๔๕๖-๗๘-๙1"):
        assert thai_id.find_candidates(text) == [], text


def test_candidates_in_source_order_nonoverlapping():
    text = "1234567891011 then ๓-๑๐๐๑-๒๓๔๕๖-๗๘-๙ end"
    found = thai_id.find_candidates(text)
    assert [c.normalized for c in found] == ["1234567891011", "3100123456789"]
    assert found[0].end <= found[1].start


def test_candidate_span_round_trip():
    text = "คำนำ ๑-๑๐๐๑-๒๓๔๕๖-๗๘-๙ ท้าย 1100123456786"
    for cand in thai_id.find_candidates(text):
        assert text[cand.start : cand.end] == cand.raw_text
        renormalized = thai_id.normalize_numerals(cand.raw_text).replace("-", "").replace(" ", "")
        assert renormalized == cand.normalized
        assert len(cand.normalized) == 13 and cand.normalized.isascii()


_sep = st.sampled_from(["-", " "])


@st.composite
def rendered_id(draw):
    digits = draw(st.text(alphabet="0123456789", min_size=13, max_size=13))
    thai = draw(st.booleans())
    if thai:
        digits_out = digits.translate(str.maketrans("0123456789", thai_id.THAI_DIGITS))
    else:
        digits_out = digits
    grouped = draw(st.booleans())
    if grouped:
        parts = [digits_out[0:1], digits_out[1:5], digits_out[5:10], digits_out[10:12], digits_out[12:13]]
        seps = [draw(_sep) for _ in range(4)]
        rendered = parts[0]
        for sep, part in zip(seps, parts[1:]):
            rendered += sep + part
    else:
        rendered = digits_out
    return digits, rendered


@hypothesis.given(rendered_id(), st.text(alphabet="abcดสก .,:\n", max_size=20), st.text(alphabet="abcดสก .,:\n", max_size=20))
def test_planted_id_is_found(rendered, before, after):
    digits, shown = rendered
    text = f"{before}|{shown}|{after}"
    found = thai_id.find_candidates(text)
    assert [c.normalized for c in found] == [digits]
    only = found[0]
    assert text[only.start : only.end] == only.raw_text == shown


@hypothesis.given(st.text(alphabet="0123456789๐๑๒๓๔๕๖๗๘๙- ปชxyz.\n", max_size=120))
def test_candidate_soundness(text):
    for cand in thai_id.find_candidates(text):
        raw = text[cand.start : cand.end]
        assert raw == cand.raw_text
        renorm = thai_id.normalize_numerals(raw).replace("-", "").replace(" ", "")
        assert renorm == cand.normalized
        assert len(cand.normalized) == 13


def reference_candidates(text):
    """Candidates by a slow left-to-right scan, as (start, end, normalized).

    A layout written at a place with no digit before it is a candidate, and
    the scan goes on after it; otherwise it moves one character on.
    """
    found, i = [], 0
    while i < len(text):
        layout = next((layout for layout in _LAYOUTS if _written_at(text, i, layout)), None)
        if layout and (i == 0 or text[i - 1] not in _DIGIT_VALUE):
            end = i + len(layout)
            found.append((i, end, "".join(_DIGIT_VALUE[ch] for ch in text[i:end] if ch in _DIGIT_VALUE)))
            i = end
        else:
            i += 1
    return found


_noise = st.text(alphabet="0123456789๐๑๒๓๔๕๖๗๘๙- abxดสก.,\n", max_size=16)


@st.composite
def near_id(draw):
    """An ID grouped 1-4-5-2-1, or with one group a digit off or one separator doubled or missing."""
    sizes, seps = [1, 4, 5, 2, 1], [draw(_sep) for _ in range(4)]
    flaw, at = draw(st.sampled_from(["none", "longer", "shorter", "doubled", "missing"])), draw(st.integers(0, 3))
    if flaw in ("longer", "shorter"):
        sizes[at] += 1 if flaw == "longer" else -1
    elif flaw != "none":
        seps[at] = seps[at] + draw(_sep) if flaw == "doubled" else ""
    groups = [draw(st.text(alphabet="0123456789๐๑๒๓๔๕๖๗๘๙", min_size=n, max_size=n)) for n in sizes]
    return groups[0] + "".join(sep + group for sep, group in zip(seps, groups[1:]))


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.lists(st.one_of(near_id(), rendered_id().map(lambda r: r[1]), _noise), max_size=8))
# near misses that random text rarely spells out: a doubled, missing or extra separator, a group a digit off
@hypothesis.example(["1--1001-23456-78-9 1-1001 23456-78 9 x1-1001-2345-78-9 1100123456789-1 1 1001 23456 789"])
def test_find_candidates_matches_reference_scanner(pieces):
    text = "".join(pieces)
    got = [(c.start, c.end, c.normalized) for c in thai_id.find_candidates(text)]
    assert got == reference_candidates(text)


def test_reference_scanner_examples():
    text = "1234567891011 x12345678910112 ๓-๑๐๐๑-๒๓๔๕๖-๗๘-๙ 1-1001 23456-78-90"
    assert reference_candidates(text) == [(0, 13, "1234567891011"), (30, 47, "3100123456789")]


# --- validation and decoding -------------------------------------------------

def test_validate_accepts_generated():
    digits = thai_id.generate_valid_id("11001", "2345678", REGISTRY)
    assert digits == "1100123456786"
    outcome = thai_id.validate(digits, REGISTRY)
    assert outcome.accepted and outcome.failed_stage is None


def test_validate_checksum_ok_prefix_unknown():
    # Checksum-correct but digits 2-5 name no registered district.
    assert REGISTRY.lookup_district("2345") is None
    outcome = thai_id.validate("1234567891011", REGISTRY)
    assert outcome.stages() == (("format", True), ("checksum", True), ("prefix", False))
    assert not outcome.accepted and outcome.failed_stage == "prefix"


def test_validate_bad_checksum():
    outcome = thai_id.validate("1100123456780", REGISTRY)
    assert outcome.format_ok and not outcome.checksum_ok
    assert outcome.failed_stage == "checksum"


def test_validate_bad_format():
    for bad in ("12345", "1-1001-23456-78-9", "abcdefghijklm", "๑๑๐๐๑๒๓๔๕๖๗๘๖"):
        outcome = thai_id.validate(bad, REGISTRY)
        assert outcome.failed_stage == "format"


def test_validate_category_zero_and_nine():
    # Checksum made correct so only the prefix stage can fail.
    for first in "09":
        prefix12 = first + "10012345678"
        digits = prefix12 + str(thai_id.compute_checksum(prefix12))
        outcome = thai_id.validate(digits, REGISTRY)
        assert outcome.checksum_ok and not outcome.prefix_ok


def test_decode_fields():
    digits = thai_id.generate_valid_id("31001", "4567890", REGISTRY)
    decoded = thai_id.decode(digits, REGISTRY)
    assert decoded.category == 3
    assert "1984" in decoded.category_description
    assert decoded.province_code == "10" and decoded.province_name == "Bangkok"
    assert decoded.district_code == "1001" and decoded.district_name == "Phra Nakhon"
    assert decoded.sequence == "4567890"
    assert decoded.check_digit == int(digits[-1])


def test_decode_rejects_invalid():
    with pytest.raises(ValueError):
        thai_id.decode("1234567891011", REGISTRY)  # unknown district


def test_generate_rejects_bad_prefix():
    with pytest.raises(ValueError):
        thai_id.generate_valid_id("91001", "1234567", REGISTRY)  # category 9
    with pytest.raises(ValueError):
        thai_id.generate_valid_id("12345", "1234567", REGISTRY)  # no such district
    with pytest.raises(ValueError):
        thai_id.generate_valid_id("11001", "123456", REGISTRY)  # short serial


_districts = sorted(REGISTRY.districts)


@hypothesis.given(
    st.sampled_from("12345678"),
    st.sampled_from(_districts),
    st.text(alphabet="0123456789", min_size=7, max_size=7),
)
def test_generate_decode_round_trip(category, district, sequence):
    digits = thai_id.generate_valid_id(category + district, sequence, REGISTRY)
    assert thai_id.validate(digits, REGISTRY).accepted
    decoded = thai_id.decode(digits, REGISTRY)
    assert decoded.category == int(category)
    assert decoded.district_code == district
    assert decoded.sequence == sequence
    assert decoded.digits == digits


# --- accepted IDs in text ----------------------------------------------------

@st.composite
def accepted_grouped_id(draw, category=None):
    """An ID that validation accepts, of ``category`` if given, grouped 1-4-5-2-1 in ASCII or Thai digits."""
    prefix = (category or draw(st.sampled_from("12345678"))) + draw(st.sampled_from(_districts))
    digits = thai_id.generate_valid_id(prefix, draw(st.text(alphabet="0123456789", min_size=7, max_size=7)), REGISTRY)
    if draw(st.booleans()):
        digits = digits.translate(str.maketrans("0123456789", thai_id.THAI_DIGITS))
    groups = [digits[0:1], digits[1:5], digits[5:10], digits[10:12], digits[12:13]]
    return groups[0] + "".join(draw(_sep) + group for group in groups[1:])


@st.composite
def overlapping_ids(draw):
    """A grouped near-ID or accepted ID, then one separator and an accepted grouped ID that
    starts on its last digit: the near-ID's last digit is the ID's first.  A contiguous
    head, which leaves the ID a digit right before it, is no overlap."""
    head = draw(st.one_of(near_id(), accepted_grouped_id(), rendered_id().map(lambda r: r[1])))
    last = thai_id.normalize_numerals(head[-1])
    return head[:-1] + draw(accepted_grouped_id(last if last in "12345678" else None))


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.lists(st.one_of(overlapping_ids(), accepted_grouped_id(), near_id(),
                                     rendered_id().map(lambda r: r[1]), _noise), max_size=6))
@hypothesis.example([OVERLAPPED])
# the same digits with the first candidate contiguous: a digit right before 1 1001 00000 02 6 makes it no ID
@hypothesis.example([OVERLAPPED.replace(" ", "", 4)])
def test_find_ids_matches_reference_scanner(pieces):
    text = "".join(pieces)
    found = thai_id.find_ids(text, REGISTRY)
    assert [(c.start, c.end, c.normalized) for c in found] == reference_ids(text, REGISTRY)
    assert all(text[c.start:c.end] == c.raw_text for c in found)
    assert reference_ids(thai_id.redacting(REGISTRY, lambda digits: "<ID>")(text), REGISTRY) == []


def test_redacting_writes_overlapping_ids_one_after_the_other():
    redact = thai_id.redacting(REGISTRY, lambda digits: f"<{digits}>")
    assert redact(OVERLAPPED) == "9 8765 43210 98 <1100100000026>"
    first = thai_id.generate_valid_id("11001", "0000001", REGISTRY)
    second = thai_id.generate_valid_id(first[12] + "1001", "0000002", REGISTRY)
    grouped = (f"{first[0]}-{first[1:5]}-{first[5:10]}-{first[10:12]}-"
               f"{second[0]} {second[1:5]} {second[5:10]} {second[10:12]} {second[12]}")
    assert [c.normalized for c in thai_id.find_ids(grouped, REGISTRY)] == [first, second]
    assert redact(f"a {grouped} b") == f"a <{first}><{second}> b"


# --- pseudonymization --------------------------------------------------------

def test_pseudonymize_deterministic():
    a = thai_id.pseudonymize("1100123456786", b"salt-a")
    b = thai_id.pseudonymize("1100123456786", b"salt-a")
    assert a == b
    assert len(a.token) == 64 and a.token == a.token.lower()
    int(a.token, 16)  # hex


def test_pseudonymize_salt_separation():
    a = thai_id.pseudonymize("1100123456786", b"salt-a")
    b = thai_id.pseudonymize("1100123456786", b"salt-b")
    assert a.token != b.token and a.salt_id != b.salt_id


def test_pseudonymize_distinct_ids():
    a = thai_id.pseudonymize("1100123456786", b"salt")
    b = thai_id.pseudonymize("3100145678908", b"salt")
    assert a.token != b.token and a.salt_id == b.salt_id


def test_pseudonymize_empty_salt():
    with pytest.raises(ValueError):
        thai_id.pseudonymize("1100123456786", b"")


@pytest.mark.parametrize("length", [1, 63, 64, 65, 200])
def test_pseudonymize_is_hmac_sha256(length):
    # salts shorter than, as long as and longer than SHA-256's 64-byte block,
    # which HMAC hashes first
    salt = bytes((7 * i + length) % 256 for i in range(length))
    for digits in ("1100123456786", "3100145678908"):
        expected = hmac.new(salt, digits.encode("ascii"), hashlib.sha256).hexdigest()
        assert thai_id.pseudonymize(digits, salt).token == expected
        assert thai_id.pseudonymize(digits, salt).salt_id == thai_id.salt_id(salt)

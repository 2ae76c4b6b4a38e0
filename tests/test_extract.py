"""Extractor behaviour: builtins, the external protocol, line-union merging."""

from __future__ import annotations

import csv
import html
import io
import json
import sys
import time

import hypothesis
import hypothesis.strategies as st
import pytest

from idsweep import extract, thai_id
from idsweep.extract import ExtractorSpec, default_extractors, extract_text, merge_lines

from test_thai_id import reference_candidates, rendered_id

PY = sys.executable


def spec_external(command: str, types={"pdf"}, timeout=10.0, name="ext") -> ExtractorSpec:
    return ExtractorSpec(name, "external", frozenset(types), command=command, timeout=timeout)


def test_plain_reader():
    out = extract_text("สมชาย 1234567891011\n".encode(), "txt", default_extractors())
    assert out.segments[0][0] == "plain"
    assert "1234567891011" in out.merged


def test_csv_reader_row_major():
    data = 'name,id\n"สมชาย",1100123456786\nสมหญิง,2100134567893\n'.encode()
    out = extract_text(data, "csv", default_extractors())
    lines = out.merged.splitlines()
    assert lines == ["name", "id", "สมชาย", "1100123456786", "สมหญิง", "2100134567893"]


def test_html_reader_strips_markup():
    html = """
    <html><head><script>var x = 9999999999999;</script></head>
    <body><table><tr><td>นาย ก</td><td>1-1001-23456-78-9</td></tr></table>
    <p>เลขที่ &#x0E51;2345678910&#49;1</p></body></html>
    """
    out = extract_text(html.encode(), "html", default_extractors())
    assert "1-1001-23456-78-9" in out.merged
    assert "๑234567891011" in out.merged  # entity refs decoded
    assert "9999999999999" not in out.merged  # script bodies skipped


def test_html_adjacent_cells_stay_separate():
    # without cell boundaries these would fuse into one 14-digit run
    html = "<table><tr><td>1100123456786</td><td>7</td></tr></table>"
    out = extract_text(html.encode(), "html", default_extractors())
    assert out.merged.splitlines() == ["1100123456786", "7"]
    found = thai_id.find_candidates(out.merged)
    assert [c.normalized for c in found] == ["1100123456786"]


_cell_noise = st.text(alphabet="0123456789๐๑๒๓๔๕๖๗๘๙- abxดสก.,", max_size=12)  # too short to hold an ID


@st.composite
def table_with_ids(draw):
    """Rows of cells, each noise, a written ID, or one part of an ID split across two adjacent cells;
    and the digits of the IDs written whole."""
    rows, whole = [], []
    for _ in range(draw(st.integers(1, 4))):
        row = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["noise", "whole", "split"]))
            if kind == "noise":
                row.append(draw(_cell_noise))
                continue
            digits, shown = draw(rendered_id())
            if kind == "whole":
                row.append(shown)
                whole.append(digits)
            else:
                cut = draw(st.integers(1, len(shown) - 1))
                row += [shown[:cut], shown[cut:]]
        rows.append(row)
    return rows, whole


@hypothesis.settings(max_examples=200)
@hypothesis.given(table_with_ids())
def test_scanner_over_extracted_cells_matches_reference(table):
    rows, whole = table
    cells = [cell for row in rows for cell in row]
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    page = "<table>" + "".join(
        "<tr>" + "".join(f"<td>{html.escape(cell)}</td>" for cell in row) + "</tr>" for row in rows
    ) + "</table>"
    for extracted, lines in (
        (extract._extract_csv(text.getvalue()), cells),  # a line per cell
        (extract._extract_html(page), [c.strip() for c in cells if c.strip()]),  # one per non-blank cell
    ):
        expected = "\n".join(lines)
        assert extracted == expected
        got = [(c.start, c.end, c.normalized) for c in thai_id.find_candidates(extracted)]
        assert got == reference_candidates(expected)
        assert sorted(c[2] for c in got) == sorted(whole)  # an ID split across cells is never found


def test_unsupported_type():
    with pytest.raises(extract.UnsupportedTypeError):
        extract_text(b"x", "exe", default_extractors())


def test_external_echo_extractor():
    spec = spec_external(f'"{PY}" -m idsweep.textcat {{input}}')
    out = extract_text("ตาราง 3-2007-12345-67-8 จบ".encode(), "pdf", [spec])
    assert out.segments == [("ext", "ตาราง 3-2007-12345-67-8 จบ")]
    assert out.failures == []


def test_external_nonzero_exit_recorded():
    bad = spec_external(f'"{PY}" -c "import sys; sys.exit(3)" {{input}}', name="bad")
    good = spec_external(f'"{PY}" -m idsweep.textcat {{input}}', name="good")
    out = extract_text(b"still here", "pdf", [bad, good])
    assert [name for name, _ in out.failures] == ["bad"]
    assert "exit 3" in out.failures[0][1]
    assert out.merged == "still here"


def test_external_timeout():
    slow = spec_external(f'"{PY}" -c "import time; time.sleep(5)" {{input}}', timeout=0.3)
    with pytest.raises(extract.ExtractionError, match="timeout"):
        extract_text(b"x", "pdf", [slow])


def test_external_timeout_after_closing_its_output():
    quiet = spec_external(f'"{PY}" -c "import os, time; os.close(1); os.close(2); time.sleep(5)" {{input}}',
                          timeout=0.3)
    started = time.monotonic()
    with pytest.raises(extract.ExtractionError, match="timeout"):
        extract_text(b"x", "pdf", [quiet])
    assert time.monotonic() - started < 3


@pytest.mark.parametrize("forever", [False, True])
def test_external_output_past_the_cap_is_truncated(monkeypatch, forever):
    monkeypatch.setattr(extract, "MAX_EXTERNAL_OUTPUT", 100)
    # a Thai digit is 3 bytes in UTF-8: the cap cuts the 34th in two
    loop = "while True: " if forever else ""
    spec = spec_external(f'"{PY}" -c "import sys\n{loop}sys.stdout.buffer.write(\'๑\'.encode() * 4000)" {{input}}', timeout=10)
    started = time.monotonic()
    out = extract_text(b"x", "pdf", [spec])
    assert time.monotonic() - started < 5  # stopped at the cap, not at the timeout
    assert out.segments == [("ext", "๑" * 33)]
    assert out.failures == [("ext", "output truncated at 100 bytes")]


def test_external_output_at_the_cap_is_whole(monkeypatch):
    monkeypatch.setattr(extract, "MAX_EXTERNAL_OUTPUT", 100)
    spec = spec_external(f'"{PY}" -c "print(\'1\' * 99)" {{input}}')
    out = extract_text(b"x", "pdf", [spec])
    assert out.segments == [("ext", "1" * 99 + "\n")] and out.failures == []


def test_external_spawn_failure():
    missing = spec_external("/no/such/binary {input}")
    with pytest.raises(extract.ExtractionError, match="spawn"):
        extract_text(b"x", "pdf", [missing])


def test_external_invalid_utf8_flagged_but_used():
    naughty = spec_external(
        f'"{PY}" -c "import sys; sys.stdout.buffer.write(b\'id 1100123456786 \\xff\')" {{input}}'
    )
    out = extract_text(b"x", "pdf", [naughty])
    assert out.failures and "utf-8" in out.failures[0][1]
    assert "1100123456786" in out.merged


def test_all_fail_raises_with_reasons():
    specs = [
        spec_external(f'"{PY}" -c "import sys; sys.exit(1)" {{input}}', name="a"),
        spec_external(f'"{PY}" -c "import sys; sys.exit(2)" {{input}}', name="b"),
    ]
    with pytest.raises(extract.ExtractionError) as err:
        extract_text(b"x", "pdf", specs)
    assert {name for name, _ in err.value.failures} == {"a", "b"}


def test_merge_union_first_seen_order():
    merged = merge_lines([("a", "x\ny\nx"), ("b", "y\nz")])
    assert merged == "x\ny\nz"


def test_merge_applies_across_extractors():
    both = [
        spec_external(f'"{PY}" -c "print(\'only-a\'); print(\'shared\')" {{input}}', name="a"),
        spec_external(f'"{PY}" -c "print(\'shared\'); print(\'only-b\')" {{input}}', name="b"),
    ]
    out = extract_text(b"x", "pdf", both)
    assert out.merged.splitlines() == ["only-a", "shared", "only-b"]


_lines = st.lists(st.text(alphabet="abc123", max_size=5), max_size=8)


@hypothesis.given(_lines, _lines)
def test_merge_union_law(lines_a, lines_b):
    seg_a, seg_b = "\n".join(lines_a), "\n".join(lines_b)
    merged = merge_lines([("a", seg_a), ("b", seg_b)]).splitlines()
    # every non-blank line of every segment appears exactly once
    for line in seg_a.splitlines() + seg_b.splitlines():
        assert merged.count(line) == (1 if line else 0)
    # adding a segment never removes lines
    merged_more = merge_lines([("a", seg_a), ("b", seg_b), ("c", "zzz")]).splitlines()
    assert set(merged) <= set(merged_more)


def test_extraction_deterministic():
    data = "a\nb\nค".encode()
    one = extract_text(data, "txt", default_extractors())
    two = extract_text(data, "txt", default_extractors())
    assert one.merged == two.merged and one.segments == two.segments


def test_spec_validation():
    with pytest.raises(ValueError):
        ExtractorSpec("x", "external", frozenset({"pdf"}))  # no command
    with pytest.raises(ValueError):
        ExtractorSpec("x", "external", frozenset({"pdf"}), command="tool")  # no {input}
    with pytest.raises(ValueError):
        ExtractorSpec("x", "plain", frozenset())
    with pytest.raises(ValueError):
        ExtractorSpec("x", "plain", frozenset({"txt"}), command="oops")
    with pytest.raises(ValueError):
        ExtractorSpec("x", "ocr", frozenset({"png"}))


def test_config_round_trip(tmp_path):
    cfg = {
        "extractors": [
            {"name": "plain", "kind": "plain", "types": ["txt"]},
            {"name": "cells", "kind": "csv", "types": ["csv"]},
            {"name": "pdfcat", "kind": "external", "types": ["pdf"], "command": f'"{PY}" -m idsweep.textcat {{input}}', "timeout": 5},
        ]
    }
    path = tmp_path / "extractors.json"
    path.write_text(json.dumps(cfg), "utf-8")
    specs = extract.load_extractor_config(path)
    assert [s.name for s in specs] == ["plain", "cells", "pdfcat"]
    assert specs[2].timeout == 5.0 and "pdf" in specs[2].applicable_types


def test_config_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]", "utf-8")
    with pytest.raises(ValueError, match="cannot load"):
        extract.load_extractor_config(path)
    path.write_text('{"extractors": []}', "utf-8")
    with pytest.raises(ValueError, match="no extractors"):
        extract.load_extractor_config(path)
    path.write_text("[]", "utf-8")
    with pytest.raises(ValueError, match="must be an object with an 'extractors' list"):
        extract.load_extractor_config(path)
    plain = {"name": "plain", "kind": "plain", "types": ["txt"]}
    for entry, why in [
        ("plain", "must be an object"),
        ({"name": "x", "kind": "plain"}, "'types' must be a list of strings"),
        ({**plain, "types": "pdf"}, "'types' must be a list of strings"),  # not {'p', 'd', 'f'}
        ({**plain, "types": ["txt", 3]}, "'types' must be a list of strings"),
        ({**plain, "name": None}, "'name' must be a string"),
        ({"name": "x", "types": ["txt"]}, "'kind' must be a string"),
        ({**plain, "command": ["cat"]}, "'command' must be a string"),
        ({**plain, "timeout": "5"}, "'timeout' must be a finite number"),
        ({**plain, "timeout": True}, "'timeout' must be a finite number"),
        ({**plain, "timeout": float("nan")}, "'timeout' must be a finite number"),
        ({**plain, "timeout": 0}, "timeout must be positive"),
        ({**plain, "kind": "pdfminer"}, "unknown extractor kind"),
    ]:
        path.write_text(json.dumps({"extractors": [plain, entry]}), "utf-8")
        with pytest.raises(ValueError, match=f"entry 1: {why}"):
            extract.load_extractor_config(path)

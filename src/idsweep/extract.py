"""Text extraction: builtin readers plus external command-line extractors.

Heavy formats (PDF, OOXML, legacy Office) are delegated to external tools
through a command-template protocol rather than parsed here: the command
gets the staged input file path for ``{input}`` and must print UTF-8 text.
Every applicable extractor runs; their outputs are merged as a line-level
union so one flaky tool cannot hide another's finding.
"""

from __future__ import annotations

import csv
import io
import json
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional, Sequence

BUILTIN_KINDS = ("plain", "csv", "html")


class UnsupportedTypeError(Exception):
    """No configured extractor applies to the document's declared type."""


class ExtractionError(Exception):
    """Every applicable extractor failed."""

    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = failures
        super().__init__("; ".join(f"{name}: {err}" for name, err in failures))


@dataclass(frozen=True)
class ExtractorSpec:
    name: str
    kind: str  # plain | csv | html | external
    applicable_types: frozenset[str]
    command: Optional[str] = None  # external: template containing {input}
    timeout: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "applicable_types", frozenset(t.lower() for t in self.applicable_types))
        if self.kind not in BUILTIN_KINDS + ("external",):
            raise ValueError(f"unknown extractor kind {self.kind!r}")
        if not self.applicable_types:
            raise ValueError(f"extractor {self.name!r} applies to no types")
        if self.kind == "external":
            if not self.command or "{input}" not in self.command:
                raise ValueError(f"external extractor {self.name!r} needs a command with {{input}}")
        elif self.command:
            raise ValueError(f"builtin extractor {self.name!r} cannot take a command")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class ExtractedText:
    segments: list[tuple[str, str]] = field(default_factory=list)  # (extractor, text)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (extractor, error)
    merged: str = ""


def default_extractors() -> list[ExtractorSpec]:
    return [
        ExtractorSpec("plain", "plain", frozenset({"txt"})),
        ExtractorSpec("cells", "csv", frozenset({"csv"})),
        ExtractorSpec("markup", "html", frozenset({"html"})),
    ]


def load_extractor_config(path: str | Path) -> list[ExtractorSpec]:
    """Extractor list from JSON: {"extractors": [{name, kind, types, command?, timeout?}]}."""
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load extractor config {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("extractors"), list):
        raise ValueError(f"extractor config {path} must be an object with an 'extractors' list")
    specs = []
    for entry in data["extractors"]:
        specs.append(
            ExtractorSpec(
                name=entry["name"],
                kind=entry["kind"],
                applicable_types=frozenset(entry["types"]),
                command=entry.get("command"),
                timeout=float(entry.get("timeout", 30.0)),
            )
        )
    if not specs:
        raise ValueError(f"extractor config {path} lists no extractors")
    return specs


# --- builtin readers -----------------------------------------------------------

def _extract_plain(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


def _extract_csv(data: bytes) -> str:
    text = data.decode("utf-8", errors="replace")
    cells: list[str] = []
    for row in csv.reader(io.StringIO(text)):
        cells.extend(row)  # row-major: one output line per cell
    return "\n".join(cells)


class _TextCollector(HTMLParser):
    _SKIP = {"script", "style"}
    # block-level boundaries become line breaks so that values in adjacent
    # cells or paragraphs never fuse into one digit run
    _BREAK = {
        "br", "p", "div", "li", "ul", "ol", "table", "tr", "td", "th",
        "h1", "h2", "h3", "h4", "h5", "h6", "section", "article",
        "header", "footer", "title",
    }

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
        elif tag in self._BREAK:
            self.parts.append("\n")

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth:
            self._skip_depth -= 1
        elif tag in self._BREAK:
            self.parts.append("\n")

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)


def _extract_html(data: bytes) -> str:
    parser = _TextCollector()
    parser.feed(data.decode("utf-8", errors="replace"))
    parser.close()
    lines = [ln.strip() for ln in "".join(parser.parts).splitlines()]
    return "\n".join(ln for ln in lines if ln)


_BUILTINS = {"plain": _extract_plain, "csv": _extract_csv, "html": _extract_html}


# --- external protocol ------------------------------------------------------------

def run_external(spec: ExtractorSpec, data: bytes) -> tuple[str, Optional[str]]:
    """Run an external extractor; returns (text, soft_warning_or_None).

    Raises RuntimeError on spawn failure, nonzero exit, or timeout.  Invalid
    UTF-8 on stdout is replaced and reported as a warning rather than a
    failure, since partial text still carries findings.
    """
    with tempfile.NamedTemporaryFile(prefix="idsweep-", delete=False) as staged:
        staged.write(data)
        staged_path = staged.name
    argv = [token.replace("{input}", staged_path) for token in shlex.split(spec.command)]
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=spec.timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timeout after {spec.timeout}s")
    except OSError as exc:
        raise RuntimeError(f"spawn failed: {exc}")
    finally:
        Path(staged_path).unlink(missing_ok=True)
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", errors="replace").strip()
        raise RuntimeError(f"exit {proc.returncode}: {stderr[:500]}")
    try:
        return proc.stdout.decode("utf-8"), None
    except UnicodeDecodeError:
        return proc.stdout.decode("utf-8", errors="replace"), "invalid utf-8 replaced"


# --- orchestration -----------------------------------------------------------------

def merge_lines(segments: Sequence[tuple[str, str]]) -> str:
    """Union of lines across segments, first-seen order, once per distinct line.

    Blank lines are dropped: they carry no findings and cannot round-trip
    through a joined-string representation anyway.
    """
    seen: set[str] = set()
    out: list[str] = []
    for _, text in segments:
        for line in text.splitlines():
            if line and line not in seen:
                seen.add(line)
                out.append(line)
    return "\n".join(out)


def extract_text(
    data: bytes,
    declared_type: str,
    extractors: Sequence[ExtractorSpec],
) -> ExtractedText:
    """Run every extractor applicable to the type; merge what succeeded.

    Individual failures are recorded and do not stop the rest; if all
    applicable extractors fail, ExtractionError carries the reasons.
    """
    declared = declared_type.lower()
    applicable = [spec for spec in extractors if declared in spec.applicable_types]
    if not applicable:
        raise UnsupportedTypeError(f"no extractor configured for type {declared_type!r}")
    result = ExtractedText()
    for spec in applicable:
        try:
            if spec.kind == "external":
                text, warning = run_external(spec, data)
                if warning:
                    result.failures.append((spec.name, warning))
            else:
                text = _BUILTINS[spec.kind](data)
        except Exception as exc:
            result.failures.append((spec.name, str(exc)))
            continue
        result.segments.append((spec.name, text))
    if not result.segments:
        raise ExtractionError(result.failures)
    result.merged = merge_lines(result.segments)
    return result

"""Text extraction: builtin readers plus external command-line extractors.

Heavy formats (PDF, OOXML, legacy Office) are delegated to external tools
through a command-template protocol rather than parsed here: the command
gets the staged input file path for ``{input}`` and must print UTF-8 text.
Every applicable extractor runs; their outputs are merged as a line-level
union so one flaky tool cannot hide another's finding.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
import selectors
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional, Sequence

BUILTIN_KINDS = ("plain", "csv", "html")


class UnsupportedTypeError(Exception):
    """No configured extractor applies to the document's declared type."""


def describe_failures(failures: Sequence[tuple[str, str]]) -> str:
    """(extractor, error) pairs as one line: ``name: error``, joined by ``; ``."""
    return "; ".join(f"{name}: {err}" for name, err in failures)


class ExtractionError(Exception):
    """Every applicable extractor failed."""

    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = failures
        super().__init__(describe_failures(failures))


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


def _spec_of(entry) -> ExtractorSpec:
    """One config entry as a spec: an object with string name and kind, a list
    of string types, and optionally a string command and a finite number timeout."""
    if not isinstance(entry, dict):
        raise ValueError("must be an object")
    for key in ("name", "kind"):
        if not isinstance(entry.get(key), str):
            raise ValueError(f"{key!r} must be a string")
    types, command, timeout = entry.get("types"), entry.get("command"), entry.get("timeout", 30.0)
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        raise ValueError("'types' must be a list of strings")
    if command is not None and not isinstance(command, str):
        raise ValueError("'command' must be a string")
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not math.isfinite(timeout):
        raise ValueError("'timeout' must be a finite number")
    return ExtractorSpec(entry["name"], entry["kind"], frozenset(types), command, float(timeout))


def load_extractor_config(path: str | Path) -> list[ExtractorSpec]:
    """Extractor list from JSON: {"extractors": [{name, kind, types, command?, timeout?}]}."""
    try:
        data = json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load extractor config {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("extractors"), list):
        raise ValueError(f"extractor config {path} must be an object with an 'extractors' list")
    specs = []
    for position, entry in enumerate(data["extractors"]):
        try:
            specs.append(_spec_of(entry))
        except ValueError as exc:
            raise ValueError(f"extractor config {path}, entry {position}: {exc}") from None
    if not specs:
        raise ValueError(f"extractor config {path} lists no extractors")
    return specs


# --- builtin readers -----------------------------------------------------------

def decode_utf8(data: bytes, final: bool = True) -> tuple[str, Optional[str]]:
    """(``data`` as UTF-8 text, None), or if it is not UTF-8, (the text with its bad bytes replaced,
    ``"invalid utf-8 replaced"``); with ``final`` false, a character cut at the end is dropped."""
    try:
        return codecs.getincrementaldecoder("utf-8")().decode(data, final=final), None
    except UnicodeDecodeError:
        return data.decode("utf-8", errors="replace"), "invalid utf-8 replaced"


def _extract_csv(text: str) -> str:
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


def _extract_html(text: str) -> str:
    parser = _TextCollector()
    parser.feed(text)
    parser.close()
    lines = [ln.strip() for ln in "".join(parser.parts).splitlines()]
    return "\n".join(ln for ln in lines if ln)


# each reads the text decode_utf8 gives; plain text is that text itself
_BUILTINS = {"plain": str, "csv": _extract_csv, "html": _extract_html}


# --- external protocol ------------------------------------------------------------

# the most bytes of text an external extractor may print: past it, the
# command is stopped and the text up to there is used, with a warning
MAX_EXTERNAL_OUTPUT = 64 * 1024 * 1024


def _read_output(proc: subprocess.Popen, deadline: float, cap: int) -> tuple[bytes, bytes]:
    """What a command prints, read as it comes until its pipes close or its
    standard output passes ``cap`` bytes, keeping no more of either than
    that plus one read.  Raises TimeoutExpired at ``deadline``."""
    out, err = bytearray(), bytearray()
    with selectors.DefaultSelector() as pipes:
        pipes.register(proc.stdout, selectors.EVENT_READ, out)
        pipes.register(proc.stderr, selectors.EVENT_READ, err)
        while pipes.get_map() and len(out) <= cap:
            left = deadline - time.monotonic()
            ready = pipes.select(left) if left > 0 else []  # a command that keeps printing still times out
            if not ready:
                raise subprocess.TimeoutExpired(proc.args, deadline)
            for key, _ in ready:
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    pipes.unregister(key.fileobj)
                elif len(key.data) <= cap:
                    key.data.extend(chunk)
    return bytes(out), bytes(err)


def run_external(spec: ExtractorSpec, data: bytes) -> tuple[str, Optional[str]]:
    """Run an external extractor; returns (text, soft_warning_or_None).

    Raises RuntimeError on spawn failure, nonzero exit, or timeout.  Invalid
    UTF-8 on stdout is replaced and reported as a warning (``decode_utf8``)
    rather than a failure.  So is output past ``MAX_EXTERNAL_OUTPUT`` bytes:
    the command is stopped there and the text before it kept.
    """
    with tempfile.NamedTemporaryFile(prefix="idsweep-", delete=False) as staged:
        staged.write(data)
        staged_path = staged.name
    argv = [token.replace("{input}", staged_path) for token in shlex.split(spec.command)]
    deadline = time.monotonic() + spec.timeout
    try:
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        except OSError as exc:
            raise RuntimeError(f"spawn failed: {exc}")
        with proc:  # closes the pipes and waits for the command, however this ends
            try:
                stdout, stderr = _read_output(proc, deadline, MAX_EXTERNAL_OUTPUT)
                truncated = len(stdout) > MAX_EXTERNAL_OUTPUT
                if not truncated:
                    proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"timeout after {spec.timeout}s")
            finally:
                if proc.returncode is None:
                    proc.kill()
    finally:
        Path(staged_path).unlink(missing_ok=True)
    warnings = []
    if truncated:
        stdout = stdout[:MAX_EXTERNAL_OUTPUT]
        warnings.append(f"output truncated at {MAX_EXTERNAL_OUTPUT} bytes")
    elif proc.returncode != 0:
        message = stderr.decode("utf-8", errors="replace").strip()
        raise RuntimeError(f"exit {proc.returncode}: {message[:500]}")
    text, invalid = decode_utf8(stdout, final=not truncated)
    if invalid:
        warnings.append(invalid)
    return text, "; ".join(warnings) or None


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

    Individual failures, and warnings such as invalid UTF-8, are recorded and
    do not stop the rest; if all applicable extractors fail, ExtractionError
    carries the reasons.
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
            else:
                text, warning = decode_utf8(data)
                text = _BUILTINS[spec.kind](text)
        except Exception as exc:
            result.failures.append((spec.name, str(exc)))
            continue
        if warning:
            result.failures.append((spec.name, warning))
        result.segments.append((spec.name, text))
    if not result.segments:
        raise ExtractionError(result.failures)
    result.merged = merge_lines(result.segments)
    return result

"""Search-query construction: expression algebra, plans, templates.

Queries are built as small expression trees and rendered to the operator
syntax the big engines share: ``site:``/``filetype:`` prefixes, quoted
phrases, ``-`` exclusion, ``OR``/``AND`` tokens and parenthesized groups.
Adjacent terms are an implicit conjunction and render with a plain space;
an explicit ``And`` renders the token.

A plan (``QueryPlan``, JSON ``{"queries": [...]}``) is the rendered queries
alone: written out, or one-line text templates whose ``{slot}`` placeholders
are filled from binding maps, every template crossed with every map
(``build_plan_from_templates``).  Which engine answers is the provider's
business, and how many result pages are read is the crawl knob
``max_pages``.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

ALLOWED_FILETYPES = ("pdf", "xls", "xlsx", "doc", "docx")

QueryExpr = Union["Phrase", "Exclude", "FileType", "Site", "And", "Or", "Group"]


class QueryError(ValueError):
    """Bad query construction, rendering, or plan input."""


@dataclass(frozen=True)
class Phrase:
    """A search term; quoted on request, or always when it contains spaces."""

    text: str
    quoted: bool = False

    def __post_init__(self):
        if not self.text:
            raise QueryError("empty phrase")


@dataclass(frozen=True)
class Exclude:
    term: str

    def __post_init__(self):
        if not self.term or " " in self.term:
            raise QueryError(f"bad exclusion term {self.term!r}")


@dataclass(frozen=True)
class FileType:
    ext: str

    def __post_init__(self):
        if self.ext not in ALLOWED_FILETYPES:
            raise QueryError(f"filetype {self.ext!r} not in {ALLOWED_FILETYPES}")


@dataclass(frozen=True)
class Site:
    suffix: str

    def __post_init__(self):
        if not self.suffix or " " in self.suffix:
            raise QueryError(f"bad site suffix {self.suffix!r}")


def _tuple_children(children: Iterable[QueryExpr]) -> tuple[QueryExpr, ...]:
    out = tuple(children)
    if not out:
        raise QueryError("connective needs at least one child")
    return out


@dataclass(frozen=True)
class And:
    children: tuple[QueryExpr, ...]
    explicit: bool = False  # True renders the AND token, False a plain space

    def __post_init__(self):
        object.__setattr__(self, "children", _tuple_children(self.children))


@dataclass(frozen=True)
class Or:
    children: tuple[QueryExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", _tuple_children(self.children))


@dataclass(frozen=True)
class Group:
    child: QueryExpr


def render(expr: QueryExpr) -> str:
    """Rendered operator-syntax string for an expression tree."""
    if isinstance(expr, Phrase):
        if expr.quoted or any(ch.isspace() for ch in expr.text):
            return f'"{expr.text}"'
        return expr.text
    if isinstance(expr, Exclude):
        return f"-{expr.term}"
    if isinstance(expr, FileType):
        return f"filetype:{expr.ext}"
    if isinstance(expr, Site):
        return f"site:{expr.suffix}"
    if isinstance(expr, And):
        joiner = " AND " if expr.explicit else " "
        return joiner.join(render(c) for c in expr.children)
    if isinstance(expr, Or):
        return " OR ".join(render(c) for c in expr.children)
    if isinstance(expr, Group):
        return f"({render(expr.child)})"
    raise QueryError(f"not a query expression: {expr!r}")


@dataclass(frozen=True)
class QueryPlan:
    """The rendered queries to run, in order: the whole of a plan."""

    queries: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        if not self.queries or any(not q.strip() for q in self.queries):
            raise QueryError("plan needs at least one non-empty query")


# --- text-file interfaces ----------------------------------------------------

_formatter = string.Formatter()


def expand_template(template: str, binding: Mapping[str, str]) -> str:
    """Fill ``{name}`` slots in a one-line textual template."""
    out: list[str] = []
    for literal, name, spec, conv in _formatter.parse(template):
        out.append(literal)
        if name is None:
            continue
        if spec or conv or not name:
            raise QueryError(f"bad placeholder in template: {template!r}")
        if name not in binding:
            raise QueryError(f"unbound placeholder {name!r}")
        out.append(binding[name])
    return "".join(out)


def load_templates(path: str | Path) -> list[str]:
    """Templates, one per line; blank lines and # comments skipped."""
    out = []
    for line in Path(path).read_text("utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def load_bindings(path: str | Path) -> list[dict[str, str]]:
    """Binding maps from delimited text: header row names placeholders.

    Values are taken verbatim (no CSV quoting), so a row like ``"1-1001-"``
    binds the quotes too -- handy because dorks are quoted fragments.
    """
    import csv

    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle, quoting=csv.QUOTE_NONE))
    if any(None in row or None in row.values() for row in rows):
        raise QueryError(f"ragged binding file {path}")
    return [dict(row) for row in rows]


def build_plan_from_templates(
    templates: Sequence[str], bindings: Sequence[Mapping[str, str]] | None = None
) -> QueryPlan:
    """Cross every textual template with every binding map (template-major)."""
    if not templates:
        raise QueryError("no templates given")
    maps = list(bindings) if bindings else [{}]
    return QueryPlan(tuple(expand_template(t, b) for t in templates for b in maps))


def plan_to_json(plan: QueryPlan) -> str:
    return json.dumps({"queries": list(plan.queries)}, ensure_ascii=False, indent=2)


def plan_from_json(text: str) -> QueryPlan:
    """A plan from its JSON object, whose only key is ``queries``, a list of strings.

    Any other key is refused rather than ignored: a plan that asks for, say,
    3 pages must not be crawled to 10 without a word.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QueryError(f"plan is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "queries" not in data:
        raise QueryError("plan JSON must be an object with a 'queries' list")
    extra = sorted(set(data) - {"queries"})
    if extra:
        raise QueryError(
            f"unknown plan key(s) {', '.join(map(repr, extra))}: a plan holds only 'queries';"
            " pages are capped by the crawl knob max_pages"
            " (--max-pages, IDSWEEP_MAX_PAGES or config key max_pages)"
        )
    queries = data["queries"]
    if not isinstance(queries, list) or not all(isinstance(q, str) for q in queries):
        raise QueryError("plan 'queries' must be a list of strings")
    return QueryPlan(tuple(queries))


def load_plan_file(path: str | Path) -> QueryPlan:
    return plan_from_json(Path(path).read_text("utf-8"))

"""Query algebra rendering, plans, and the text-template interface."""

from __future__ import annotations

import json
import re

import hypothesis
import hypothesis.strategies as st
import pytest

from idsweep import queries as q


# --- rendering ---------------------------------------------------------------

def test_render_leaves():
    assert q.render(q.Phrase("dog")) == "dog"
    assert q.render(q.Phrase("dog", quoted=True)) == '"dog"'
    assert q.render(q.Phrase("National ID number")) == '"National ID number"'  # multi-word always quoted
    assert q.render(q.Exclude("pdf")) == "-pdf"
    assert q.render(q.FileType("pdf")) == "filetype:pdf"
    assert q.render(q.Site("ac.th")) == "site:ac.th"


def test_render_connectives():
    expr = q.And(
        (
            q.Phrase("dog", quoted=True),
            q.Group(q.Or((q.Phrase("cat", quoted=True), q.Phrase("bird", quoted=True)))),
        ),
        explicit=True,
    )
    assert q.render(expr) == '"dog" AND ("cat" OR "bird")'


def test_render_classic_combined_example():
    expr = q.And(
        (
            q.Site("example.com"),
            q.FileType("pdf"),
            q.And(
                (
                    q.Phrase("dog", quoted=True),
                    q.Group(q.Or((q.Phrase("cat", quoted=True), q.Phrase("bird", quoted=True)))),
                ),
                explicit=True,
            ),
        )
    )
    assert q.render(expr) == 'site:example.com filetype:pdf "dog" AND ("cat" OR "bird")'


# Five frozen construction goldens; also exercised by the acceptance suite.
def golden_constructions() -> list[tuple[q.QueryExpr, str]]:
    ph = lambda t: q.Phrase(t, quoted=True)
    return [
        (
            q.And((q.Site("ac.th"), q.Or((q.FileType("xlsx"), q.FileType("xls"))), ph("number"), ph("citizen"), ph("Mr."))),
            'site:ac.th filetype:xlsx OR filetype:xls "number" "citizen" "Mr."',
        ),
        (
            q.And((q.FileType("xls"), ph("National ID number"), ph("name"))),
            'filetype:xls "National ID number" "name"',
        ),
        (
            q.And((q.FileType("pdf"), ph("1-3501-"), ph("number"), ph("citizen"))),
            'filetype:pdf "1-3501-" "number" "citizen"',
        ),
        (
            q.And((ph("certificate of tax withholding"), q.FileType("pdf"), q.Site("go.th"), q.Group(q.And((ph("Miss"), ph("Mr.")), explicit=True)))),
            '"certificate of tax withholding" filetype:pdf site:go.th ("Miss" AND "Mr.")',
        ),
        (
            q.And((q.FileType("pdf"), q.Group(q.Or((ph("ID card number"), ph("National ID number"), ph("number")))), ph("list"), ph("1-1001-"))),
            'filetype:pdf ("ID card number" OR "National ID number" OR "number") "list" "1-1001-"',
        ),
    ]


def test_render_goldens():
    for expr, expected in golden_constructions():
        assert q.render(expr) == expected


def test_construction_errors():
    with pytest.raises(q.QueryError):
        q.And(())
    with pytest.raises(q.QueryError):
        q.Or(())
    with pytest.raises(q.QueryError):
        q.FileType("exe")
    with pytest.raises(q.QueryError):
        q.FileType("csv")
    with pytest.raises(q.QueryError):
        q.Phrase("")
    with pytest.raises(q.QueryError):
        q.Exclude("two words")
    with pytest.raises(q.QueryError):
        q.Site("")


def test_render_unbound_placeholder_is_error():
    # a text template is filled by expand_template; render takes expressions only
    with pytest.raises(q.QueryError, match="not a query expression"):
        q.render(q.And((q.FileType("pdf"), "{prefix}")))


# reference tokenizer: quotes balanced, parens balanced, no blank tokens,
# operator words only in operator positions
def reference_tokenize(rendered: str) -> list[str]:
    assert rendered.count('"') % 2 == 0
    depth = 0
    for ch in rendered:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            assert depth >= 0
    assert depth == 0
    tokens = re.findall(r'"[^"]+"|\(|\)|\S+', rendered)
    assert all(t.strip() for t in tokens)
    return tokens


_leaf = st.one_of(
    st.builds(q.Phrase, st.text(alphabet="abcเลขช 7", min_size=1, max_size=10).filter(str.strip), st.booleans()),
    st.builds(q.FileType, st.sampled_from(q.ALLOWED_FILETYPES)),
    st.builds(q.Site, st.sampled_from(["go.th", "ac.th", "example.com"])),
    st.builds(q.Exclude, st.sampled_from(["draft", "sample"])),
)


def _expr_strategy():
    return st.recursive(
        _leaf,
        lambda inner: st.one_of(
            st.builds(lambda cs, e: q.And(tuple(cs), e), st.lists(inner, min_size=1, max_size=4), st.booleans()),
            st.builds(lambda cs: q.Or(tuple(cs)), st.lists(inner, min_size=1, max_size=4)),
            st.builds(q.Group, inner),
        ),
        max_leaves=12,
    )


@hypothesis.given(_expr_strategy())
def test_rendering_tokenizes_cleanly(expr):
    reference_tokenize(q.render(expr))


# --- plans ---------------------------------------------------------------------

def test_build_plan_from_expr():
    template = 'filetype:pdf {prefix} "number" "citizen"'
    plan = q.build_plan_from_templates([template], [{"prefix": '"1-3501-"'}, {"prefix": '"3-2007-"'}])
    assert plan.queries == (
        'filetype:pdf "1-3501-" "number" "citizen"',
        'filetype:pdf "3-2007-" "number" "citizen"',
    )


def test_build_plan_no_bindings():
    with pytest.raises(q.QueryError, match="no templates"):
        q.build_plan_from_templates([], [{"prefix": "x"}])


def test_build_plan_template_without_placeholders():
    plan = q.build_plan_from_templates(["fixed"])
    assert plan.queries == ("fixed",)


def test_plan_validation():
    with pytest.raises(q.QueryError):
        q.QueryPlan(queries=())
    with pytest.raises(q.QueryError):
        q.QueryPlan(queries=("  ",))


def test_plan_json_round_trip():
    plan = q.QueryPlan(("a b", 'c "d"'))
    assert q.plan_from_json(q.plan_to_json(plan)) == plan


def test_plan_from_bad_json():
    with pytest.raises(q.QueryError):
        q.plan_from_json("{nope")
    with pytest.raises(q.QueryError):
        q.plan_from_json('{"engines": []}')
    # a plan holds only its queries; a key it would ignore is refused by name
    for key, value in (("engines", ["google"]), ("max_pages", 3), ("tags", ["t"]), ("foo", 1)):
        with pytest.raises(q.QueryError, match=f"'{key}'.*max_pages"):
            q.plan_from_json(json.dumps({"queries": ["a"], key: value}))
    # queries are a list of strings: not a string split into letters, nor a number
    for queries in ("abc", [1], ["a", None], {"a": 1}):
        with pytest.raises(q.QueryError, match="list of strings"):
            q.plan_from_json(json.dumps({"queries": queries}))


# --- text templates -------------------------------------------------------------

def test_expand_template():
    out = q.expand_template('filetype:pdf {prefix} "number"', {"prefix": '"1-3501-"'})
    assert out == 'filetype:pdf "1-3501-" "number"'


def test_expand_template_unbound():
    with pytest.raises(q.QueryError, match="prefix"):
        q.expand_template("{prefix}", {})


def test_template_and_binding_files(tmp_path):
    tpl = tmp_path / "templates.txt"
    tpl.write_text(
        "# sweep by district prefix\n"
        'filetype:pdf {prefix} "number"\n'
        'filetype:xls {prefix} "name"\n',
        encoding="utf-8",
    )
    bind = tmp_path / "bindings.csv"
    bind.write_text('prefix\n"1-1001-"\n"3-2007-"\n', encoding="utf-8")
    templates = q.load_templates(tpl)
    bindings = q.load_bindings(bind)
    plan = q.build_plan_from_templates(templates, bindings)
    assert plan.queries == (
        'filetype:pdf "1-1001-" "number"',
        'filetype:pdf "3-2007-" "number"',
        'filetype:xls "1-1001-" "name"',
        'filetype:xls "3-2007-" "name"',
    )
    # rendered plan queries are pairwise distinct for distinct inputs
    assert len(set(plan.queries)) == len(plan.queries)

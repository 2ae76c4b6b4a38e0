"""Source-host classification: TLD buckets, registered domains, owner tags."""

import pytest

from idsweep import domains


# --- tld_class goldens ----------------------------------------------------

CLASS_CASES = [
    ("http://www.nfe.go.th/obec_doc/a.pdf", "go.th"),
    ("https://cdd.go.th/files/list.xls", "go.th"),
    ("http://school.ac.th/students.xlsx", "ac.th"),
    ("https://rta.mi.th/docs/r.pdf", "mi.th"),
    ("https://baac.or.th/report.pdf", "or.th"),
    ("http://edudev.in.th/page.html", "in.th"),
    ("https://pea.co.th/bill.pdf", "co.th"),
    ("http://bare.example.th/x.pdf", "th"),
    ("http://pokkrongnakhon.com/d.pdf", "com"),
    ("https://chpao.org/f.xls", "org"),
    ("http://thai.ac/a.pdf", "ac"),
    ("http://122.154.253.83/scan.pdf", domains.IP_CLASS),
]


@pytest.mark.parametrize("url,expected", CLASS_CASES)
def test_tld_class(url, expected):
    assert domains.classify_url(url).tld_class == expected


def test_thai_second_level_is_closed_set():
    info = domains.classify_url("http://host.mystery.th/x")
    assert info.tld_class == "th"
    for sld in domains.TH_SECOND_LEVEL:
        assert sld.endswith(".th")
    assert len(domains.TH_SECOND_LEVEL) == 7


# --- registered domain ------------------------------------------------------

REGISTERED_CASES = [
    ("http://www.nfe.go.th/a.pdf", "nfe.go.th"),
    ("http://nfe.go.th/a.pdf", "nfe.go.th"),
    ("http://deep.sub.cdd.go.th/a.pdf", "cdd.go.th"),
    ("https://www.1stdirectory.co.uk/files", "1stdirectory.co.uk"),
    ("http://thaiconsulate.jp/visa.pdf", "thaiconsulate.jp"),
    ("http://pokkrongnakhon.com/d.pdf", "pokkrongnakhon.com"),
]


@pytest.mark.parametrize("url,expected", REGISTERED_CASES)
def test_registered_domain(url, expected):
    assert domains.classify_url(url).registered_domain == expected


def test_ip_literal_has_no_registered_domain():
    info = domains.classify_url("http://122.154.253.83/scan.pdf")
    assert info.registered_domain is None
    assert info.fqdn == "122.154.253.83"


def test_bare_suffix_has_no_registered_domain():
    # the host IS a public suffix; nobody registered it
    assert domains.classify_url("http://go.th/").registered_domain is None


def test_hostname_normalised():
    info = domains.classify_url("http://WWW.NFE.GO.TH./a.pdf")
    assert info.fqdn == "www.nfe.go.th"
    assert info.registered_domain == "nfe.go.th"


def test_unlisted_suffix_falls_back_to_last_two_labels():
    info = domains.classify_url("http://a.b.example.zz/x")
    assert info.registered_domain == "example.zz"
    assert info.tld_class == "zz"


# --- suffix list mechanics --------------------------------------------------

def test_longest_suffix_wins():
    psl = domains.PublicSuffixList(frozenset({"uk", "co.uk"}))
    assert psl.match("shop.co.uk") == "co.uk"
    assert psl.registered_domain("www.shop.co.uk") == "shop.co.uk"


def test_suffix_list_from_file(tmp_path):
    path = tmp_path / "suffixes.txt"
    path.write_text("# comment\nth\ngo.th\n\nco.uk\n", encoding="utf-8")
    psl = domains.PublicSuffixList.from_file(path)
    assert psl.match("x.go.th") == "go.th"
    assert psl.match("x.co.uk") == "co.uk"
    assert psl.match("nosuffix.example") is None


def test_suffix_list_file_and_bundled_list_parse_alike(tmp_path, monkeypatch):
    path = tmp_path / "public_suffixes.txt"
    path.write_text("# comment\n  # indented note\nth\n  go.th  \n\n\tco.uk\n", encoding="utf-8")
    monkeypatch.setattr(domains.resources, "files", lambda package: tmp_path)  # the bundled list, replaced
    bundled = domains.default_suffix_list()
    assert bundled.suffixes == domains.PublicSuffixList.from_file(path).suffixes == {"th", "go.th", "co.uk"}


def test_custom_psl_overrides_default():
    psl = domains.PublicSuffixList(frozenset({"zz", "my.zz"}))
    info = domains.classify_url("http://site.my.zz/x", psl=psl)
    assert info.registered_domain == "site.my.zz"


# --- errors -----------------------------------------------------------------

@pytest.mark.parametrize(
    "url",
    [
        "not a url",
        "mailto:x@y.th",
        "javascript:alert(1)",
        "http:///nopath",
        "//missing-scheme.th/x",
        "http://[::1/a.txt",  # urlsplit itself refuses it
    ],
)
def test_unusable_urls_raise(url):
    with pytest.raises(domains.ClassificationError):
        domains.classify_url(url)


# --- owner tags ---------------------------------------------------------------

def test_owner_tags_applied_by_registered_domain(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text(
        "# ministries\nnfe.go.th,education\nbaac.or.th,state_bank\n",
        encoding="utf-8",
    )
    tags = domains.load_owner_tags(path)
    info = domains.classify_url("http://www.nfe.go.th/a.pdf", owner_tags=tags)
    assert info.owner_tag == "education"
    other = domains.classify_url("http://cdd.go.th/a.pdf", owner_tags=tags)
    assert other.owner_tag is None


def test_owner_tags_bad_line_reports_position(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("good.go.th,ok\nno-comma-here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        domains.load_owner_tags(path)

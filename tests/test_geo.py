"""Registry parsing, integrity rules, and the bundled snapshot."""

from __future__ import annotations

import hypothesis
import hypothesis.strategies as st
import pytest

from idsweep import geo

from conftest import dump_registry

GOOD = """
# sample
P,10,Bangkok
P,80,Nakhon Si Thammarat
D,1001,Phra Nakhon
D,8001,Nakhon Si Thammarat City
POP,80,1531727
POP,8001,161786
"""


def load(text: str) -> geo.GeoRegistry:
    return geo.load_registry(text.splitlines())


def test_load_basic():
    reg = load(GOOD)
    assert reg.lookup_province("10").name == "Bangkok"
    assert reg.lookup_district("8001").name == "Nakhon Si Thammarat City"
    assert reg.lookup_district("8001").province_code == "80"
    assert reg.population.get("8001") == 161786
    assert reg.population.get("1001") is None
    assert reg.lookup_district("0000") is None


def test_orphan_district_names_row():
    bad = "P,10,Bangkok\nD,8001,Somewhere\n"
    with pytest.raises(geo.RegistryError, match="line 2.*no province 80"):
        load(bad)


def test_empty_source():
    with pytest.raises(geo.RegistryError, match="empty"):
        load("# only a comment\n")


def test_duplicate_codes():
    with pytest.raises(geo.RegistryError, match="duplicate province"):
        load("P,10,Bangkok\nP,10,Again\n")
    with pytest.raises(geo.RegistryError, match="duplicate district"):
        load("P,10,Bangkok\nD,1001,A\nD,1001,B\n")


def test_malformed_rows():
    with pytest.raises(geo.RegistryError, match="line 1.*3 comma"):
        load("P,10\n")
    with pytest.raises(geo.RegistryError, match="bad province code"):
        load("P,1x,Bangkok\n")
    with pytest.raises(geo.RegistryError, match="bad district code"):
        load("P,10,Bangkok\nD,100,Short\n")
    with pytest.raises(geo.RegistryError, match="unknown row kind"):
        load("X,10,Bangkok\n")
    with pytest.raises(geo.RegistryError, match="bad population count"):
        load("P,10,Bangkok\nPOP,10,-4\n")


@pytest.mark.parametrize("text, message", [
    ("P,1x,Bangkok\n", "registry line 1: bad province code '1x'"),
    ("P,10, \n", "registry line 1: empty province name"),
    ("P,10,Bangkok\nP,10,Again\n", "registry line 2: duplicate province code 10"),
    ("P,10,Bangkok\nD,100,Short\n", "registry line 2: bad district code '100'"),
    ("P,10,Bangkok\nD,1001,\n", "registry line 2: empty district name"),
    ("P,10,Bangkok\nD,1001,A\nD,1001,B\n", "registry line 3: duplicate district code 1001"),
    ("P,10,Bangkok\nD,1001,A\nD,8001,B\n", "registry line 3: district 8001 has no province 80"),
    ("D,1001,A\n", "registry is empty (no province rows)"),
], ids=["bad province code", "empty province name", "duplicate province", "bad district code",
        "empty district name", "duplicate district", "orphan district", "districts alone"])
def test_area_row_messages(text, message):
    with pytest.raises(geo.RegistryError) as raised:
        load(text)
    assert str(raised.value) == message


def test_population_for_unknown_code():
    with pytest.raises(geo.RegistryError, match="unknown code 99"):
        load("P,10,Bangkok\nPOP,99,123\n")


def test_duplicate_population_row():
    with pytest.raises(geo.RegistryError, match="duplicate population"):
        load("P,10,Bangkok\nPOP,10,1\nPOP,10,2\n")


def test_round_trip():
    reg = load(GOOD)
    dumped = dump_registry(reg)
    again = geo.load_registry(dumped.splitlines())
    assert again == reg
    assert dump_registry(again) == dumped


def test_default_registry_contents():
    reg = geo.default_registry()
    assert reg.lookup_province("91").name == "Satun"
    assert reg.lookup_district("1001").name == "Phra Nakhon"
    assert reg.lookup_district("2007").name == "Si Racha"
    assert reg.population.get("91") == 324390
    assert reg.population.get("2481") == 4231
    assert reg.as_of == "2024-12"
    # codes that must stay absent for the validation examples to mean anything
    assert reg.lookup_district("2345") is None
    assert reg.lookup_district("3095") is None


def test_default_registry_referential_integrity():
    reg = geo.default_registry()
    for district in reg.iter_districts():
        assert reg.lookup_province(district.province_code) is not None
    for code in reg.population:
        assert code in reg.provinces or code in reg.districts


_name = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)


@hypothesis.given(
    st.dictionaries(
        st.text(alphabet="0123456789", min_size=2, max_size=2), _name, min_size=1, max_size=6
    ),
    st.data(),
)
def test_round_trip_property(provinces, data):
    lines = [f"P,{code},{name}" for code, name in provinces.items()]
    district_codes = data.draw(
        st.sets(
            st.tuples(st.sampled_from(sorted(provinces)), st.text("0123456789", min_size=2, max_size=2)),
            max_size=6,
        )
    )
    for prov, tail in sorted(district_codes):
        lines.append(f"D,{prov}{tail},{data.draw(_name)}")
    reg = geo.load_registry(lines)
    assert geo.load_registry(dump_registry(reg).splitlines()) == reg

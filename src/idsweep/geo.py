"""Thai administrative-area registry: provinces, districts, population counts.

The registry is the ground truth for the prefix stage of ID validation and
for per-capita exposure rates.  It loads from a small line-oriented text
format so survey snapshots can be swapped without touching code:

    # comment
    P,<2-digit code>,<province name>
    D,<4-digit code>,<district name>      (province = first two digits)
    POP,<code>,<resident count>           (code may be province or district)
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

DEFAULT_REGISTRY_RESOURCE = "registry_th.txt"


class RegistryError(ValueError):
    """Raised when a registry source is malformed."""


@dataclass(frozen=True)
class Province:
    code: str
    name: str


@dataclass(frozen=True)
class District:
    code: str
    name: str

    @property
    def province_code(self) -> str:
        return self.code[:2]


@dataclass
class GeoRegistry:
    provinces: dict[str, Province] = field(default_factory=dict)
    districts: dict[str, District] = field(default_factory=dict)
    population: dict[str, int] = field(default_factory=dict)  # resident counts by province or district code
    as_of: str = ""  # when the population was counted

    def lookup_province(self, code: str) -> Optional[Province]:
        return self.provinces.get(code)

    def lookup_district(self, code: str) -> Optional[District]:
        return self.districts.get(code)

    def iter_districts(self) -> list[District]:
        return [self.districts[c] for c in sorted(self.districts)]

    def iter_provinces(self) -> list[Province]:
        return [self.provinces[c] for c in sorted(self.provinces)]


def _fail(lineno: int, message: str) -> None:
    raise RegistryError(f"registry line {lineno}: {message}")


def load_registry(lines: Iterable[str], as_of: str = "") -> GeoRegistry:
    """Parse registry rows, enforcing unique codes and referential integrity."""
    provinces: dict[str, Province] = {}
    districts: dict[str, District] = {}
    # row kind -> the area it names, its code's length, the areas so far, the area's type
    areas = {"P": ("province", 2, provinces, Province), "D": ("district", 4, districts, District)}
    area_rows: dict[str, int] = {}  # area code -> its line
    pop_rows: list[tuple[int, str, int]] = []

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            _fail(lineno, f"expected 3 comma-separated fields, got {len(parts)}")
        kind, code, value = (p.strip() for p in parts)
        if kind in areas:
            area, length, known, make = areas[kind]
            if not (len(code) == length and code.isascii() and code.isdigit()):
                _fail(lineno, f"bad {area} code {code!r}")
            if not value:
                _fail(lineno, f"empty {area} name")
            if code in known:
                _fail(lineno, f"duplicate {area} code {code}")
            known[code] = make(code, value)
            area_rows[code] = lineno
        elif kind == "POP":
            if not value.isascii() or not value.isdigit():
                _fail(lineno, f"bad population count {value!r}")
            pop_rows.append((lineno, code, int(value)))
        else:
            _fail(lineno, f"unknown row kind {kind!r}")

    if not provinces:
        raise RegistryError("registry is empty (no province rows)")

    for code in districts:
        if code[:2] not in provinces:
            _fail(area_rows[code], f"district {code} has no province {code[:2]}")

    population: dict[str, int] = {}
    for lineno, code, count in pop_rows:
        if code not in provinces and code not in districts:
            _fail(lineno, f"population for unknown code {code}")
        if code in population:
            _fail(lineno, f"duplicate population row for {code}")
        population[code] = count

    return GeoRegistry(provinces=provinces, districts=districts, population=population, as_of=as_of)


def load_registry_file(path: str | Path, as_of: str = "") -> GeoRegistry:
    with io.open(path, encoding="utf-8") as handle:
        return load_registry(handle, as_of=as_of)


def default_registry() -> GeoRegistry:
    """Registry bundled with the package (December 2024 survey counts)."""
    text = resources.files("idsweep.data").joinpath(DEFAULT_REGISTRY_RESOURCE).read_text("utf-8")
    return load_registry(text.splitlines(), as_of="2024-12")

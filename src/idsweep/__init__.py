"""idsweep: find and analyze exposed Thai national ID numbers in documents.

The public names below are imported from their submodules on first access
(PEP 562), so ``import idsweep`` -- and every ``python -m idsweep.<module>``
subprocess -- pays only for the submodules it actually uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "domains": ("DomainInfo", "classify_url"),
        "geo": ("GeoRegistry", "RegistryError", "default_registry", "load_registry", "load_registry_file"),
        "harvest": ("CrawlConfig", "DownloadRecord", "SearchHit", "download_all", "execute_plan"),
        "pipeline": ("ScanSummary", "run_scan", "scan_document"),
        "providers": ("FixtureProvider", "HttpProvider", "ProviderDisabled", "ProviderError"),
        "queries": ("QueryPlan", "build_plan_from_templates", "load_plan_file", "render"),
        "reports": ("AggregateTable", "emit_report", "percent_of", "tables"),
        "store": ("ResultStore",),
        "thai_id": (
            "NationalId", "PseudonymToken", "RawCandidate", "ValidationOutcome", "compute_checksum",
            "decode", "find_candidates", "generate_valid_id", "normalize_numerals", "pseudonymize",
            "validate",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

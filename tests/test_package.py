"""The package root: every public name importable, none of them paid for up front.

Each command of the CLI loads only the modules it runs; the import tests run
a fresh interpreter and list what it loaded.
"""

import ast
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import idsweep
from idsweep import reports
from idsweep.geo import default_registry
from idsweep.store import ResultStore
from idsweep.thai_id import generate_valid_id

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DEMO = TESTS.parent / "data" / "demo"

HTTP_STACK = {"http.client", "ssl", "urllib.request"}


def run_python(code: str, cwd: Path | None = None) -> str:
    """What a fresh interpreter that imports this checkout's ``idsweep`` prints running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, check=True)
    return proc.stdout


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``, listed before the ``json`` that prints them."""
    code += "\nimport sys\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))"
    return set(json.loads(run_python(code).splitlines()[-1]))


def cli_run(*argv: str) -> str:
    """Code that runs ``idsweep`` with ``argv`` and fails unless it exits 0."""
    return f"import idsweep.cli\nassert idsweep.cli.entry({list(argv)!r}) == 0"


def test_import_loads_no_submodule():
    assert {m for m in loaded_modules("import idsweep") if m.startswith("idsweep.")} == set()


def test_cli_import_loads_no_process_pool():
    # only a report large enough to split forks workers, and it imports them then
    loaded = loaded_modules("import idsweep.cli")
    assert {m for m in loaded if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"} == set()


def test_cli_import_loads_no_command_module():
    commands = {f"idsweep.{m}" for m in
                ("pipeline", "extract", "providers", "queries", "reports", "store", "domains", "thai_id")}
    # nor json, which only reading a scan's config needs
    assert loaded_modules("import idsweep.cli") & (commands | {"json"}) == set()


def test_report_loads_neither_scan_nor_http(tmp_path):
    sha256 = "ab" * 32
    with ResultStore(tmp_path / "store") as store:
        hit_id = store.add_hit("q", "fixture", 1, 1, "http://a.go.th/x.pdf", "t", False)
        store.record_download(hit_id, "success", "t", sha256=sha256, declared_type="pdf")
        store.add_exposures([(generate_valid_id("11001", "2345678", default_registry()), sha256)])
    loaded = loaded_modules(cli_run(
        "report", "--store", str(tmp_path / "store"), "--out", str(tmp_path / "out"),
        "--salt-file", str(TESTS / "data" / "demo_salt.txt"),
    ))
    scan = {f"idsweep.{m}" for m in ("pipeline", "extract", "providers", "queries", "harvest")}
    assert "idsweep.reports" in loaded
    assert loaded & (scan | HTTP_STACK | {"email.message"}) == set()


def test_report_in_ranges_loads_no_process_pool(tmp_path):
    # a store of three IDs, made to split into three ranges whatever its size
    with ResultStore(tmp_path / "store") as store:
        for i in range(3):
            sha256 = f"{i:064x}"
            hit_id = store.add_hit("q", "fixture", 1, i + 1, f"http://a.go.th/{i}.pdf", "t", False)
            store.record_download(hit_id, "success", "t", sha256=sha256, declared_type="pdf")
            store.add_exposures([(generate_valid_id("11001", f"234567{i}", default_registry()), sha256)])
    loaded = loaded_modules("\n".join([
        "import os, idsweep.cli",
        "forks, fork = [], os.fork",
        "os.fork = lambda: forks.append(1) or fork()",
        "idsweep.cli._id_ranges = lambda store: store.id_ranges(3, min_rows=1)",
        cli_run("report", "--store", str(tmp_path / "store"), "--out", str(tmp_path / "out"),
                "--salt-file", str(TESTS / "data" / "demo_salt.txt")),
        "assert len(forks) == 3",
    ]))
    assert {m for m in loaded if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"} == set()


def test_id_validate_loads_neither_reports_nor_harvest():
    loaded = loaded_modules(cli_run("id", "validate", generate_valid_id("11001", "2345678", default_registry())))
    assert "idsweep.thai_id" in loaded
    assert loaded & {"idsweep.reports", "idsweep.harvest", "idsweep.domains", "concurrent.futures"} == set()


def test_fixture_scan_loads_no_http_stack(tmp_path):
    loaded = loaded_modules(cli_run(
        "scan", "run", "--plan", str(DEMO / "plan.json"), "--fixture", str(DEMO),
        "--extractors", str(DEMO / "extractors.json"), "--store", str(tmp_path / "store"),
        "--search-delay", "0",
    ))
    assert "idsweep.pipeline" in loaded
    assert loaded & HTTP_STACK == set()


def test_runtime_imports_only_the_standard_library():
    imported = {}
    for path in sorted((SRC / "idsweep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert {"pickle", "http"} <= set(imported)  # imported inside functions only
    outside = {top: where for top, where in imported.items()
               if top not in sys.stdlib_module_names and top != "idsweep"}
    assert outside == {}


def test_one_rule_decides_which_urls_are_sources():
    # only domains reads a URL's host, as url_host, and only providers opens one, after asking it
    hosts, opens = set(), set()
    for path in sorted((SRC / "idsweep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "hostname":
                hosts.add(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and "urlopen" in (getattr(node.func, "attr", None),
                                                               getattr(node.func, "id", None)):
                opens.add(f"{path.name}:{node.lineno}")
    assert {where.split(":")[0] for where in hosts} == {"domains.py"}, hosts
    assert {where.split(":")[0] for where in opens} == {"providers.py"}, opens


# (module, name) imported but never read, each kept because bench/tests/test_bench.py checks that the
# bench's tracer wraps it where it is bound, by the line given
BENCH_PINNED_IMPORTS = {
    ("reports", "pseudonymize"): '(idsweep.reports, "pseudonymize")',
    ("pipeline", "find_candidates"): '(idsweep.pipeline, "find_candidates")',
    ("pipeline", "validate"): '(idsweep.pipeline, "validate")',
}


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, an annotation's included, quoted or not."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_read(ast.parse(node.value, mode="eval"))
    return read


def test_every_import_is_read():
    unread = set()
    for path in sorted((SRC / "idsweep").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unread |= {(path.stem, name) for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names) if name not in read}
    assert unread == set(BENCH_PINNED_IMPORTS)
    bench_test = (TESTS.parent / "bench" / "tests" / "test_bench.py").read_text("utf-8")
    assert all(pin in bench_test for pin in BENCH_PINNED_IMPORTS.values())


# public names that no code in the package reads and its root does not export, each kept while the
# file given here still names it
UNREAD_PUBLIC_NAMES = {
    "ResultStore.add_exposure": "bench/workloads.py",
    "ResultStore.unique_id_count": "bench/tests/test_bench.py",
    "ResultStore.load_occurrences": "bench/tests/test_bench.py",
    "synth.make_corpus": "bench/workloads.py",
    "PublicSuffixList.from_file": "README.md",
}


def test_every_public_name_is_read():
    # a public function or class as module.name, unless the package root exports it from there, and a
    # public method as Class.name, unless it overrides one of a base class's (an HTMLParser callback)
    read, defined = set(), {}
    for path in sorted((SRC / "idsweep").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        read |= _names_read(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        module = importlib.import_module(f"idsweep.{path.stem}") if path.stem != "__init__" else idsweep
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") \
                    and idsweep._EXPORTS.get(node.name) != path.stem:
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                inherited = {name for base in getattr(module, node.name).__mro__[1:] for name in vars(base)}
                defined |= {f"{node.name}.{item.name}": item.name for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and item.name not in inherited}
    assert {qualified for qualified, name in defined.items() if name not in read} == set(UNREAD_PUBLIC_NAMES)
    for qualified, where in UNREAD_PUBLIC_NAMES.items():
        assert qualified.rsplit(".", 1)[1] in (TESTS.parent / where).read_text("utf-8"), qualified


def test_every_public_name_resolves():
    for name in idsweep.__all__:
        assert getattr(idsweep, name) is not None, name
    assert set(idsweep.__all__) <= set(dir(idsweep))
    namespace: dict = {}
    exec("from idsweep import *", namespace)
    assert set(idsweep.__all__) <= set(namespace)
    assert len(idsweep.__all__) == 40  # 39 names plus __version__


def test_public_names_are_the_submodule_objects():
    from idsweep import pipeline, store

    assert idsweep.run_scan is pipeline.run_scan
    assert idsweep.ResultStore is store.ResultStore


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        idsweep.no_such_name
    with pytest.raises(ImportError):
        exec("from idsweep import no_such_name", {})


def test_readme_library_example_runs(tmp_path):
    (example,) = re.findall(r"^```python\n(.*?)^```", (TESTS.parent / "README.md").read_text("utf-8"),
                            re.DOTALL | re.MULTILINE)
    shutil.copytree(DEMO, tmp_path / "data" / "demo")  # at the paths the example names
    printed = run_python(example, cwd=tmp_path)
    with ResultStore(tmp_path / "out" / "store") as store:
        table = reports.tables(store, default_registry())[0]["file_type"]
    assert table.dimension == "file_type" and table.rows
    assert printed == f"{table!r}\n"

"""Self-test of the benchmark at tiny scale.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import idsweep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from idsweep.geo import default_registry  # noqa: E402
from idsweep.harvest import CrawlConfig, download_all, execute_plan  # noqa: E402
from idsweep.providers import FixtureProvider  # noqa: E402
from idsweep.queries import load_plan_file  # noqa: E402
from idsweep.store import ResultStore  # noqa: E402
from idsweep.synth import FORMS, render_id  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {})


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for g in ("end_to_end", "per_layer") for m in SPEC[g])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_untraced_runs_install_no_wrappers(tmp_path):
    spec = {"commands": [["id", "validate", "1-1001-23456-78-6"]], "trace": False, "run_id": "t",
            "unique_ids": 1, "result_path": str(tmp_path / "result.json")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(tmp_path / "spec.json")],
                   env=env, check=True, capture_output=True, timeout=60)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_codes"] == [0]
    assert result["wrappers_during_run"] == 0 and "layers" not in result


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute of every idsweep module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("idsweep"):
            continue
        for attr, obj in vars(module).items():
            seen[(id(module), attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("idsweep"):
                for method, raw in vars(obj).items():
                    seen[(id(obj), method)] = raw
    return seen


def test_traced_run_restores_every_patched_function():
    for layer in tracing.LAYERS:
        importlib.import_module(f"idsweep.{layer}")
    before = _bindings()
    tracer = tracing.Tracer("restore")
    tracer.install()
    try:
        patched = {(id(owner), attr) for owner, attr, _ in tracer.patches}
        for owner, attr in (
            (idsweep.pipeline, "find_candidates"), (idsweep.pipeline, "validate"),
            (idsweep.pipeline, "scan_document"), (idsweep.extract, "run_external"),
            (idsweep.reports, "classify_url"), (idsweep.reports, "pseudonymize"),
            (ResultStore, "add_exposure"), (ResultStore, "load_occurrences"),
        ):
            assert (id(owner), attr) in patched
            assert getattr(owner, attr).__bench_span__
        assert not hasattr(idsweep.thai_id.compute_checksum, "__bench_span__")  # UNTRACED
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_worker_thread_spans_hang_under_download_all(tmp_path):
    registry = default_registry()
    inputs = workloads.make_scan_inputs("scan-builtin", tmp_path / "corpus", registry, 3, tiny=True)
    with ResultStore(tmp_path / "store") as store, tracing.Tracer("threads") as tracer:
        config = CrawlConfig(search_delay=0, download_workers=3)
        provider = FixtureProvider(inputs.corpus / "index.json")
        hits = idsweep.harvest.execute_plan(load_plan_file(inputs.plan), provider, config, store)
        idsweep.harvest.download_all(hits, provider, config, store)
    assert execute_plan is idsweep.harvest.execute_plan and download_all is idsweep.harvest.download_all
    ix = tracing.SpanIndex(tracer)
    (parent,) = ix.named("harvest.download_all")
    downloads = ix.named("harvest.download")
    assert len(downloads) == len(hits) > 1
    assert all(span[1] == parent[0] for span in downloads)
    assert all(ix.by_id[f[1]] in downloads for f in ix.named("FixtureProvider.fetch"))


def test_leak_scan_catches_every_written_form():
    digits = "1100100000013"
    for form in (render_id(digits, f) for f in FORMS):
        assert run.count_leaks(f"prefix {form} suffix", {digits}) == 1, form
        assert run.count_leaks(f"x{form}9", {digits}) == 1, form
    assert run.count_leaks("1100100000014 1-1001-00000-01-4", {digits}) == 0


def test_report_store_reproduces_the_scaled_distribution(tmp_path):
    inputs = workloads.build_report_store(tmp_path, default_registry(), 5, tiny=True)
    assert inputs.truth.repeat == workloads.scaled_distribution(workloads.REPORT_SIZES[1][0])
    with ResultStore(inputs.store) as store:
        assert store.unique_id_count() == inputs.truth.unique_ids == len(inputs.planted)
        assert len(store.load_occurrences()) == inputs.truth.occurrences


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("scan-external", 0, cwd=tmp_path)
    assert proc.returncode != 0 and result == {}

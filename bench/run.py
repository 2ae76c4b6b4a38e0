"""idsweep benchmark: three workloads, checked for correctness on every run.

    python3 bench/run.py --workload scan-external --seed 1 --seconds 20 --trace 0

Run from anywhere; the benchmark works inside the checkout that holds this
file and builds nothing (``src/`` goes on ``PYTHONPATH``).  Workloads are
described in ``bench/workloads.py``.  ``scan-builtin`` runs like the others
but is left out of ``BENCHMARK.json``: its time is about 20 k synced SQLite
commits, and on a shared disk one iteration drifted from 11 s to 19 s within
two minutes, wider than any bound the gate allows.  Each run:

* generates the workload's inputs from ``--seed``;
* times set-up (``import idsweep.cli`` + ``default_registry()``) in several
  fresh interpreters;
* with ``--trace 0``, runs the workload's CLI commands in a fresh child
  process, again and again until ``--seconds`` have passed (at least twice),
  and reports the medians of ``run_s``, ``setup_s``, ``peak_rss_mb`` and
  ``store_mb``;
* with ``--trace 1``, alternates untraced and traced children for the same
  time and reports per-layer figures from the traced ones (see
  ``bench/tracing.py``), the tracing overhead, and a spawn-cost probe of the
  external extractor;
* checks every child's outputs against the truth the inputs were built with,
  checks that report bytes repeat exactly, and searches everything the
  benchmark wrote or captured for planted IDs in any written form.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment and every sample, goes to ``.bench_results/`` in the checkout;
the traced run's spans go beside it.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

WORKLOADS = ("scan-external", "scan-builtin", "report-paper")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "store_mb": "MB"}
MIN_ITERATIONS = 2
SETUP_PROBES = 7
SPAWN_PROBES = 11
BUDGET_S = 165  # a run ends by then: no iteration starts that would not finish in time
ENVIRONMENT_NOTE = (
    "Warm-cache numbers from a shared virtual machine, not device numbers: file caches "
    "were not dropped and no CPU or kernel setting was changed."
)

REPORT_TABLES = "filetype,tld,domain,owner,query,category,geo,repeat,exposures"
TABLE_FILES = ("category", "domain", "exposures", "filetype", "geo_district", "geo_province",
               "owner", "query", "repeat", "tld")
_SUMMARY = re.compile(r"(\d+) distinct IDs across (\d+) of (\d+) documents")
# runs of 13+ ASCII or Thai digits with '-' or ' ' between them; a doubled
# separator ends a written ID, so runs are split there
_DIGIT_RUN = re.compile(r"[0-9๐-๙][0-9๐-๙ -]{11,}[0-9๐-๙]")
_RUN_BREAK = re.compile(r"[- ]{2,}")
_TO_ASCII = str.maketrans({"-": None, " ": None, **{chr(0x0E50 + d): str(d) for d in range(10)}})


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, unreadable inputs)."""


# --- processes -------------------------------------------------------------------------

def run_process(argv: list[str], env: dict, log_stem: Path, timeout: float) -> int:
    """Run a command in its own process group, logs to <stem>.out/.err.

    Whatever the command leaves running in its group is killed, and every
    process is waited for, before this returns or raises.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


# --- correctness -----------------------------------------------------------------------

def count_leaks(text: str, planted: set[str]) -> int:
    """Planted IDs in the text, in any written form: contiguous, grouped with
    hyphens, spaces or both, in ASCII or Thai digits, or inside a longer run."""
    leaks = 0
    for match in _DIGIT_RUN.finditer(text):
        for piece in _RUN_BREAK.split(match.group()):
            digits = piece.translate(_TO_ASCII)
            leaks += sum(digits[i:i + 13] in planted for i in range(len(digits) - 12))
    return leaks


def read_table(path: Path) -> list[dict[str, str]]:
    lines = path.read_text("utf-8").splitlines()
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    return [dict(zip(header, (c.strip() for c in line.strip("|").split("|")))) for line in lines[2:]]


def listing_tokens(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.split("|", 2)[1].strip() for n, line in enumerate(fh) if n >= 2]


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def settle(path: Path) -> None:
    """fsync every file and directory under ``path``.

    Inputs are written just before they are measured against; flushing them
    here keeps their write-back out of the timed commands' commits.
    """
    for item in sorted(path.rglob("*"), reverse=True) + [path]:
        fd = os.open(item, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def tree_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


class Checks:
    """Operations attempted and failed, plus why, without ever naming an ID."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, ops: int, failures: int, problem: str = "") -> None:
        self.attempted += ops
        self.failed += failures
        if failures and problem and problem not in self.problems:
            self.problems.append(problem)

    def expect(self, ok: bool, problem: str) -> None:
        self.count(1, 0 if ok else 1, problem)


# --- the benchmark ---------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
        self.workload, self.seed, self.seconds, self.trace, self.tiny = workload, seed, seconds, trace, tiny
        self.started = time.perf_counter()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.stem = f"{workload}-seed{seed}{'-tiny' if tiny else ''}"  # names result files
        # TMPDIR keeps the external extractor's staged inputs inside the checkout
        self.env = dict(os.environ, TMPDIR=str(self.work / "tmp"), PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.salt = (BENCH / "salt.txt").read_bytes().strip()
        self.checks = Checks()
        self.leaks = 0
        self.children = 0
        self.digests: dict[str, int] = {}   # report output digest -> iterations producing it
        self.checked: dict[str, tuple[int, int, list[str]]] = {}  # digest -> output check result
        self.samples: list[dict] = []
        self.traced: list[dict] = []
        self.setup_samples: list[dict] = []

    # --- inputs ---

    def prepare(self) -> None:
        from idsweep.geo import default_registry
        from idsweep.thai_id import pseudonymize

        import workloads

        registry = default_registry()
        self.work.mkdir(parents=True)
        (self.work / "logs").mkdir()
        (self.work / "tmp").mkdir()
        if self.workload == "report-paper":
            self.inputs = workloads.build_report_store(self.work, registry, self.seed, self.tiny)
            self.n_docs = None
        else:
            self.inputs = workloads.make_scan_inputs(self.workload, self.work / "corpus", registry,
                                                     self.seed, self.tiny)
            self.n_docs = self.inputs.n_docs
        self.planted = set(self.inputs.planted)
        self.tokens = {pseudonymize(d, self.salt).token for d in self.planted}
        (self.work / "salt.txt").write_bytes(self.salt + b"\n")
        settle(self.work)

    def commands(self, k: int) -> tuple[list[list[str]], Path, Path]:
        out = self.work / f"out-{k}"
        if self.workload == "report-paper":
            store = self.inputs.store
            cmds = []
        else:
            store = self.work / f"store-{k}"
            workers = min(4, len(os.sched_getaffinity(0)))
            cmds = [[
                "scan", "run", "--provider", "fixture", "--fixture", str(self.inputs.corpus),
                "--plan", str(self.inputs.plan), "--extractors", str(self.inputs.extractors),
                "--store", str(store), "--search-delay", "0", "--download-workers", str(workers),
            ]]
        cmds.append([
            "report", "--store", str(store), "--salt-file", str(self.work / "salt.txt"),
            "--tables", REPORT_TABLES, "--format", "markdown", "--out", str(out),
        ])
        return cmds, store, out

    # --- children ---

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def child(self, commands: list[list[str]], trace: bool, trace_path: Path | None = None) -> dict:
        k = self.children
        self.children += 1
        spec = {
            "commands": commands, "trace": trace, "run_id": f"{self.workload}-{self.seed}-{k}",
            "unique_ids": len(self.planted), "result_path": str(self.work / f"result-{k}.json"),
            "trace_path": str(trace_path) if trace_path else None,
        }
        spec_path = self.work / f"spec-{k}.json"
        spec_path.write_text(json.dumps(spec), "utf-8")
        stem = self.work / "logs" / f"child-{k}"
        timeout = max(10.0, self.remaining() + 10)
        code = run_process([sys.executable, str(BENCH / "child.py"), str(spec_path)], self.env, stem, timeout)
        logs = {key: Path(f"{stem}.{suffix}").read_text("utf-8", errors="replace")
                for key, suffix in (("stdout", "out"), ("stderr", "err"))}
        self.leaks += sum(count_leaks(text, self.planted) for text in logs.values())
        if code != 0:
            last = logs["stderr"].strip().splitlines()[-1:]
            raise RuntimeError(f"benchmark child exited {code}: {''.join(last)}")
        return json.loads(Path(spec["result_path"]).read_text("utf-8")) | logs

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            self.setup_samples.append(self.child([], trace=False))

    def iteration(self, trace: bool) -> None:
        k = self.children
        cmds, store, out = self.commands(k)
        trace_path = None
        if trace and not self.traced:
            RESULTS.mkdir(exist_ok=True)
            trace_path = RESULTS / f"{self.stem}-spans.json.gz"
        result = self.child(cmds, trace, trace_path)
        result["store_mb"] = tree_mb(store)
        self.check_iteration(result, out)
        if trace_path is not None:
            with gzip.open(trace_path, "rt", encoding="utf-8") as fh:
                self.leaks += count_leaks(fh.read(), self.planted)
        # stores and outputs stay until the run ends: deleting them now would
        # put their file-system journal traffic into the next child's commits
        for key in ("stdout", "stderr"):
            result.pop(key)
        (self.traced if trace else self.samples).append(result)

    # --- checks ---

    def check_iteration(self, result: dict, out: Path) -> None:
        warnings = [ln for ln in result["stderr"].splitlines() if ln.startswith("warning:")]
        codes = result["exit_codes"]
        ops = (len(self.planted) + self.n_docs) if self.n_docs else 0
        if any(codes):
            self.checks.count(max(ops, 1), max(ops, 1), f"command exit codes {codes}")
            return
        self.checks.count(len(warnings), len(warnings), f"{len(warnings)} diagnostic warning(s) on stderr")
        self.checks.expect(result["wrappers_after_run"] == 0, "tracing wrappers left installed")
        if not result.get("layers"):
            self.checks.expect(result["wrappers_during_run"] == 0, "untraced run had wrappers installed")
        digest = output_digest(out)
        self.digests[digest] = self.digests.get(digest, 0) + 1
        if digest not in self.checked:
            sub = Checks()
            try:
                (self.check_report if self.workload == "report-paper" else self.check_scan)(out, sub)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                sub.count(1, 1, f"report output unreadable ({type(exc).__name__})")
            # the report directory is the program's output; search it too
            for path in sorted(out.iterdir()):
                self.leaks += count_leaks(path.read_text("utf-8", errors="replace"), self.planted)
            self.checked[digest] = (sub.attempted, sub.failed, sub.problems)
        attempted, failed, problems = self.checked[digest]
        self.checks.count(attempted, failed, "; ".join(problems))
        if self.workload != "report-paper":
            match = _SUMMARY.search(result["stdout"])
            unique = int(match.group(1)) if match else -1
            self.checks.expect(unique == len(self.planted),
                               f"scan reported {unique} distinct IDs, {len(self.planted)} planted")

    def check_scan(self, out: Path, checks: Checks) -> None:
        """Precision and recall of the listing against the manifest: one op per doc and per ID."""
        found = set(listing_tokens(out / "exposures.md"))
        expected = self.tokens
        missed, spurious = len(expected - found), len(found - expected)
        ops = len(expected) + self.n_docs
        checks.count(ops, min(ops, missed + spurious), f"listing missed {missed} and added {spurious} IDs")
        repeat_total = sum(int(r["unique_ids"]) for r in read_table(out / "repeat.md"))
        checks.expect(repeat_total == len(expected),
                      f"repeat table counts {repeat_total} IDs, {len(expected)} planted")

    def check_report(self, out: Path, checks: Checks) -> None:
        """Every row the built truth pins, one op per row."""
        truth = self.inputs.truth
        for name in TABLE_FILES:
            checks.expect((out / f"{name}.md").is_file(), f"{name}.md missing")
        for table, expected in (
            ("repeat", {str(m): n for m, n in truth.repeat.items()}),
            ("category", truth.category),
            ("query", truth.query),
            ("filetype", truth.filetype),
            ("geo_province", truth.province),
        ):
            rows = {r["key"]: int(r["unique_ids"]) for r in read_table(out / f"{table}.md")}
            bad = sum(rows.get(k) != v for k, v in expected.items()) + len(set(rows) - set(expected))
            checks.count(len(expected), min(bad, len(expected)),
                         f"{table} table differs from the built store in {bad} row(s)")
        repeat_total = sum(int(r["unique_ids"]) for r in read_table(out / "repeat.md"))
        checks.expect(repeat_total == truth.unique_ids,
                      f"repeat table totals {repeat_total} IDs, store holds {truth.unique_ids}")
        tokens = listing_tokens(out / "exposures.md")
        checks.expect(len(tokens) == truth.occurrences,
                      f"listing has {len(tokens)} rows, store holds {truth.occurrences} occurrences")
        checks.expect(set(tokens) == self.tokens, "listing IDs differ from the built store")

    # --- spawn probe ---

    def probe_spawn(self) -> dict:
        """Median spawn of ``python -m idsweep.textcat`` on one line, and of a bare interpreter."""
        sample = self.work / "spawn-probe.txt"
        text = "ทดสอบ 1\n"
        sample.write_text(text, "utf-8")
        stem = self.work / "logs" / "spawn"
        times: dict[str, list[float]] = {"textcat": [], "bare": []}
        argvs = {"textcat": [sys.executable, "-m", "idsweep.textcat", str(sample)],
                 "bare": [sys.executable, "-c", "pass"]}
        for _ in range(SPAWN_PROBES):
            for kind, argv in argvs.items():
                start = time.perf_counter()
                code = run_process(argv, self.env, stem, 60)
                times[kind].append(time.perf_counter() - start)
                self.checks.expect(code == 0, f"spawn probe {kind} exited {code}")
                if kind == "textcat":
                    self.checks.expect(Path(f"{stem}.out").read_text("utf-8") == text,
                                       "textcat probe output differs from its input")
        return {kind: statistics.median(v) * 1e3 for kind, v in times.items()}

    # --- the run ---

    def run(self) -> dict:
        self.prepare()
        self.probe_setup()
        measure_start = time.perf_counter()
        spawn = self.probe_spawn() if self.trace else None
        longest = 0.0
        while True:
            started = time.perf_counter()
            self.iteration(trace=False)
            if self.trace:
                self.iteration(trace=True)
            longest = max(longest, time.perf_counter() - started)
            done = len(self.samples) >= (1 if self.trace else MIN_ITERATIONS)
            if self.remaining() < 1.5 * longest or (done and time.perf_counter() - measure_start >= self.seconds):
                break
        self.checks.expect(len(self.digests) == 1,
                           f"report bytes differed between runs of one seed ({len(self.digests)} digests)")
        return self.summarize(spawn)

    def summarize(self, spawn: dict | None) -> dict:
        med = statistics.median
        end_to_end = {
            "run_s": med(s["run_s"] for s in self.samples),
            "setup_s": med(s["setup_s"] for s in self.setup_samples),
            "peak_rss_mb": med(s["peak_rss_mb"] for s in self.samples),
            "store_mb": med(s["store_mb"] for s in self.samples),
        }
        if not self.trace:
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end.items()}
        else:
            metrics = {name: (med(t["layers"][name][0] for t in self.traced), unit)
                       for name, (_, unit) in self.traced[0]["layers"].items()}
            traced_s = med(t["run_s"] for t in self.traced)
            metrics["extract.spawn_overhead_ms"] = (spawn["textcat"] - spawn["bare"], "ms")
            metrics["geo.default_registry_s"] = (med(s["registry_s"] for s in self.setup_samples), "s")
            metrics["cli.import_s"] = (med(s["import_s"] for s in self.setup_samples), "s")
            metrics["trace.run_s"] = (traced_s, "s")
            metrics["trace.overhead_s"] = (traced_s - end_to_end["run_s"], "s")
            metrics["trace.overhead_ratio"] = (traced_s / end_to_end["run_s"] - 1, "ratio")
        return {
            "end_to_end": end_to_end, "metrics": metrics, "spawn_probe_ms": spawn,
        }


# --- environment record ----------------------------------------------------------------

def filesystem_of(path: Path) -> dict:
    best = ("", "unknown")
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            if len(fields) >= 3 and str(path).startswith(fields[1].rstrip("/") + "/") and len(fields[1]) > len(best[0]):
                best = (fields[1], fields[2])
    except OSError:
        pass
    return {"mount": best[0], "type": best[1]}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_earlier_runs(bench: Bench, env: dict) -> None:
    """Report bytes must match earlier runs of this seed on the same sources."""
    for trace in (0, 1):
        try:
            earlier = json.loads((RESULTS / f"{bench.stem}-trace{trace}.json").read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        same = all(earlier["environment"].get(k) == env[k] for k in ("source_sha256", "bench_sha256"))
        if same:
            bench.checks.expect(set(earlier["checks"]["report_digests"]) == set(bench.digests),
                                "report bytes differ from an earlier run of this seed")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(bench: Bench) -> dict:
    import workloads

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": tree_digest(SRC / "idsweep"),
        "bench_sha256": tree_digest(BENCH),
        "store_filesystem": filesystem_of(bench.work.resolve()),
        "note": ENVIRONMENT_NOTE,
        "workload": bench.workload,
        "seed": bench.seed,
        "tiny": bench.tiny,
    }
    if bench.workload == "report-paper":
        record["repeat_distribution"] = {str(m): n for m, n in bench.inputs.truth.repeat.items()}
        record["report_truth"] = {k: v for k, v in asdict(bench.inputs.truth).items() if not isinstance(v, dict)}
    else:
        record["corpus"] = workloads.SCAN_SIZES[bench.workload][1 if bench.tiny else 0]
    return record


# --- entry -----------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test input sizes")
    return parser.parse_args(argv)


def import_checkout_idsweep() -> None:
    """Import idsweep from this checkout's src/, never from anywhere else."""
    if not (SRC / "idsweep" / "__init__.py").is_file():
        raise SetupError(f"no idsweep sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import idsweep

    if Path(idsweep.__file__).resolve().parent != (SRC / "idsweep").resolve():
        raise SetupError(f"imported idsweep from {idsweep.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_checkout_idsweep()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        summary = bench.run()
        env = environment(bench)
        check_earlier_runs(bench, env)
        summary["error_rate"] = bench.checks.failed / max(bench.checks.attempted, 1)
        record = {
            "environment": env,
            "summary": summary,
            "checks": {"attempted": bench.checks.attempted, "failed": bench.checks.failed,
                       "problems": bench.checks.problems, "report_digests": bench.digests},
            "samples": bench.samples,
            "traced_samples": [{k: v for k, v in t.items() if k != "layers"} for t in bench.traced],
            "setup_samples": bench.setup_samples,
        }
        text = json.dumps(record, indent=2, ensure_ascii=False)
        bench.leaks += count_leaks(text, bench.planted)
        record["redaction"] = {"leaks": bench.leaks}
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{bench.stem}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2, ensure_ascii=False) + "\n", "utf-8")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    e2e = summary["end_to_end"]
    lines = [f"{args.workload} seed={args.seed} runs={len(bench.samples)}"
             f" traced={len(bench.traced)}: run_s={e2e['run_s']:.3f} s setup_s={e2e['setup_s']:.4f} s"
             f" peak_rss_mb={e2e['peak_rss_mb']:.1f} MB store_mb={e2e['store_mb']:.2f} MB"
             f" error_rate={summary['error_rate']:.6f} ({bench.checks.failed}/{bench.checks.attempted})"
             f" leaks={bench.leaks}"]
    lines += [f"problem: {problem}" for problem in bench.checks.problems]
    bench.leaks += count_leaks("\n".join(lines), bench.planted)
    failed = bench.checks.failed + bench.leaks
    correct = failed == 0 and bool(bench.samples)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in summary["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

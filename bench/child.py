"""One measured process: set up idsweep, run CLI commands, write a result file.

    python bench/child.py SPEC.json

The spec names the ``idsweep`` argument lists to run through
``idsweep.cli.entry``, whether to trace them, and where to write the result.
Set-up is timed first, before this script imports anything else, so that it
is what a fresh ``idsweep`` invocation pays: ``import idsweep.cli`` plus
``default_registry()``.  ``PYTHONPATH`` must point at the checkout's ``src``.
"""

import time

_t0 = time.perf_counter()
import idsweep.cli  # noqa: E402

_t1 = time.perf_counter()
from idsweep.geo import default_registry  # noqa: E402

default_registry()
_t2 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def count_wrappers() -> int:
    """Tracing wrappers reachable from any loaded idsweep module or class."""
    seen = 0
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("idsweep"):
            continue
        for obj in vars(module).values():
            owners = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
            seen += sum(1 for o in owners if hasattr(getattr(o, "__func__", o), "__bench_span__"))
    return seen


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    result = {"setup_s": _t2 - _t0, "import_s": _t1 - _t0, "registry_s": _t2 - _t1}
    if spec["commands"]:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
        result["wrappers_during_run"] = count_wrappers()
        codes, run_s = [], 0.0
        try:
            for argv in spec["commands"]:
                start = time.perf_counter()
                try:
                    codes.append(idsweep.cli.entry(argv))
                except Exception:
                    # a crash in the program is a failed run, reported with its traceback
                    traceback.print_exc()
                    codes.append(-1)
                    break
                finally:
                    run_s += time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        sys.stdout.flush()
        result.update(
            exit_codes=codes,
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            wrappers_after_run=count_wrappers(),
        )
        if tracer is not None:
            from tracing import layer_metrics

            result["layers"] = layer_metrics(tracer, spec["unique_ids"])
            if spec.get("trace_path"):
                tracer.write(Path(spec["trace_path"]))
    Path(spec["result_path"]).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

#!/usr/bin/env python3
"""Scan the bundled demo corpus and emit every report table.

Runs this CLI session, with OUT the --out directory::

    idsweep scan run --provider fixture --fixture data/demo \
        --plan data/demo/plan.json --extractors data/demo/extractors.json \
        --store OUT/store --search-delay 0
    idsweep report --store OUT/store --salt-file tests/data/demo_salt.txt \
        --tables filetype,tld,domain,query,category,geo,repeat,exposures \
        --format markdown --out OUT/report

Everything is offline: the fixture provider replays data/demo/index.json.
The exit code is that of the first command that does not succeed.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from idsweep import cli, reports

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: a fresh temp dir)")
    parser.add_argument("--format", choices=tuple(reports.FORMATS), default="markdown")
    args = parser.parse_args()

    out = args.out or Path(tempfile.mkdtemp(prefix="idsweep-demo-"))
    demo = REPO / "data" / "demo"
    store = str(out / "store")
    code = cli.entry([
        "scan", "run", "--provider", "fixture", "--fixture", str(demo),
        "--plan", str(demo / "plan.json"), "--extractors", str(demo / "extractors.json"),
        "--store", store, "--search-delay", "0",
    ])
    if code != cli.EXIT_OK:
        return code
    return cli.entry([
        "report", "--store", store, "--salt-file", str(REPO / "tests" / "data" / "demo_salt.txt"),
        "--tables", "filetype,tld,domain,query,category,geo,repeat,exposures",
        "--format", args.format, "--out", str(out / "report"),
    ])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate the committed demo corpus under data/demo.

The corpus is fully determined by the seed, so running this twice produces
identical bytes; tests/test_cli.py::test_committed_demo_matches_generator
checks that the checked-in copy matches the generator.
"""

from pathlib import Path

from idsweep.geo import default_registry
from idsweep.synth import make_corpus

REPO = Path(__file__).resolve().parent.parent
DEMO_SEED = 20250601


def main(out: Path = REPO / "data" / "demo") -> None:
    manifest = make_corpus(
        out,
        default_registry(),
        n_ids=40,
        n_decoys=10,
        n_docs=12,
        n_queries=3,
        seed=DEMO_SEED,
        python_command="python3",
    )
    print(f"wrote {out}: {len(manifest.planted)} planted IDs, "
          f"{len(manifest.decoys)} decoys, {len(manifest.queries)} queries")


if __name__ == "__main__":
    main()

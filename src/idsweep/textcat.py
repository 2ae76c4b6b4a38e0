"""Byte-for-byte cat, runnable as ``python3 -m idsweep.textcat FILE``.

Stands in for a real converter when benchmark corpora exercise the external
extractor protocol with text-bodied files.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 -m idsweep.textcat FILE", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(Path(args[0]).read_bytes())
    return 0


if __name__ == "__main__":
    sys.exit(main())

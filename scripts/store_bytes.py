#!/usr/bin/env python3
"""Print the bytes each table and index of a result store takes on disk, and its objects.

Usage::

    python scripts/store_bytes.py STORE

STORE is a store directory or its ``store.db``.  The file is opened
read-only, so an older layout is measured as it is, not migrated.  Sizes
come from SQLite's ``dbstat`` table, pages included whole; where SQLite was
built without it, each table's row count is printed instead.  The last line
counts the files in ``objects/`` and their bytes on disk, beside the raw
bytes of the documents they hold: the ``size_bytes`` of each distinct
successfully downloaded digest, read from ``hits``, or from ``downloads``
where an older store still has that table.
"""

import argparse
import sqlite3
import sys
from contextlib import closing
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store", type=Path, help="store directory or its store.db")
    db = parser.parse_args().store
    db = db / "store.db" if db.is_dir() else db
    if not db.is_file():
        parser.error(f"no store database at {db}")
    with closing(sqlite3.connect(db.resolve().as_uri() + "?mode=ro", uri=True)) as conn:
        tables(conn)
        # each hit's download is in its row, or in a table of its own in a store not yet migrated
        older = conn.execute("SELECT 1 FROM sqlite_master WHERE name = 'downloads'").fetchone()
        raw = conn.execute("SELECT SUM(size_bytes) FROM (SELECT MAX(size_bytes) AS size_bytes"
                           f" FROM {'downloads' if older else 'hits'}"
                           " WHERE status = 'success' GROUP BY sha256)").fetchone()[0] or 0
    files = [path for path in (db.parent / "objects").glob("*") if path.is_file()]
    on_disk = sum(path.stat().st_size for path in files)
    print(f"{'objects/':<32} {len(files):,} files, {on_disk:,} bytes on disk, {raw:,} raw bytes")
    return 0


def tables(conn: sqlite3.Connection) -> None:
    """Each table and index with its pages and bytes, then the free pages and the file."""
    kinds = dict(conn.execute("SELECT name, type FROM sqlite_master"))
    page_size = conn.execute("PRAGMA page_size").fetchone()[0]
    total = conn.execute("PRAGMA page_count").fetchone()[0] * page_size
    free = conn.execute("PRAGMA freelist_count").fetchone()[0] * page_size
    try:
        rows = conn.execute("SELECT name, COUNT(*), SUM(pgsize) FROM dbstat GROUP BY name"
                            " ORDER BY SUM(pgsize) DESC, name").fetchall()
    except sqlite3.OperationalError:  # no dbstat: count rows instead
        print(f"{'table':<32} {'rows':>12}")
        for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"):
            count = conn.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
            print(f"{name:<32} {count:>12,}")
        print(f"{'(file)':<32} {total:>12,} bytes")
        return
    print(f"{'name':<32} {'kind':<6} {'pages':>8} {'bytes':>12}")
    for name, pages, size in rows:
        print(f"{name:<32} {kinds.get(name, 'schema'):<6} {pages:>8,} {size:>12,}")
    print(f"{'(free pages)':<32} {'':<6} {free // page_size:>8,} {free:>12,}")
    print(f"{'(file)':<32} {'':<6} {total // page_size:>8,} {total:>12,}")


if __name__ == "__main__":
    sys.exit(main())

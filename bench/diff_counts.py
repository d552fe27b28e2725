"""Compare the work counters of two traced benchmark results.

    python3 bench/diff_counts.py OLD.json NEW.json

Each file is a result written by `bench/run.py --trace 1` (found in
bench/out/).  Counters are calls, cells, unknowns and dimensions seen at
the layer boundaries; on the same code and seed they repeat exactly, so
any difference is a change in the work done.  Prints every counter that
differs and exits 1 if there is one.
"""

from __future__ import annotations

import json
import sys


def counters(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["record"].get("counters") or {}


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/diff_counts.py OLD.json NEW.json",
              file=sys.stderr)
        return 2
    old, new = counters(argv[0]), counters(argv[1])
    changed = 0
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, 0), new.get(key, 0)
        if a != b:
            changed += 1
            print(f"{key:<44} {a:>14} -> {b:<14} ({b - a:+})")
    print(f"{changed} counters differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

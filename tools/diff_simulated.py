#!/usr/bin/env python3
"""Diff a committed BENCH_*.json snapshot against a fresh run.

Both files are parsed, the top-level "host" section (wall-clock,
machine-specific) is dropped, and the rest is rendered with sorted keys
and two-space indentation. Any difference is printed as a unified diff
and the script exits nonzero; identical simulated content exits 0.

Usage: diff_simulated.py COMMITTED.json NEW.json
"""

import difflib
import json
import sys


def simulated(path):
    with open(path) as f:
        d = json.load(f)
    d.pop("host", None)
    text = json.dumps(d, indent=2, sort_keys=True) + "\n"
    return text.splitlines(keepends=True)


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    a, b = simulated(argv[1]), simulated(argv[2])
    diff = list(difflib.unified_diff(a, b, argv[1], argv[2]))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

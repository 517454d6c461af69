#!/usr/bin/env python3
"""Compares the JSON key paths of two bench records.

Usage: scripts/bench_keys.py A.json B.json

Each object key becomes a dotted path and each array element becomes
`[]`, so two records that differ only in values, or in how many points a
sweep holds, have the same set of paths. Prints every path found in one
record but not the other, and exits 1 if there is any.
"""

import json
import sys


def key_paths(value, prefix=""):
    paths = set()
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(child, path)
    elif isinstance(value, list):
        for child in value:
            paths |= key_paths(child, prefix + "[]")
    return paths


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} A.json B.json")
    a, b = argv[1], argv[2]
    with open(a) as fa, open(b) as fb:
        pa, pb = key_paths(json.load(fa)), key_paths(json.load(fb))
    for path in sorted(pa - pb):
        print(f"only in {a}: {path}")
    for path in sorted(pb - pa):
        print(f"only in {b}: {path}")
    return 1 if pa != pb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

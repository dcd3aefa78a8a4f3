#!/usr/bin/env python3
"""Compare two directories of golden outputs, separating float bits from the rest.

For every file name in either directory that is not byte-identical in both
it prints one line, then a summary line counting the byte-identical ones:

    floats     equal except for float values; the largest absolute and
               relative difference follow
    DIFFERS    something other than a float value differs (a key, a string,
               an integer, a boolean, a list length or the set of files)

JSON files are compared value by value: integers, booleans, null and keys
must be equal, and a float may differ only in value.  Any other file, and
every string inside a JSON file, is compared as text in which each number
counts as a float.  The relative difference is |new - old| / max(1, |old|).

Usage:
    python scripts/diff_golden.py OLD_DIR NEW_DIR

Exits 1 when any file DIFFERS, else 0.
"""

import argparse
import json
import os
import re
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b")


class Mismatch(Exception):
    """Something other than a float value differs."""


def _float_pairs(old, new):
    """(old, new) float pairs of two equal-shaped values; raises Mismatch otherwise."""
    if isinstance(old, str) and isinstance(new, str):
        return _text_pairs(old, new)
    if type(old) is not type(new):
        raise Mismatch(f"{old!r} vs {new!r}")
    if isinstance(old, float):
        return [(old, new)]
    if isinstance(old, dict):
        if list(old) != list(new):
            raise Mismatch(f"keys {list(old)} vs {list(new)}")
        return [p for key in old for p in _float_pairs(old[key], new[key])]
    if isinstance(old, list):
        if len(old) != len(new):
            raise Mismatch(f"list of {len(old)} vs {len(new)} items")
        return [p for a, b in zip(old, new) for p in _float_pairs(a, b)]
    if old != new:
        raise Mismatch(f"{old!r} vs {new!r}")
    return []


def _text_pairs(old, new):
    """Float pairs of two texts that are equal once their numbers are masked."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        raise Mismatch(f"text {old[:60]!r} vs {new[:60]!r}")
    return list(zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))))


def compare_file(old_path, new_path):
    """(status, largest absolute difference, largest relative difference, reason)."""
    with open(old_path, encoding="utf-8") as fh:
        old_text = fh.read()
    with open(new_path, encoding="utf-8") as fh:
        new_text = fh.read()
    if old_text == new_text:
        return "same", 0.0, 0.0, ""
    try:
        if old_path.endswith(".json"):
            pairs = _float_pairs(json.loads(old_text), json.loads(new_text))
        else:
            pairs = _text_pairs(old_text, new_text)
    except (Mismatch, json.JSONDecodeError) as exc:
        return "DIFFERS", 0.0, 0.0, str(exc)
    absolute = relative = 0.0
    for a, b in pairs:
        if a != b and not (a != a and b != b):  # two NaNs count as equal
            diff = abs(b - a)
            absolute = max(absolute, diff)
            relative = max(relative, diff / max(1.0, abs(a)))
    return "floats", absolute, relative, ""


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args()
    old_dir, new_dir = args.old_dir, args.new_dir
    names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
    counts = {"same": 0, "floats": 0, "DIFFERS": 0}
    largest = 0.0
    for name in names:
        old_path, new_path = os.path.join(old_dir, name), os.path.join(new_dir, name)
        if not (os.path.isfile(old_path) and os.path.isfile(new_path)):
            status, absolute, relative, reason = "DIFFERS", 0.0, 0.0, "missing on one side"
        else:
            status, absolute, relative, reason = compare_file(old_path, new_path)
        counts[status] += 1
        largest = max(largest, relative)
        if status == "same":
            continue
        if status == "floats":
            print(f"floats   {name}  max abs {absolute:.3g}  max rel {relative:.3g}")
        else:
            print(f"DIFFERS  {name}  {reason}")
    print(
        f"{len(names)} files: {counts['same']} same, {counts['floats']} floats only, "
        f"{counts['DIFFERS']} differ otherwise; largest relative float difference {largest:.3g}"
    )
    return 1 if counts["DIFFERS"] else 0


if __name__ == "__main__":
    sys.exit(main())

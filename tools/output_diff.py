"""Print how far the numbers in two output directories differ.

For two directories written by ``tools/output_hashes.py --keep``, it
compares each file name the two share, number by number: the numbers of a
file are read off its text in order, and the text between them must match.
For each file whose bytes differ it prints one row: the count of numbers,
how many of them changed, and the largest absolute and relative change
(relative to the larger magnitude of the pair). A JSON file whose text
differs outside its numbers is compared key by key instead: its numbers are
those at the paths both files hold, and the row ends with the keys added
(+), removed (-) or changed to a value other than a number (~), list
indices written [*] and counted. Any other file whose text differs outside
its numbers, or that holds a different count of them, is marked "text
differs"; a file in only one directory is named too. Run from the repo
root:

    PYTHONPATH=src python tools/output_hashes.py --keep /tmp/before
    # ... change the package ...
    PYTHONPATH=src python tools/output_hashes.py --keep /tmp/after
    python tools/output_diff.py /tmp/before /tmp/after

Exits 0 when every file is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@dataclass(frozen=True)
class FileDiff:
    numbers: int
    changed: int
    max_abs: float
    max_rel: float
    keys: tuple[str, ...] = ()  # JSON paths added (+), removed (-) or changed in kind (~)


def numbers_and_text(text: str) -> tuple[list[float], list[str]]:
    """The numbers of ``text`` in order, and the pieces of text between them."""
    return [float(m) for m in NUMBER.findall(text)], NUMBER.split(text)


def compare(before: str, after: str) -> FileDiff | None:
    """The change from ``before`` to ``after``, or None if the text differs outside its numbers."""
    a, text_a = numbers_and_text(before)
    b, text_b = numbers_and_text(after)
    if text_a != text_b:
        return None
    return number_diff(list(zip(a, b)))


def number_diff(pairs, keys=()) -> FileDiff:
    """The counts and largest changes of the (before, after) number ``pairs``."""
    changed = [(x, y) for x, y in pairs if x != y]
    max_abs = max((abs(x - y) for x, y in changed), default=0.0)
    max_rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in changed), default=0.0)
    return FileDiff(len(pairs), len(changed), max_abs, max_rel, tuple(keys))


_ABSENT = object()  # the value at a path a file lacks


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_json(before: str, after: str) -> FileDiff | None:
    """The change from ``before`` to ``after`` key by key, or None if either is not JSON."""
    try:
        a, b = json.loads(before), json.loads(after)
    except ValueError:
        return None
    pairs: list[tuple[float, float]] = []
    keys: Counter = Counter()

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            for k in {**x, **y}:
                walk(x.get(k, _ABSENT), y.get(k, _ABSENT), f"{path}.{k}" if path else k)
        elif isinstance(x, list) and isinstance(y, list):
            for pair in zip_longest(x, y, fillvalue=_ABSENT):
                walk(*pair, f"{path}[*]")
        elif is_number(x) and is_number(y):
            pairs.append((x, y))
        elif x != y:
            keys["+" if x is _ABSENT else "-" if y is _ABSENT else "~", path] += 1

    walk(a, b, "")
    listed = [sign + path + (f" ({n})" if n > 1 else "") for (sign, path), n in sorted(keys.items())]
    return number_diff(pairs, listed)


def report(before: Path, after: Path) -> list[str]:
    """One line per file that differs between the two directories."""
    names_a = {p.name for p in before.iterdir() if p.is_file()}
    names_b = {p.name for p in after.iterdir() if p.is_file()}
    lines = []
    for name in sorted(names_a | names_b):
        if name not in names_b:
            lines.append(f"{name:<18} only in {before}")
            continue
        if name not in names_a:
            lines.append(f"{name:<18} only in {after}")
            continue
        bytes_a, bytes_b = (before / name).read_bytes(), (after / name).read_bytes()
        if bytes_a == bytes_b:
            continue
        text_a, text_b = bytes_a.decode(), bytes_b.decode()
        diff = compare(text_a, text_b) or compare_json(text_a, text_b)
        if diff is None:
            lines.append(f"{name:<18} text differs")
        else:
            lines.append(
                f"{name:<18} {diff.numbers:>7} {diff.changed:>7} "
                f"{diff.max_abs:>12.3g} {diff.max_rel:>12.3g}"
                + "".join(f"  {key}" for key in diff.keys)
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    lines = report(args.before, args.after)
    if lines:
        print(f"{'file':<18} {'numbers':>7} {'changed':>7} {'max abs':>12} {'max rel':>12}  keys")
        for line in lines:
            print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

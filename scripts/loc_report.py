#!/usr/bin/env python3
"""Net lines of code: the three figures ROADMAP's "Net state" cites.

Counts the lines of every .cc and .h file under three groups of the
checkout — the library and CLI (src + tools), the paper benches (bench)
and the tests (tests) — and prints one line per group: its name, then its line count.

Usage: loc_report.py [--root DIR]   (default: the checkout holding this
script). Informational only: it always exits 0, and the CI lint job runs
it so the figures come from one command.
"""

import argparse
from pathlib import Path

GROUPS = [("src+tools", ("src", "tools")), ("bench", ("bench",)),
          ("tests", ("tests",))]


def count_lines(root, dirs):
    total = 0
    for d in dirs:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in (".cc", ".h") and path.is_file():
                total += len(path.read_bytes().splitlines())
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    for name, dirs in GROUPS:
        print(f"{name:<10} {count_lines(args.root, dirs):>6}")


if __name__ == "__main__":
    main()

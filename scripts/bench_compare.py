#!/usr/bin/env python3
"""Compare two bench CSV dumps and fail on performance regressions.

The bench binaries echo every table row as `csv,...` preceded by a
`csvh,...` header row (see bench/bench_common.cc). This script pairs rows
between a baseline dump and a current dump by (header, first cell) and
compares:

  * every column whose name contains "(ms)" — query latency; and
  * every column whose name contains "(s)"  — construction time (the
    workload-driven gate: an index that got slower to build regresses the
    offline phase even when queries held).

A regression is a current value exceeding baseline * threshold with an
absolute increase of at least the per-unit noise floor (--min-ms /
--min-s); micro-benchmark noise must not fail CI.

Cells that cannot be compared meaningfully are skipped with a warning
instead of gating: a zero (or negative) baseline has no ratio — the
formatter truncates sub-resolution timings to 0.00, and flagging
"0.00 -> anything" as an N-fold regression would fail CI on timer
granularity — and non-finite values (inf/nan from a crashed or division-
degenerate bench cell) are equally meaningless to gate on.

Rows pair by their table's full header, so a table whose columns changed
matches nothing in the baseline; each such baseline table gets one warning
line and is not compared (the exit code is unaffected).

A missing or unreadable *baseline* is not an error: the first run on a
fresh branch has no artifact to compare against, so the script warns and
passes (exit 0). A missing *current* dump is still an error — the bench
just ran, its output must exist.

Usage:
  bench_compare.py baseline.csv current.csv [--threshold 1.25]
                   [--min-ms 0.002] [--min-s 0.05]

Exit codes: 0 = ok (or nothing comparable / no baseline), 1 = regression,
2 = bad current input.
"""

import argparse
import math
import sys


def parse_tables(path):
    """Returns {(header_tuple, row_key): {column: value_str}}."""
    rows = {}
    header = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("csvh,"):
                header = tuple(line.split(",")[1:])
            elif line.startswith("csv,"):
                cells = line.split(",")[1:]
                if header is None or not cells:
                    continue
                row = dict(zip(header, cells))
                rows[(header, cells[0])] = row
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="fail when current > baseline * threshold")
    ap.add_argument("--min-ms", type=float, default=0.002,
                    help="ignore absolute (ms) increases below this (timer "
                         "noise); QbS per-query averages are microsecond-"
                         "scale, so keep this well under them")
    ap.add_argument("--min-s", type=float, default=0.05,
                    help="ignore absolute construction-time (s) increases "
                         "below this (CI machines jitter small builds)")
    args = ap.parse_args()

    try:
        base = parse_tables(args.baseline)
    except OSError as e:
        print(f"bench_compare: no baseline ({e}); "
              "fresh branch or expired artifact — passing", file=sys.stderr)
        return 0
    try:
        cur = parse_tables(args.current)
    except OSError as e:
        print(f"bench_compare: cannot read current dump: {e}",
              file=sys.stderr)
        return 2

    def gate(col):
        """(kind, noise_floor) for a gated column, else None."""
        if "(ms)" in col:
            return "query", args.min_ms
        if "(s)" in col:
            return "construction", args.min_s
        return None

    cur_headers = {header for header, _ in cur}
    for header in sorted({header for header, _ in base} - cur_headers):
        print(f"bench_compare: warning: baseline table "
              f"[{','.join(header)}] has no matching table in the current "
              "dump (header changed or table removed); not compared",
              file=sys.stderr)

    compared = 0
    regressions = []
    for key, cur_row in sorted(cur.items()):
        base_row = base.get(key)
        if base_row is None:
            continue  # new dataset/table: nothing to compare against
        for col, cur_val in cur_row.items():
            gated = gate(col)
            if gated is None:
                continue
            kind, floor = gated
            base_val = base_row.get(col)
            if base_val is None:
                continue
            try:
                b = float(base_val)
                c = float(cur_val)
            except ValueError:
                continue  # DNF / OOE / "-" markers
            if not (math.isfinite(b) and math.isfinite(c)) or b <= 0 or c < 0:
                print(f"bench_compare: skipping uncomparable {kind} cell "
                      f"{key[1]}/{col}: baseline={base_val} "
                      f"current={cur_val}", file=sys.stderr)
                continue
            compared += 1
            status = "ok"
            if c > b * args.threshold and c - b >= floor:
                status = "REGRESSION"
                regressions.append((key[1], col, kind, b, c))
            ratio = c / b
            print(f"{key[1]:>12} {col:>12}: {b:9.4f} -> {c:9.4f} "
                  f"({ratio:5.2f}x) {status}")

    if compared == 0:
        print("bench_compare: no comparable cells found; passing")
        return 0
    if regressions:
        print(f"\nbench_compare: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.2f}x:")
        for name, col, kind, b, c in regressions:
            print(f"  [{kind}] {name} {col}: {b:.4f} -> {c:.4f}")
        return 1
    print(f"\nbench_compare: {compared} cells compared, no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

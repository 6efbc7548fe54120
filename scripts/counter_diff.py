#!/usr/bin/env python3
"""Prints every bench_e2e deterministic counter that differs between two
builds of bench_e2e.

  counter_diff.py BASE_BINARY HEAD_BINARY

Runs both binaries with `--workload=all --smoke --seed=1`, traced as in
bench_e2e/smoke_test.py, and compares the counters that file lists as
DETERMINISTIC (edge counts, coverage fractions, byte sizes, column
counts): a fixed seed repeats them exactly, so any difference is a change
in behaviour, not noise. Prints only; exits nonzero only if a bench_e2e
run fails.
"""

import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep bench_e2e/ free of __pycache__
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench_e2e"))
from smoke_test import DETERMINISTIC  # noqa: E402


def counters(binary, work_dir):
    proc = subprocess.run(
        [binary, "--workload=all", "--smoke", "--seed=1",
         "--trace=" + os.path.join(work_dir, "trace.json"),
         "--work-dir=" + work_dir],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("%s exited %d" % (binary, proc.returncode))
    values = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and fields[2] in DETERMINISTIC:
            values[(fields[1], fields[2])] = fields[3]
    return values


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        base = counters(sys.argv[1], os.path.join(work, "base"))
        head = counters(sys.argv[2], os.path.join(work, "head"))
    changed = [(key, base.get(key, "-"), head.get(key, "-"))
               for key in sorted(set(base) | set(head))
               if base.get(key) != head.get(key)]
    for (workload, name), old, new in changed:
        print("%-12s %-40s %14s -> %s" % (workload, name, old, new))
    print("counter diff: %d of %d deterministic counters differ"
          % (len(changed), len(set(base) | set(head))))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compares bench_e2e's deterministic counters.

  counter_diff.py BASE_BINARY HEAD_BINARY   print what differs between builds
  counter_diff.py --write FILE BINARY       record BINARY's counters in FILE
  counter_diff.py --expect FILE BINARY      check BINARY against FILE

Runs each binary with `--workload=all --smoke --seed=1`, traced as in
bench_e2e/smoke_test.py, and reads the counters that file lists as
DETERMINISTIC (edge counts, coverage fractions, byte sizes, column
counts): a fixed seed repeats them exactly, so any difference is a change
in behaviour, not noise. Every mode prints each counter that differs.
The two-binary mode exits nonzero only if a bench_e2e run fails;
--expect also exits 1 when any counter differs from FILE, so a change in
behaviour ships with its new counter file (written by --write).
"""

import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep bench_e2e/ free of __pycache__
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench_e2e"))
from smoke_test import DETERMINISTIC  # noqa: E402

HEADER = ("# bench_e2e deterministic counters: --workload=all --smoke "
          "--seed=1.\n# Rewrite with: scripts/counter_diff.py --write "
          "scripts/smoke_counters.tsv BINARY\n")


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


def run(binary, name):
    with tempfile.TemporaryDirectory() as work:
        return counters(binary, os.path.join(work, name))


def read_file(path):
    values = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            workload, name, value = line.rstrip("\n").split("\t")
            values[(workload, name)] = value
    return values


def write_file(path, values):
    with open(path, "w") as f:
        f.write(HEADER)
        for (workload, name), value in sorted(values.items()):
            f.write("%s\t%s\t%s\n" % (workload, name, value))


def report(base, head):
    changed = [(key, base.get(key, "-"), head.get(key, "-"))
               for key in sorted(set(base) | set(head))
               if base.get(key) != head.get(key)]
    for (workload, name), old, new in changed:
        print("%-12s %-40s %14s -> %s" % (workload, name, old, new))
    print("counter diff: %d of %d deterministic counters differ"
          % (len(changed), len(set(base) | set(head))))
    return len(changed)


def main():
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--write":
        values = run(args[2], "head")
        write_file(args[1], values)
        print("wrote %d counters to %s" % (len(values), args[1]))
    elif len(args) == 3 and args[0] == "--expect":
        if report(read_file(args[1]), run(args[2], "head")):
            sys.exit("counters differ from %s; if the change is intended, "
                     "rewrite it with --write" % args[1])
    elif len(args) == 2 and not args[0].startswith("--"):
        report(run(args[0], "base"), run(args[1], "head"))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()

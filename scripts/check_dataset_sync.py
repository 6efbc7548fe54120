#!/usr/bin/env python3
"""Checks that tools/fetch_datasets.py's REGISTRY matches the C++ dataset
table (src/workload/dataset_registry.cc), the one other copy of it.

Runs `qbs datasets` against an empty data directory and compares every
row with REGISTRY: name, raw file, host |V|, host |E| and whether the
dataset has a download mirror ("absent") or must be fetched by hand
("manual"). Exits 1 and lists each difference. Runs as the
`dataset_sync` ctest:

    scripts/check_dataset_sync.py build/tools/qbs
"""

import argparse
import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_registry(path):
    spec = importlib.util.spec_from_file_location("fetch_datasets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REGISTRY


def cli_rows(qbs):
    """{name: (file, host_v, host_e, status)} from `qbs datasets`."""
    with tempfile.TemporaryDirectory() as data_dir:
        env = dict(os.environ, QBS_DATA_DIR=data_dir)
        out = subprocess.run([qbs, "datasets"], env=env, check=True,
                             capture_output=True, text=True).stdout
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.split()[:1] == ["name"])
    rows = {}
    for line in lines[header + 1:]:
        if not line.strip():
            break
        name, _abbrev, status, host_v, host_e, file = line.split()
        rows[name] = (file, int(host_v), int(host_e), status)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("qbs", help="the qbs binary")
    args = parser.parse_args()

    registry = load_registry(ROOT / "tools" / "fetch_datasets.py")
    rows = cli_rows(args.qbs)
    problems = []
    if list(rows) != list(registry):
        problems.append(f"names differ: qbs {list(rows)} vs REGISTRY "
                        f"{list(registry)}")
    for name in rows.keys() & registry.keys():
        url, file, _pin, host_v, host_e, _note = registry[name]
        want = (file, host_v, host_e, "absent" if url else "manual")
        if rows[name] != want:
            problems.append(f"{name}: qbs datasets says {rows[name]}, "
                            f"REGISTRY says {want}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"dataset sync: {len(rows)} rows, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

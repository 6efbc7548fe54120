#!/usr/bin/env python3
"""Download the paper's real datasets into the local data directory.

Fetches the SNAP-hosted edge lists of conf_sigmod_WangWKL21's Table 1 (plus
Epinions, a small smoke dataset) into <data-dir>/raw/ with SHA-256
verification and resumable downloads. Datasets whose hosts only ship
zip/WebGraph containers (Douban, Baidu, Twitter, uk2007, ClueWeb09) are
listed with manual instructions instead.

Typical use:

    tools/fetch_datasets.py --list
    tools/fetch_datasets.py --only epinions
    tools/fetch_datasets.py --only dblp,youtube
    tools/fetch_datasets.py --all          # everything with a mirror (large!)

Checksums: entries with a pinned sha256 are verified against the pin.
Unpinned entries are trust-on-first-use: the computed hash is recorded as
<file>.sha256 next to the download and verified on later runs; pass
--require-checksum to refuse unpinned downloads outright.

Pin ratchet: `--audit` (run by the CI docs job) fails when any mirrored
registry entry has neither a pinned sha256 nor a PIN_PENDING entry naming
why the pin is still outstanding. Pins must come from a real download
(`verify` prints the hash to pin) — never write a hash you did not compute
from the fetched bytes. Once pinned, remove the PIN_PENDING entry; the
audit also fails on stale allowlist rows so the ratchet only tightens.

After fetching, the C++ side converts each raw file once into a checksummed
binary cache (<data-dir>/cache/<name>.qbsgrf) on first use — e.g.

    build/bench/bench_table1_datasets --datasets=epinions
    build/tools/qbs stats dataset:epinions

REGISTRY repeats the rows of the C++ dataset table
(src/workload/dataset_registry.cc), which the benches and `qbs` resolve
names through; the `dataset_sync` ctest (scripts/check_dataset_sync.py)
fails when the two differ.
"""

import argparse
import hashlib
import os
import sys
import urllib.error
import urllib.request

# name -> (url, filename, pinned_sha256, host_vertices, host_edges, note)
# url == "" means no plain edge-list mirror exists; `note` then carries the
# manual instructions. scripts/check_dataset_sync.py checks every row but
# the pin and the note against src/workload/dataset_registry.cc.
REGISTRY = {
    "douban": ("", "soc-douban.txt", "", 154908, 327162,
               "zip-only at networkrepository.com/soc-douban.php; unzip "
               "soc-douban.mtx, strip the header lines, save as the listed "
               "file"),
    "dblp": ("https://snap.stanford.edu/data/bigdata/communities/"
             "com-dblp.ungraph.txt.gz",
             "com-dblp.ungraph.txt.gz", "", 317080, 1049866, ""),
    "youtube": ("https://snap.stanford.edu/data/bigdata/communities/"
                "com-youtube.ungraph.txt.gz",
                "com-youtube.ungraph.txt.gz", "", 1134890, 2987624, ""),
    "wikitalk": ("https://snap.stanford.edu/data/wiki-Talk.txt.gz",
                 "wiki-Talk.txt.gz", "", 2394385, 5021410, ""),
    "skitter": ("https://snap.stanford.edu/data/as-skitter.txt.gz",
                "as-skitter.txt.gz", "", 1696415, 11095298, ""),
    "baidu": ("", "baidu-baike.txt", "", 2141300, 17794839,
              "KONECT 'baidu-internal' ships tar.bz2; extract the edge "
              "list (out.* file), drop '%' header lines, save as the "
              "listed file"),
    "livejournal": ("https://snap.stanford.edu/data/bigdata/communities/"
                    "com-lj.ungraph.txt.gz",
                    "com-lj.ungraph.txt.gz", "", 3997962, 34681189, ""),
    "orkut": ("https://snap.stanford.edu/data/bigdata/communities/"
              "com-orkut.ungraph.txt.gz",
              "com-orkut.ungraph.txt.gz", "", 3072441, 117185083, ""),
    "twitter": ("", "twitter-2010.txt", "", 41652230, 1468365182,
                "LAW hosts twitter-2010 in WebGraph format; decompress "
                "with the webgraph tools to an ASCII edge list"),
    "friendster": ("https://snap.stanford.edu/data/bigdata/communities/"
                   "com-friendster.ungraph.txt.gz",
                   "com-friendster.ungraph.txt.gz", "", 65608366,
                   1806067135, "~31 GB download"),
    "uk2007": ("", "uk-2007-05.txt", "", 105896555, 3738733648,
               "LAW hosts uk-2007-05 in WebGraph format; decompress with "
               "the webgraph tools to an ASCII edge list"),
    "clueweb09": ("", "clueweb09.txt", "", 1684868322, 7811385827,
                  "Lemur project access agreement required; export the "
                  "web graph as an ASCII edge list"),
    "epinions": ("https://snap.stanford.edu/data/soc-Epinions1.txt.gz",
                 "soc-Epinions1.txt.gz", "", 75879, 508837,
                 "small (~5 MB): the pipeline smoke dataset"),
}

# Mirrored entries allowed to ship without a pinned sha256, each with the
# reason the pin is outstanding. A pin can only come from hashing a real
# download (see verify's trust-on-first-use output) — this file has never
# been populated from anything else, and --audit enforces that every
# mirrored entry is either pinned or consciously listed here. When a pin
# lands, delete the entry; leaving it behind fails the audit.
PIN_PENDING = {
    "dblp": "pin pending first networked fetch from the SNAP mirror",
    "youtube": "pin pending first networked fetch from the SNAP mirror",
    "wikitalk": "pin pending first networked fetch from the SNAP mirror",
    "skitter": "pin pending first networked fetch from the SNAP mirror",
    "livejournal": "pin pending first networked fetch from the SNAP mirror",
    "orkut": "pin pending first networked fetch from the SNAP mirror",
    "friendster": "pin pending first networked fetch from the SNAP mirror",
    "epinions": "pin pending first networked fetch from the SNAP mirror",
}

CHUNK = 1 << 20  # 1 MiB read/hash granularity


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def human(n):
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n}B"
        n /= 1024.0
    return f"{n}GB"


def list_datasets(data_dir):
    width = max(len(name) for name in REGISTRY) + 2
    print(f"data dir: {data_dir}")
    print(f"{'name':<{width}}{'status':<10}{'host |V|':>12}{'host |E|':>14}  "
          "source")
    for name, (url, filename, _, nv, ne, note) in REGISTRY.items():
        dest = os.path.join(data_dir, "raw", filename)
        if os.path.exists(dest):
            status = "fetched"
        elif os.path.exists(dest + ".part"):
            status = "partial"
        elif not url:
            status = "manual"
        else:
            status = "absent"
        source = url if url else f"manual: {note}"
        print(f"{name:<{width}}{status:<10}{nv:>12,}{ne:>14,}  {source}")


def resolve_names(only):
    if not only:
        return [n for n, spec in REGISTRY.items() if spec[0]]
    names = []
    for item in only.split(","):
        item = item.strip().lower()
        if not item:
            continue
        if item not in REGISTRY:
            sys.exit(f"unknown dataset '{item}'. "
                     f"Available: {', '.join(REGISTRY)}")
        names.append(item)
    return names


def download(url, dest, force):
    """Fetch url to dest with a resumable .part file. Returns True on a
    fresh/completed download, False if dest already existed."""
    if os.path.exists(dest) and not force:
        return False
    part = dest + ".part"
    offset = os.path.getsize(part) if os.path.exists(part) and not force \
        else 0
    request = urllib.request.Request(url)
    if offset:
        request.add_header("Range", f"bytes={offset}-")
        print(f"  resuming at {human(offset)}")
    mode = "ab" if offset else "wb"
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            if offset and response.status != 206:
                # Server ignored the Range header; restart from scratch.
                offset, mode = 0, "wb"
                print("  server does not support resume; restarting")
            total = response.headers.get("Content-Length")
            total = int(total) + offset if total else None
            done = offset
            with open(part, mode) as out:
                while chunk := response.read(CHUNK):
                    out.write(chunk)
                    done += len(chunk)
                    if total:
                        pct = 100.0 * done / total
                        print(f"\r  {human(done)} / {human(total)} "
                              f"({pct:.0f}%)", end="", flush=True)
                    else:
                        print(f"\r  {human(done)}", end="", flush=True)
            print()
    except urllib.error.HTTPError as err:
        if err.code == 416 and offset:
            # Range start == file size: the .part already holds the whole
            # file (e.g. killed between the last chunk and the rename).
            # Finalize it instead of 416-looping forever; verify() still
            # checks the hash.
            print("  server says the partial file is already complete")
            os.replace(part, dest)
            return True
        sys.exit(f"download failed for {url}: {err} "
                 f"(partial download kept at {part}; rerun to resume)")
    except urllib.error.URLError as err:
        sys.exit(f"download failed for {url}: {err} "
                 f"(partial download kept at {part}; rerun to resume)")
    os.replace(part, dest)
    return True


def verify(name, dest, pinned, require_checksum):
    """SHA-256 check: against the registry pin when present, else
    trust-on-first-use via a recorded <file>.sha256 sidecar."""
    record = dest + ".sha256"
    actual = sha256_file(dest)
    if pinned:
        if actual != pinned:
            sys.exit(f"{name}: SHA-256 mismatch!\n  expected {pinned}\n"
                     f"  actual   {actual}\n"
                     f"Delete {dest} and retry; if the mismatch persists "
                     "the mirror changed its file.")
        print(f"  sha256 ok (pinned): {actual}")
        return
    if require_checksum:
        sys.exit(f"{name}: no pinned sha256 in the registry and "
                 "--require-checksum was given")
    if os.path.exists(record):
        with open(record, encoding="ascii") as f:
            recorded = f.read().strip()
        if actual != recorded:
            sys.exit(f"{name}: SHA-256 differs from the first download!\n"
                     f"  recorded {recorded} ({record})\n"
                     f"  actual   {actual}\n"
                     f"Delete {dest} and {record} to accept the new file.")
        print(f"  sha256 ok (recorded): {actual}")
    else:
        with open(record, "w", encoding="ascii") as f:
            f.write(actual + "\n")
        print(f"  sha256 recorded (trust-on-first-use): {actual}")
        print("  pin it in tools/fetch_datasets.py to make this "
              "tamper-evident")


def audit():
    """Pin ratchet (CI docs job). Exit non-zero unless every mirrored
    registry entry has a pinned sha256 or a PIN_PENDING reason, and every
    PIN_PENDING row still points at an unpinned mirrored entry."""
    problems = []
    pinned = unpinned = 0
    for name, (url, _, pin, *_rest) in REGISTRY.items():
        if not url:
            continue  # manual-fetch entries have nothing to pin
        if pin:
            pinned += 1
            if len(pin) != 64 or any(c not in "0123456789abcdef"
                                     for c in pin):
                problems.append(f"{name}: pinned value is not a lowercase "
                                f"hex sha256: {pin!r}")
            if name in PIN_PENDING:
                problems.append(f"{name}: pinned but still in PIN_PENDING "
                                "— remove the stale allowlist entry")
        else:
            unpinned += 1
            if name not in PIN_PENDING:
                problems.append(f"{name}: mirrored entry has no pinned "
                                "sha256 and no PIN_PENDING reason")
            elif not PIN_PENDING[name].strip():
                problems.append(f"{name}: PIN_PENDING reason is empty")
    for name in PIN_PENDING:
        if name not in REGISTRY:
            problems.append(f"PIN_PENDING names unknown dataset '{name}'")
        elif not REGISTRY[name][0]:
            problems.append(f"PIN_PENDING lists '{name}', which has no "
                            "mirror and needs no pin")
    print(f"audit: {pinned} pinned, {unpinned} awaiting a pin "
          f"(allowlisted), {len(problems)} problem(s)")
    if problems:
        for p in problems:
            print(f"  FAIL {p}", file=sys.stderr)
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--list", action="store_true",
                        help="show the registry and local status, then exit")
    parser.add_argument("--only", metavar="NAME[,NAME...]",
                        help="fetch only these datasets (default: every "
                        "dataset with a plain edge-list mirror)")
    parser.add_argument("--all", action="store_true",
                        help="fetch every dataset with a mirror (Friendster "
                        "alone is ~31 GB)")
    parser.add_argument("--data-dir",
                        default=os.environ.get("QBS_DATA_DIR", "data"),
                        help="destination directory (default: $QBS_DATA_DIR "
                        "or ./data)")
    parser.add_argument("--force", action="store_true",
                        help="re-download even if the file exists")
    parser.add_argument("--require-checksum", action="store_true",
                        help="fail on datasets without a pinned sha256 "
                        "instead of trust-on-first-use")
    parser.add_argument("--audit", action="store_true",
                        help="offline pin ratchet: fail unless every "
                        "mirrored entry is pinned or allowlisted in "
                        "PIN_PENDING (no network touched)")
    args = parser.parse_args()

    if args.audit:
        audit()
        return
    if args.list:
        list_datasets(args.data_dir)
        return
    if not args.only and not args.all:
        parser.error("pass --only NAME[,NAME...], --all, or --list")

    names = resolve_names(args.only)
    raw_dir = os.path.join(args.data_dir, "raw")
    os.makedirs(raw_dir, exist_ok=True)

    failures = []
    for name in names:
        url, filename, pinned, _, _, note = REGISTRY[name]
        dest = os.path.join(raw_dir, filename)
        if not url:
            print(f"{name}: no plain edge-list mirror — {note}\n"
                  f"  place the result at {dest}")
            failures.append(name)
            continue
        print(f"{name}: {url}")
        fresh = download(url, dest, args.force)
        if not fresh:
            print(f"  already present: {dest}")
        verify(name, dest, pinned, args.require_checksum)

    fetched = [n for n in names if n not in failures]
    if fetched:
        print(f"\nfetched/verified: {', '.join(fetched)}")
        print("next: build/bench/bench_table1_datasets "
              f"--datasets={fetched[0]}   (converts to the binary cache on "
              "first use)")
    if failures:
        sys.exit(f"needs manual fetching: {', '.join(failures)}")


if __name__ == "__main__":
    main()

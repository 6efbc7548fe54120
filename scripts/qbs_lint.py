#!/usr/bin/env python3
"""qbs_lint: machine-checked project invariants (see docs/LINT.md).

Each rule encodes a structural invariant of this codebase that the compiler
alone cannot enforce:

  raw-socket        socket syscalls live only in src/server/socket.cc, so
                    every byte on the wire goes through the EINTR/timeout/
                    fault-injection discipline of the Socket classes.
  raw-mutex         std::mutex & friends live only in src/util/sync.h; all
                    other code takes the annotated wrappers, so clang
                    -Wthread-safety and the lock-rank checker see every lock.
  unseeded-rng      no rand()/srand()/default-constructed engines in src/:
                    every random sequence must take an explicit seed so
                    failures replay (QBS_DYNAMIC_SEEDS et al.).
  no-cout           library code reports through return values and
                    std::cerr; std::cout belongs to tools/ and bench/
                    (machine-readable output contracts).

Allowlists (scripts/lint_allowlists/<rule>.txt, one repo-relative path per
line, '#' comments) are a ratchet: a violation in a listed file passes, but
a listed file with NO violation fails the run, so entries can only
disappear. raw-socket and raw-mutex ship with empty allowlists — keep them
that way.

Matching is regex over comment-stripped lines. When libclang is importable
it refines raw-mutex/raw-socket hits by discarding matches that fall inside
string literals; without it the regexes alone decide (they are written to
not need the refinement on today's tree).

Usage: qbs_lint.py [--root DIR] [--verbose]
Exit codes: 0 clean, 1 violations or stale allowlist entries, 2 usage.
"""

import argparse
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".cc", ".h"}

# Strip // and /* ... */ comments and string literals enough for line-regex
# matching; multi-line block comments are tracked by the scanner.
LINE_COMMENT_RE = re.compile(r"//.*$")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/")


class Rule:
    def __init__(self, name, pattern, scopes, exempt=(), description=""):
        self.name = name
        self.pattern = re.compile(pattern)
        self.scopes = scopes  # repo-relative dir prefixes to scan
        self.exempt = set(exempt)  # repo-relative files never scanned
        self.description = description


RULES = [
    Rule(
        "raw-socket",
        r"::(socket|bind|listen|accept|connect|setsockopt|getsockname"
        r"|getpeername|send|recv|sendto|recvfrom|sendmsg|recvmsg"
        r"|shutdown|close|poll|select|read|write|readv|writev)\s*\(",
        scopes=("src",),
        exempt=("src/server/socket.cc",),
        description="socket syscalls outside src/server/socket.cc",
    ),
    Rule(
        "raw-mutex",
        r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
        r"|shared_mutex|shared_timed_mutex|condition_variable"
        r"|condition_variable_any|lock_guard|unique_lock|shared_lock"
        r"|scoped_lock)\b"
        r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>",
        scopes=("src",),
        exempt=("src/util/sync.h",),
        description="raw std synchronization outside src/util/sync.h",
    ),
    Rule(
        "unseeded-rng",
        r"\bsrand\s*\(|(?<![\w:])rand\s*\(\s*\)"
        r"|\bstd::(mt19937(?:_64)?|minstd_rand0?|default_random_engine)"
        r"\s+\w+\s*;"
        r"|\bstd::random_device\b",
        scopes=("src",),
        description="unseeded randomness in library code",
    ),
    Rule(
        "no-cout",
        r"\bstd::cout\b",
        scopes=("src",),
        description="std::cout in library code",
    ),
]


def load_allowlist(root, rule):
    path = root / "scripts" / "lint_allowlists" / f"{rule.name}.txt"
    entries = set()
    if path.exists():
        for line in path.read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                entries.add(line)
    return entries


def try_libclang():
    try:
        import clang.cindex  # noqa: F401

        return clang.cindex
    except ImportError:
        return None


def strip_strings(line):
    # Good enough for these rules: no project string legitimately contains a
    # raw syscall-with-paren or std:: sync type.
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


def scan_file(path, text, rules):
    violations = []  # (rule, line_number, line_text)
    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        line = BLOCK_COMMENT_RE.sub("", line)
        start = line.find("/*")
        if start >= 0:
            line = line[:start]
            in_block_comment = True
        line = strip_strings(LINE_COMMENT_RE.sub("", line))
        if not line.strip():
            continue
        for rule in rules:
            if rule.pattern.search(line):
                violations.append((rule, lineno, raw.strip()))
    return violations


def run_lint(root, verbose=False, out=sys.stdout):
    """Lints the tree under `root`. Returns the number of failures."""
    root = pathlib.Path(root)
    cindex = try_libclang()
    if verbose and cindex is None:
        print("libclang unavailable: regex-only mode", file=out)

    failures = 0
    allowlists = {rule.name: load_allowlist(root, rule) for rule in RULES}
    # Which allowlisted files actually violated — for the stale-entry check.
    used_allowlist = {rule.name: set() for rule in RULES}

    for rule in RULES:
        files = []
        for scope in rule.scopes:
            scope_dir = root / scope
            if not scope_dir.is_dir():
                continue
            files.extend(
                p
                for p in sorted(scope_dir.rglob("*"))
                if p.suffix in SOURCE_SUFFIXES
            )
        for path in files:
            rel = path.relative_to(root).as_posix()
            if rel in rule.exempt:
                continue
            hits = scan_file(path, path.read_text(errors="replace"), [rule])
            for _, lineno, line in hits:
                if rel in allowlists[rule.name]:
                    used_allowlist[rule.name].add(rel)
                    if verbose:
                        print(
                            f"allowed  [{rule.name}] {rel}:{lineno}: {line}",
                            file=out,
                        )
                    continue
                failures += 1
                print(f"FAIL [{rule.name}] {rel}:{lineno}: {line}", file=out)

    # Ratchet: every allowlist entry must still be needed.
    for rule in RULES:
        for stale in sorted(allowlists[rule.name] - used_allowlist[rule.name]):
            failures += 1
            print(
                f"FAIL [{rule.name}] stale allowlist entry '{stale}' "
                "(no violation found — delete it from "
                f"scripts/lint_allowlists/{rule.name}.txt)",
                file=out,
            )

    if failures == 0:
        print(f"qbs_lint: clean ({len(RULES)} rules)", file=out)
    else:
        print(f"qbs_lint: {failures} failure(s) — see docs/LINT.md", file=out)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=str(pathlib.Path(__file__).resolve().parent.parent),
        help="repository root (default: this script's grandparent)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    return 1 if run_lint(args.root, verbose=args.verbose) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""List the src/ functions a coverage run never reached and gate them.

Usage:
    coverage_report.py BUILD_DIR ALLOWLIST

BUILD_DIR is a build configured with `--coverage` whose binaries have
run; ALLOWLIST is tools/coverage_allowlist.txt. The script runs
`gcov --json-format` once per object directory (same-named sources such
as cloud/controller.cpp and transport/controller.cpp would collide in
one gcov call) and keeps the functions defined under src/. A function is
reached when any translation unit reached it, since a header's inline
functions compile into many units.

The allowlist holds one entry per line, `<file>:<function-glob>`, where
<file> is a path relative to the source root and the glob (fnmatch
syntax) matches gcov's demangled function name. A line `reason: <text>`
starts a group: every entry below it carries that reason. Blank lines
and lines starting with '#' are ignored.

Prints every unreached function, for writing or pruning entries, and
exits 1 when an unreached function matches no entry, when an entry
matches no unreached function (a stale entry: the list can only
shrink), or when the allowlist is malformed.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field


@dataclass
class Entry:
    line: int
    file_glob: str
    function_glob: str
    matched: int = 0


@dataclass
class Allowlist:
    entries: list[Entry] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def parse_allowlist(text: str) -> Allowlist:
    allow = Allowlist()
    reason = None
    group_size = 0
    group_line = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("reason:"):
            if reason is not None and group_size == 0:
                allow.errors.append(f"line {group_line}: reason with no entries")
            reason = line[len("reason:"):].strip()
            if not reason:
                allow.errors.append(f"line {number}: empty reason")
            group_size = 0
            group_line = number
            continue
        file_glob, sep, function_glob = line.partition(":")
        if not sep or not file_glob or not function_glob:
            allow.errors.append(f"line {number}: expected <file>:<function-glob>, got {line!r}")
            continue
        if reason is None:
            allow.errors.append(f"line {number}: entry before any 'reason:' line")
            continue
        allow.entries.append(Entry(number, file_glob, function_glob))
        group_size += 1
    if reason is not None and group_size == 0:
        allow.errors.append(f"line {group_line}: reason with no entries")
    return allow


def functions_from_gcov_json(doc: dict, source_root: str) -> dict[tuple[str, str], int]:
    """(file relative to source_root, demangled name) -> execution count,
    for the functions of one gcov JSON document that live under src/."""
    out: dict[tuple[str, str], int] = {}
    cwd = doc.get("current_working_directory", "")
    for entry in doc.get("files", []):
        path = entry.get("file", "")
        if not os.path.isabs(path):
            path = os.path.join(cwd, path)
        rel = os.path.relpath(os.path.normpath(path), source_root)
        if not rel.startswith("src" + os.sep):
            continue
        for fn in entry.get("functions", []):
            name = fn.get("demangled_name") or fn.get("name", "")
            key = (rel, name)
            out[key] = max(out.get(key, 0), int(fn.get("execution_count", 0)))
    return out


def merge(into: dict[tuple[str, str], int], more: dict[tuple[str, str], int]) -> None:
    for key, count in more.items():
        into[key] = max(into.get(key, 0), count)


def run_gcov(build_dir: str, source_root: str) -> dict[tuple[str, str], int]:
    """Run gcov over every object directory of build_dir that holds .gcda
    files and merge what it reports."""
    functions: dict[tuple[str, str], int] = {}
    for directory, _, files in sorted(os.walk(build_dir)):
        gcda = sorted(f for f in files if f.endswith(".gcda"))
        if not gcda:
            continue
        result = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names",
             "--object-directory", directory] + gcda,
            cwd=directory, capture_output=True, text=True, check=False)
        if result.returncode != 0:
            raise RuntimeError(f"gcov failed in {directory}:\n{result.stderr}")
        # One JSON document per object file, one per line.
        for text in result.stdout.splitlines():
            if text.strip():
                merge(functions, functions_from_gcov_json(json.loads(text), source_root))
    return functions


def check(functions: dict[tuple[str, str], int], allow: Allowlist) -> list[str]:
    """Failures of the gate, empty when it passes."""
    failures = list(allow.errors)
    unreached = sorted(key for key, count in functions.items() if count == 0)
    for rel, name in unreached:
        hits = [e for e in allow.entries
                if fnmatch.fnmatchcase(rel, e.file_glob)
                and fnmatch.fnmatchcase(name, e.function_glob)]
        for entry in hits:
            entry.matched += 1
        if not hits:
            failures.append(f"unreached and not allowlisted: {rel}:{name}")
    for entry in allow.entries:
        if entry.matched == 0:
            failures.append(f"stale allowlist entry (line {entry.line}): "
                            f"{entry.file_glob}:{entry.function_glob}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="--coverage build whose binaries have run")
    parser.add_argument("allowlist", help="tools/coverage_allowlist.txt")
    args = parser.parse_args(argv)

    with open(args.allowlist, "r", encoding="utf-8") as fh:
        allow = parse_allowlist(fh.read())
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    functions = run_gcov(os.path.abspath(args.build_dir), source_root)
    if not functions:
        print(f"no src/ coverage data under {args.build_dir}", file=sys.stderr)
        return 1

    reached = sum(1 for count in functions.values() if count > 0)
    print(f"src/ functions: {reached} of {len(functions)} reached, "
          f"{len(functions) - reached} unreached, {len(allow.entries)} allowlist entries")
    for (rel, name), count in sorted(functions.items()):
        if count == 0:
            print(f"  {rel}:{name}")

    failures = check(functions, allow)
    if failures:
        print("\ncoverage gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("coverage gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fails when a library translation unit under src/ is linked into no
program of the build.

Usage:

    cmake --build build
    python3 scripts/check_src_reachability.py build
    python3 scripts/check_src_reachability.py build --allow-list ''

The programs are the non-test executables of the top-level build: the
tools, the benches and the examples. The linker pulls a static-archive
member into a program only when the program references one of its
symbols, so an object under BUILD/src/ that shares no strong global text
symbol with any program is code that no program runs. Tests do not count:
code that only its own tests link is dead weight, and deleting it is the
fix.

The allow-list names the sources that may stay unreachable on purpose,
as paths relative to src/. Its only default entry is the autograd graph,
the reference implementation that tests compare the layers' hand-written
backward passes against. An allow-list entry that is reachable again, or
whose object no longer exists, also fails, so the list cannot go stale.

Exits 0 when every object is reachable or allow-listed, 1 with the
offending sources otherwise. Needs `nm` (binutils); uses only the
standard library.
"""

import argparse
import os
import subprocess
import sys

DEFAULT_ALLOW_LIST = "autograd/graph.cc"
PROGRAM_DIRS = ("tools", "bench", "examples")
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")


def fail(message):
    print(f"check_src_reachability: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def defined_symbols(path, types):
    """Names of the symbols `path` defines whose nm type letter is in
    `types`."""
    out = subprocess.run(["nm", "--defined-only", "-P", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[1] in types:
            names.add(fields[0])
    return names


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as handle:
        return handle.read(4) == b"\x7fELF"


def find_programs(build_dir):
    programs = []
    for sub in PROGRAM_DIRS:
        for root, dirs, files in os.walk(os.path.join(build_dir, sub)):
            dirs[:] = [d for d in dirs if d != "CMakeFiles"]
            programs += [os.path.join(root, f) for f in files
                         if is_elf_executable(os.path.join(root, f))]
    return sorted(programs)


def find_objects(build_dir):
    """Maps each source path relative to src/ to its object file. An
    incremental build keeps the objects of deleted sources; they are
    skipped."""
    objects = {}
    cmake_files = os.path.join(build_dir, "src", "CMakeFiles")
    if not os.path.isdir(cmake_files):
        return objects
    for target_dir in sorted(os.listdir(cmake_files)):
        if not target_dir.endswith(".dir"):
            continue
        base = os.path.join(cmake_files, target_dir)
        for root, _, files in os.walk(base):
            for name in files:
                path = os.path.join(root, name)
                source = os.path.relpath(path, base)[:-2]
                if (name.endswith(".o")
                        and os.path.isfile(os.path.join(SRC_DIR, source))):
                    objects[source] = path
    return objects


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--allow-list", default=DEFAULT_ALLOW_LIST,
                        help="comma-separated sources relative to src/ "
                             f"(default: {DEFAULT_ALLOW_LIST})")
    args = parser.parse_args()
    allowed = {s for s in args.allow_list.split(",") if s}

    programs = find_programs(args.build_dir)
    if not programs:
        fail(f"no executables under {args.build_dir}/"
             f"{{{','.join(PROGRAM_DIRS)}}}")
    objects = find_objects(args.build_dir)
    if not objects:
        fail(f"no library objects under {args.build_dir}/src")

    linked = set()
    for program in programs:
        linked |= defined_symbols(program, "TtWw")

    unreachable = []
    for source, path in sorted(objects.items()):
        exported = defined_symbols(path, "T")
        if exported and not exported & linked:
            unreachable.append(source)
    print(f"{len(objects)} objects, {len(programs)} programs, "
          f"{len(unreachable)} unreachable: {', '.join(unreachable) or '-'}")

    problems = [f"src/{s} is linked into no program" for s in unreachable
                if s not in allowed]
    problems += [f"allow-list entry {s} is reachable or gone" for s in
                 sorted(allowed - set(unreachable))]
    for problem in problems:
        print(f"check_src_reachability: {problem}", file=sys.stderr)
    if problems:
        fail(f"{len(problems)} problem(s); delete the dead code or fix the "
             "allow-list")
    print("ok: every other src/ object is linked into some program")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Fails when a function defined under src/ is linked into no program.

Usage:

    flags=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
           -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
    cmake -B build-gc -S . "${flags[@]}" && cmake --build build-gc
    cmake -B build-gc-e2e -S e2ebench "${flags[@]}"
    cmake --build build-gc-e2e
    python3 scripts/check_src_reachability.py build-gc build-gc-e2e

The first build directory is the top-level tree: its src/ objects define
the library's functions, and the programs are the executables listed in
its programs.txt, which CMake writes from every `geodp_program` target
(the tools, benches and examples). An incremental build keeps the binary
of a deleted program, but the list no longer names it, so it does not
count. Every further build directory contributes all of its executables
as programs (e2ebench's `e2e_runner`; that tree writes no list), so use a
fresh one. Tests do not count: code that only its own tests call is dead
weight, and deleting it or moving it under tests/support/ is the fix.

The check compares two sets of symbols: the strong global text symbols
(`T`) of every object under BUILD/src/, and the text symbols (`T`, `t`,
`W`, `w`) of every program. With -ffunction-sections each function sits in
its own section and --gc-sections drops every section no program
references, so a program keeps exactly the functions it can call. At -O0
nothing is inlined away, so a function that is called is present under
its own name. The script refuses build directories configured without
these flags, because they would hide dead functions.

EXCEPTIONS names the functions that may stay unreachable on purpose, by
their qualified name without the parameter list (which covers every
overload), each with its reason: the ROADMAP item that will call it, or a
test hook on private state. An exception that is reachable again, or that
no object defines any more, also fails, so the list cannot go stale.

Exits 0 when every function is reachable or excepted, 1 with the offending
functions otherwise. Needs `nm` and `c++filt` (binutils); uses only the
standard library.
"""

import argparse
import os
import re
import subprocess
import sys

EXCEPTIONS = {
    "geodp::PrivacyLedger::RecordGaussian":
        "ROADMAP 3(a): the ledger itemizes every release by mechanism",
    "geodp::PrivacyLedger::RecordLaplace":
        "ROADMAP 3(a): the ledger itemizes every release by mechanism",
    "geodp::PrivacyLedger::ComposedGuarantee":
        "ROADMAP 3(a): the printed epsilon composes every ledger release",
    "geodp::PrivacyLedger::OptimalOrder":
        "ROADMAP 3(a): the printed epsilon composes every ledger release",
    "geodp::ModelEfficiency": "ROADMAP 5: Theorem 1's efficiency bench",
    "geodp::SetSimdTier": "test hook on private state",
    "geodp::AvailableSimdTiers": "test hook on private state",
    "geodp::FaultInjector::Arm": "test hook on private state",
    "geodp::FaultInjector::hits": "test hook on private state",
    "geodp::MetricsRegistry::Reset": "test hook on private state",
    "geodp::FlightRecorder::Reset": "test hook on private state",
    "geodp::DisableTracing": "test hook on private state",
    "geodp::JsonlStepWriter::status": "test hook on private state",
    "geodp::TrainingStatusPublisher::publish_count":
        "test hook on private state",
    "geodp::ImportanceSampler::weight": "test hook on private state",
    "geodp::LoadCheckpoint":
        "test hook on private state: reads the format SaveCheckpoint "
        "writes, kept beside its writer",
    "geodp::ReadTensor":
        "test hook on private state: reads the format WriteTensor writes, "
        "kept beside its writer",
}
PROGRAM_LIST = "programs.txt"
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")


def fail(message):
    print(f"check_src_reachability: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def defined_symbols(path, types):
    """Mangled names of the symbols `path` defines whose nm type letter is
    in `types`."""
    out = subprocess.run(["nm", "--defined-only", "-P", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[1] in types:
            names.add(fields[0])
    return names


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def qualified_name(demangled):
    """`ns::Class::Fn(int) const` -> `ns::Class::Fn`."""
    depth = 0
    for i, char in enumerate(demangled):
        if char == "<":
            depth += 1
        elif char == ">":
            depth -= 1
        elif char == "(" and depth == 0 and i > 0:
            return demangled[:i]
    return demangled


def check_flags(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        fail(f"{build_dir} is not a CMake build directory")
    with open(cache) as handle:
        text = handle.read()

    def value(key):
        match = re.search(rf"^{key}:\w+=(.*)$", text, re.MULTILINE)
        return match.group(1) if match else ""

    cxx, link = value("CMAKE_CXX_FLAGS"), value("CMAKE_EXE_LINKER_FLAGS")
    build_type = value("CMAKE_BUILD_TYPE")
    if ("-O0" not in cxx.split() or "-ffunction-sections" not in cxx.split()
            or "--gc-sections" not in link
            or build_type not in ("None", "none")):
        fail(f"{build_dir} must be configured with CMAKE_BUILD_TYPE=None, "
             "CMAKE_CXX_FLAGS='-O0 -ffunction-sections' and "
             "CMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections "
             f"(found type '{build_type}', flags '{cxx}' / '{link}')")


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as handle:
        return handle.read(4) == b"\x7fELF"


def listed_programs(build_dir):
    """The programs the top-level tree lists; each must be built."""
    path = os.path.join(build_dir, PROGRAM_LIST)
    if not os.path.isfile(path):
        fail(f"{path} is missing: configure {build_dir} from the top-level "
             "CMakeLists.txt, which writes it")
    with open(path) as handle:
        programs = [line.strip() for line in handle if line.strip()]
    for program in programs:
        if not is_elf_executable(program):
            fail(f"{program} is listed in {path} but not built")
    return programs


def find_programs(build_dir):
    programs = []
    for root, dirs, files in os.walk(build_dir):
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
    parser.add_argument("build_dir", help="the top-level gc-sections build")
    parser.add_argument("program_build_dirs", nargs="*",
                        help="further gc-sections builds whose executables "
                             "are all programs (e2ebench's)")
    args = parser.parse_args()

    for build_dir in [args.build_dir] + args.program_build_dirs:
        check_flags(build_dir)
    programs = listed_programs(args.build_dir)
    for build_dir in args.program_build_dirs:
        programs += find_programs(build_dir)
    if not programs:
        fail(f"no programs in {args.build_dir}/{PROGRAM_LIST}")
    objects = find_objects(args.build_dir)
    if not objects:
        fail(f"no library objects under {args.build_dir}/src")

    linked = set()
    for program in programs:
        linked |= defined_symbols(program, "TtWw")

    defined = {}
    for source, path in sorted(objects.items()):
        for symbol in defined_symbols(path, "T"):
            defined[symbol] = source
    names = demangle(sorted(defined))
    unreachable = sorted((defined[s], names[s]) for s in defined
                         if s not in linked)
    print(f"{len(defined)} functions in {len(objects)} objects, "
          f"{len(programs)} programs, {len(unreachable)} unreachable")

    problems, excepted = [], set()
    for source, name in unreachable:
        qualified = qualified_name(name)
        if qualified in EXCEPTIONS:
            excepted.add(qualified)
            print(f"  excepted: src/{source}: {name} "
                  f"({EXCEPTIONS[qualified]})")
        else:
            problems.append(f"src/{source}: {name} is linked into no program")
    problems += [f"exception {q} is reachable or gone" for q in
                 sorted(set(EXCEPTIONS) - excepted)]
    for problem in problems:
        print(f"check_src_reachability: {problem}", file=sys.stderr)
    if problems:
        fail(f"{len(problems)} problem(s); delete the dead code, move a test "
             "oracle under tests/support/, or fix the exception list")
    print("ok: every other src/ function is linked into some program")


if __name__ == "__main__":
    main()

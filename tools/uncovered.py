#!/usr/bin/env python3
"""List the src/ functions a coverage test run never executed.

Usage:
  uncovered.py BUILD_DIR

BUILD_DIR is a build configured with
  -DCMAKE_CXX_FLAGS="-O1 --coverage" -DCMAKE_EXE_LINKER_FLAGS=--coverage
whose ctest has run, so the `rlceff` library's objects carry .gcda counts.
The script runs `gcov --json-format` over those objects in a temporary
directory (the build is left untouched) and merges the function records by
source file and start line: the instances of one template and the inline
copies of one header function count as one function, executed if any copy
ran.  A copy ran when gcov counts an entry into it, or when any line gcov
attributes to it ran: a call the optimizer inlined leaves the entry count
at zero but counts the inlined lines.  An object no test binary linked has
no .gcda and counts as never executed.

It prints every function under src/ outside src/testkit/ that never ran,
as `path:first-last  name`, then the count of such functions and the lines
they span.  It is a report, not a gate: it exits 0 whatever it finds.  gcov
records no count for a function that always throws (detail::ensure_failed
in src/util/error.h), so that one is always listed.
"""
import gzip
import json
import os
import subprocess
import sys
import tempfile


def source_root(build_dir):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    sys.exit("uncovered.py: %s has no CMAKE_HOME_DIRECTORY" % build_dir)


def library_notes(build_dir):
    objects = os.path.join(build_dir, "CMakeFiles", "rlceff.dir")
    notes = []
    for root, _, files in os.walk(objects):
        notes += [os.path.join(root, f) for f in files if f.endswith(".gcno")]
    if not notes:
        sys.exit("uncovered.py: no .gcno files under %s; configure with --coverage"
                 % objects)
    return sorted(notes)


def gcov_files(notes):
    """Yields (source path, gcov file record) over every object's gcov JSON."""
    with tempfile.TemporaryDirectory() as workdir:
        # --preserve-paths keeps the outputs of equally named sources apart.
        subprocess.run(["gcov", "--json-format", "--preserve-paths", *notes],
                       cwd=workdir, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)
        for name in sorted(os.listdir(workdir)):
            if not name.endswith(".gcov.json.gz"):
                continue
            with gzip.open(os.path.join(workdir, name), "rt") as f:
                doc = json.load(f)
            base = doc.get("current_working_directory", "")
            for entry in doc["files"]:
                yield os.path.realpath(os.path.join(base, entry["file"])), entry


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    build_dir = argv[1]
    root = source_root(build_dir)
    src = os.path.join(root, "src") + os.sep
    testkit = os.path.join(src, "testkit") + os.sep

    merged = {}  # (path, start line) -> [end line, ran, readable names]
    keys = {}    # (path, mangled name) -> (path, start line)
    lines_ran = set()  # (path, mangled name) with a line that ran
    for path, entry in gcov_files(library_notes(build_dir)):
        if not path.startswith(src) or path.startswith(testkit):
            continue
        for function in entry["functions"]:
            key = (path, function["start_line"])
            keys[(path, function["name"])] = key
            record = merged.setdefault(key, [function["end_line"], False, set()])
            record[0] = max(record[0], function["end_line"])
            record[1] = record[1] or function["execution_count"] > 0
            record[2].add(function.get("demangled_name", function["name"]))
        for line in entry["lines"]:
            if line["count"] > 0 and "function_name" in line:
                lines_ran.add((path, line["function_name"]))
    for name in lines_ran:
        if name in keys:
            merged[keys[name]][1] = True

    functions = 0
    lines = 0
    for (path, start), (end, ran, names) in sorted(merged.items()):
        if ran:
            continue
        functions += 1
        lines += end - start + 1
        print("%s:%d-%d  %s" % (os.path.relpath(path, root), start, end, min(names)))
    print("%d function(s), %d line(s) never executed (src/ outside testkit)"
          % (functions, lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

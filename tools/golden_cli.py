#!/usr/bin/env python3
"""Golden rlceff_cli dumps: every deck x flag set, and a byte diff of two dumps.

A bitwise change to the engine must leave everything the CLI prints alone.
A dump runs `rlceff_cli --json --grid small` over decks x flag sets and
writes three files per run into one directory:

  <deck>.<flags>.out   stdout (the JSON document)
  <deck>.<flags>.err   stderr, the run's library path replaced by <library>
  <deck>.<flags>.code  the exit code

Every run gets its own copy of one pre-characterized library (the CLI
rewrites --library at exit, so runs cannot share the file).  The base is
--library when given; otherwise the dump characterizes one first, running
each selected deck once against a fresh file.  Runs go --jobs at a time,
the most expensive first (the dense-solver transients on xnet2 take
minutes; most runs take well under a second).

Usage:
  golden_cli.py --cli BUILD/rlceff_cli --out DIR [--library FILE]
                [--decks batch4,smoke3] [--flags default,reference] [--jobs N]
  golden_cli.py --compare DIR_A DIR_B

--compare exits 1 when a run's files differ, or exist on one side only, and
when neither side holds any run.
"""
import argparse
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
import time

DECKS = ["batch4", "coupled2", "smoke3", "xnet2"]


def flag_sets():
    sets = {
        "default": [],
        "reference": ["--reference"],
    }
    for solver in ["dense", "banded", "sparse"]:
        sets["reference-" + solver] = ["--reference", "--solver", solver]
    sets["far-end-batched"] = ["--far-end", "--batch-scenarios", "on"]
    sets["far-end-per-slot"] = ["--far-end", "--batch-scenarios", "off"]
    for policy in ["balanced", "fastest", "a", "b", "c"]:
        sets["tier-" + policy] = ["--tier", policy]
        for solver in ["dense", "sparse"]:
            sets["tier-%s-%s" % (policy, solver)] = ["--tier", policy, "--solver", solver]
    sets["lint-screen"] = ["--lint-screen"]
    sets["lint"] = ["--lint"]
    sets["degrade-deadline"] = ["--degrade", "--deadline-ms", "1e-6"]
    sets["degrade-max-steps"] = ["--degrade", "--max-steps", "10"]
    sets["deadline"] = ["--deadline-ms", "1e-6"]
    sets["max-steps"] = ["--max-steps", "10"]
    sets["tier-fastest-lint-screen"] = ["--tier", "fastest", "--lint-screen"]
    sets["tier-balanced-lint-screen"] = ["--tier", "balanced", "--lint-screen"]
    sets["tier-fastest-degrade-deadline"] = ["--tier", "fastest", "--degrade",
                                             "--deadline-ms", "1e-6"]
    sets["tier-balanced-degrade-max-steps"] = ["--tier", "balanced", "--degrade",
                                               "--max-steps", "10"]
    return sets


FLAG_SETS = flag_sets()


def expected_cost(deck, flags):
    """Relative run time, to start the longest runs first."""
    cost = 1.0
    if "--reference" in flags or flags[:2] == ["--tier", "c"]:
        cost *= 20.0  # a driver transient per net
    if "dense" in flags:
        cost *= 10.0
    if deck == "xnet2":
        cost *= 5.0
    return cost


def decks_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "decks")


def pick(text, known, what):
    names = known if text is None else [n for n in text.split(",") if n]
    unknown = [n for n in names if n not in known]
    if unknown:
        sys.exit("golden_cli: unknown %s: %s" % (what, ", ".join(unknown)))
    return names


# The CLI runs in the decks directory on a relative deck path, so the path
# it prints is the same for every checkout.
def run_cli(argv, **kwargs):
    return subprocess.run(argv, cwd=decks_dir(), check=False, **kwargs)


def characterize(cli, decks, library):
    for deck in decks:
        run_cli([cli, "--grid", "small", "--library", library, deck + ".deck"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not os.path.exists(library):
        sys.exit("golden_cli: characterizing a library failed")


def run_one(cli, deck, name, base_library, work, out):
    library = os.path.join(work, "%s.%s.lib" % (deck, name))
    shutil.copyfile(base_library, library)
    argv = [cli, "--json", "--grid", "small", "--library", library] + FLAG_SETS[name] + [
        deck + ".deck"]
    start = time.monotonic()
    proc = run_cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    elapsed = time.monotonic() - start
    os.remove(library)
    stem = os.path.join(out, "%s.%s" % (deck, name))
    with open(stem + ".out", "wb") as f:
        f.write(proc.stdout)
    with open(stem + ".err", "wb") as f:
        f.write(proc.stderr.replace(library.encode(), b"<library>"))
    with open(stem + ".code", "w") as f:
        f.write("%d\n" % proc.returncode)
    return proc.returncode, elapsed


def dump(args):
    cli = os.path.abspath(args.cli)
    decks = pick(args.decks, DECKS, "deck")
    names = pick(args.flags, list(FLAG_SETS), "flag set")
    if os.path.isdir(args.out) and os.listdir(args.out):
        sys.exit("golden_cli: %s is not empty" % args.out)
    os.makedirs(args.out, exist_ok=True)
    runs = sorted(((deck, name) for deck in decks for name in names),
                  key=lambda run: -expected_cost(run[0], FLAG_SETS[run[1]]))
    with tempfile.TemporaryDirectory(prefix="golden_cli.") as work:
        base = os.path.join(work, "base.lib")
        if args.library:
            shutil.copyfile(args.library, base)
        else:
            characterize(cli, decks, base)
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = {pool.submit(run_one, cli, deck, name, base, work, args.out):
                       (deck, name) for deck, name in runs}
            for done, future in enumerate(concurrent.futures.as_completed(futures), 1):
                code, elapsed = future.result()
                deck, name = futures[future]
                print("[%d/%d] %s %s: exit %d, %.1f s" % (done, len(runs), deck, name,
                                                          code, elapsed), flush=True)
    return 0


def compare(a, b):
    def runs(d):
        return {f for f in os.listdir(d) if f.endswith((".out", ".err", ".code"))}

    files_a, files_b = runs(a), runs(b)
    if not files_a and not files_b:
        print("golden_cli: no runs in %s or %s" % (a, b), file=sys.stderr)
        return 1
    differ = []
    for f in sorted(files_a | files_b):
        if f not in files_a or f not in files_b:
            differ.append("%s (only in %s)" % (f, a if f in files_a else b))
            continue
        with open(os.path.join(a, f), "rb") as fa, open(os.path.join(b, f), "rb") as fb:
            if fa.read() != fb.read():
                differ.append(f)
    count = len({f.rsplit(".", 1)[0] for f in files_a | files_b})
    for f in differ:
        print("differs: " + f)
    print("%d run(s) compared, %d file(s) differ" % (count, len(differ)))
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", help="the rlceff_cli binary")
    parser.add_argument("--out", help="directory for the dump (new or empty)")
    parser.add_argument("--library", help="pre-characterized --grid small library")
    parser.add_argument("--decks", help="comma-separated subset of " + ",".join(DECKS))
    parser.add_argument("--flags", help="comma-separated subset of the flag-set names")
    parser.add_argument("--jobs", type=int, default=2, help="runs at a time (default 2)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="diff two dumps byte for byte")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.cli or not args.out:
        parser.error("a dump needs --cli and --out")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    return dump(args)


if __name__ == "__main__":
    sys.exit(main())

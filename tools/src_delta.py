#!/usr/bin/env python3
"""The src/ line delta between two revisions, split into code, comments and blanks.

Usage:
  src_delta.py BASE [HEAD]

BASE and HEAD are git revisions of this repository.  Without HEAD the
delta runs from BASE to the working tree (the files git tracks or has
staged, as `git diff BASE` sees them).  It prints the lines added and
removed under src/ and their net, then the same split three ways:

  blank     a line that is empty or only whitespace,
  comment   a line whose first non-blank characters are // or /*,
  code      every other line (code with a trailing comment is code).

src/ writes no multi-line /* */ comments, so a line is classified by its
own text alone.  Exits 77, printing why, when the source tree is not a git
checkout (ctest reads 77 as a skip), and 2 when git fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SKIP = 77
KINDS = ("code", "comments", "blank")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def is_checkout():
    try:
        top = git("rev-parse", "--show-toplevel")
    except OSError:  # no git at all
        return False
    return top.returncode == 0 and os.path.realpath(top.stdout.strip()) == ROOT


def kind(text):
    stripped = text.strip()
    if not stripped:
        return "blank"
    if stripped.startswith("//") or stripped.startswith("/*"):
        return "comments"
    return "code"


def count(diff_text):
    """Added and removed lines per kind, from `git diff -U0` output."""
    added = dict.fromkeys(KINDS, 0)
    removed = dict.fromkeys(KINDS, 0)
    in_hunk = False
    for line in diff_text.splitlines():
        if line.startswith("diff --git "):
            in_hunk = False  # file header until the first @@
        elif line.startswith("@@"):
            in_hunk = True
        elif in_hunk and line.startswith("+"):
            added[kind(line[1:])] += 1
        elif in_hunk and line.startswith("-"):
            removed[kind(line[1:])] += 1
    return added, removed


def row(name, plus, minus):
    return "%-9s +%d -%d = %+d" % (name, plus, minus, plus - minus)


def main(argv):
    if len(argv) not in (2, 3) or argv[1].startswith("-"):
        sys.exit(__doc__)
    if not is_checkout():
        print("src_delta.py: %s is not a git checkout; nothing to compare" % ROOT,
              file=sys.stderr)
        return SKIP
    revisions = argv[1:]
    diff = git("diff", "--no-color", "--no-ext-diff", "-U0", *revisions, "--", "src")
    if diff.returncode != 0:
        sys.stderr.write(diff.stderr)
        return 2
    added, removed = count(diff.stdout)
    span = "%s..%s" % (revisions[0], revisions[1] if len(revisions) > 1 else "worktree")
    print(row("src/", sum(added.values()), sum(removed.values())) + "  (" + span + ")")
    for name in KINDS:
        print(row(name, added[name], removed[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

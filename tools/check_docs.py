#!/usr/bin/env python3
"""Documentation gate: dead-link and anchor-drift check. Stdlib only.

Checks, in order:

1. Every relative markdown link/image in the scanned .md files points at
   a path that exists in the repo (fragments stripped; http(s)/mailto
   links are deliberately NOT fetched -- the check must be hermetic).
2. The tier-1 verify command appears verbatim in ROADMAP.md, so the one
   command a contributor must know cannot silently rot.
3. docs/ARCHITECTURE.md links to the three reference docs
   (PROTOCOL.md, OPERATIONS.md, METRICS.md) -- they are reachable from
   the entry point, not orphaned.
4. Every code path named in backticks in docs/*.md exists, resolved
   against the repo root or src/. A code path is a whitespace-separated
   token inside a code span that contains a "/" and ends in .cc, .h,
   .cpp, .py, .sh, .json or .md, optionally followed by ":line" or
   ":first-last". A doc cannot keep citing a file that was deleted.

Exit 0 when everything holds; exit 1 with one line per problem.
Run from anywhere: paths resolve against the repo root (this file's
parent's parent).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

TIER1 = ("cmake -B build -S . && cmake --build build -j && "
         "cd build && ctest --output-on-failure -j")

REQUIRED_FROM_ARCHITECTURE = [
    "PROTOCOL.md",
    "OPERATIONS.md",
    "METRICS.md",
    "ACCURACY.md",
]

# [text](target) and ![alt](target); target may carry an optional title.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")
# Fenced code blocks: links inside them are examples, not navigation.
FENCE_RE = re.compile(r"^(```|~~~)")
# Inline code spans, and the code-path tokens checked inside them.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
CODE_PATH_RE = re.compile(
    r"^([\w.\-/]*/[\w.\-]+\.(?:cc|h|cpp|py|sh|json|md))(?::\d+(?:-\d+)?)?$")


def scanned_files():
    files = sorted(REPO.glob("*.md")) + sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def strip_fences(text):
    out, fenced = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            fenced = not fenced
            continue
        out.append("" if fenced else line)
    return "\n".join(out)


def check_links(md, problems):
    text = strip_fences(md.read_text(encoding="utf-8"))
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:  # pure in-page fragment
            continue
        resolved = (md.parent / path).resolve()
        try:
            resolved.relative_to(REPO)
        except ValueError:
            problems.append(f"{md.relative_to(REPO)}: link escapes the "
                            f"repo: {target}")
            continue
        if not resolved.exists():
            problems.append(f"{md.relative_to(REPO)}: dead link: {target}")


def check_code_paths(md, problems, root=REPO):
    text = strip_fences(md.read_text(encoding="utf-8"))
    for span in CODE_SPAN_RE.findall(text):
        for token in span.split():
            m = CODE_PATH_RE.match(token)
            if not m:
                continue
            path = m.group(1)
            if not ((root / path).exists() or (root / "src" / path).exists()):
                problems.append(f"{md.relative_to(root)}: names a missing "
                                f"code path: {token}")


def main():
    problems = []

    files = scanned_files()
    if not files:
        problems.append("no markdown files found -- wrong working tree?")
    for md in files:
        check_links(md, problems)
    for md in sorted((REPO / "docs").glob("*.md")):
        check_code_paths(md, problems)

    roadmap = REPO / "ROADMAP.md"
    if not roadmap.is_file() or TIER1 not in roadmap.read_text(
            encoding="utf-8"):
        problems.append("ROADMAP.md does not carry the tier-1 verify "
                        "command verbatim: " + TIER1)

    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not arch.is_file():
        problems.append("docs/ARCHITECTURE.md is missing")
    else:
        text = arch.read_text(encoding="utf-8")
        for doc in REQUIRED_FROM_ARCHITECTURE:
            if f"({doc})" not in text:
                problems.append(f"docs/ARCHITECTURE.md does not link to "
                                f"{doc} -- the reference docs must be "
                                f"reachable from the entry point")

    for p in problems:
        print(f"check_docs: {p}", file=sys.stderr)
    if problems:
        print(f"check_docs: FAILED ({len(problems)} problem(s) across "
              f"{len(files)} file(s))", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(files)} markdown file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

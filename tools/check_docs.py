#!/usr/bin/env python
"""Intra-repo link checker for the project's Markdown docs.

Walks every tracked ``*.md`` file (repo root + ``docs/``, recursively
excluding build/VCS noise) and verifies that each relative Markdown
link — ``[text](target)`` and reference-style ``[label]: target`` —
points at a file or directory that actually exists, resolved against
the file containing the link.  External links (``http://``,
``https://``, ``mailto:``) and pure in-page anchors (``#section``) are
skipped: this gate is about the repo's own files moving or being
renamed, which a network checker would miss and a human reviewer
usually does.

``README.md`` and the files under ``docs/`` are also held to the code
they describe: every inline code span naming a repo path (one that
starts with ``src/``, ``tools/``, ``benchmarks/``, ``tests/``,
``docs/``, ``examples/`` or ``perfbench/``) must name an existing file
or directory, resolved against the repo root.  A trailing
``::test_id`` or ``:line`` is ignored, and a glob must match something.
Change logs and the roadmap are not held to this: they name deleted
files on purpose.

Exit code 0 when every link and path resolves, 1 with a ``file:line``
listing of each broken one otherwise — the CI ``docs-check`` job runs
exactly this.  Stdlib only.

Usage::

    python tools/check_docs.py            # check the whole repo
    python tools/check_docs.py README.md docs/SERVING.md
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Directories never scanned for Markdown files.
EXCLUDED_DIRS = {
    ".git",
    ".github",
    "__pycache__",
    ".pytest_cache",
    ".hypothesis",
    "node_modules",
    ".venv",
    "venv",
}

#: Link targets that are not intra-repo file references.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: ``[text](target)`` — non-greedy text, target up to the closing paren
#: (Markdown titles after a space are stripped separately).
INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^()\s]+(?:\([^()]*\))?)\)")

#: Reference-style definition: ``[label]: target``.
REFERENCE_LINK = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)")

#: Fenced code block delimiters — links inside code are examples, not
#: navigation, and must not be checked.
FENCE = re.compile(r"^\s*(```|~~~)")

#: Top-level repo directories whose paths the docs may name in code.
PATH_DIRS = ("src", "tools", "benchmarks", "tests", "docs", "examples",
             "perfbench")

#: An inline code span that starts with a repo path; the path is its
#: first word (a command's arguments may follow it).
CODE_PATH = re.compile(
    r"`((?:%s)/[^`\s]*)[^`]*`" % "|".join(PATH_DIRS)
)

#: What follows a path but is not part of it: a pytest node id or a
#: line number.
PATH_SUFFIX = re.compile(r"(::.*|:\d+)$")


def iter_markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if any(part in EXCLUDED_DIRS for part in path.parts):
            continue
        yield path


def iter_prose_lines(text: str):
    """Yield ``(line_number, line)`` for every line outside code fences."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def iter_links(text: str):
    """Yield ``(line_number, target)`` for every link outside code fences."""
    for lineno, line in iter_prose_lines(text):
        reference = REFERENCE_LINK.match(line)
        if reference:
            yield lineno, reference.group(1)
            continue
        for match in INLINE_LINK.finditer(line):
            yield lineno, match.group(1)


def is_checkable(target: str) -> bool:
    if target.startswith(EXTERNAL_PREFIXES):
        return False
    if target.startswith("#"):  # in-page anchor
        return False
    if target.startswith("<") or "://" in target:
        return False
    return True


def iter_code_paths(text: str):
    """Yield ``(line_number, path)`` for every repo path in inline code."""
    for lineno, line in iter_prose_lines(text):
        for match in CODE_PATH.finditer(line):
            yield lineno, PATH_SUFFIX.sub("", match.group(1))


def holds_code_paths(path: Path, root: Path) -> bool:
    """Whether ``path`` is the root ``README.md`` or under ``docs/``."""
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        return False
    return relative == Path("README.md") or relative.parts[0] == "docs"


def path_exists(root: Path, path: str) -> bool:
    if any(char in path for char in "*?["):
        return next(root.glob(path), None) is not None
    return (root / path).exists()


def check_file(path: Path, root: Path = REPO_ROOT) -> list:
    """``(path, lineno, problem)`` tuples for every broken link in one
    file and, for the README and ``docs/``, every missing code path."""
    text = path.read_text(encoding="utf-8")
    broken = []
    for lineno, raw_target in iter_links(text):
        if not is_checkable(raw_target):
            continue
        target = raw_target.partition("#")[0]  # strip section anchors
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            broken.append((path, lineno, f"broken link -> {raw_target}"))
    if holds_code_paths(path, root):
        for lineno, code_path in iter_code_paths(text):
            if not path_exists(root, code_path):
                broken.append((path, lineno, f"missing path -> {code_path}"))
    return broken


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="specific Markdown files to check (default: whole repo)",
    )
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="repo root to scan when no files are given",
    )
    args = parser.parse_args(argv)

    files = args.files or list(iter_markdown_files(args.root))
    broken = []
    checked = 0
    for path in files:
        if not path.is_file():
            print(f"FAIL  {path}: no such file")
            broken.append((path, 0, ""))
            continue
        checked += 1
        broken.extend(check_file(path, args.root))

    for path, lineno, problem in broken:
        if problem:
            try:
                shown = path.relative_to(args.root)
            except ValueError:
                shown = path
            print(f"FAIL  {shown}:{lineno}: {problem}")
    if broken:
        print(
            f"docs check: {len(broken)} broken link(s) or path(s) in "
            f"{checked} file(s)"
        )
        return 1
    print(
        f"docs check: all intra-repo links and paths resolve "
        f"({checked} file(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

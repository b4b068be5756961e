#!/usr/bin/env python3
"""Dead-code gate: functions, methods and classes nothing refers to by name.

A stdlib ``ast`` pass, like ``tools/check_docstrings.py``.  It collects every
function, method and class defined under ``src/repro`` (module level and
class level; defs nested in a function are local helpers and are skipped,
and so are dunder methods, which Python calls by protocol), then every name
read anywhere in ``src/``, ``bench/``, ``tests/``, ``examples/`` and
``tools/``: a ``Name`` node's id or an ``Attribute`` node's attribute.  A
definition whose name is never read is unused.  The check is by bare name,
so any attribute of the same name anywhere keeps a method alive: it finds
names nothing can reach, never a false "unused".  A string — an ``__all__``
entry, a ``getattr`` key — is not a reference.

Usage::

    python tools/check_unused.py            # gate against the allowlist
    python tools/check_unused.py --list     # print every unused definition

Each allowlist line (``tools/unused_allowlist.txt``) is one
``path::qualified.name``; ``#`` starts a comment.  The gate exits 1 when an
unused definition is not listed, and also when a listed one is used again or
gone, so the list can only shrink.  CI runs it in the lint job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where definitions are collected.
DEFINITION_ROOT = "src/repro"

#: Where references are collected.
REFERENCE_ROOTS = ("src", "bench", "tests", "examples", "tools")

ALLOWLIST = REPO_ROOT / "tools" / "unused_allowlist.txt"


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``root``, in path order."""
    yield from sorted(root.rglob("*.py"))


def definitions(path: Path) -> List[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every gated definition in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: List[Tuple[str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((prefix + name, name))
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + name + ".")

    visit(tree, "")
    return found


def referenced_names(paths: List[Path]) -> Set[str]:
    """Every name read by a ``Name`` or ``Attribute`` node in ``paths``."""
    names: Set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def unused_definitions(repo_root: Path = REPO_ROOT) -> List[str]:
    """``path::qualified.name`` of every definition no reference names."""
    sources = [
        path
        for root in REFERENCE_ROOTS
        if (repo_root / root).is_dir()
        for path in iter_python_files(repo_root / root)
    ]
    used = referenced_names(sources)
    unused: List[str] = []
    for path in iter_python_files(repo_root / DEFINITION_ROOT):
        rel = path.relative_to(repo_root).as_posix()
        for qualified, name in definitions(path):
            if name not in used:
                unused.append(f"{rel}::{qualified}")
    return unused


def read_allowlist(path: Path = ALLOWLIST) -> List[str]:
    """The allowlist entries, comments and blank lines dropped."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            entries.append(entry)
    return entries


def main(argv: List[str]) -> int:
    """Gate the tree against the allowlist; print offenders, return the exit code."""
    unused = unused_definitions()
    if "--list" in argv:
        print("\n".join(unused))
        return 0
    allowed = read_allowlist()
    unlisted = [entry for entry in unused if entry not in allowed]
    stale = [entry for entry in allowed if entry not in unused]
    if unlisted:
        print(f"{len(unlisted)} unused definition(s) not in {ALLOWLIST.name}:")
        print("\n".join(unlisted))
    if stale:
        print(f"{len(stale)} {ALLOWLIST.name} entr(y/ies) now used or gone; delete them:")
        print("\n".join(stale))
    if unlisted or stale:
        return 1
    print(f"unused definitions: {len(unused)}, all allowlisted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

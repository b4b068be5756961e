#!/usr/bin/env python3
"""Docstring-coverage gate for the public streaming/engine API.

The repo has no third-party docstring tooling (the environment is
stdlib-only by design), so this is the whole checker: walk the gated
modules' ASTs and require a docstring on every module, every public class,
and every public function/method.  "Public" means the name does not start
with an underscore and the object is not nested inside a function (local
helpers are implementation detail).

Usage::

    python tools/check_docstrings.py            # gate the default module set
    python tools/check_docstrings.py src/x.py   # gate specific files

Exit code 0 when every public object is documented, 1 otherwise (listing
each offender as ``path:line: kind name``) — CI runs this in the lint job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The gated module set: the streaming subsystem, the storage substrate and
#: the ReachGraph layer under it (the read path: ``read_run``,
#: ``record_read_run``, ``locate``), ReachGrid and the contact join and
#: trajectory model it shares its per-sample paths with, the engine facade,
#: and the fault registry whose point names double as recovery
#: documentation.
DEFAULT_TARGETS = (
    "src/repro/streaming",
    "src/repro/storage",
    "src/repro/reachgraph",
    "src/repro/reachgrid",
    "src/repro/contacts",
    "src/repro/trajectory/model.py",
    "src/repro/core/engine.py",
    "src/repro/core/config.py",
    "src/repro/testing",
)


def iter_python_files(target: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``target`` (or ``target`` itself)."""
    if target.is_dir():
        yield from sorted(target.rglob("*.py"))
    else:
        yield target


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def missing_docstrings(path: Path) -> List[Tuple[int, str, str]]:
    """``(line, kind, qualified name)`` for every undocumented public object."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing: List[Tuple[int, str, str]] = []
    if ast.get_docstring(tree) is None:
        missing.append((1, "module", path.stem))

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    if ast.get_docstring(child) is None:
                        missing.append((child.lineno, "class", prefix + child.name))
                    visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Property setters/deleters re-use the getter's name; the
                # getter carries the documentation.
                decorators = {
                    ast.unparse(d).split("(")[0] for d in child.decorator_list
                }
                is_setter = any(d.endswith((".setter", ".deleter")) for d in decorators)
                if (
                    _is_public(child.name)
                    and not is_setter
                    and ast.get_docstring(child) is None
                ):
                    kind = "async def" if isinstance(child, ast.AsyncFunctionDef) else "def"
                    missing.append((child.lineno, kind, prefix + child.name))
                # Deliberately no recursion: nested defs are local helpers.

    visit(tree, "")
    return missing


def main(argv: List[str]) -> int:
    """Gate the targets; print offenders and coverage, return the exit code."""
    targets = [Path(a) for a in argv] or [REPO_ROOT / t for t in DEFAULT_TARGETS]
    offenders: List[str] = []
    files = 0
    for target in targets:
        if not target.exists():
            print(f"error: no such target {target}", file=sys.stderr)
            return 2
        for path in iter_python_files(target):
            files += 1
            for line, kind, name in missing_docstrings(path):
                rel = path.relative_to(REPO_ROOT) if path.is_absolute() else path
                offenders.append(f"{rel}:{line}: {kind} {name}")
    if offenders:
        print(f"{len(offenders)} public object(s) missing docstrings:")
        print("\n".join(offenders))
        return 1
    print(f"docstring coverage: 100% of public objects across {files} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

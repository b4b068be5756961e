"""The dead-code gate: ``tools/check_unused.py`` against its allowlist.

CI runs the tool in the lint job; this test keeps the same gate inside the
tier-1 suite and pins what the checker counts as a reference.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_unused", REPO_ROOT / "tools" / "check_unused.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules.setdefault("check_unused", module)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


class TestUnusedGate:
    def test_allowlist_matches_the_tree_exactly(self):
        checker = _load_checker()
        assert sorted(checker.unused_definitions()) == sorted(checker.read_allowlist())

    def test_checker_flags_names_nothing_reads(self, tmp_path):
        checker = _load_checker()
        root = _tree(
            tmp_path,
            {
                "src/repro/mod.py": (
                    '__all__ = ["Dead", "live"]\n'
                    "class Dead:\n"
                    "    def __repr__(self):\n"
                    "        return ''\n"
                    "    def method(self):\n"
                    "        def local():\n"
                    "            pass\n"
                    "def live():\n"
                    "    pass\n"
                ),
                "tests/test_mod.py": "from repro.mod import live\nlive()\n",
                "tools/probe.py": "getattr(object(), 'method')\n",
            },
        )
        assert checker.unused_definitions(root) == [
            "src/repro/mod.py::Dead",
            "src/repro/mod.py::Dead.method",
        ]

    def test_an_attribute_anywhere_keeps_a_method(self, tmp_path):
        checker = _load_checker()
        root = _tree(
            tmp_path,
            {
                "src/repro/mod.py": "class Kept:\n    def method(self):\n        pass\n",
                "bench/run.py": "import repro.mod\nrepro.mod.Kept().method()\n",
            },
        )
        assert checker.unused_definitions(root) == []

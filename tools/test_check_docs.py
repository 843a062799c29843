#!/usr/bin/env python3
"""Unit tests for the code-path check in check_docs.py (stdlib only).

A doc that names an existing file passes; a doc that names a file that
does not exist (for example one deleted since the doc was written)
fails with one problem naming the path.

Run with:  python3 -m unittest discover -s tools -p 'test_*.py'
"""

import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_docs  # noqa: E402


class CodePathCheck(unittest.TestCase):

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = Path(tmp.name)
        (self.root / "src" / "engine").mkdir(parents=True)
        (self.root / "src" / "engine" / "plan_cache.h").write_text("")
        (self.root / "tests").mkdir()
        (self.root / "tests" / "engine_test.cc").write_text("")
        (self.root / "docs").mkdir()

    def check(self, body):
        md = self.root / "docs" / "DOC.md"
        md.write_text(body, encoding="utf-8")
        problems = []
        check_docs.check_code_paths(md, problems, root=self.root)
        return problems

    def test_existing_paths_pass(self):
        self.assertEqual(self.check(
            "See `engine/plan_cache.h` (under src/), "
            "`tests/engine_test.cc:12`, `src/engine/plan_cache.h:3-9`, "
            "and `BENCH_PR.json`, which has no slash.\n"
            "```\nfenced/not_checked.cc\n```\n"), [])

    def test_missing_path_fails(self):
        problems = self.check(
            "Crash atomicity is checked by `tests/storage_test.cc`.\n")
        self.assertEqual(len(problems), 1)
        self.assertIn("tests/storage_test.cc", problems[0])

    def test_path_inside_a_command_is_checked(self):
        problems = self.check("Run `python3 tools/gone.py --fast`.\n")
        self.assertEqual(len(problems), 1)
        self.assertIn("tools/gone.py", problems[0])


if __name__ == "__main__":
    unittest.main()

"""Smoke tests: the fast example scripts run end to end.

The slower demos (full baseline comparisons) are exercised indirectly by
the experiments tests; here we execute the quick ones exactly as a user
would, so a broken import or API drift in any example fails CI.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestFastExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "PrivTree synopsis" in out
        assert "leaf volumes" in out

    def test_svt_pitfalls(self, capsys):
        out = run_example("svt_pitfalls.py", capsys)
        assert "VIOLATES claim" in out
        assert "PrivTree needs lambda" in out

    def test_taxonomy_decomposition(self, capsys):
        out = run_example("taxonomy_decomposition.py", capsys)
        assert "mixed-domain PrivTree" in out
        assert "coffee" in out

    def test_private_kmeans(self, capsys):
        out = run_example("private_kmeans.py", capsys)
        assert "PrivTree+Lloyd" in out
        assert "recovered centers at eps=1.0" in out

    def test_all_examples_importable(self):
        # Every example must at least parse and expose a main().
        import ast

        for path in sorted(EXAMPLES.glob("*.py")):
            tree = ast.parse(path.read_text())
            names = {
                node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            }
            assert "main" in names, f"{path.name} lacks a main()"

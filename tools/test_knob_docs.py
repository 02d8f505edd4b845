"""Checks EXPERIMENTS.md's knob list against the knobs the code reads.

A knob is a `MANET_*` or `REPRO_*` environment variable named in a string
literal of a C++ source under src/, bench/ or examples/. The knob list is
the set of knob names in the first column of the tables under the
"## Environment knobs" heading of EXPERIMENTS.md. The test fails when a
knob the code reads is missing from the list, or when the list names a
knob no code reads. Test-only variables (tests/) and the benchmark harness
(perfbench/) are out of scope.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""

from __future__ import annotations

import re
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "bench", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
KNOB_LITERAL = re.compile(r'"((?:MANET|REPRO)_[A-Z0-9_]+)"')
KNOB_NAME = re.compile(r"`((?:MANET|REPRO)_[A-Z0-9_]+)`")
SECTION = "## Environment knobs"


def knobs_read(root: Path = ROOT) -> set[str]:
    """Knob names in string literals of the C++ sources under CODE_DIRS."""
    found: set[str] = set()
    for top in CODE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                found.update(KNOB_LITERAL.findall(path.read_text()))
    return found


def knobs_documented(text: str) -> set[str]:
    """Knob names in the first table column of the knob-list section."""
    lines = text.splitlines()
    try:
        start = lines.index(SECTION)
    except ValueError:
        return set()
    found: set[str] = set()
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            cells = line.split("|")
            if len(cells) > 2:
                found.update(KNOB_NAME.findall(cells[1]))
    return found


class KnobDocsTest(unittest.TestCase):
    def test_parsers_see_both_sides(self) -> None:
        doc = "\n".join([
            "# t", SECTION, "", "| Knob | Domain |", "|---|---|",
            "| `MANET_A`, `REPRO_B` | `MANET_NOT_A_KNOB` |",
            "## Next", "| `MANET_C` | x |",
        ])
        self.assertEqual(knobs_documented(doc), {"MANET_A", "REPRO_B"})
        self.assertIn("REPRO_BROADCASTS", knobs_read())

    def test_every_knob_read_is_documented(self) -> None:
        documented = knobs_documented((ROOT / "EXPERIMENTS.md").read_text())
        missing = sorted(knobs_read() - documented)
        self.assertEqual(missing, [],
                         f"knobs read in {', '.join(CODE_DIRS)} but missing "
                         f"from EXPERIMENTS.md '{SECTION}'")

    def test_every_documented_knob_is_read(self) -> None:
        documented = knobs_documented((ROOT / "EXPERIMENTS.md").read_text())
        stale = sorted(documented - knobs_read())
        self.assertEqual(stale, [],
                         f"EXPERIMENTS.md '{SECTION}' names knobs no code "
                         "reads")


if __name__ == "__main__":
    unittest.main()

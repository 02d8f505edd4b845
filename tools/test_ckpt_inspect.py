"""Unit tests for ckpt_inspect.py (standard library only).

Builds .mckpt containers in Python and pins what the inspector reports as a
problem: a bad magic, a format-version mismatch, a payload bit flip and a
missing known section fail; a well-formed blob passes.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import struct
import tempfile
import unittest
from pathlib import Path

import ckpt_inspect


def digest_section(entries: list[tuple[str, int]]) -> bytes:
    out = struct.pack("<Q", len(entries))
    for name, value in entries:
        raw = name.encode()
        out += struct.pack("<Q", len(raw)) + raw + struct.pack("<Q", value)
    return out


def container(sections: list[tuple[str, bytes]],
              version: int = ckpt_inspect.FORMAT_VERSION) -> bytearray:
    out = bytearray(ckpt_inspect.MAGIC) + struct.pack("<I", version)
    for tag, payload in sections:
        out += tag.encode("ascii") + struct.pack("<Q", len(payload))
        out += payload + struct.pack("<Q", ckpt_inspect.fnv1a(payload))
    return out


def good_sections() -> list[tuple[str, bytes]]:
    meta = struct.pack(ckpt_inspect.META_FORMAT, 1_500_000, 3_000_000, True)
    digests = [("scheduler", 11), ("scheduler.nextSeq", 42)]
    for host in range(2):
        digests += [(f"host {host} mac", 7), (f"host {host} up", 1)]
    return [("CFG0", b"\x01\x02\x03"), ("META", meta),
            ("DGST", digest_section(digests))]


class InspectTest(unittest.TestCase):
    def inspect(self, blob: bytes) -> tuple[int, str]:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "blob.mckpt"
            path.write_bytes(blob)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                problems = ckpt_inspect.inspect(str(path))
        return problems, out.getvalue()

    def test_good_blob_passes_and_lists_digest_names(self) -> None:
        problems, out = self.inspect(container(good_sections()))
        self.assertEqual(problems, 0, out)
        self.assertIn("digests: 6 entries", out)
        self.assertIn("world: scheduler, scheduler.nextSeq", out)
        self.assertIn("2 hosts x mac, up", out)
        self.assertIn("anchor t=1.500000s of 3.000000s horizon", out)

    def test_bad_magic_fails(self) -> None:
        blob = container(good_sections())
        blob[0] ^= 0xFF
        problems, out = self.inspect(blob)
        self.assertGreater(problems, 0)
        self.assertIn("BAD magic", out)

    def test_version_mismatch_fails(self) -> None:
        blob = container(good_sections(),
                         version=ckpt_inspect.FORMAT_VERSION - 1)
        problems, out = self.inspect(blob)
        self.assertGreater(problems, 0)
        self.assertIn("UNSUPPORTED", out)

    def test_payload_bit_flip_fails(self) -> None:
        blob = container(good_sections())
        blob[-9] ^= 0x01  # last DGST payload byte; its digest trails it
        problems, out = self.inspect(blob)
        self.assertGreater(problems, 0)
        self.assertIn("DIGEST MISMATCH", out)

    def test_missing_known_section_fails(self) -> None:
        sections = [s for s in good_sections() if s[0] != "DGST"]
        problems, out = self.inspect(container(sections))
        self.assertGreater(problems, 0)
        self.assertIn("MISSING sections: DGST", out)


if __name__ == "__main__":
    unittest.main()

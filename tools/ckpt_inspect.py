#!/usr/bin/env python3
"""Inspect a .mckpt checkpoint container (DESIGN.md §14).

Walks the TLV container with nothing but the tag table: verifies the magic,
the format version, and every per-section FNV-1a payload digest, then prints
a section listing with sizes. META (anchor, horizon, registry flag) and the
DGST state-digest list (entry count and names) are decoded and printed; the
CFG0 config blob is reported by length and digest status only.

Usage: ckpt_inspect.py FILE.mckpt [FILE2.mckpt ...]
Exit status: 0 all files well-formed, 1 any corruption/mismatch, 2 usage.
"""

from __future__ import annotations

import struct
import sys

MAGIC = b"MCKPT1\n"
FORMAT_VERSION = 2  # src/ckpt/io.hpp kFormatVersion

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
FNV_MASK = (1 << 64) - 1

# Known section tags, in encoder order (src/ckpt/checkpoint.cpp). An unknown tag
# is listed as `unknown(tag, len)` but is NOT a problem: the container is
# designed for forward-compatible appends (a newer encoder may add sections
# this tool predates), and its digest is still verified. Only a *missing*
# known section or a digest mismatch fails the exit status.
KNOWN_TAGS = {
    "CFG0": "resolved ScenarioConfig",
    "META": "anchor, horizon, metrics-registry flag",
    "DGST": "named per-subsystem state digests",
}

# META payload: anchor and horizon ticks (i64 each), then a bool byte.
META_FORMAT = "<qq?"


def decode_digests(payload: bytes) -> list[tuple[str, int]]:
    """Decodes a DGST payload: u64 count, then per entry a u64-length name
    and a u64 value. Raises ValueError on a malformed payload."""
    (count,) = struct.unpack_from("<Q", payload, 0)
    pos = 8
    entries = []
    for _ in range(count):
        if len(payload) - pos < 8:
            raise ValueError(f"truncated at entry {len(entries)}")
        (length,) = struct.unpack_from("<Q", payload, pos)
        pos += 8
        if len(payload) - pos < length + 8:
            raise ValueError(f"truncated at entry {len(entries)}")
        name = payload[pos : pos + length].decode("utf-8", errors="replace")
        (value,) = struct.unpack_from("<Q", payload, pos + length)
        pos += length + 8
        entries.append((name, value))
    if pos != len(payload):
        raise ValueError(f"{len(payload) - pos} trailing bytes")
    return entries


def fnv1a(payload: bytes) -> int:
    h = FNV_OFFSET
    for b in payload:
        h = ((h ^ b) * FNV_PRIME) & FNV_MASK
    return h


def ticks_to_seconds(ticks: int) -> float:
    return ticks / 1e6  # one tick == one simulated microsecond


def inspect(path: str) -> int:
    """Prints a report for one file; returns the number of problems found."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        print(f"{path}: unreadable: {e}")
        return 1

    problems = 0
    print(f"{path}: {len(data)} bytes")

    if data[: len(MAGIC)] != MAGIC:
        print(f"  BAD magic {data[:len(MAGIC)]!r} (want {MAGIC!r})")
        return 1
    pos = len(MAGIC)
    if len(data) < pos + 4:
        print("  truncated before version field")
        return 1
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    ok = "ok" if version == FORMAT_VERSION else f"UNSUPPORTED (tool knows {FORMAT_VERSION})"
    print(f"  magic ok, version {version} {ok}")
    if version != FORMAT_VERSION:
        problems += 1

    sections: dict[str, bytes] = {}
    while pos < len(data):
        if len(data) - pos < 4 + 8:
            print(f"  truncated section header at offset {pos}")
            return problems + 1
        tag = data[pos : pos + 4].decode("ascii", errors="replace")
        (length,) = struct.unpack_from("<Q", data, pos + 4)
        pos += 12
        if len(data) - pos < length + 8:
            print(
                f"  section {tag}: truncated (need {length + 8} bytes "
                f"at offset {pos}, have {len(data) - pos})"
            )
            return problems + 1
        payload = data[pos : pos + length]
        (stored,) = struct.unpack_from("<Q", data, pos + length)
        pos += length + 8
        computed = fnv1a(payload)
        status = "digest ok" if computed == stored else (
            f"DIGEST MISMATCH (stored {stored:016x}, computed {computed:016x})"
        )
        if computed != stored:
            problems += 1
        note = KNOWN_TAGS.get(tag)
        if note is None:
            note = f"unknown({tag}, {length})"
        print(f"  {tag}  {length:>8} bytes  {status}  -- {note}")
        sections[tag] = payload

    meta = sections.get("META")
    meta_size = struct.calcsize(META_FORMAT)
    if meta is not None and len(meta) == meta_size:
        anchor, horizon, registry = struct.unpack(META_FORMAT, meta)
        print(
            f"  anchor t={ticks_to_seconds(anchor):.6f}s of "
            f"{ticks_to_seconds(horizon):.6f}s horizon, "
            f"metrics registry {'on' if registry else 'off'}"
        )
    elif meta is not None:
        print(f"  META payload has {len(meta)} bytes (want {meta_size})")
        problems += 1
    digests = sections.get("DGST")
    if digests is not None:
        try:
            entries = decode_digests(digests)
        except (ValueError, struct.error) as e:
            print(f"  DGST malformed: {e}")
            problems += 1
        else:
            # Host entries are "host <id> <component>"; dicts keep order.
            world = [name for name, _ in entries if not name.startswith("host ")]
            host_names = [name.rsplit(" ", 1) for name, _ in entries
                          if name.startswith("host ")]
            hosts = dict.fromkeys(host for host, _ in host_names)
            components = dict.fromkeys(part for _, part in host_names)
            print(f"  digests: {len(entries)} entries")
            print(f"    world: {', '.join(world)}")
            if hosts:
                print(f"    {len(hosts)} hosts x {', '.join(components)}")
    missing = sorted(set(KNOWN_TAGS) - set(sections))
    if missing:
        print(f"  MISSING sections: {', '.join(missing)}")
        problems += 1
    return problems


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    total = 0
    for path in argv:
        total += inspect(path)
    if total:
        print(f"ckpt_inspect: {total} problem(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Counts each crate's non-test lines, the measure simplicity changes report.

A crate's non-test lines are the lines of every `crates/<crate>/src/**/*.rs`
up to (not including) the file's first `#[cfg(test)]` line, leaving out the
whole-file test modules `equiv_tests.rs` and `prop_tests.rs`. The second
count drops blank lines and `//` comment lines (doc comments included) from
the first, so deleting a comment does not read as deleting code.

Usage: python3 tools/loc.py [crate ...]   (default: every crate)

Prints one line per crate: `<package name> <non-test lines> <code lines>`.
It is a report, not a gate: it exits 0 whatever the counts.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_FILES = {"equiv_tests.rs", "prop_tests.rs"}


def count_file(path):
    """(non-test lines, code lines) of one source file."""
    lines, code = 0, 0
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped == "#[cfg(test)]":
            break
        lines += 1
        if stripped and not stripped.startswith("//"):
            code += 1
    return lines, code


def package_name(crate_dir):
    """The `name` under `[package]` in the crate's Cargo.toml."""
    manifest = (crate_dir / "Cargo.toml").read_text(encoding="utf-8")
    match = re.search(r'^name\s*=\s*"([^"]+)"', manifest, re.MULTILINE)
    return match.group(1) if match else crate_dir.name


def count_crate(crate_dir):
    lines, code = 0, 0
    for path in sorted((crate_dir / "src").rglob("*.rs")):
        if path.name in TEST_FILES:
            continue
        file_lines, file_code = count_file(path)
        lines += file_lines
        code += file_code
    return lines, code


def main(args):
    crates = sorted(p for p in (ROOT / "crates").iterdir() if (p / "src").is_dir())
    if args:
        wanted = set(args)
        crates = [c for c in crates if c.name in wanted or package_name(c) in wanted]
    print(f"{'crate':<16} {'non-test':>9} {'code':>7}")
    for crate_dir in crates:
        lines, code = count_crate(crate_dir)
        print(f"{package_name(crate_dir):<16} {lines:>9} {code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

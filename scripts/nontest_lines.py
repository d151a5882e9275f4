#!/usr/bin/env python3
"""Count the non-test lines of the workspace's library and binary code.

The rule: in every `crates/*/src/**/*.rs` file, count the lines before
the file's first `#[cfg(test)]` line that are not blank and do not
start (after indentation) with `//`. Prints one count per crate, then
the total.

    python3 scripts/nontest_lines.py [REPO_ROOT]
"""

import sys
from pathlib import Path


def nontest_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.strip()
            if text.startswith("#[cfg(test)]"):
                break
            if text and not text.startswith("//"):
                count += 1
    return count


def per_crate(root):
    """Non-test lines of each crate under `root`, by crate name."""
    root = Path(root)
    counts = {}
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        crate = path.relative_to(root / "crates").parts[0]
        counts[crate] = counts.get(crate, 0) + nontest_lines(path)
    return counts


def total(root):
    """Non-test lines of the whole workspace under `root`."""
    return sum(per_crate(root).values())


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    counts = per_crate(root)
    for crate, count in sorted(counts.items()):
        print(f"{crate:10} {count:6}")
    print(f"{'total':10} {sum(counts.values()):6}")


if __name__ == "__main__":
    main()

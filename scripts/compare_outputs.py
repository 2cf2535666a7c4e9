#!/usr/bin/env python3
"""Compare two trees of CSV outputs value by value.

The CLI prints 12 significant digits.  Two runs on different SIMD paths
(numpy's AVX-512 loops on and off) may round a value's last digit the
other way, or print the roundoff of a quantity that is exactly 0 in a
different place.  So every CSV file must exist in both trees with the same
`#` header lines and the same shape, text fields must be equal, and each
pair of numbers must agree to one unit in its 12th significant digit (of
the larger magnitude) or lie within ABS_BOUND.

Usage:
    python scripts/compare_outputs.py DIR_A DIR_B

Prints the count of values, of values that differ, and of values beyond
both bounds (each listed), and exits 1 if any is beyond.
"""

import argparse
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

# The largest gap beyond one unit measured between the two SIMD paths over
# figure 4 to 6 and sweep --samples 10000: 2.0e-15, in 939 differing values
# of 243,246 (2.887e-15 before the factored determinant sum of `chernoff`).
ABS_BOUND = Decimal("2e-15")


def _unit(x: Decimal) -> Decimal:
    """One unit in the 12th significant digit of x."""
    return Decimal(1).scaleb(x.adjusted() - 11) if x else Decimal(0)


def compare(a_dir: Path, b_dir: Path) -> tuple[int, int, list[str]]:
    """(values, values that differ, descriptions of the values beyond both bounds and of mismatched files).

    The printed decimals are compared exactly, so a one-unit step is never
    judged by a binary rounding of its size."""
    names = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*.csv"))
    other = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*.csv"))
    beyond = [f"{name}: only in one tree" for name in sorted(set(names) ^ set(other))]
    values = differ = 0
    for name in sorted(set(names) & set(other)):
        lines_a, lines_b = ((d / name).read_text().splitlines() for d in (a_dir, b_dir))
        if len(lines_a) != len(lines_b):
            beyond.append(f"{name}: {len(lines_a)} lines against {len(lines_b)}")
            continue
        for row, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
            fa, fb = la.split(","), lb.split(",")
            if la.startswith("#") or lb.startswith("#") or len(fa) != len(fb):
                if la != lb:
                    beyond.append(f"{name}:{row}: {la!r} against {lb!r}")
                continue
            for col, (x, y) in enumerate(zip(fa, fb), start=1):
                try:
                    u, v = Decimal(x), Decimal(y)
                except InvalidOperation:
                    if x != y:
                        beyond.append(f"{name}:{row}:{col}: {x!r} against {y!r}")
                    continue
                values += 1
                if x == y:
                    continue
                differ += 1
                gap = abs(u - v) if u.is_finite() and v.is_finite() else None
                if gap is None or gap > max(_unit(max(abs(u), abs(v))), ABS_BOUND):
                    beyond.append(f"{name}:{row}:{col}: {x} against {y} (off by {gap})")
    return values, differ, beyond


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path)
    args = parser.parse_args()
    values, differ, beyond = compare(args.a_dir, args.b_dir)
    print(f"{values} values, {differ} differ, {len(beyond)} beyond one unit in the 12th digit and {ABS_BOUND:g}")
    for line in beyond:
        print(f"  {line}")
    return 1 if beyond or not values else 0


if __name__ == "__main__":
    sys.exit(main())

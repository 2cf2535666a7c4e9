"""Compare one job's outputs with the outputs captured at the seed commit.

A row is a CSV data row or one `verify` check line.  A row fails when it is
missing or extra, when a text field differs, when a `verify` check reads
FAIL, or when a number deviates from the reference beyond tolerance:

* CSV numbers: |x - ref| <= CSV_REL_TOL * max(|ref|, CSV_FLOOR).  The files
  print 12 significant digits, so this admits last-digit roundoff only; the
  floor keeps roundoff-level values (a discord of 1e-16) from counting as
  relative changes of order one.
* `verify` values: |x - ref| <= VERIFY_REL_TOL * max(|ref|, |tol|).  They
  are printed with 4 digits and most are residuals far below their check
  tolerance, so they are scaled by that tolerance.

The comment lines and the header of each CSV must match exactly; if they do
not, every row of the file fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

CSV_REL_TOL = 1e-9
CSV_FLOOR = 1e-6
VERIFY_REL_TOL = 1e-3

_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (.*?)\s+value\s+(\S+)\s+tol (\S+)$")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    max_rel_err: float = 0.0

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.rows += other.rows
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)


def _split_csv(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    return lines[: k + 1], lines[k + 1 :]


def _rel_err(x: float, ref: float, scale: float) -> float:
    if x == ref:
        return 0.0
    return abs(x - ref) / scale


def compare_csv(text: str, ref: str) -> Outcome:
    head, rows = _split_csv(text)
    ref_head, ref_rows = _split_csv(ref)
    out = Outcome(attempted=max(len(rows), len(ref_rows)), rows=len(rows))
    if head != ref_head:
        out.failed = out.attempted
        return out
    out.failed = abs(len(rows) - len(ref_rows))
    for row, ref_row in zip(rows, ref_rows):
        fields, ref_fields = row.split(","), ref_row.split(",")
        bad = len(fields) != len(ref_fields)
        for f, r in zip(fields, ref_fields):
            try:
                x, y = float(f), float(r)
            except ValueError:
                bad |= f != r
                continue
            err = _rel_err(x, y, max(abs(y), CSV_FLOOR))
            out.max_rel_err = max(out.max_rel_err, err)
            bad |= not err <= CSV_REL_TOL
        out.failed += bad
    return out


def _checks(text: str) -> list[tuple[str, str, float, float]]:
    out = []
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            out.append((m[1], m[2], float(m[3]), float(m[4])))
    return out


def compare_verify(text: str, ref: str) -> Outcome:
    rows, ref_rows = _checks(text), _checks(ref)
    out = Outcome(attempted=max(len(rows), len(ref_rows)), rows=len(rows))
    out.failed = abs(len(rows) - len(ref_rows))
    for (status, label, value, tol), (_, ref_label, ref_value, ref_tol) in zip(rows, ref_rows):
        err = _rel_err(value, ref_value, max(abs(ref_value), abs(ref_tol)))
        out.max_rel_err = max(out.max_rel_err, err)
        out.failed += status != "PASS" or label != ref_label or tol != ref_tol or not err <= VERIFY_REL_TOL
    return out


def compare_outputs(outputs: dict[str, str], reference: dict[str, str]) -> Outcome:
    """Outputs and reference map a file name (or "stdout") to its text."""
    total = Outcome()
    for name in sorted(set(outputs) | set(reference)):
        compare = compare_csv if name.endswith(".csv") else compare_verify
        text, ref = outputs.get(name), reference.get(name)
        if text is None or ref is None:
            rows = compare(text or ref, text or ref).rows  # a missing or extra file fails every row
            total.add(Outcome(attempted=rows, failed=rows, rows=rows if text is not None else 0))
        else:
            total.add(compare(text, ref))
    return total

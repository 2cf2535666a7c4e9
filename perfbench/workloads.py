"""The three workloads: which `lossprobe` job each runs, at what size.

Every job is one in-process call of `lossprobe.cli.main(argv)`.  Only
`figure 6` takes a seed; `figure 3` and `verify` have no random input, so
their inputs are the same for every benchmark seed.  Why each workload is
here, and why `figure 4`, `sweep` and the Tier-1 suite are not, is written
in perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# figure 6 draws its scatter from the seed; references exist for this many
FIG6_SEED_BASE = 1000
FIG6_SEED_POOL = 10
FIG3_POINTS = 501
FIG6_POINTS = 16
FIG6_SAMPLES = 60
VERIFY_CASES = 13
VERIFY_CHECKS = 104


def fig6_seed(seed: int) -> int:
    return FIG6_SEED_BASE + seed % FIG6_SEED_POOL


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    sizes: Callable[[int], dict]
    writes_files: bool
    seeded_files: tuple[str, ...] = ()

    def reference(self, seed: int) -> dict[str, str]:
        """Captured outputs: file name (or "stdout") -> text."""
        base = REFERENCE_DIR / self.name
        out = {p.name: p.read_text() for p in sorted(base.glob("*")) if p.is_file()}
        for name in self.seeded_files:
            out[name] = (base / f"seed{fig6_seed(seed)}" / name).read_text()
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig6_mixed",
            argv=lambda seed: ["figure", "6", "--points", str(FIG6_POINTS),
                               "--samples", str(FIG6_SAMPLES), "--seed", str(fig6_seed(seed))],
            sizes=lambda seed: {
                "points": FIG6_POINTS,
                "samples": FIG6_SAMPLES,
                "figure_seed": fig6_seed(seed),
                "rows": 6 * FIG6_POINTS + 2 * FIG6_POINTS**2 + FIG6_SAMPLES,
            },
            writes_files=True,
            seeded_files=("figure6_scatter.csv",),
        ),
        Workload(
            name="fig3_pure",
            argv=lambda seed: ["figure", "3", "--points", str(FIG3_POINTS)],
            sizes=lambda seed: {"points": FIG3_POINTS, "rows": 3 * FIG3_POINTS},
            writes_files=True,
        ),
        Workload(
            name="oracle_verify",
            argv=lambda seed: ["verify"],
            sizes=lambda seed: {"cases": VERIFY_CASES, "rows": VERIFY_CHECKS},
            writes_files=False,
        ),
    )
}

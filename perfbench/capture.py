"""Write perfbench/reference/ from the lossprobe in this checkout's `src`.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python3 perfbench/capture.py

The checked-in reference was captured at the seed commit of the benchmark;
run this again only to re-anchor the reference on purpose, and say so.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from worker import ROOT, run_job
from workloads import FIG6_SEED_POOL, REFERENCE_DIR, WORKLOADS, fig6_seed


def main() -> int:
    shutil.rmtree(REFERENCE_DIR, ignore_errors=True)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    try:
        for wl in WORKLOADS.values():
            seeds = range(FIG6_SEED_POOL) if wl.seeded_files else range(1)
            for seed in seeds:
                rc, _, outputs, _ = run_job(wl.argv(seed), wl.writes_files, tmp)
                if rc != 0:
                    print(f"error: {wl.name} seed {seed} exited with {rc}", file=sys.stderr)
                    return 1
                for name, text in outputs.items():
                    target = REFERENCE_DIR / wl.name
                    if name in wl.seeded_files:
                        target = target / f"seed{fig6_seed(seed)}"
                    elif seed:
                        continue
                    target.mkdir(parents=True, exist_ok=True)
                    (target / name).write_text(text)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

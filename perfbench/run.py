"""Benchmark of the lossprobe CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fig6_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout; lossprobe is imported from its `src`.  The
metrics and their units are those listed in BENCHMARK.json: the end-to-end
ones with `--trace 0`, the per-layer ones with `--trace 1`.  Each workload
runs in a child process (worker.py), whose peak RSS is reported, with BLAS
limited to min(2, nproc) threads.  Job times are scaled to a reference host
speed (calibrate.py); the raw times are printed on the `#` lines.  Every job's outputs are checked against
the reference captured at the seed commit (see compare.py).  Outputs go to a
temporary directory under `.bench_tmp/`, removed afterwards; the spans of a
traced run go to `.bench_out/`.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 10
RUN_LIMIT_S = 170.0
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
SETUP_CODE = "import lossprobe.cli as cli; cli.build_parser()"


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Wall times of fresh interpreters that import lossprobe.cli and build its parser.

    The first, untimed spawn writes the bytecode caches that users also keep.
    """
    times = []
    for k in range(1 + SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if k:
            times.append(time.perf_counter() - start)
    return times


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def run_workload(name: str, args: argparse.Namespace, env: dict[str, str], tmp: Path, deadline: float):
    from workloads import WORKLOADS

    load = loadavg()
    setup = [] if args.trace else setup_seconds(env)
    spans = ROOT / ".bench_out" / f"spans_{name}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp),
           "--spans", str(spans)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with {done.returncode}")
    res = json.loads(done.stdout.strip().splitlines()[-1])

    fingerprint = {
        "workload": name,
        "seed": args.seed,
        "sizes": WORKLOADS[name].sizes(args.seed),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **res["versions"],
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "loadavg": load,
    }
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "job_s": statistics.median(res["job_scaled_s"]),
            "rows_per_s": statistics.median(res["rows"] / t for t in res["job_scaled_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    correct = res["failed"] == 0 and all(c == 0 for c in res["codes"])
    print(f"# fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    for label, times in (("raw", res["job_s"]), ("scaled", res["job_scaled_s"]), ("setup", setup)):
        if times:
            print(f"# {name}: {label} times of {len(times)}: median {statistics.median(times):.4f} s, "
                  f"min {min(times):.4f} s, max {max(times):.4f} s")
    print(f"# {name}: {res['rows']} rows per job")
    print(f"# {name}: rows attempted {res['attempted']}, failed {res['failed']} "
          f"(failed_share {res['failed'] / max(res['attempted'], 1):.6g}), "
          f"ref_max_rel_err {res['max_rel_err']:.6g}, exit codes {sorted(set(map(str, res['codes'])))}")
    return correct, res["attempted"], res["failed"], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lossprobe" / "__init__.py").is_file():
        print(f"error: no lossprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    env = child_env()
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, got = run_workload(name, args, env, tmp, deadline)
            missing = set(units) - set(got)
            if missing:
                raise RuntimeError(f"{name}: no value for {sorted(missing)}")
            for key, unit in units.items():
                print(f"{name}: {key} = {got[key]:.6g} {unit}")
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": got[k], "unit": units[k]} for k in units})
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

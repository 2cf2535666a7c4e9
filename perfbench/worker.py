"""Child process that runs one workload's jobs back to back and checks them.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS thread count fixed.  It runs jobs until `--seconds` have passed and
at least MIN_JOBS jobs ran, compares each job's outputs with the seed reference, and prints
one JSON line.  With `--trace 1` it alternates untraced and traced jobs, so
the same process measures the tracing overhead; the spans of the first
traced job are written to `--spans` as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from calibrate import kernel_seconds, scaled
from compare import Outcome, compare_outputs
from tracing import LAYERS, ROOT_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
# a `verify` job (about 20 s) outlasts the window; two of them give a steadier median
MIN_JOBS = 2


def run_job(argv: list[str], writes_files: bool, tmp: str, tracer: Tracer | None = None):
    """One CLI call: (exit code or error text, seconds, outputs, bytes written)."""
    from lossprobe import cli

    outdir = tempfile.mkdtemp(dir=tmp)
    full = argv + ["--outdir", outdir] if writes_files else argv
    buf = io.StringIO()
    main = tracer.wrap("cli", ROOT_LAYER, cli.main) if tracer else cli.main
    with contextlib.redirect_stdout(buf), tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            rc = main(full)
        except Exception as exc:  # a job that raised past the CLI's handler fails all its rows
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    stdout = buf.getvalue()
    files = {p.name: p.read_text() for p in Path(outdir).iterdir()}
    shutil.rmtree(outdir)
    outputs = files if writes_files else {"stdout": stdout}
    written = len(stdout.encode()) + sum(len(t.encode()) for t in files.values())
    return rc, elapsed, outputs, written


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import lossprobe
    import numpy
    import scipy

    if not Path(lossprobe.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: lossprobe imported from {lossprobe.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    argv = wl.argv(args.seed)
    reference = wl.reference(args.seed)
    untraced, rescaled, traced, layers = [], [], [], []
    outcome = Outcome()
    codes = []
    start = time.perf_counter()
    calib = kernel_seconds()
    while True:
        tracer = Tracer(run_id=len(untraced) + len(traced)) if args.trace and len(untraced) > len(traced) else None
        rc, elapsed, outputs, written = run_job(argv, wl.writes_files, args.tmp, tracer)
        calib_before, calib = calib, kernel_seconds()
        check = compare_outputs(outputs, reference)
        outcome.add(check)
        codes.append(rc)
        if tracer is None:
            untraced.append(elapsed)
            rescaled.append(scaled(elapsed, calib_before, calib))
        else:
            traced.append(elapsed)
            m = layer_metrics(tracer.spans)
            accounted = sum(m[f"{layer}.self_s"] for layer in (ROOT_LAYER, *LAYERS))
            m.update(
                {
                    "cli.rows": check.rows,
                    "cli.bytes_written": written,
                    "gaussian.cm_validate.per_row": m["gaussian.cm_validate.calls"] / max(check.rows, 1),
                    "trace.job_s": elapsed,
                    "trace.accounted_share": accounted / elapsed,
                }
            )
            layers.append(m)
            if args.spans and len(traced) == 1:
                tracer.write_jsonl(args.spans)
        jobs = len(untraced) + len(traced)
        pairs_done = not args.trace or len(traced) == len(untraced)
        if time.perf_counter() - start >= args.seconds and jobs >= MIN_JOBS and pairs_done:
            break

    result = {
        "job_s": untraced,
        "job_scaled_s": rescaled,
        "rows": wl.sizes(args.seed)["rows"],
        "codes": codes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "max_rel_err": outcome.max_rel_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": " ".join(
                str(numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get(k, "?"))
                for k in ("name", "version")
            ),
        },
    }
    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        per_layer["check.failed_share"] = outcome.failed / max(outcome.attempted, 1)
        per_layer["check.ref_max_rel_err"] = outcome.max_rel_err
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

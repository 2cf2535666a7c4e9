"""Command line front end.

Subcommands:

  qcb           Chernoff report for one probe/channel combination
  sweep         randomized Q1 - Q2 gap samples as CSV
  threshold     threshold energy N_th(eta), single value or grid
  critical      critical transmissivity eta_c and damping Gamma_c
  correlations  E, D, I of a two-mode input state
  figure        CSV data files (and optional gnuplot scripts) for the
                standard plots, numbered 2 through 6
  verify        cross-check the Gaussian pipeline against the Fock oracle

Exit codes: 0 on success, 1 when a computation fails (threshold out of
range, truncation overflow, out of memory), 2 on bad flags.  All tabular
output is CSV with a header row and `#` comment lines carrying the package
version and the exact parameter set, so identical invocations produce
identical bytes on one machine and one numpy SIMD dispatch: with numpy's
AVX-512 loops disabled, 939 of the 243,246 values that figures 4 to 6 and
`sweep --samples 10000` print differ, each within one unit of its 12th
significant digit or 2.0e-15 absolute (figures 2 and 3 are the same).
Files land in --outdir when a command writes more than one; the default
directory comes from the LOSSPROBE_OUTDIR environment variable, falling
back to the working directory.

A figure command stacks the rows of all its files, with Gamma (and, for
figure 5, the thermal split) a float column like N and beta, and makes one
call per quantity for the whole stack against one channel stack: figures 4
to 6 one `delta_q_gamma`, whose Q1 and Q2 rows are one lane stack with one
golden section per block of lanes, and figure 6 one `correlation_report`
on its inputs' parameters (no covariance matrix is built here).  It takes
the results apart into its files by the leading axis, or by `_stack`'s
cuts and np.split.  A row gets the same bits alone and in any stack, so
each file is byte-identical to computing it on its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .channel import LossChannel
from .correlations import correlation_report
from .fock import TruncationConfig, check_loss_size
# make_two_mode_st is not called here: perfbench/test_harness.py pins this binding in every module
from .gaussian import SqueezedThermalParamsTwo, make_two_mode_st
from .probes import (
    ProbeSpec,
    SweepRanges,
    critical_transmissivity,
    cubic_residual,
    delta_q_gamma,
    discriminate,
    params_from_spec,
    q1,
    q2,
    random_probes,
    random_sweep,
    threshold_energy,
    threshold_fit_near_critical,
)
from .verification import run_all

DEFAULT_SEED = 12345
GAMMA_BAR = 0.999


class UsageError(Exception):
    """Flag values outside their domain."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# flag domains: a test and its wording; NaN fails every test
_UNIT = (lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_FINITE_NONNEGATIVE = (lambda x: 0.0 <= x < math.inf, "a finite number >= 0")
_FINITE_POSITIVE = (lambda x: 0.0 < x < math.inf, "a finite number > 0")
# exp(-x) underflows to 0 above x = 745.13, and no channel has transmissivity 0
_DAMPING = (lambda x: 0.0 <= x and math.exp(-x) > 0.0, "a finite number >= 0 with exp(-x) > 0 (at most 745.13)")
_DAMPING_MAX = (lambda x: 0.0 < x and math.exp(-x) > 0.0, "a finite number > 0 with exp(-x) > 0 (at most 745.13)")
_SEED = (lambda k: 0 <= k < 2**128, "an integer in [0, 2^128)")  # the key range of Philox, the draws' generator


def _require(args: argparse.Namespace, flag: str, ok, domain: str) -> None:
    """UsageError unless the flag is unset or its value passes ok."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if value is not None and not ok(value):
        raise UsageError(f"{flag} must be {domain}, got {value}")


def _channel_from_args(args: argparse.Namespace) -> LossChannel:
    if (args.eta is None) == (args.damping is None):
        raise UsageError("exactly one of --eta or --damping is required")
    _require(args, "--eta", lambda x: 0.0 < x <= 1.0, "in (0, 1]")
    _require(args, "--damping", *_DAMPING)
    return LossChannel.from_eta(args.eta) if args.eta is not None else LossChannel.from_gamma(args.damping)


def _meta_lines(command: str, params: dict) -> list[str]:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [f"lossprobe {__version__}", f"command: {command} {pairs}"]


def _write_csv(path: str, names: list[str], data, meta: list[str]) -> None:
    """CSV with # comment lines, a header row, and 12-significant-digit floats.

    data holds one column of floats per name.  One %-format call renders
    every row: "%.12g" % v prints what _fmt(v) does, nan, inf and -0 included.
    """
    values = tuple(np.column_stack(data).ravel().tolist())
    text = "".join(f"# {line}\n" for line in meta) + ",".join(names) + "\n"
    text += (",".join(["%.12g"] * len(names)) + "\n") * (len(values) // len(names)) % values
    _write_text(path, text)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: str, text: str) -> None:
    """text to standard output for path "-", else to the file at path with its line ends untranslated."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def _write_table(args: argparse.Namespace, names: list[str], data, meta: list[str]) -> None:
    """Columns to --output as CSV, or for --format json as one {meta, columns, rows} object."""
    if args.format == "json":
        _write_json(args.output, {"meta": meta, "columns": names, "rows": np.column_stack(data).tolist()})
    else:
        _write_csv(args.output, names, data, meta)


def _report_out(args: argparse.Namespace, payload: dict) -> None:
    if args.format == "json":
        _write_json("-", payload)
    else:
        for key, value in payload.items():
            print(f"{key} = {_fmt(value) if isinstance(value, float) else value}")


def _outdir(args: argparse.Namespace) -> str:
    d = args.outdir or os.environ.get("LOSSPROBE_OUTDIR") or "."
    os.makedirs(d, exist_ok=True)
    return d


def cmd_qcb(args: argparse.Namespace) -> int:
    ch = _channel_from_args(args)
    _require(args, "--n", *_FINITE_NONNEGATIVE)
    _require(args, "--beta", *_UNIT)
    _require(args, "--copies", lambda c: c >= 1, ">= 1")
    if args.modes == 1 and args.gamma is not None:
        raise UsageError("--gamma only applies to --modes 2")
    _require(args, "--gamma", *_UNIT)
    spec = ProbeSpec(modes=args.modes, n=args.n, beta=args.beta, gamma=args.gamma)
    report = discriminate(spec, ch, copies=args.copies)
    names = ("q", "s_star", "copies", "pe_upper", "fidelity", "pe_lower", "pe_fidelity_upper")
    payload = {k: v for k in names if (v := getattr(report, k)) is not None}
    _report_out(args, payload)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "--samples", lambda k: k >= 1, ">= 1")
    _require(args, "--seed", *_SEED)
    _require(args, "--gamma", *_UNIT)
    _require(args, "--n-max", *_FINITE_POSITIVE)
    _require(args, "--damping-max", *_DAMPING_MAX)
    ranges = SweepRanges(n_max=args.n_max, gamma_ch_max=args.damping_max)
    n, beta, g_ch, gaps = random_sweep(args.samples, args.gamma, args.seed, ranges)
    positive = np.count_nonzero(gaps > 0) / len(gaps)
    meta = _meta_lines(
        "sweep",
        {
            "samples": args.samples,
            "gamma": args.gamma,
            "seed": args.seed,
            "n-max": args.n_max,
            "damping-max": args.damping_max,
        },
    ) + [f"positive_fraction = {_fmt(positive)}"]
    columns = ["N", "beta", "Gamma", "gamma", "deltaQ_gamma"]
    _write_table(args, columns, [n, beta, g_ch, np.full(len(n), args.gamma), gaps], meta)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    if (args.eta is None) == (args.eta_grid is None):
        raise UsageError("exactly one of --eta or --eta-grid is required")
    if args.eta is not None:
        for flag, ignored in (("-o", args.output != "-"), ("--format csv", args.format == "csv")):
            if ignored:
                raise UsageError(f"{flag} only applies to --eta-grid")
        _require(args, "--eta", lambda x: 0.0 < x < 1.0, "in (0, 1)")
        _report_out(args, {"eta": args.eta, "n_threshold": threshold_energy(args.eta)})
        return 0
    try:
        lo_s, hi_s, count_s = args.eta_grid.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise UsageError(f"--eta-grid must be lo:hi:count, got {args.eta_grid!r}") from exc
    if not (0.0 < lo < hi < 1.0) or count < 2:
        raise UsageError("--eta-grid must satisfy 0 < lo < hi < 1, count >= 2")
    eta_c, gamma_c = critical_transmissivity()
    c1, c2, _ = threshold_fit_near_critical()
    etas = np.linspace(lo, hi, count)
    meta = _meta_lines("threshold", {"eta-grid": args.eta_grid}) + [
        f"eta_c = {_fmt(eta_c)}",
        f"Gamma_c = {_fmt(gamma_c)}",
        f"fit: N_th ~ c1 (eta - eta_c) + c2 (eta - eta_c)^2, c1 = {_fmt(c1)}, c2 = {_fmt(c2)}",
    ]
    _write_table(args, ["eta", "N_th"], [etas, threshold_energy(etas)], meta)
    return 0


def cmd_critical(args: argparse.Namespace) -> int:
    eta_c, gamma_c = critical_transmissivity()
    _report_out(
        args,
        {"eta_c": eta_c, "Gamma_c": gamma_c, "cubic_residual": cubic_residual()},
    )
    return 0


def cmd_correlations(args: argparse.Namespace) -> int:
    _require(args, "--n", *_FINITE_NONNEGATIVE)
    _require(args, "--beta", *_UNIT)
    _require(args, "--gamma", *_UNIT)
    spec = ProbeSpec(modes=2, n=args.n, beta=args.beta, gamma=args.gamma)
    payload = asdict(correlation_report(params_from_spec(spec)))
    if args.bits:
        quantities = ("log_negativity", "discord", "mutual_information")
        payload = {k: payload[k] / math.log(2.0) for k in quantities}
    payload["units"] = "bits" if args.bits else "nats"
    _report_out(args, payload)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _require(args, "--dim", lambda d: d >= 2, ">= 2")
    _require(args, "--tail-tol", lambda x: 0.0 < x < 1.0, "in (0, 1)")
    if args.dim is not None:
        try:  # the two-mode cases' loss grid, by the oracle's own int32 bound, before any case runs
            check_loss_size(SqueezedThermalParamsTwo(0.0, 0.0, 0.0), TruncationConfig(args.dim))
        except ValueError as err:
            raise UsageError(f"--dim {args.dim} is too large: {err}") from None
    results = run_all(dim=args.dim, tail_tol=args.tail_tol)
    width = max(len(f"{r.case}: {r.check}") for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {f'{r.case}: {r.check}':{width}s}  value {r.value: .3e}  tol {r.tol:.1e}")
    print(f"\n{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _figure_csv(args: argparse.Namespace, outdir: str, name: str, params: dict, columns: list[str], *data) -> str:
    """Write one file of the figure from its data columns; returns its path."""
    path = os.path.join(outdir, name)
    _write_csv(path, columns, data, _meta_lines(f"figure {args.id}", params))
    return path


def _stack(*blocks) -> tuple:
    """Blocks of rows as one stack: each column concatenated, then the cuts.

    A block is a tuple of float columns, the first an array with one entry
    per row, any other such an array or one value for every row of the
    block.  np.split(result, cuts) undoes the stacking: one array per block.
    """
    sizes = [len(block[0]) for block in blocks]
    columns = [
        np.concatenate([np.asarray(c) if np.ndim(c) else np.full(k, c) for c, k in zip(cs, sizes)])
        for cs in zip(*blocks)
    ]
    return (*columns, np.cumsum(sizes)[:-1])


def _figure_2(args: argparse.Namespace, outdir: str) -> list[str]:
    etas = (0.1, 0.5, 0.9)
    n_col = np.tile(np.linspace(0.0, 10.0, args.points), 3)
    b_col = np.repeat([0.1, 0.5, 1.0], args.points)
    q_files = q1(n_col, b_col, LossChannel.from_eta(np.array(etas)[:, None]))  # one file per channel
    return [
        _figure_csv(args, outdir, f"figure2_eta{eta:g}.csv", {"eta": eta, "points": args.points},
                    ["N", "beta", "Q1"], n_col, b_col, q_col)
        for eta, q_col in zip(etas, q_files)
    ]


def _figure_3(args: argparse.Namespace, outdir: str) -> list[str]:
    gammas = (0.1, 0.3, 1.0)
    n_col = np.tile(np.linspace(0.0, 10.0, args.points), len(gammas))
    g_col = np.repeat(gammas, args.points)
    ch = LossChannel.from_gamma(g_col)
    return [_figure_csv(args, outdir, "figure3.csv", {"points": args.points}, ["N", "Gamma", "Q1", "Q2"],
                        n_col, g_col, q1(n_col, 1.0, ch), q2(n_col, 1.0, 1.0, ch))]


def _grid(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    """Every (N, beta) of the figure 4 and figure 6 density grids, N outermost."""
    ns = np.linspace(5.0 / args.points, 5.0, args.points)
    betas = np.linspace(0.0, 1.0, args.points)
    return np.repeat(ns, len(betas)), np.tile(betas, len(ns))


def _figure_4(args: argparse.Namespace, outdir: str) -> list[str]:
    gammas = (0.1, 0.9)
    n_col, b_col = _grid(args)
    ch = LossChannel.from_gamma(np.array(gammas)[:, None])
    gaps = delta_q_gamma(n_col, b_col, 1.0, ch)
    return [
        _figure_csv(args, outdir, f"figure4_Gamma{g:g}.csv", {"Gamma": g, "points": args.points},
                    ["N", "beta", "deltaQ"], n_col, b_col, gap)
        for g, gap in zip(gammas, gaps)
    ]


def _figure_5(args: argparse.Namespace, outdir: str) -> list[str]:
    gammas = [args.gamma] if args.gamma is not None else [0.99, 0.9, 0.8, 0.7]
    # every split reads the same draws: one gap call, with Q1 once for all splits
    n_col, b_col, d_col = random_probes(args.samples, args.seed)
    gaps = delta_q_gamma(n_col, b_col, np.array(gammas)[:, None], LossChannel.from_gamma(d_col))
    return [
        _figure_csv(args, outdir, f"figure5_gamma{g:g}.csv",
                    {"gamma": g, "samples": args.samples, "seed": args.seed},
                    ["N", "beta", "Gamma", "gamma", "deltaQ_gamma"],
                    n_col, b_col, d_col, np.full(len(n_col), g), gap)
        for g, gap in zip(gammas, gaps)
    ]


def _figure_6(args: argparse.Namespace, outdir: str) -> list[str]:
    betas = [args.beta] if args.beta is not None else [0.1, 0.9]
    curve_gammas, density_gammas = (0.9, 0.5, 0.1), (0.2, 0.8)
    ns = np.linspace(5.0 / args.points, 5.0, args.points)
    grid_n, grid_b = _grid(args)
    # stream 1 keeps the scatter independent of a sweep with the same seed
    sc_n, sc_b, sc_g = random_probes(args.samples, args.seed, stream=1)
    # every file's rows in one stack, in file order; E, D and I once per input block
    n, beta, g_col, cuts = _stack(
        *[(ns, b, g) for b in betas for g in curve_gammas],
        *[(grid_n, grid_b, g) for g in density_gammas],
        (sc_n, sc_b, sc_g),
    )
    gaps = iter(np.split(delta_q_gamma(n, beta, GAMMA_BAR, LossChannel.from_gamma(g_col)), cuts))
    n, beta, cuts = _stack(*[(ns, b) for b in betas], (grid_n, grid_b), (sc_n, sc_b))
    rep = correlation_report(params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=GAMMA_BAR)))
    e, d, i = (np.split(x, cuts) for x in (rep.log_negativity, rep.discord, rep.mutual_information))
    common = {"gamma-bar": GAMMA_BAR, "points": args.points}
    written = [
        _figure_csv(args, outdir, f"figure6_curves_beta{b:g}_Gamma{g:g}.csv",
                    {"beta": b, "Gamma": g, **common}, ["N", "E", "D", "I", "deltaQ"],
                    ns, e[k], d[k], i[k], next(gaps))
        for k, b in enumerate(betas)
        for g in curve_gammas
    ]
    written += [
        _figure_csv(args, outdir, f"figure6_density_Gamma{g:g}.csv", {"Gamma": g, **common},
                    ["N", "beta", "D", "E", "deltaQ"], grid_n, grid_b, d[-2], e[-2], next(gaps))
        for g in density_gammas
    ]
    params = {"samples": args.samples, "seed": args.seed, "gamma-bar": GAMMA_BAR}
    columns = ["N", "beta", "Gamma", "E", "D", "I", "deltaQ"]
    written.append(_figure_csv(args, outdir, "figure6_scatter.csv", params, columns,
                               sc_n, sc_b, sc_g, e[-1], d[-1], i[-1], next(gaps)))
    return written


_GNUPLOT_HINTS = {
    2: 'plot for [b in "0.1 0.5 1"] f using 1:($2 == real(b) ? $3 : 1/0) with lines title "beta=".b',
    3: 'plot for [g in "0.1 0.3 1"] f using 1:($2 == real(g) ? $3 : 1/0) with lines title "Q1, Gamma=".g, \\\n     for [g in "0.1 0.3 1"] f using 1:($2 == real(g) ? $4 : 1/0) with lines dashtype 2 title "Q2, Gamma=".g',
    4: "set view map\nsplot f using 1:2:3 with points pointtype 5 palette",
    5: "plot f using 1:5 with points pointtype 7 pointsize 0.3 title columnhead(5)",
}


def _figure6_hint(path: str) -> str:
    """deltaQ (the last column) against each of E, D and I in the file: lines along a curve, else points."""
    with open(path) as f:
        cols = next(line for line in f if line[0] != "#").split(",")
    style = "lines" if "curves" in os.path.basename(path) else "points pointtype 7 pointsize 0.3"
    return "plot " + ", ".join(f'f using {cols.index(x) + 1}:{len(cols)} with {style} title "vs {x}"' for x in "EDI" if x in cols)


def _write_gnuplot(figure: int, outdir: str, files: list[str]) -> str:
    path = os.path.join(outdir, f"figure{figure}.gp")
    lines = [
        f"# lossprobe {__version__}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
    ]
    for f in files:
        lines += [f"f = '{os.path.basename(f)}'", _figure6_hint(f) if figure == 6 else _GNUPLOT_HINTS[figure], "pause -1"]
    _write_text(path, "\n".join(lines) + "\n")
    return path


def cmd_figure(args: argparse.Namespace) -> int:
    _require(args, "--points", lambda k: k >= 2, ">= 2")
    _require(args, "--samples", lambda k: k >= 1, ">= 1")
    _require(args, "--seed", *_SEED)
    for flag, figure in (("--gamma", 5), ("--beta", 6)):
        if args.id != figure and getattr(args, flag[2:]) is not None:
            raise UsageError(f"{flag} only applies to figure {figure}")
    _require(args, "--gamma", *_UNIT)
    _require(args, "--beta", *_UNIT)
    outdir = _outdir(args)
    builders = {2: _figure_2, 3: _figure_3, 4: _figure_4, 5: _figure_5, 6: _figure_6}
    files = builders[args.id](args, outdir)
    if args.gnuplot:
        files.append(_write_gnuplot(args.id, outdir, files))
    for f in files:
        print(f)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossprobe",
        description="Chernoff-bound loss detection with squeezed thermal probes",
    )
    parser.add_argument("--version", action="version", version=f"lossprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("qcb", help="Chernoff report for one probe")
    p.add_argument("--modes", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=float, required=True, help="mean photon number")
    p.add_argument("--beta", type=float, required=True, help="squeezing fraction")
    p.add_argument("--gamma", type=float, default=None, help="thermal split (two-mode)")
    p.add_argument("--eta", type=float, default=None, help="transmissivity")
    p.add_argument("--damping", type=float, default=None, help="damping Gamma")
    p.add_argument("--copies", type=int, default=1)
    add_format(p)
    p.set_defaults(func=cmd_qcb)

    p = sub.add_parser("sweep", help="random (N, beta, Gamma) gap samples")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--gamma", type=float, default=1.0, help="thermal split")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--n-max", type=float, default=5.0)
    p.add_argument("--damping-max", type=float, default=2.0)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="threshold energy N_th(eta)")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--eta-grid", default=None, help="lo:hi:count")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("critical", help="critical transmissivity")
    add_format(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("correlations", help="E, D, I of a two-mode input")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    add_format(p)
    p.set_defaults(func=cmd_correlations)

    p = sub.add_parser("figure", help="write CSV data for the standard figures")
    p.add_argument("id", type=int, choices=(2, 3, 4, 5, 6))
    p.add_argument("--points", type=int, default=101, help="grid resolution")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--gamma", type=float, default=None, help="restrict figure 5 to one split")
    p.add_argument("--beta", type=float, default=None, help="restrict figure 6 to one beta")
    p.add_argument("--outdir", default=None)
    p.add_argument("--gnuplot", action="store_true", help="also write a plotting script")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="compare against the Fock oracle")
    p.add_argument("--dim", type=int, default=None, help="override every case cutoff")
    p.add_argument("--tail-tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # exit 1, not an inf or nan result
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

"""End-to-end tests of the command line interface.

Every test drives `lossprobe.cli.main` with an argv list and inspects exit
codes, stdout/stderr, and written files — exercising the exit-code contract
(0 success, 1 computation failure, 2 usage error), the CSV format (comment
meta lines, header row, 12-significant-digit floats), and byte determinism.
"""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lossprobe
from lossprobe import __version__
from lossprobe.cli import build_parser, main

LN2 = math.log(2.0)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _subprocess_env() -> dict:
    """The environment with this checkout's lossprobe first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(lossprobe.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def parse_report(out: str) -> dict:
    """key = value lines into a dict of strings."""
    pairs = {}
    for line in out.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            pairs[key] = value
    return pairs


def read_csv(path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, header, data rows) of one output file."""
    meta, table = [], []
    with open(path, newline="") as f:
        for line in f:
            if line.startswith("#"):
                meta.append(line.rstrip("\n"))
            else:
                table.append(line)
    rows = list(csv.reader(table))
    return meta, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# qcb
# ---------------------------------------------------------------------------


def test_qcb_single_mode_squeezed_vacuum(capsys):
    code, out, _ = run(
        ["qcb", "--modes", "1", "--n", "1", "--beta", "1", "--eta", "0.5"], capsys
    )
    assert code == 0
    report = parse_report(out)
    # Q = 1 / sqrt(1 + N (1 - eta^2)) at beta = 1
    assert math.isclose(float(report["q"]), 1.0 / math.sqrt(1.75), rel_tol=1e-11)
    assert float(report["s_star"]) == 0.0
    assert "fidelity" in report  # pure-probe path carries the fidelity bounds


def test_qcb_two_mode_squeezed_vacuum(capsys):
    code, out, _ = run(
        ["qcb", "--modes", "2", "--n", "2", "--beta", "1", "--eta", "0.25"], capsys
    )
    assert code == 0
    report = parse_report(out)
    # Q = 4 / (2 + N (1 - sqrt(eta)))^2 at beta = 1
    assert math.isclose(float(report["q"]), 4.0 / 9.0, rel_tol=1e-11)


def test_qcb_json_mirror(capsys):
    code, out, _ = run(
        [
            "qcb", "--modes", "1", "--n", "1", "--beta", "0.5",
            "--eta", "0.5", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"q", "s_star", "copies", "pe_upper"}
    assert 0.0 < payload["q"] < 1.0


def test_qcb_copy_scaling(capsys):
    code, out, _ = run(
        [
            "qcb", "--modes", "1", "--n", "1", "--beta", "0.5",
            "--eta", "0.5", "--copies", "50", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["copies"] == 50
    assert math.isclose(payload["pe_upper"], payload["q"] ** 50 / 2.0, rel_tol=1e-8)


def test_qcb_two_mode_recovers_at_large_energy(capsys):
    # (A' + B')^2 / 4 - C'^2 cancelled here and n1 came out at -3.9e-11
    code, out, err = run(
        ["qcb", "--modes", "2", "--n", "1000", "--beta", "1", "--eta", "0.999"], capsys
    )
    assert code == 0, err
    q = float(parse_report(out)["q"])
    assert math.isclose(q, 4.0 / (2.0 + 1000.0 * (1.0 - math.sqrt(0.999))) ** 2, rel_tol=1e-9)


def test_qcb_pure_two_mode_probe_at_large_energy_through_no_loss(capsys):
    # the recovered state is the input, but its CM misses the uncertainty
    # relation by -1.666e-10 at entries of size N: the round trip on block
    # entries accepts it
    code, out, err = run(["qcb", "--modes", "2", "--n", "562341.3251903491", "--beta", "1", "--eta", "1"], capsys)
    assert code == 0, err
    assert parse_report(out)["q"] == "1"


def test_qcb_of_a_state_against_itself_at_large_energy():
    # with eta = 1 the output is the input; x y - z^2 of the summed blocks
    # cancelled here, printing q = 0.999597854565 and a divide-by-zero
    # RuntimeWarning on stderr
    argv = ["qcb", "--modes", "2", "--n", "1e6", "--beta", "0.5", "--gamma", "0", "--eta", "1"]
    result = subprocess.run([sys.executable, "-m", "lossprobe.cli", *argv], env=_subprocess_env(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert math.isclose(float(parse_report(result.stdout)["q"]), 1.0, abs_tol=1e-9)


def test_qcb_rejects_zero_transmissivity(capsys):
    code, _, err = run(
        ["qcb", "--modes", "1", "--n", "1", "--beta", "1", "--eta", "0"], capsys
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["qcb", "--modes", "1", "--n", "1", "--beta", "0.5", "--damping", "746"], "--damping"),
        (["sweep", "--samples", "50", "--damping-max", "800"], "--damping-max"),
    ],
)
def test_damping_that_underflows_the_transmissivity_is_a_usage_error(argv, flag, capsys):
    # exp(-746) underflows to 0; before, LossChannel raised "transmissivity
    # must be in (0, 1], got 0.0" and the command exited 1
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be a finite number") and "exp(-x) > 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--samples", "3", "--seed", "-1"],
        ["sweep", "--samples", "3", "--seed", str(2**128)],
        ["figure", "5", "--samples", "3", "--seed", "-1"],
        ["figure", "6", "--points", "2", "--samples", "3", "--seed", "-5"],
    ],
)
def test_seed_outside_the_philox_key_range_is_a_usage_error(argv, tmp_path, capsys):
    # before, numpy's "key must be positive and less than 2**128" exited 1
    code, out, err = run([*argv, *(["--outdir", str(tmp_path)] if argv[0] == "figure" else [])], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --seed must be an integer in [0, 2^128), got ")


def test_largest_seed_still_runs(tmp_path, capsys):
    assert run(["sweep", "--samples", "3", "--seed", str(2**128 - 1)], capsys)[0] == 0
    assert run(["figure", "5", "--samples", "3", "--seed", "0", "--outdir", str(tmp_path)], capsys)[0] == 0


def test_largest_representable_damping_still_runs(capsys):
    code, out, err = run(["qcb", "--modes", "1", "--n", "1", "--beta", "0.5", "--damping", "745"], capsys)
    assert code == 0, err
    assert 0.0 < float(parse_report(out)["q"]) < 1.0
    assert run(["sweep", "--samples", "20", "--damping-max", "745"], capsys)[0] == 0


def test_qcb_requires_exactly_one_channel_flag(capsys):
    code, _, _ = run(["qcb", "--modes", "1", "--n", "1", "--beta", "1"], capsys)
    assert code == 2
    code, _, _ = run(
        [
            "qcb", "--modes", "1", "--n", "1", "--beta", "1",
            "--eta", "0.5", "--damping", "0.5",
        ],
        capsys,
    )
    assert code == 2


def test_qcb_rejects_bad_beta(capsys):
    code, _, err = run(
        ["qcb", "--modes", "1", "--n", "1", "--beta", "1.5", "--eta", "0.5"], capsys
    )
    assert code == 2
    assert "beta" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qcb", "--modes", "1", "--n", "1", "--beta", "0.5", "--gamma", "0.5", "--eta", "0.5"],
         "--gamma only applies to --modes 2"),
        (["figure", "2", "--points", "3", "--gamma", "0.9"], "--gamma only applies to figure 5"),
        (["figure", "6", "--points", "3", "--gamma", "0.9"], "--gamma only applies to figure 5"),
        (["figure", "4", "--points", "3", "--beta", "0.1"], "--beta only applies to figure 6"),
        (["figure", "5", "--samples", "3", "--beta", "0.1"], "--beta only applies to figure 6"),
        (["threshold", "--eta", "0.5", "-o", "{tmp}/out.csv"], "-o only applies to --eta-grid"),
        (["threshold", "--eta", "0.5", "--format", "csv"], "--format csv only applies to --eta-grid"),
    ],
)
def test_a_flag_the_command_would_ignore_is_a_usage_error(argv, message, tmp_path, capsys):
    # these flags were accepted and silently ignored
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run([*argv, *(["--outdir", str(tmp_path)] if argv[0] == "figure" else [])], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# critical and threshold
# ---------------------------------------------------------------------------


def test_critical_point_report(capsys):
    code, out, _ = run(["critical"], capsys)
    assert code == 0
    report = parse_report(out)
    assert 0.294 <= float(report["eta_c"]) <= 0.298
    assert 1.21 <= float(report["Gamma_c"]) <= 1.23
    assert abs(float(report["cubic_residual"])) < 1e-12


def test_critical_json(capsys):
    code, out, _ = run(["critical", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["Gamma_c"], -math.log(payload["eta_c"]), rel_tol=1e-12)


def test_threshold_below_critical_is_zero(capsys):
    code, out, _ = run(["threshold", "--eta", "0.2"], capsys)
    assert code == 0
    assert float(parse_report(out)["n_threshold"]) == 0.0


def test_threshold_above_critical(capsys):
    code, out, _ = run(["threshold", "--eta", "0.35"], capsys)
    assert code == 0
    assert parse_report(out)["n_threshold"] == "0.235079710759"  # the decimal root to 12 digits


def test_threshold_above_512(capsys):
    # the root 648.32 is below the 1000 ceiling; a doubling bracket once failed here
    code, out, _ = run(["threshold", "--eta", "0.997"], capsys)
    assert code == 0
    assert parse_report(out)["n_threshold"] == "648.321745612"


def test_threshold_divergence_is_computation_error(capsys):
    code, _, err = run(["threshold", "--eta", "0.9999"], capsys)
    assert code == 1
    assert err == "error: threshold energy exceeds 1000 at eta = 0.9999\n"


def test_threshold_rejects_unit_transmissivity(capsys):
    code, _, _ = run(["threshold", "--eta", "1.0"], capsys)
    assert code == 2


def test_threshold_requires_one_mode(capsys):
    code, _, _ = run(["threshold"], capsys)
    assert code == 2
    code, _, _ = run(
        ["threshold", "--eta", "0.4", "--eta-grid", "0.3:0.6:5"], capsys
    )
    assert code == 2


def test_threshold_grid_csv(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, _, _ = run(
        ["threshold", "--eta-grid", "0.3:0.6:7", "-o", str(path), "--format", "csv"],
        capsys,
    )
    assert code == 0
    meta, header, rows = read_csv(path)
    assert meta[0] == f"# lossprobe {__version__}"
    assert meta[1].startswith("# command: threshold")
    assert any(m.startswith("# eta_c = ") for m in meta)
    assert any(m.startswith("# Gamma_c = ") for m in meta)
    assert any(m.startswith("# fit:") for m in meta)
    assert header == ["eta", "N_th"]
    assert len(rows) == 7
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)  # threshold grows with transmissivity
    assert rows[0][0] == "0.3"
    assert all(len(cell) <= 17 for row in rows for cell in row)


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 14.9 GiB for an array"), "error: Unable to allocate 14.9 GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_out_of_memory_is_computation_error(exc, line, tmp_path, monkeypatch, capsys):
    def builder(args, outdir):
        raise exc

    monkeypatch.setattr(lossprobe.cli, "_figure_4", builder)
    code, out, err = run(["figure", "4", "--outdir", str(tmp_path)], capsys)
    assert (code, out, err) == (1, "", line)


def test_threshold_grid_validation(capsys):
    assert run(["threshold", "--eta-grid", "0.6:0.3:5"], capsys)[0] == 2
    assert run(["threshold", "--eta-grid", "0.3:0.6:1"], capsys)[0] == 2
    assert run(["threshold", "--eta-grid", "nonsense"], capsys)[0] == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_stdout_format(capsys):
    code, out, _ = run(["sweep", "--samples", "10", "--seed", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("# positive_fraction = ") for line in lines)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "N,beta,Gamma,gamma,deltaQ_gamma"
    assert len(lines) - header_idx - 1 == 10


def test_sweep_byte_determinism(tmp_path, capsys):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    for path in (a, b):
        assert run(["sweep", "--samples", "40", "--seed", "42", "-o", str(path)], capsys)[0] == 0
    assert run(["sweep", "--samples", "40", "--seed", "43", "-o", str(c)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_json_tables_hold_the_library_columns_and_the_csv_meta(tmp_path, capsys):
    # sweep and threshold --eta-grid: --format json carries the CSV's
    # comment lines and header, and rows that read back as the library's
    # columns bit for bit
    from lossprobe.probes import SweepRanges, random_sweep, threshold_energy

    n, beta, gamma_ch, gaps = random_sweep(25, 0.8, 99, SweepRanges(n_max=3.0, gamma_ch_max=0.7))
    sweep_rows = [[a, b, c, 0.8, d] for a, b, c, d in zip(n.tolist(), beta.tolist(), gamma_ch.tolist(), gaps.tolist())]
    etas = np.linspace(0.6, 0.95, 9)
    tables = [
        (["sweep", "--samples", "25", "--seed", "99", "--gamma", "0.8", "--n-max", "3", "--damping-max", "0.7"],
         sweep_rows),
        (["threshold", "--eta-grid", "0.6:0.95:9"], [[a, b] for a, b in zip(etas.tolist(), threshold_energy(etas).tolist())]),
    ]
    for argv, rows in tables:
        csv_path, json_path = tmp_path / f"{argv[0]}.csv", tmp_path / f"{argv[0]}.json"
        assert run([*argv, "-o", str(csv_path)], capsys)[0] == 0
        assert run([*argv, "--format", "json", "-o", str(json_path)], capsys)[0] == 0
        meta, header, _ = read_csv(csv_path)
        table = json.loads(json_path.read_text())
        assert sorted(table) == ["columns", "meta", "rows"]
        assert table["meta"] == [line.removeprefix("# ") for line in meta]
        assert table["columns"] == header
        assert table["rows"] == rows and all(type(x) is float for row in table["rows"] for x in row)


def test_csv_rows_print_as_format_12g_per_value(tmp_path, capsys):
    # one %-format call renders every data row from the columns; each value
    # reads as format(v, ".12g"), the per-value rendering it replaced
    from lossprobe import cli

    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 3.0, 1.0 / 3.0, -2.5e-300, 1e-5, 123456789012.5]
    rows = [values[k : k + 3] for k in range(0, 12, 3)]
    columns = [np.array(col) for col in zip(*rows)]
    expected = "# lossprobe test\na,b,c\n" + "".join(",".join(format(v, ".12g") for v in row) + "\n" for row in rows)
    cli._write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], columns, ["lossprobe test"])
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()
    cli._write_csv("-", ["a", "b", "c"], columns, ["lossprobe test"])
    assert capsys.readouterr().out == expected
    cli._write_csv(str(tmp_path / "empty.csv"), ["a"], [np.array([])], [])
    assert (tmp_path / "empty.csv").read_text() == "a\n"


def test_sweep_validation(capsys):
    assert run(["sweep", "--samples", "0"], capsys)[0] == 2
    assert run(["sweep", "--gamma", "1.5"], capsys)[0] == 2
    assert run(["sweep", "--n-max", "-1"], capsys)[0] == 2


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_correlations_report(capsys):
    code, out, _ = run(
        ["correlations", "--n", "1", "--beta", "0.5", "--gamma", "1"], capsys
    )
    assert code == 0
    report = parse_report(out)
    assert math.isclose(float(report["log_negativity"]), 0.749770933796, rel_tol=1e-9)
    assert math.isclose(float(report["discord"]), 0.625503029423, rel_tol=1e-9)
    assert math.isclose(float(report["mutual_information"]), 0.560843055841, rel_tol=1e-9)
    assert math.isclose(float(report["d_tilde_minus"]), 0.236237384174, rel_tol=1e-9)
    assert report["units"] == "nats"


@pytest.mark.bits
def test_correlations_bits_flag(capsys):
    _, out_nats, _ = run(["correlations", "--n", "1", "--beta", "0.5"], capsys)
    code, out_bits, _ = run(
        ["correlations", "--n", "1", "--beta", "0.5", "--bits"], capsys
    )
    assert code == 0
    nats = parse_report(out_nats)
    bits = parse_report(out_bits)
    assert bits["units"] == "bits"
    assert math.isclose(
        float(bits["discord"]), float(nats["discord"]) / LN2, rel_tol=1e-9
    )


def test_correlations_validation(capsys):
    assert run(["correlations", "--n", "-1", "--beta", "0.5"], capsys)[0] == 2
    assert run(["correlations", "--n", "1", "--beta", "2"], capsys)[0] == 2
    assert run(["correlations", "--n", "1", "--beta", "0.5", "--gamma", "-0.1"], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        # the CM misses the uncertainty relation by -1.67e-10, 5.9e-16 of its entries
        ["correlations", "--n", "562341.3251903491", "--beta", "1"],
        # D is exactly 0 (a product state), but came out as -2.3e-10 beside entropies near 13
        ["correlations", "--n", "146779.92676220674", "--beta", "0", "--gamma", "0"],
    ],
)
def test_correlations_at_large_energy_pass_the_scaled_roundoff_floors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    report = parse_report(out)
    assert all(float(report[k]) >= 0.0 for k in ("log_negativity", "discord", "mutual_information"))
    if "--gamma" in argv:
        assert float(report["log_negativity"]) == float(report["discord"]) == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        # the partial-transpose eigenvalue rounds to 0, so E = -ln 0; a bare
        # numpy log printed log_negativity = inf with exit 0
        ["correlations", "--n", "1e8", "--beta", "1", "--gamma", "1"],
        # the recovered block entries overflow
        ["qcb", "--modes", "2", "--n", "1e300", "--beta", "0.5", "--eta", "0.5"],
        # G_s divides by (x + 1)^s - x^s = 0; this printed "got nan" after two RuntimeWarnings
        ["qcb", "--modes", "1", "--n", "1e300", "--beta", "0.5", "--eta", "0.5"],
    ],
)
def test_arithmetic_failures_exit_1_with_one_error_line_and_no_inf_or_nan(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not {"inf", "nan"} & set(err.lower().replace(",", " ").split()), err


def _known_defect(item: str, what: str):
    return pytest.mark.xfail(strict=True, reason=f"{what} (ROADMAP item {item})")


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["qcb", "--modes", "1", "--n", "1e11", "--beta", "0", "--eta", "0.3"], 0,
                     marks=_known_defect("3a", "G_s cancels to a divide by zero")),
        pytest.param(["correlations", "--n", "1.21e8", "--beta", "0.5", "--gamma", "0"], 0,
                     marks=_known_defect("4", "invalid value in sqrt from the covariance-matrix route")),
        pytest.param(["qcb", "--modes", "2", "--n", "1e8", "--beta", "0.5", "--eta", "0.5"], 0,
                     marks=_known_defect("5", "the absolute 1e-9 round-trip bound rejects the recovery")),
        pytest.param(["qcb", "--modes", "2", "--n", "1e300", "--beta", "0.5", "--eta", "0.5"], 2,
                     marks=_known_defect("5", "no domain contract: overflow exits 1")),
        # (A' + B')^2 / 4 - C'^2 once cancelled here, and the command exited 1
        (["qcb", "--modes", "2", "--n", "1000", "--beta", "1", "--eta", "0.999"], 0),
    ],
)
def test_domain_ratchet_cli_rows(argv, expected, capsys):
    assert run(argv, capsys)[0] == expected


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def test_figure2_one_file_per_transmissivity(tmp_path, capsys):
    code, out, _ = run(
        ["figure", "2", "--points", "5", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    files = sorted(tmp_path.glob("figure2_eta*.csv"))
    assert len(files) == 3
    for f in files:
        _, header, rows = read_csv(f)
        assert header == ["N", "beta", "Q1"]
        assert len(rows) == 15  # 3 squeezing fractions x 5 energies
    assert all(str(f) in out for f in files)


def test_figure3_columns(tmp_path, capsys):
    code, _, _ = run(["figure", "3", "--points", "4", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    _, header, rows = read_csv(tmp_path / "figure3.csv")
    assert header == ["N", "Gamma", "Q1", "Q2"]
    assert len(rows) == 12  # 3 damping values x 4 energies


def test_figure5_determinism_and_row_count(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run(
            [
                "figure", "5", "--gamma", "0.99", "--samples", "50",
                "--seed", "7", "--outdir", str(d),
            ],
            capsys,
        )
        assert code == 0
    name = "figure5_gamma0.99.csv"
    assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    _, header, rows = read_csv(d1 / name)
    assert header == ["N", "beta", "Gamma", "gamma", "deltaQ_gamma"]
    assert len(rows) == 50


def test_figure6_curves_monotone(tmp_path, capsys):
    code, _, _ = run(
        [
            "figure", "6", "--beta", "0.1", "--points", "6",
            "--samples", "5", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    for gamma_ch in ("0.9", "0.5", "0.1"):
        _, header, rows = read_csv(tmp_path / f"figure6_curves_beta0.1_Gamma{gamma_ch}.csv")
        assert header == ["N", "E", "D", "I", "deltaQ"]
        for col in range(1, 5):
            values = [float(r[col]) for r in rows]
            assert all(b > a for a, b in zip(values, values[1:]))
    scatter = tmp_path / "figure6_scatter.csv"
    _, header, rows = read_csv(scatter)
    assert header == ["N", "beta", "Gamma", "E", "D", "I", "deltaQ"]
    assert len(rows) == 5


def test_figure_outdir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOSSPROBE_OUTDIR", str(tmp_path))
    code, out, _ = run(["figure", "3", "--points", "3"], capsys)
    assert code == 0
    assert (tmp_path / "figure3.csv").exists()
    assert str(tmp_path / "figure3.csv") in out


def test_figure_gnuplot_companion(tmp_path, capsys):
    code, _, _ = run(
        ["figure", "3", "--points", "3", "--outdir", str(tmp_path), "--gnuplot"],
        capsys,
    )
    assert code == 0
    script = (tmp_path / "figure3.gp").read_text()
    assert script.startswith(f"# lossprobe {__version__}")
    assert "figure3.csv" in script


def test_figure_validation(tmp_path, capsys):
    assert run(["figure", "7"], capsys)[0] == 2
    assert run(["figure", "3", "--points", "1"], capsys)[0] == 2
    assert run(["figure", "6", "--beta", "1.5"], capsys)[0] == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_undersized_cutoff_fails(capsys):
    code, out, _ = run(["verify", "--dim", "12"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "checks passed" in out


def test_verify_flag_validation(capsys):
    assert run(["verify", "--dim", "1"], capsys)[0] == 2
    assert run(["verify", "--tail-tol", "0"], capsys)[0] == 2
    # past the loss kernel's cutoff limit: before, two cases ran and then the command exited 1
    assert run(["verify", "--dim", "2000"], capsys) == (2, "", "error: --dim must be in [2, 1800], got 2000\n")
    # past the two-mode loss grid's int32 bound (1291^3 > 2^31): before, the 8 one-mode cases ran and then the
    # command exited 1
    code, out, err = run(["verify", "--dim", "1291"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --dim 1291 is too large: the loss grid of dims (1291, 1291) takes up to 2,151,685,171 entries, past the 2^31 an int32 index addresses\n"


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert f"lossprobe {__version__}" in out


def test_parser_is_built_once_and_keeps_no_state_between_parses():
    assert build_parser() is build_parser()
    argv = ["qcb", "--modes", "1", "--n", "1", "--beta", "0.5", "--eta", "0.5"]
    assert build_parser().parse_args([*argv, "--copies", "3"]).copies == 3
    assert build_parser().parse_args(argv).copies == 1


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"], capsys)[0] == 2


def test_missing_command_is_usage_error(capsys):
    assert run([], capsys)[0] == 2


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would also add about
    # 0.4 s to every command's start-up.
    probe = "import lossprobe.cli, sys; print(lossprobe.__file__); print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    path, loaded = result.stdout.splitlines()
    assert path == lossprobe.__file__
    assert loaded == "[]"


def test_random_draws_load_no_numpy_random(tmp_path):
    # the draws are Philox as array arithmetic: numpy.random would add about
    # 5 MB of RSS and 5 ms to each command that draws
    probe = ("import sys; from lossprobe.cli import main; out = sys.argv[1]\n"
             "codes = [main(['figure', '5', '--outdir', out]),\n"
             "         main(['figure', '6', '--points', '4', '--samples', '20', '--outdir', out]),\n"
             "         main(['sweep', '--samples', '200', '-o', out + '/sweep.csv'])]\n"
             "print(codes, 'numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=_subprocess_env(), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_figure4_minimizes_once_per_batch(tmp_path, monkeypatch, capsys):
    # the command's Q1 and Q2 rows share one golden section, so the Q_s
    # evaluations are two per step (one per mode count), not 68 per grid point
    calls = []
    original = lossprobe.chernoff.q_s

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(lossprobe.chernoff, "q_s", counted)
    code, _, _ = run(["figure", "4", "--points", "20", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert 0 < len(calls) <= 300, len(calls)


@pytest.mark.parametrize(
    "argv",
    [
        ["qcb", "--modes", "1", "--n", "inf", "--beta", "0.5", "--eta", "0.5"],
        ["qcb", "--modes", "2", "--n", "nan", "--beta", "0.5", "--eta", "0.5"],
        ["qcb", "--modes", "1", "--n", "1", "--beta", "0.5", "--damping", "inf"],
        ["qcb", "--modes", "1", "--n", "1", "--beta", "0.5", "--damping", "nan"],
        ["sweep", "--samples", "5", "--n-max", "nan"],
        ["sweep", "--samples", "5", "--n-max", "inf"],
        ["sweep", "--samples", "5", "--damping-max", "inf"],
        ["sweep", "--samples", "5", "--damping-max", "nan"],
        ["correlations", "--n", "inf", "--beta", "0.5"],
        ["correlations", "--n", "nan", "--beta", "0.5"],
    ],
)
def test_non_finite_flags_are_usage_errors(argv, capsys):
    # before, these reached ProbeSpec or LossChannel and exited 1 with
    # "mean photon number must be >= 0, got inf" or "damping must be a
    # finite float"
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "must be a finite number" in err


def test_figure3_validates_one_cm_stack_per_batch(tmp_path, monkeypatch, capsys):
    # every CM of a figure file is built in a few stacks, so the number of
    # validations does not grow with the points: a fall-back to one CM per
    # row would make 5 per row
    from lossprobe.gaussian import CovarianceMatrix

    counts = []
    original = CovarianceMatrix.__post_init__

    def counted(self):
        counts[-1] += 1
        original(self)

    monkeypatch.setattr(CovarianceMatrix, "__post_init__", counted)
    for points in (20, 200):
        counts.append(0)
        code, _, _ = run(["figure", "3", "--points", str(points), "--outdir", str(tmp_path)], capsys)
        assert code == 0
    assert counts[0] == counts[1] <= 10, counts


@pytest.mark.parametrize(
    "argv, validations",
    [
        (["figure", "3", "--points", "20"], 0),
        # the correlations' input CMs
        (["figure", "6", "--points", "4", "--samples", "3"], 1),
    ],
)
def test_pure_lanes_build_no_covariance_matrix(argv, validations, tmp_path, monkeypatch, capsys):
    # qcb takes its pure lanes from the parameters and the recovery checks its
    # round trip on block entries, so the only CMs are the correlations' inputs
    from lossprobe.gaussian import CovarianceMatrix

    counts = []
    original = CovarianceMatrix.__post_init__

    def counted(self):
        counts.append(1)
        original(self)

    monkeypatch.setattr(CovarianceMatrix, "__post_init__", counted)
    code, _, _ = run([*argv, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert len(counts) == validations


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "4", "--points", "5"],
        ["figure", "5", "--samples", "5"],
        ["figure", "6", "--points", "4", "--samples", "3"],
        ["sweep", "--samples", "20"],
        ["verify"],
    ],
)
def test_command_makes_one_golden_section(argv, tmp_path, monkeypatch, capsys):
    # every Q1 and Q2 row of the command is one lane of one minimisation over
    # s, not one per mode count (two) or per file (figure 6 made 18)
    calls = []
    original = lossprobe.chernoff.minimize_scalar_golden

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lossprobe.chernoff, "minimize_scalar_golden", counted)
    outdir = ["--outdir", str(tmp_path)] if argv[0] == "figure" else []
    code, _, _ = run([*argv, *outdir], capsys)
    assert code == 0
    assert len(calls) == 1


def test_figure6_stack_equals_one_call_per_file(tmp_path, capsys):
    # the files rebuilt with one Chernoff and one correlation call per file
    from lossprobe import cli
    from lossprobe.channel import LossChannel
    from lossprobe.correlations import correlation_report, discord, log_negativity
    from lossprobe.probes import delta_q_gamma, random_probes

    points, samples, seed, bar = 5, 7, 3, cli.GAMMA_BAR
    code, _, _ = run(["figure", "6", "--points", str(points), "--samples", str(samples),
                      "--seed", str(seed), "--outdir", str(tmp_path / "cli")], capsys)
    assert code == 0
    ref = tmp_path / "ref"
    ref.mkdir()

    def write(name, params, columns, *data):
        cli._write_csv(str(ref / name), columns, data, cli._meta_lines("figure 6", params))

    ns = np.linspace(5.0 / points, 5.0, points)
    for beta in (0.1, 0.9):
        rep = correlation_report(cli._input_cms(ns, beta))
        for g in (0.9, 0.5, 0.1):
            write(f"figure6_curves_beta{beta:g}_Gamma{g:g}.csv",
                  {"beta": beta, "Gamma": g, "gamma-bar": bar, "points": points}, ["N", "E", "D", "I", "deltaQ"],
                  ns, rep.log_negativity, rep.discord, rep.mutual_information,
                  delta_q_gamma(ns, beta, bar, LossChannel.from_gamma(g)))
    n_col = np.repeat(ns, points)
    b_col = np.tile(np.linspace(0.0, 1.0, points), points)
    for g in (0.2, 0.8):
        cms = cli._input_cms(n_col, b_col)
        write(f"figure6_density_Gamma{g:g}.csv", {"Gamma": g, "gamma-bar": bar, "points": points},
              ["N", "beta", "D", "E", "deltaQ"], n_col, b_col, discord(cms), log_negativity(cms),
              delta_q_gamma(n_col, b_col, bar, LossChannel.from_gamma(g)))
    n_col, b_col, g_col = random_probes(samples, seed, stream=1)
    rep = correlation_report(cli._input_cms(n_col, b_col))
    write("figure6_scatter.csv", {"samples": samples, "seed": seed, "gamma-bar": bar},
          ["N", "beta", "Gamma", "E", "D", "I", "deltaQ"], n_col, b_col, g_col,
          rep.log_negativity, rep.discord, rep.mutual_information,
          delta_q_gamma(n_col, b_col, bar, LossChannel.from_gamma(g_col)))
    names = sorted(p.name for p in ref.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cli").iterdir()) and len(names) == 9
    for name in names:
        assert (tmp_path / "cli" / name).read_text() == (ref / name).read_text(), name

"""Cross-validation of the Gaussian pipeline against the Fock oracle.

A fixed set of small-energy cases (every parameter at most 1) is evaluated
twice: once with the covariance-matrix machinery and once with truncated
density matrices.  Checks per case:

  * input and output second moments agree to 1e-8 (first moments to 1e-9),
  * the Chernoff quantity agrees to 1e-6,
  * the error-probability chain (1 - sqrt(1 - F))/2 <= P_e <= Q/2 <=
    sqrt(F)/2 holds with slack no worse than -1e-9, using the exact
    single-copy Helstrom P_e and Uhlmann fidelity from the oracle.

Channel cases evolve the Fock state with the Kraus decomposition, never
through the recovered Gaussian output parameters, so the two sides stay
independent end to end.

The oracle works sector by sector (parity for one mode, n1 - n2 for two;
see `fock`), with its rank and fidelity floors relative to the largest
eigenvalue over all sectors, and needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LossChannel, evolve_single, evolve_two, output_params_single, output_params_two
from .chernoff import error_bounds, qcb
from .fock import (
    TruncationConfig,
    TruncationError,
    apply_loss_kraus,
    fidelity_fock,
    fock_squeezed_thermal,
    helstrom_pe_fock,
    moments_from_fock,
    qcb_fock,
    truncation_deficit,
)
from .gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_single_mode_st,
    make_two_mode_st,
)

MOMENT_TOL = 1e-8
FIRST_MOMENT_TOL = 1e-9
QCB_TOL = 1e-6
CHAIN_SLACK_TOL = -1e-9


@dataclass(frozen=True)
class OracleCase:
    """One comparison: either params_a through a channel, or a direct pair."""

    name: str
    params_a: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo
    dim: int
    eta: float | None = None
    params_b: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo | None = None

    def __post_init__(self) -> None:
        if (self.eta is None) == (self.params_b is None):
            raise ValueError("exactly one of eta or params_b must be set")


@dataclass(frozen=True)
class CheckResult:
    case: str
    check: str
    value: float
    tol: float
    passed: bool


def standard_cases() -> list[OracleCase]:
    """The hand-picked small-energy comparison set (parameters <= 1)."""
    s = SqueezedThermalParamsSingle
    t = SqueezedThermalParamsTwo
    return [
        OracleCase("vac-vs-thermal1", s(0.0, 0.0), dim=60, params_b=s(0.0, 1.0)),
        OracleCase("thermal-pair", s(0.0, 0.4), dim=60, params_b=s(0.0, 1.0)),
        OracleCase("thermal-decay", s(0.0, 1.0), dim=70, eta=0.6),
        OracleCase("squeezed-vac-mid", s(0.5, 0.0), dim=60, eta=0.5),
        OracleCase("squeezed-vac-deep", s(1.0, 0.0), dim=110, eta=0.5),
        OracleCase("squeezed-thermal-a", s(0.5, 0.3), dim=80, eta=0.7),
        OracleCase("squeezed-thermal-b", s(0.3, 1.0), dim=90, eta=0.3),
        OracleCase("squeezed-thermal-c", s(0.8, 0.2), dim=90, eta=0.9),
        OracleCase("tmsv-mid", t(0.5, 0.0, 0.0), dim=40, eta=0.5),
        OracleCase("tmst-a", t(0.5, 0.2, 0.1), dim=32, eta=0.6),
        OracleCase("tmst-b", t(0.8, 0.1, 0.05), dim=36, eta=0.4),
        OracleCase("tmst-c", t(0.3, 0.5, 0.5), dim=30, eta=0.8),
        OracleCase("two-mode-product", t(0.0, 0.7, 0.3), dim=26, eta=0.5),
    ]


def run_case(
    case: OracleCase,
    dim: int | None = None,
    tail_tol: float | None = None,
) -> list[CheckResult]:
    """All checks for one case; a truncation failure becomes a failed row."""
    cfg = TruncationConfig(
        dim=dim if dim is not None else case.dim,
        tail_tol=tail_tol if tail_tol is not None else 1e-8,
    )
    two_mode = isinstance(case.params_a, SqueezedThermalParamsTwo)
    make = make_two_mode_st if two_mode else make_single_mode_st

    results: list[CheckResult] = []

    def record(check: str, value: float, tol: float, keep_sign: bool = False) -> None:
        passed = value >= tol if keep_sign else abs(value) <= tol
        results.append(CheckResult(case.name, check, value, tol, passed))

    try:
        rho_a = fock_squeezed_thermal(case.params_a, cfg)
        if case.eta is not None:
            rho_b = apply_loss_kraus(rho_a, case.eta)
            ch = LossChannel.from_eta(case.eta)
            params_b = (
                output_params_two(case.params_a, ch)
                if two_mode
                else output_params_single(case.params_a, ch)
            )
            cm_b = (evolve_two if two_mode else evolve_single)(make(case.params_a), ch)
        else:
            params_b = case.params_b
            rho_b = fock_squeezed_thermal(params_b, cfg)
            cm_b = make(params_b)
    except TruncationError as err:
        results.append(CheckResult(case.name, f"truncation ({err})", math.inf, cfg.tail_tol, False))
        return results

    record("truncation deficit", max(truncation_deficit(rho_a), truncation_deficit(rho_b)), cfg.tail_tol)

    first_a, cm_fock_a = moments_from_fock(rho_a)
    first_b, cm_fock_b = moments_from_fock(rho_b)
    record("first moments", max(np.abs(first_a).max(), np.abs(first_b).max()), FIRST_MOMENT_TOL)
    record("input moments", float(np.max(np.abs(cm_fock_a - make(case.params_a).mat))), MOMENT_TOL)
    record("output moments", float(np.max(np.abs(cm_fock_b - cm_b.mat))), MOMENT_TOL)

    report = qcb(case.params_a, params_b)
    q_fock, _ = qcb_fock(rho_a, rho_b)
    record("chernoff gap", q_fock - report.q, QCB_TOL)

    pe = helstrom_pe_fock(rho_a, rho_b, copies=1)
    fid = fidelity_fock(rho_a, rho_b)
    lower, _, _ = error_bounds(report.q, fid, 1)
    record("chain: pe above lower", pe - lower, CHAIN_SLACK_TOL, keep_sign=True)
    record("chain: chernoff above pe", report.q / 2.0 - pe, CHAIN_SLACK_TOL, keep_sign=True)
    record(
        "chain: fidelity above chernoff",
        math.sqrt(fid) / 2.0 - report.q / 2.0,
        CHAIN_SLACK_TOL,
        keep_sign=True,
    )
    return results


def run_all(
    dim: int | None = None, tail_tol: float | None = None
) -> list[CheckResult]:
    out: list[CheckResult] = []
    for case in standard_cases():
        out.extend(run_case(case, dim=dim, tail_tol=tail_tol))
    return out

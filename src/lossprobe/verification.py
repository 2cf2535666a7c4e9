"""Cross-validation of the Gaussian pipeline against the Fock oracle.

A fixed set of small-energy cases (every parameter at most 1) is evaluated
twice: once with the Gaussian closed forms (covariance-matrix entries from
the parameters, no CM objects) and once with truncated density matrices.  Checks per case:

  * input and output second moments agree to 1e-8 (first moments to 1e-9),
  * the Chernoff quantity agrees to 1e-6,
  * the error-probability chain (1 - sqrt(1 - F))/2 <= P_e <= Q/2 <=
    sqrt(F)/2 holds with slack no worse than -1e-9, using the exact
    single-copy Helstrom P_e and Uhlmann fidelity from the oracle.

Channel cases evolve the Fock state with the Kraus decomposition, never
through the recovered Gaussian output parameters, so the two sides stay
independent end to end.

The oracle works sector by sector (parity for one mode, n1 - n2 for two;
see `fock`), factorises a loss output only where the input has weight (and
where a block's trace could hold the largest eigenvalue), with a loss
output's rank and fidelity floors relative to the largest eigenvalue over
all sectors, and needs only numpy.  Each case's Q, P_e and F come from one
pass over its pair (`fock.pair_checks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LossChannel, evolved_blocks, output_params_single, output_params_two
from .chernoff import _qcb_pairs, error_bounds
from .fock import (
    TruncationConfig,
    TruncationError,
    apply_loss_kraus,
    check_loss_size,
    fock_squeezed_thermal,
    moments_from_fock,
    pair_checks,
    truncation_deficit,
)
from .gaussian import (
    VACUUM_NOISE,
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_two_mode_st,  # not called here: perfbench/test_harness.py pins this binding in every module
    two_mode_blocks,
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


def _gaussian_q(cases: list[OracleCase]) -> list[float]:
    """The Gaussian Q of each case's pair, from one Chernoff call for both mode counts.

    The channel cases of a mode count are recovered in one call over their
    stacked eta.  A lane has the same bits alone and in a stack, so a
    case's Q is the same from `run_all`'s stacks as alone.
    """
    pairs = {}
    for kind, recover in ((SqueezedThermalParamsSingle, output_params_single),
                          (SqueezedThermalParamsTwo, output_params_two)):
        group = [case for case in cases if type(case.params_a) is kind]
        lossy = [case for case in group if case.eta is not None]
        stack = lambda ps: kind(*np.array([p.fields() for p in ps]).T)  # noqa: E731
        if lossy:
            out = recover(stack([c.params_a for c in lossy]), LossChannel.from_eta([c.eta for c in lossy]))
            outputs = map(out.row, range(len(lossy)))
        if group:
            pairs[kind] = [stack(ps) for ps in ([c.params_a for c in group],
                                                [c.params_b if c.eta is None else next(outputs) for c in group])]
    qs = {kind: iter(q.tolist()) for kind, (q, _, _) in zip(pairs, _qcb_pairs(list(pairs.values())))}
    return [next(qs[type(case.params_a)]) for case in cases]


def _expected_cms(case: OracleCase) -> list[np.ndarray]:
    """A case's input and output CMs from its parameters, by make_*_st's and evolve_*'s operations."""
    p, q, eta = case.params_a, case.params_b, case.eta
    if isinstance(p, SqueezedThermalParamsTwo):
        out = two_mode_blocks(q) if eta is None else evolved_blocks(p, LossChannel.from_eta(eta))
        return [0.5 * np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]]) for a, b, c in (two_mode_blocks(p), out)]
    m_a, m_b = ((x.n_t + VACUUM_NOISE) * np.exp([2 * x.r, -2 * x.r]) for x in (p, p if q is None else q))
    return [np.diag(m_a), np.diag(m_b if eta is None else eta * m_a + (1.0 - eta) * VACUUM_NOISE)]


def run_case(
    case: OracleCase,
    dim: int | None = None,
    tail_tol: float | None = None,
    *,
    q: float,
) -> list[CheckResult]:
    """All checks for one case against its Gaussian Q, q (`_gaussian_q`); a truncation failure becomes a failed row.

    A cutoff whose loss grid would pass 2^31 entries raises ValueError
    before any state is built.
    """
    cfg = TruncationConfig(
        dim=dim if dim is not None else case.dim,
        tail_tol=tail_tol if tail_tol is not None else 1e-8,
    )

    results: list[CheckResult] = []

    def record(check: str, value: float, tol: float, keep_sign: bool = False) -> None:
        passed = value >= tol if keep_sign else abs(value) <= tol
        results.append(CheckResult(case.name, check, value, tol, passed))

    if case.eta is not None:
        check_loss_size(case.params_a, cfg)  # a loss grid past int32 raises before the input is built
    try:
        rho_a = fock_squeezed_thermal(case.params_a, cfg)
        rho_b = apply_loss_kraus(rho_a, case.eta) if case.eta is not None else fock_squeezed_thermal(case.params_b, cfg)
    except TruncationError as err:
        results.append(CheckResult(case.name, f"truncation ({err})", math.inf, cfg.tail_tol, False))
        return results

    record("truncation deficit", max(truncation_deficit(rho_a), truncation_deficit(rho_b)), cfg.tail_tol)

    first_a, cm_fock_a = moments_from_fock(rho_a)
    first_b, cm_fock_b = moments_from_fock(rho_b)
    cm_a, cm_b = _expected_cms(case)
    record("first moments", max(np.abs(first_a).max(), np.abs(first_b).max()), FIRST_MOMENT_TOL)
    record("input moments", float(np.max(np.abs(cm_fock_a - cm_a))), MOMENT_TOL)
    record("output moments", float(np.max(np.abs(cm_fock_b - cm_b))), MOMENT_TOL)

    checks = pair_checks(rho_a, rho_b)
    record("chernoff gap", checks.q - q, QCB_TOL)

    pe, fid = checks.helstrom_pe, checks.fidelity  # the exact single-copy Helstrom error and the fidelity
    lower, _, _ = error_bounds(q, fid, 1)
    record("chain: pe above lower", pe - lower, CHAIN_SLACK_TOL, keep_sign=True)
    record("chain: chernoff above pe", q / 2.0 - pe, CHAIN_SLACK_TOL, keep_sign=True)
    record(
        "chain: fidelity above chernoff",
        math.sqrt(fid) / 2.0 - q / 2.0,
        CHAIN_SLACK_TOL,
        keep_sign=True,
    )
    return results


def run_all(
    dim: int | None = None, tail_tol: float | None = None
) -> list[CheckResult]:
    """Every check of every standard case, with one Gaussian Q stack per mode count."""
    cases = standard_cases()
    out: list[CheckResult] = []
    for case, q in zip(cases, _gaussian_q(cases)):
        out.extend(run_case(case, dim=dim, tail_tol=tail_tol, q=q))
    return out

"""Correlation quantifiers for two-mode Gaussian states.

Logarithmic negativity E, Gaussian quantum discord D, and mutual information
I, all in nats (natural logarithms).  E and D are computed from the local
symplectic invariants; D additionally requires the standard block normal
form (diagonal local blocks proportional to I2, correlation block
proportional to diag(1, -1)), which is the form every state in this package
lives in.

The mutual information here carries a global factor 1/2 relative to the
usual S(A) + S(B) - S(AB); with it, a pure two-mode state has I equal to its
entanglement entropy instead of twice it.  Pass half_convention=False for
the unhalved variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import (
    PHYSICALITY_TOL,
    VACUUM_NOISE,
    CovarianceMatrix,
    symplectic_eigenvalues,
    symplectic_invariants,
)

_FORM_TOL = 1e-9


def _vacuum_floor(x: float) -> float:
    # Entropy arguments of a validated state sit at or above 1/2; roundoff
    # (notably in the conditional eigenvalue w) can undershoot the floor.
    return max(x, VACUUM_NOISE)


def pt_symplectic_eigenvalues(cm: CovarianceMatrix) -> tuple[float, float]:
    """Symplectic eigenvalues (d+, d-) of the partial transpose.

    Same closed form as the ordinary spectrum with Delta replaced by
    Delta_tilde = I1 + I2 - 2 I3; the state is entangled iff d- < 1/2.
    """
    i1, i2, i3, i4, _, delta_t = symplectic_invariants(cm)
    disc = delta_t * delta_t - 4.0 * i4
    if disc < -PHYSICALITY_TOL:
        raise ArithmeticError(f"partial-transpose discriminant is negative: {disc:.3e}")
    d_plus = math.sqrt((delta_t + math.sqrt(max(disc, 0.0))) / 2.0)
    d_minus = math.sqrt(max(i4, 0.0)) / d_plus
    return d_plus, d_minus


def log_negativity(cm: CovarianceMatrix) -> float:
    """E = max(0, -ln 2 d-) with d- the smaller partial-transpose eigenvalue."""
    _, d_minus = pt_symplectic_eigenvalues(cm)
    return max(0.0, -math.log(2.0 * d_minus))


def binary_entropy_h(x: float) -> float:
    """h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2) for x >= 1/2.

    The entropy of a thermal mode with symplectic eigenvalue x; h(1/2) = 0.
    """
    if x < VACUUM_NOISE - 1e-9:
        raise ValueError(f"entropy argument must be >= 1/2, got {x}")
    lo = max(x - VACUUM_NOISE, 0.0)
    out = (x + VACUUM_NOISE) * math.log(x + VACUUM_NOISE)
    if lo > 0.0:
        out -= lo * math.log(lo)
    return out


def _require_normal_form(cm: CovarianceMatrix) -> tuple[float, float, float]:
    m = cm.mat
    a = m[0, 0]
    b = m[2, 2]
    c = m[0, 2]
    ref = abs(a) + abs(b) + abs(c)
    dev = max(
        abs(m[1, 1] - a),
        abs(m[3, 3] - b),
        abs(m[1, 3] + c),
        abs(m[0, 1]),
        abs(m[2, 3]),
        abs(m[0, 3]),
        abs(m[1, 2]),
    )
    if dev > _FORM_TOL * max(ref, 1.0):
        raise ValueError(
            "state is not in block normal form (local blocks x I2, correlations x diag(1,-1))"
        )
    return a, b, c


def discord(cm: CovarianceMatrix) -> float:
    """Gaussian quantum discord of a two-mode state in block normal form.

    D = h(sqrt(I2)) - h(d-) - h(d+) + h(w) with
    w = (sqrt(I1) + 2 sqrt(I1 I2) + 2 I3) / (1 + 2 sqrt(I2)), the conditional
    eigenvalue after the optimal Gaussian measurement on the second mode.
    Clamped to 0 from below (tiny negatives are roundoff).
    """
    _require_normal_form(cm)
    i1, i2, i3, _, _, _ = symplectic_invariants(cm)
    d_plus, d_minus = symplectic_eigenvalues(cm)
    w = (math.sqrt(i1) + 2.0 * math.sqrt(i1 * i2) + 2.0 * i3) / (1.0 + 2.0 * math.sqrt(i2))
    d = (
        binary_entropy_h(math.sqrt(i2))
        - binary_entropy_h(_vacuum_floor(d_minus))
        - binary_entropy_h(_vacuum_floor(d_plus))
        + binary_entropy_h(_vacuum_floor(w))
    )
    if d < -1e-10:
        raise ArithmeticError(f"discord came out negative beyond roundoff: {d:.3e}")
    return max(d, 0.0)


def mutual_information(cm: CovarianceMatrix, half_convention: bool = True) -> float:
    """I = (1/2) [h(sqrt(I1)) + h(sqrt(I2)) - h(d+) - h(d-)].

    half_convention=False drops the leading 1/2.
    """
    i1, i2, _, _, _, _ = symplectic_invariants(cm)
    d_plus, d_minus = symplectic_eigenvalues(cm)
    i = (
        binary_entropy_h(math.sqrt(i1))
        + binary_entropy_h(math.sqrt(i2))
        - binary_entropy_h(_vacuum_floor(d_plus))
        - binary_entropy_h(_vacuum_floor(d_minus))
    )
    if half_convention:
        i *= 0.5
    return max(i, 0.0)


@dataclass(frozen=True)
class CorrelationReport:
    """E, D, I (nats) and the smaller partial-transpose eigenvalue."""

    log_negativity: float
    discord: float
    mutual_information: float
    d_tilde_minus: float


def correlation_report(cm: CovarianceMatrix) -> CorrelationReport:
    """All three quantifiers of a two-mode state in one pass."""
    _, d_minus = pt_symplectic_eigenvalues(cm)
    return CorrelationReport(
        log_negativity=log_negativity(cm),
        discord=discord(cm),
        mutual_information=mutual_information(cm),
        d_tilde_minus=d_minus,
    )

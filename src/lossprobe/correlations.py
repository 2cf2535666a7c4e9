"""Correlation quantifiers for two-mode Gaussian states.

Logarithmic negativity E, Gaussian quantum discord D, and mutual information
I, all in nats (natural logarithms), of two-mode squeezed thermal states
given by their parameters (`SqueezedThermalParamsTwo`, one state or a
stack; a state gets the same bits alone and in any stack).
`correlation_report` computes all three in one pass: it builds the
covariance matrix (CM) with `make_two_mode_st`, in block normal form by
construction, then takes one set of symplectic invariants, one ordinary and
one partial-transpose spectrum, and one entropy per distinct argument; the
CM spectra, not closed forms in the parameters, keep figure 6's roundoff in
D near zero.  `log_negativity`, `discord` and `mutual_information` read
their field of that report; `pt_symplectic_eigenvalues` takes a CM, as the
spectra of the CM layer in `gaussian` do.

The mutual information here carries a global factor 1/2 relative to the
usual S(A) + S(B) - S(AB); with it, a pure two-mode state has I equal to its
entanglement entropy instead of twice it.  The usual value is twice the
reported one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    PHYSICALITY_TOL,
    VACUUM_NOISE,
    CovarianceMatrix,
    SqueezedThermalParamsTwo,
    at_least_zero,
    elementwise,
    float_or_array,
    make_two_mode_st,
    require,
    symplectic_eigenvalues,
    symplectic_invariants,
)


def _vacuum_floor(x):
    # Entropy arguments of a validated state sit at or above 1/2; roundoff
    # (notably in the conditional eigenvalue w) can undershoot the floor.
    return np.where(VACUUM_NOISE > x, VACUUM_NOISE, x)


def pt_symplectic_eigenvalues(cm: CovarianceMatrix):
    """Symplectic eigenvalues (d+, d-) of the partial transpose.

    Same closed form as the ordinary spectrum with Delta replaced by
    Delta_tilde = I1 + I2 - 2 I3; the state is entangled iff d- < 1/2.  Both
    terms of the discriminant Delta_tilde^2 - 4 I4 are of size Delta_tilde^2,
    so its roundoff floor scales with that.
    """
    return _pt_eigenvalues(symplectic_invariants(cm))


def _pt_eigenvalues(invariants: tuple):
    """`pt_symplectic_eigenvalues` from the state's `symplectic_invariants`."""
    _, _, _, i4, _, delta_t = invariants
    disc = delta_t * delta_t - 4.0 * i4
    if np.any(disc < -PHYSICALITY_TOL * delta_t * delta_t):
        raise ArithmeticError(f"partial-transpose discriminant is negative: {np.min(disc):.3e}")
    d_plus = np.sqrt((delta_t + np.sqrt(at_least_zero(disc))) / 2.0)
    d_minus = np.sqrt(at_least_zero(i4)) / d_plus
    return float_or_array(d_plus), float_or_array(d_minus)


def binary_entropy_h(x):
    """h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2) for x >= 1/2, elementwise.

    The entropy of a thermal mode with symplectic eigenvalue x; h(1/2) = 0.
    The second term is subtracted only where x - 1/2 > 0.  The logarithms
    are numpy's (`elementwise`), so an element has the same bits alone (a
    float) and in an array.
    """
    require(np.greater_equal(x, VACUUM_NOISE - 1e-9), "entropy argument must be >= 1/2, got {}", x)
    hi, lo = x + VACUUM_NOISE, x - VACUUM_NOISE
    above = lo > 0.0
    log_lo = elementwise(np.log, np.where(above, lo, 1.0))
    return float_or_array(hi * elementwise(np.log, hi) - np.where(above, lo * log_lo, 0.0))


@dataclass(frozen=True)
class CorrelationReport:
    """E, D, I (nats) and the smaller partial-transpose eigenvalue; arrays for a stack."""

    log_negativity: float
    discord: float
    mutual_information: float
    d_tilde_minus: float


def correlation_report(p: SqueezedThermalParamsTwo) -> CorrelationReport:
    """E, D and I of a two-mode squeezed thermal state (or stack), in one pass over its CM.

    With I1..I3 the local symplectic invariants, d+ >= d- the symplectic
    eigenvalues, d~- the smaller one of the partial transpose and h =
    binary_entropy_h (each entropy argument floored at 1/2 against roundoff):

    - E = max(0, -ln 2 d~-).
    - D = h(sqrt(I2)) - h(d-) - h(d+) + h(w), the Gaussian discord of Adesso
      & Datta (PRL 105, 030501, 2010) with the measurement on the second
      mode, where w = (sqrt(I1) + 2 sqrt(I1 I2) + 2 I3) / (1 + 2 sqrt(I2))
      is the conditional eigenvalue after the optimal Gaussian measurement.
      Clamped to 0 from below: a negative D down to -1e-10 times the sum of
      the four entropies' magnitudes (at least 1) is roundoff.
    - I = (1/2) [h(sqrt(I1)) + h(sqrt(I2)) - h(d+) - h(d-)].

    Each of the five entropies is computed once and shared by D and I.
    """
    if not isinstance(p, SqueezedThermalParamsTwo):
        raise TypeError(f"correlations take SqueezedThermalParamsTwo, got {type(p).__name__}")
    cm = make_two_mode_st(p)
    invariants = symplectic_invariants(cm)
    _, d_tilde_minus = _pt_eigenvalues(invariants)
    i1, i2, i3, _, _, _ = invariants
    d_plus, d_minus = symplectic_eigenvalues(cm)
    w = (np.sqrt(i1) + 2.0 * np.sqrt(i1 * i2) + 2.0 * i3) / (1.0 + 2.0 * np.sqrt(i2))
    h1, h2 = binary_entropy_h(np.sqrt(i1)), binary_entropy_h(np.sqrt(i2))
    h_plus, h_minus = binary_entropy_h(_vacuum_floor(d_plus)), binary_entropy_h(_vacuum_floor(d_minus))
    e = -elementwise(np.log, 2.0 * d_tilde_minus)
    h_w = binary_entropy_h(_vacuum_floor(w))
    d = h2 - h_minus - h_plus + h_w
    if np.any(d < -1e-10 * np.maximum(1.0, abs(h2) + abs(h_minus) + abs(h_plus) + abs(h_w))):
        raise ArithmeticError(f"discord came out negative beyond roundoff: {np.min(d):.3e}")
    return CorrelationReport(
        log_negativity=float_or_array(np.where(e > 0.0, e, 0.0)),
        discord=float_or_array(at_least_zero(d)),
        mutual_information=float_or_array(at_least_zero(0.5 * (h1 + h2 - h_plus - h_minus))),
        d_tilde_minus=d_tilde_minus,
    )


def log_negativity(p: SqueezedThermalParamsTwo):
    """E of `correlation_report`."""
    return correlation_report(p).log_negativity


def discord(p: SqueezedThermalParamsTwo):
    """D of `correlation_report`."""
    return correlation_report(p).discord


def mutual_information(p: SqueezedThermalParamsTwo):
    """I of `correlation_report`."""
    return correlation_report(p).mutual_information

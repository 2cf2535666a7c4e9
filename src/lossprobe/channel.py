"""Pure-loss bosonic channel acting on covariance matrices.

The channel damps a mode toward the vacuum: sigma -> eta sigma + (1 - eta)/2 I
with transmissivity eta = exp(-gamma).  For a two-mode probe only the first
mode is sent through the channel; the second is kept as an ideal reference.
A squeezed thermal input stays squeezed thermal, so the output can be handed
back as parameters of the same family; the two-mode output is computed from
the block entries in closed form, without building the input or evolved CM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    VACUUM_NOISE,
    CovarianceMatrix,
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_two_mode_st,
    two_mode_blocks,
)

_CLAMP = 1e-12


class ParameterRecoveryError(ArithmeticError):
    """Raised when recovered output parameters fail to rebuild the evolved CM."""


@dataclass(frozen=True)
class LossChannel:
    """Loss channel with damping gamma >= 0 and transmissivity eta = exp(-gamma).

    Both fields are stored; gamma is canonical and the pair is validated for
    consistency at construction.  Build instances with `from_gamma` or
    `from_eta`.
    """

    gamma: float
    eta: float

    def __post_init__(self) -> None:
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"damping must be a finite float >= 0, got {self.gamma}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"transmissivity must be in (0, 1], got {self.eta}")
        if abs(self.eta - math.exp(-self.gamma)) > 1e-14:
            raise ValueError(
                f"inconsistent pair: eta={self.eta!r} but exp(-gamma)={math.exp(-self.gamma)!r}"
            )

    @classmethod
    def from_gamma(cls, gamma: float) -> "LossChannel":
        return cls(gamma=gamma, eta=math.exp(-gamma))

    @classmethod
    def from_eta(cls, eta: float) -> "LossChannel":
        if not (0.0 < eta <= 1.0):
            raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
        return cls(gamma=-math.log(eta), eta=eta)


def evolve_single(cm: CovarianceMatrix, ch: LossChannel) -> CovarianceMatrix:
    """sigma -> eta sigma + (1 - eta) sigma_vac for a one-mode CM."""
    if cm.n != 1:
        raise ValueError(f"expected a one-mode CM, got {cm.n} modes")
    return CovarianceMatrix(ch.eta * cm.mat + (1.0 - ch.eta) * VACUUM_NOISE * np.eye(2))


def evolve_two(cm: CovarianceMatrix, ch: LossChannel) -> CovarianceMatrix:
    """Send mode 1 of a two-mode CM through the channel, keep mode 2 intact.

    X sigma X^T + (1 - eta) sigma_vac on mode 1, with X = diag(sqrt(eta),
    sqrt(eta), 1, 1): the mode-1 block is damped, the cross block picks up
    sqrt(eta), the reference block is untouched.
    """
    if cm.n != 2:
        raise ValueError(f"expected a two-mode CM, got {cm.n} modes")
    root = math.sqrt(ch.eta)
    m = cm.mat.copy()
    m[:2, :2] = ch.eta * m[:2, :2] + (1.0 - ch.eta) * VACUUM_NOISE * np.eye(2)
    m[:2, 2:] *= root
    m[2:, :2] *= root
    return CovarianceMatrix(m)


def _clamped(x: float, what: str) -> float:
    if x < -_CLAMP:
        raise ArithmeticError(f"{what} came out negative: {x:.3e}")
    return max(x, 0.0)


def evolved_blocks(p: SqueezedThermalParamsTwo, ch: LossChannel) -> tuple[float, float, float]:
    """Block entries (A', B', C') of the evolved two-mode state.

    evolve_two in closed form on the entries of two_mode_blocks:
    A' = eta A + (1 - eta), B' = B, C' = sqrt(eta) C.  The operations are
    those of evolve_two on make_two_mode_st(p) up to exact factors of 2, so
    the entries agree bit for bit.  C' is formed from C / 2, as evolve_two
    forms it: halving a subnormal C rounds, so sqrt(eta) C / 2 would differ
    in the last bit (r = 1.1e-308).
    """
    a, b, c = two_mode_blocks(p)
    return ch.eta * a + (1.0 - ch.eta), b, 2.0 * (0.5 * c * math.sqrt(ch.eta))


def output_params_single(
    p: SqueezedThermalParamsSingle, ch: LossChannel
) -> SqueezedThermalParamsSingle:
    """Squeezed thermal parameters of the evolved single-mode state.

    The output thermal occupation is sqrt(det sigma') - 1/2 and the output
    squeezing follows from the variance ratio, r' = (1/4) log(a'/b').
    """
    nu = p.n_t + VACUUM_NOISE
    a = ch.eta * nu * math.exp(2 * p.r) + (1.0 - ch.eta) * VACUUM_NOISE
    b = ch.eta * nu * math.exp(-2 * p.r) + (1.0 - ch.eta) * VACUUM_NOISE
    n_out = _clamped(math.sqrt(a * b) - VACUUM_NOISE, "output thermal occupation")
    r_out = _clamped(0.25 * math.log(a / b), "output squeezing")
    return SqueezedThermalParamsSingle(r=r_out, n_t=n_out)


def output_params_two(
    p: SqueezedThermalParamsTwo, ch: LossChannel
) -> SqueezedThermalParamsTwo:
    """Squeezed thermal parameters of the evolved two-mode state.

    Inverts the block normal form: with (A', B', C') from evolved_blocks,
    u = 1 + n1 + n2 and the output occupations solve

        u^2 = (A' + B')^2 / 4 - C'^2,   n1 - n2 = (A' - B') / 2,

    and the squeezing is r' = (1/2) asinh(C' / u).  Where C'^2 exceeds u^2
    the difference cancels (a strongly squeezed probe at large N), so there
    u - 1 = (u^2 - 1) / (u + 1) comes from a sum of non-negative terms,
    using A B - C^2 = (1 + 2 n_t1)(1 + 2 n_t2) of the input:

        u^2 - 1 = ((A' - B') / 2)^2 + eta (2 n_t1 + 2 n_t2 + 4 n_t1 n_t2)
                  + (1 - eta)(B - 1),
        B - 1 = 2 sinh^2 r (1 + n_t1) + 2 n_t2 cosh^2 r.

    Elsewhere the difference loses at most one bit and is kept.  The result
    is rebuilt with make_two_mode_st and compared against the evolved
    entries; a residual above 1e-9 in any CM entry raises
    ParameterRecoveryError.
    """
    a, b, c = evolved_blocks(p, ch)
    half_diff = 0.25 * (a - b)
    u_sq = 0.25 * (a + b) ** 2 - c * c
    if c * c <= u_sq:
        u = math.sqrt(max(u_sq, 1.0))
        u_minus_one = u - 1.0
    else:
        b_minus_one = 2.0 * math.sinh(p.r) ** 2 * (1.0 + p.n_t1) + 2.0 * p.n_t2 * math.cosh(p.r) ** 2
        u_sq_minus_one = (
            (2.0 * half_diff) ** 2
            + ch.eta * (2.0 * p.n_t1 + 2.0 * p.n_t2 + 4.0 * p.n_t1 * p.n_t2)
            + (1.0 - ch.eta) * b_minus_one
        )
        u = math.sqrt(1.0 + u_sq_minus_one)
        u_minus_one = u_sq_minus_one / (u + 1.0)
    n1 = _clamped(u_minus_one / 2.0 + half_diff, "output occupation n1")
    n2 = _clamped(u_minus_one / 2.0 - half_diff, "output occupation n2")
    r_out = _clamped(0.5 * math.asinh(c / u), "output squeezing")
    out = SqueezedThermalParamsTwo(r=r_out, n_t1=n1, n_t2=n2)
    # largest entry gap between the rebuilt CM and the evolved one, whose
    # entries are half the block entries
    m = make_two_mode_st(out).mat
    residual = max(abs(m[0, 0] - 0.5 * a), abs(m[2, 2] - 0.5 * b), abs(m[0, 2] - 0.5 * c))
    if residual > 1e-9:
        raise ParameterRecoveryError(
            f"round-trip residual {residual:.3e} exceeds 1e-9 for {p} through {ch}"
        )
    return out

"""Pure-loss bosonic channel acting on covariance matrices.

The channel damps a mode toward the vacuum: sigma -> eta sigma + (1 - eta)/2 I
with transmissivity eta = exp(-gamma).  For a two-mode probe only the first
mode is sent through the channel; the second is kept as an ideal reference.
A squeezed thermal input stays squeezed thermal, so the output can be handed
back as parameters of the same family; the two-mode output is computed from
the block entries in closed form, and its round trip is checked on those
entries, so the recovery builds no CM.

The recovery works elementwise on a stack of parameters (see `gaussian`),
with one channel for all rows or a sequence of one per row; a row gets the
same bits alone and in a stack.  Its checks run once per stack, and an
error names the first failing row's parameters and channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import (
    VACUUM_NOISE,
    CovarianceMatrix,
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    any_of,
    at_least_zero,
    libm,
    make_two_mode_st,  # not called here: perfbench/test_harness.py pins this binding in every module
    select,
    two_mode_blocks,
)

_CLAMP = 1e-12


class ParameterRecoveryError(ArithmeticError):
    """Raised when the block entries of the recovered parameters miss the evolved ones."""


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
        return cls(gamma=-math.log(eta) + 0.0, eta=eta)  # + 0.0: eta = 1 gives +0.0, not -0.0


Channels = LossChannel | Sequence[LossChannel]


def evolve_single(cm: CovarianceMatrix, ch: LossChannel) -> CovarianceMatrix:
    """sigma -> eta sigma + (1 - eta) sigma_vac for a one-mode CM (or stack)."""
    if cm.n != 1:
        raise ValueError(f"expected a one-mode CM, got {cm.n} modes")
    return CovarianceMatrix(ch.eta * cm.mat + (1.0 - ch.eta) * VACUUM_NOISE * np.eye(2))


def evolve_two(cm: CovarianceMatrix, ch: LossChannel) -> CovarianceMatrix:
    """Send mode 1 of a two-mode CM (or stack) through the channel, keep mode 2 intact.

    X sigma X^T + (1 - eta) sigma_vac on mode 1, with X = diag(sqrt(eta),
    sqrt(eta), 1, 1): the mode-1 block is damped, the cross block picks up
    sqrt(eta), the reference block is untouched.
    """
    if cm.n != 2:
        raise ValueError(f"expected a two-mode CM, got {cm.n} modes")
    root = math.sqrt(ch.eta)
    m = cm.mat.copy()
    m[..., :2, :2] = ch.eta * m[..., :2, :2] + (1.0 - ch.eta) * VACUUM_NOISE * np.eye(2)
    m[..., :2, 2:] *= root
    m[..., 2:, :2] *= root
    return CovarianceMatrix(m)


def _eta(p, ch: Channels):
    # a float for one channel, else an array of p's shape
    return ch.eta if isinstance(ch, LossChannel) else np.array([c.eta for c in ch]).reshape(p.shape)


def _row(p, ch: Channels, k: int) -> str:
    chk = ch if isinstance(ch, LossChannel) else ch[k]
    return f" for {p.row(k)} through {chk}" + (f" (row {k})" if p.shape else "")


def _clamped(x, what: str, p, ch: Channels):
    """max(x, 0) elementwise, after checking x >= -1e-12."""
    low = x < -_CLAMP
    if any_of(low):
        k = int(np.argmax(np.ravel(low)))
        where = _row(p, ch, k) if p.shape else ""
        raise ArithmeticError(f"{what} came out negative: {np.ravel(x)[k]:.3e}{where}")
    return at_least_zero(x)


def evolved_blocks(p: SqueezedThermalParamsTwo, ch: Channels):
    """Block entries (A', B', C') of the evolved two-mode state, per row.

    evolve_two in closed form on the entries of two_mode_blocks:
    A' = eta A + (1 - eta), B' = B, C' = sqrt(eta) C.  The operations are
    those of evolve_two on make_two_mode_st(p) up to exact factors of 2, so
    the entries agree bit for bit.  C' is formed from C / 2, as evolve_two
    forms it: halving a subnormal C rounds, so sqrt(eta) C / 2 would differ
    in the last bit (r = 1.1e-308).
    """
    eta = _eta(p, ch)
    a, b, c = two_mode_blocks(p)
    return eta * a + (1.0 - eta), b, 2.0 * (0.5 * c * np.sqrt(eta))


def output_params_single(p: SqueezedThermalParamsSingle, ch: Channels) -> SqueezedThermalParamsSingle:
    """Squeezed thermal parameters of the evolved single-mode state(s).

    The output thermal occupation is sqrt(det sigma') - 1/2 and the output
    squeezing follows from the variance ratio, r' = (1/4) log(a'/b').
    """
    eta = _eta(p, ch)
    nu = p.n_t + VACUUM_NOISE
    a = eta * nu * libm(math.exp, 2 * p.r) + (1.0 - eta) * VACUUM_NOISE
    b = eta * nu * libm(math.exp, -2 * p.r) + (1.0 - eta) * VACUUM_NOISE
    n_out = _clamped(np.sqrt(a * b) - VACUUM_NOISE, "output thermal occupation", p, ch)
    r_out = _clamped(0.25 * libm(math.log, a / b), "output squeezing", p, ch)
    return SqueezedThermalParamsSingle(r=r_out, n_t=n_out)


def output_params_two(p: SqueezedThermalParamsTwo, ch: Channels) -> SqueezedThermalParamsTwo:
    """Squeezed thermal parameters of the evolved two-mode state(s).

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

    Elsewhere the difference loses at most one bit and is kept.  The round
    trip is checked on block entries: two_mode_blocks of the output against
    (A', B', C'), halved to the CM scale.  A residual above 1e-9 raises
    ParameterRecoveryError for the first such row.  Parameters with r, n_t1,
    n_t2 >= 0 are a physical state by construction, so no CM is built.
    """
    eta = _eta(p, ch)
    a, b, c = evolved_blocks(p, ch)
    half_diff = 0.25 * (a - b)
    u_sq = 0.25 * libm(pow, a + b, 2) - c * c
    s2, c2 = (libm(pow, libm(f, p.r), 2) for f in (math.sinh, math.cosh))
    u_sq_minus_one = (
        libm(pow, 2.0 * half_diff, 2)
        + eta * (2.0 * p.n_t1 + 2.0 * p.n_t2 + 4.0 * p.n_t1 * p.n_t2)
        + (1.0 - eta) * (2.0 * s2 * (1.0 + p.n_t1) + 2.0 * p.n_t2 * c2)
    )
    direct = c * c <= u_sq
    u = select(direct, np.sqrt(select(1.0 > u_sq, 1.0, u_sq)), np.sqrt(1.0 + u_sq_minus_one))
    u_minus_one = select(direct, u - 1.0, u_sq_minus_one / (u + 1.0))
    n1 = _clamped(u_minus_one / 2.0 + half_diff, "output occupation n1", p, ch)
    n2 = _clamped(u_minus_one / 2.0 - half_diff, "output occupation n2", p, ch)
    r_out = _clamped(0.5 * libm(math.asinh, c / u), "output squeezing", p, ch)
    out = SqueezedThermalParamsTwo(r=r_out, n_t1=n1, n_t2=n2)
    # largest gap between the rebuilt CM entries and the evolved ones (half the block entries)
    gaps = [abs(x - y) for x, y in zip(two_mode_blocks(out), (a, b, c))]
    residual = np.ravel(0.5 * np.max(gaps, axis=0))
    if (residual > 1e-9).any():
        k = int(np.argmax(residual > 1e-9))
        raise ParameterRecoveryError(f"round-trip residual {residual[k]:.3e} exceeds 1e-9" + _row(p, ch, k))
    return out

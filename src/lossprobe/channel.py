"""Pure-loss bosonic channel acting on covariance matrices.

The channel damps a mode toward the vacuum: sigma -> eta sigma + (1 - eta)/2 I
with transmissivity eta = exp(-gamma).  For a two-mode probe only the first
mode is sent through the channel; the second is kept as an ideal reference.
A squeezed thermal input stays squeezed thermal, so the output can be handed
back as parameters of the same family; the two-mode output is computed from
the block entries in closed form, and its round trip is checked on those
entries, so the recovery builds no CM.

The recovery works elementwise on a stack of parameters and a channel or a
channel stack (see `gaussian`), which broadcast; a row gets the same bits
alone and in a stack.  Its checks run once per stack, and an error names the
first failing row's parameters and channel.
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
    _ParameterStack,
    at_least_zero,
    elementwise,
    make_two_mode_st,  # not called here: perfbench/test_harness.py pins this binding in every module
    nonnegative_finite,
    require,
    two_mode_blocks,
)

_CLAMP = 1e-12


class ParameterRecoveryError(ArithmeticError):
    """Raised when the block entries of the recovered parameters miss the evolved ones."""


@dataclass(frozen=True)
class LossChannel(_ParameterStack):
    """Loss channel with damping gamma >= 0 and transmissivity eta = exp(-gamma), or a stack.

    Both fields are stored, floats for one channel or arrays of one shape for
    a stack; gamma is canonical and every pair is checked for consistency.
    Build instances with `from_gamma` or `from_eta`, which take floats or
    arrays and compute the other field with numpy's exp or log, so an
    element has the same bits alone and in a stack.
    """

    gamma: float
    eta: float

    def _validate(self) -> None:
        require(nonnegative_finite(self.gamma), "damping must be a finite float >= 0, got {}", self.gamma)
        require((0.0 < self.eta) & (self.eta <= 1.0), "transmissivity must be in (0, 1], got {}", self.eta)
        exp = elementwise(np.exp, -self.gamma)
        require(abs(self.eta - exp) <= 1e-14, "inconsistent pair: eta={!r} but exp(-gamma)={!r}", self.eta, exp)

    @classmethod
    def from_gamma(cls, gamma) -> "LossChannel":
        gamma = np.asarray(gamma, dtype=float)
        return cls(gamma=gamma, eta=elementwise(np.exp, -gamma))

    @classmethod
    def from_eta(cls, eta) -> "LossChannel":
        eta = np.asarray(eta, dtype=float)
        require((0.0 < eta) & (eta <= 1.0), "transmissivity must be in (0, 1], got {}", eta)
        return cls(gamma=-elementwise(np.log, eta) + 0.0, eta=eta)  # + 0.0: eta = 1 gives +0.0, not -0.0


def evolve_single(cm: CovarianceMatrix, ch: LossChannel) -> CovarianceMatrix:
    """sigma -> eta sigma + (1 - eta) sigma_vac for a one-mode CM (or stack), through one channel."""
    if cm.n != 1:
        raise ValueError(f"expected a one-mode CM, got {cm.n} modes")
    return CovarianceMatrix(ch.eta * cm.mat + (1.0 - ch.eta) * VACUUM_NOISE * np.eye(2))


def evolve_two(cm: CovarianceMatrix, ch: LossChannel) -> CovarianceMatrix:
    """Send mode 1 of a two-mode CM (or stack) through one channel, keep mode 2 intact.

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


def _row(p, ch: LossChannel, k: int) -> str:
    # row k of the broadcast of the states and the channels
    shape = np.broadcast_shapes(p.shape, ch.shape)
    p_k, ch_k = (x._of([np.broadcast_to(v, shape) for v in x.fields()]).row(k) for x in (p, ch))
    return f" for {p_k} through {ch_k}" + (f" (row {k})" if shape else "")


def _clamped(x, what: str, p, ch: LossChannel):
    """max(x, 0) elementwise, after checking x >= -1e-12."""
    low = x < -_CLAMP
    if np.any(low):
        k = int(np.argmax(np.ravel(low)))
        where = _row(p, ch, k) if np.ndim(x) else ""
        raise ArithmeticError(f"{what} came out negative: {np.ravel(x)[k]:.3e}{where}")
    return at_least_zero(x)


def evolved_blocks(p: SqueezedThermalParamsTwo, ch: LossChannel):
    """Block entries (A', B', C') of the evolved two-mode state, per row.

    evolve_two in closed form on the entries of two_mode_blocks:
    A' = eta A + (1 - eta), B' = B, C' = sqrt(eta) C.  The operations are
    those of evolve_two on make_two_mode_st(p) up to exact factors of 2, so
    the entries agree bit for bit.  C' is formed from C / 2, as evolve_two
    forms it: halving a subnormal C rounds, so sqrt(eta) C / 2 would differ
    in the last bit (r = 1.1e-308).
    """
    eta = ch.eta
    a, b, c = two_mode_blocks(p)
    return eta * a + (1.0 - eta), b, 2.0 * (0.5 * c * np.sqrt(eta))


def output_params_single(p: SqueezedThermalParamsSingle, ch: LossChannel) -> SqueezedThermalParamsSingle:
    """Squeezed thermal parameters of the evolved single-mode state(s).

    The output thermal occupation is sqrt(det sigma') - 1/2 and the output
    squeezing follows from the variance ratio, r' = (1/4) log(a'/b').
    """
    eta = ch.eta
    nu = p.n_t + VACUUM_NOISE
    a = eta * nu * elementwise(np.exp, 2 * p.r) + (1.0 - eta) * VACUUM_NOISE
    b = eta * nu * elementwise(np.exp, -2 * p.r) + (1.0 - eta) * VACUUM_NOISE
    n_out = _clamped(np.sqrt(a * b) - VACUUM_NOISE, "output thermal occupation", p, ch)
    r_out = _clamped(0.25 * elementwise(np.log, a / b), "output squeezing", p, ch)
    return SqueezedThermalParamsSingle(r=r_out, n_t=n_out)


def output_params_two(p: SqueezedThermalParamsTwo, ch: LossChannel) -> SqueezedThermalParamsTwo:
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
    eta = ch.eta
    a, b, c = evolved_blocks(p, ch)
    half_diff = 0.25 * (a - b)
    u_sq = 0.25 * (a + b) * (a + b) - c * c
    s2, c2 = (x * x for x in (elementwise(np.sinh, p.r), elementwise(np.cosh, p.r)))
    u_sq_minus_one = (
        4.0 * half_diff * half_diff
        + eta * (2.0 * p.n_t1 + 2.0 * p.n_t2 + 4.0 * p.n_t1 * p.n_t2)
        + (1.0 - eta) * (2.0 * s2 * (1.0 + p.n_t1) + 2.0 * p.n_t2 * c2)
    )
    direct = c * c <= u_sq
    u = np.where(direct, np.sqrt(np.where(1.0 > u_sq, 1.0, u_sq)), np.sqrt(1.0 + u_sq_minus_one))
    u_minus_one = np.where(direct, u - 1.0, u_sq_minus_one / (u + 1.0))
    n1 = _clamped(u_minus_one / 2.0 + half_diff, "output occupation n1", p, ch)
    n2 = _clamped(u_minus_one / 2.0 - half_diff, "output occupation n2", p, ch)
    r_out = _clamped(0.5 * elementwise(np.arcsinh, c / u), "output squeezing", p, ch)
    out = SqueezedThermalParamsTwo(r=r_out, n_t1=n1, n_t2=n2)
    # largest gap between the rebuilt CM entries and the evolved ones (half the block entries)
    gaps = [abs(x - y) for x, y in zip(two_mode_blocks(out), (a, b, c))]
    residual = np.ravel(0.5 * np.max(gaps, axis=0))
    if (residual > 1e-9).any():
        k = int(np.argmax(residual > 1e-9))
        raise ParameterRecoveryError(f"round-trip residual {residual[k]:.3e} exceeds 1e-9" + _row(p, ch, k))
    return out

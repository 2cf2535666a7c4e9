"""Probe families, energy bookkeeping, and optimal loss detection.

A probe is specified by its mean photon number N and the squeezing fraction
beta in [0, 1]: the fraction of the energy budget spent on squeezing rather
than thermal noise.  For the two-mode family an extra knob gamma in [0, 1]
splits the thermal photons between the lossy mode (gamma = 1 puts them all
there) and the protected reference mode.

The figure of merit is the Chernoff quantity Q between the input state and
its image under the loss channel; smaller Q means an easier detection.  Both
families are optimal at beta = 1, where Q collapses to the closed forms

    Q1(N, eta) = 1 / sqrt(1 + N (1 - eta^2))
    Q2(N, eta) = 4 / (2 + N (1 - sqrt(eta)))^2

and the two-mode probe wins at every N.  Against the best classical-noise
strategy the comparison flips below a critical transmissivity eta_c = x^2,
x the real root of x^3 + x^2 + x - 1: for eta > eta_c the single-mode probe
holds an advantage up to a threshold energy N_th(eta) that vanishes at eta_c
and grows roughly like 4 (eta - eta_c) just above it.

Array semantics.  q1, q2, delta_q and delta_q_gamma are elementwise over N,
beta and the two-mode split gamma, which broadcast; the channel is one
LossChannel for every row or a sequence with one per row.  All rows form
one stack: one ProbeSpec validates them, `params_from_spec` and the
channel's recovery run on arrays, and one `qcb` call serves them, whose
mixed rows share one lane-wise golden section over s.  Scalar rows give a
float, and a row gives the same bits alone and in any batch, so a caller
may stack rows of unrelated channels and splits into one call (the CLI
makes one call per mode count per figure command).  random_sweep and
optimize_beta's 101-point grid are one batch each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import LossChannel, output_params_single, output_params_two
from .chernoff import DiscriminationReport, minimize_scalar_golden, qcb
from .gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    float_or_array,
    libm,
    nonnegative_finite,
    require,
)

N_MAX_THRESHOLD = 1.0e3
BETA_TOL = 1e-6
_THRESHOLD_TOL = 1e-8


class ThresholdSearchError(ArithmeticError):
    """Raised when the threshold energy exceeds the search ceiling."""


@dataclass(frozen=True)
class ProbeSpec:
    """Probe family selector: mode count, energy N, squeezing fraction beta.

    gamma (two-mode only) is the share of thermal photons placed in the lossy
    mode; it defaults to 1, which is the optimal split.  n, beta and gamma
    may be arrays (one probe per element, broadcast); validation names the
    first offending value.
    """

    modes: int
    n: float
    beta: float
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {self.modes}")
        require(nonnegative_finite(self.n), "mean photon number must be a finite float >= 0, got {}", self.n)
        require(_unit(self.beta), "squeezing fraction must be in [0, 1], got {}", self.beta)
        if self.modes == 1:
            if self.gamma is not None:
                raise ValueError("gamma only applies to two-mode probes")
        elif self.gamma is None:
            object.__setattr__(self, "gamma", 1.0)
        else:
            require(_unit(self.gamma), "thermal split must be in [0, 1], got {}", self.gamma)


def _unit(x):
    return 0.0 <= x <= 1.0 if isinstance(x, float) else (0.0 <= np.asarray(x)) & (np.asarray(x) <= 1.0)


def params_from_spec(spec: ProbeSpec) -> SqueezedThermalParamsSingle | SqueezedThermalParamsTwo:
    """State parameters meeting a ProbeSpec's energy budget exactly, per probe.

    Single mode: n_s = beta N squeezing photons, with the thermal occupation
    chosen so the total mean photon number n_s + n_t (1 + 2 n_s) equals N.
    Two modes: n_s = beta N / 2 per the squeezer, thermal pool
    (1 - beta) N / (1 + beta N) split by gamma.
    """
    n, beta = spec.n, spec.beta
    squeezing = lambda n_s: math.asinh(math.sqrt(n_s))  # noqa: E731
    if spec.modes == 1:
        n_s = beta * n
        n_t = (1.0 - beta) * n / (1.0 + 2.0 * beta * n)
        return SqueezedThermalParamsSingle(r=libm(squeezing, n_s), n_t=n_t)
    n_s = 0.5 * beta * n
    pool = (1.0 - beta) * n / (1.0 + beta * n)
    return SqueezedThermalParamsTwo(r=libm(squeezing, n_s), n_t1=spec.gamma * pool, n_t2=(1.0 - spec.gamma) * pool)


def _pair(spec: ProbeSpec, ch: LossChannel | Sequence[LossChannel]) -> tuple:
    """(input, output) parameters of probes sent through the channel(s)."""
    p_in = params_from_spec(spec)
    recover = output_params_single if spec.modes == 1 else output_params_two
    return p_in, recover(p_in, ch)


def discriminate(spec: ProbeSpec, ch: LossChannel, copies: int = 1) -> DiscriminationReport:
    """Chernoff report for a probe against its lossy image."""
    return qcb(*_pair(spec, ch), copies=copies)


def _q_rows(modes: int, n, beta, gamma, ch: LossChannel | Sequence[LossChannel]):
    """Q of every row of (N, beta, gamma) against its channel, from one qcb call.

    n, beta and gamma (None for one mode) broadcast; ch is one channel for
    every row or a sequence of one per row.  The rows are one stack: one
    ProbeSpec validates them all.  Scalar rows give a float.
    """
    one = isinstance(ch, LossChannel)
    chs = [ch] if one else list(ch)
    n, beta, gamma_rows, which = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (n, beta, 1.0 if gamma is None else gamma)),
        0 if one else np.arange(len(chs)))
    spec = ProbeSpec(modes=modes, n=float_or_array(n), beta=float_or_array(beta),
                     gamma=None if gamma is None else float_or_array(gamma_rows))
    return qcb(*_pair(spec, ch if one else [chs[k] for k in which.ravel().tolist()])).q


def q1(n, beta, ch):
    """Q for single-mode probes (N, beta) against the channel, elementwise."""
    return _q_rows(1, n, beta, None, ch)


def q2(n, beta, gamma, ch):
    """Q for two-mode probes (N, beta, gamma) against the channel, elementwise."""
    return _q_rows(2, n, beta, gamma, ch)


def q1_analytic(n: float, eta: float) -> float:
    """Optimal (beta = 1) single-mode Q: 1 / sqrt(1 + N (1 - eta^2))."""
    if n < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    return 1.0 / math.sqrt(1.0 + n * (1.0 - eta * eta))


def q2_analytic(n: float, eta: float) -> float:
    """Optimal (beta = 1, gamma irrelevant) two-mode Q: 4 / (2 + N (1 - sqrt(eta)))^2."""
    if n < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    return 4.0 / (2.0 + n * (1.0 - math.sqrt(eta))) ** 2


def delta_q(n, beta, ch):
    """Q1(N, beta) - Q2(N, beta, 1), elementwise: positive where the two-mode probe wins."""
    return q1(n, beta, ch) - q2(n, beta, 1.0, ch)


def delta_q_gamma(n, beta, gamma, ch):
    """Q1(N, beta) - Q2(N, beta, gamma) for an arbitrary thermal split, elementwise."""
    return q1(n, beta, ch) - q2(n, beta, gamma, ch)


def optimize_beta(
    n: float,
    ch: LossChannel,
    modes: int,
    gamma: float | None = None,
) -> tuple[float, float]:
    """Best squeezing fraction for a fixed energy budget.

    Grid search over 101 values of beta, evaluated as one batch, refined by
    golden section to 1e-6.  For two-mode probes gamma defaults to the optimal split 1; passing an
    explicit gamma optimizes beta at that split.  Returns (beta_star, q_star).
    """
    if modes == 1:
        objective = lambda b: q1(n, b, ch)  # noqa: E731
    elif modes == 2:
        g = 1.0 if gamma is None else gamma
        objective = lambda b: q2(n, b, g, ch)  # noqa: E731
    else:
        raise ValueError(f"modes must be 1 or 2, got {modes}")
    beta_star, q_star = minimize_scalar_golden(
        objective, 0.0, 1.0, BETA_TOL, grid_points=101
    )
    return beta_star, q_star


def critical_transmissivity() -> tuple[float, float]:
    """(eta_c, Gamma_c): below eta_c the classical probe never wins.

    eta_c = x^2 with x the real root of x^3 + x^2 + x - 1, polished by Newton
    to machine precision, and Gamma_c = -log(eta_c).
    """
    roots = np.roots([1.0, 1.0, 1.0, -1.0])
    x = float(roots[np.isclose(roots.imag, 0.0)].real[0])
    for _ in range(6):
        x -= (x**3 + x**2 + x - 1.0) / (3.0 * x**2 + 2.0 * x + 1.0)
    eta_c = x * x
    return eta_c, -math.log(eta_c)


def cubic_residual() -> float:
    """|x^3 + x^2 + x - 1| at x = sqrt(eta_c)."""
    x = math.sqrt(critical_transmissivity()[0])
    return abs(x**3 + x**2 + x - 1.0)


def threshold_energy(eta: float) -> float:
    """Energy N_th below which the single-mode probe beats the two-mode one.

    Solves Q1(N, eta) = Q2(N, eta) for the nontrivial root.  Clearing the
    quartic of its trivial N = 0 root leaves

        psi(N) = b^4 N^3 + 8 b^3 N^2 + 24 b^2 N + 16 (2 b - a) = 0

    with a = 1 - eta^2, b = 1 - sqrt(eta): monotone increasing in N, negative
    at 0 exactly when eta > eta_c, so bisection is immune to the degeneracy
    of the original equation at N = 0.  Returns 0 at or below eta_c; raises
    ThresholdSearchError when the root exceeds 1e3 (it diverges as eta -> 1).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"transmissivity must be in (0, 1), got {eta}")
    a = 1.0 - eta * eta
    b = 1.0 - math.sqrt(eta)

    def psi(n: float) -> float:
        return b**4 * n**3 + 8.0 * b**3 * n**2 + 24.0 * b**2 * n + 16.0 * (2.0 * b - a)

    if psi(0.0) >= 0.0:
        return 0.0
    hi = 1.0
    while psi(hi) < 0.0:
        hi *= 2.0
        if hi > N_MAX_THRESHOLD:
            raise ThresholdSearchError(
                f"threshold energy exceeds {N_MAX_THRESHOLD:g} at eta = {eta}"
            )
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > _THRESHOLD_TOL:
        mid = (lo + hi) / 2.0
        if psi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def threshold_fit_near_critical(
    window: float = 0.05, points: int = 50
) -> tuple[float, float, float]:
    """Least-squares fit N_th(eta) ~ c1 x + c2 x^2, x = eta - eta_c.

    Fitted over `points` evenly spaced eta in [eta_c, eta_c + window] with no
    constant term.  Returns (c1, c2, rms_residual).
    """
    eta_c, _ = critical_transmissivity()
    xs = np.linspace(0.0, window, points)
    ys = np.array([threshold_energy(eta_c + x) for x in xs])
    design = np.column_stack([xs, xs * xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - ys) ** 2)))
    return float(coef[0]), float(coef[1]), rms


@dataclass(frozen=True)
class SweepRanges:
    """Uniform sampling ranges for the random probe sweep."""

    n_max: float = 5.0
    gamma_ch_max: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.n_max < math.inf and 0.0 < self.gamma_ch_max < math.inf):
            raise ValueError("sweep ranges must be finite and positive")


def random_probes(
    count: int,
    seed: int,
    stream: int = 0,
    ranges: SweepRanges = SweepRanges(),
) -> list[tuple[float, float, float]]:
    """(N, beta, Gamma) draws, uniform on (0, n_max] x [0, 1) x (0, gamma_ch_max].

    Draw k comes from its own counter-based generator, Philox keyed by seed
    at counter (0, stream, 0, k), so it is the same bit for bit however many
    draws are taken; distinct streams give independent draws for one seed.
    """
    out = []
    for k in range(count):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, stream, 0, k]))
        u0, u1, u2 = rng.uniform(size=3).tolist()
        out.append((ranges.n_max * (1.0 - u0), u1, ranges.gamma_ch_max * (1.0 - u2)))
    return out


@dataclass(frozen=True)
class SweepRecord:
    n: float
    beta: float
    gamma_ch: float
    gamma: float
    delta_q: float


def random_sweep(
    sample_count: int,
    gamma: float,
    seed: int,
    ranges: SweepRanges = SweepRanges(),
) -> list[SweepRecord]:
    """Sampled Q1 - Q2 gaps at a fixed thermal split gamma.

    The points are random_probes(sample_count, seed, ranges=ranges), so the
    records are reproducible bit for bit and independent of evaluation order.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"thermal split must be in [0, 1], got {gamma}")
    draws = random_probes(sample_count, seed, ranges=ranges)
    n, beta, g_ch = (np.array(col) for col in zip(*draws))
    gaps = delta_q_gamma(n, beta, gamma, [LossChannel.from_gamma(g) for g in g_ch.tolist()])
    return [
        SweepRecord(n=n, beta=beta, gamma_ch=g_ch, gamma=gamma, delta_q=gap)
        for (n, beta, g_ch), gap in zip(draws, gaps.tolist())
    ]

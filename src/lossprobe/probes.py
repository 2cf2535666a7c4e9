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
and grows roughly like 4 (eta - eta_c) just above it.  One monotone Newton
iteration on an increasing convex cubic gives eta_c, and N_th per eta.

Array semantics.  q1, q2, delta_q and delta_q_gamma are elementwise over N,
beta, the two-mode split gamma and the channel, a LossChannel or a stack
of them, which all broadcast.  All rows form one stack: one ProbeSpec
validates them, `params_from_spec` and the channel's recovery run on
arrays, and one Chernoff call serves them, whose mixed rows form one lane
stack with a lane-wise golden section over s per block of lanes, for both
mode counts in delta_q and delta_q_gamma.  A single row is a one-lane stack that gives a float, with
the same bits as in any batch, so a caller may stack rows of unrelated
channels and splits into one call, as the CLI's figures do.  random_probes
and random_sweep return columns, one float64 array per quantity, and
random_sweep is one batch; optimize_beta runs one lane-wise golden section
over beta for all its lanes, each step one batch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import LossChannel, output_params_single, output_params_two
from .chernoff import DiscriminationReport, _qcb_pairs, minimize_scalar_golden, qcb
from .gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    elementwise,
    float_or_array,
    nonnegative_finite,
    require,
)

N_MAX_THRESHOLD = 1.0e3
BETA_TOL = 1e-6
FIT_WINDOW = 0.05  # the threshold fit's eta range above eta_c
FIT_POINTS = 50


class ThresholdSearchError(ArithmeticError):
    """Raised when a threshold energy exceeds N_MAX_THRESHOLD."""


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
    return (0.0 <= np.asarray(x)) & (np.asarray(x) <= 1.0)


def params_from_spec(spec: ProbeSpec) -> SqueezedThermalParamsSingle | SqueezedThermalParamsTwo:
    """State parameters meeting a ProbeSpec's energy budget exactly, per probe.

    Single mode: n_s = beta N squeezing photons, with the thermal occupation
    chosen so the total mean photon number n_s + n_t (1 + 2 n_s) equals N.
    Two modes: n_s = beta N / 2 per the squeezer, thermal pool
    (1 - beta) N / (1 + beta N) split by gamma.
    """
    n, beta = spec.n, spec.beta
    if spec.modes == 1:
        n_s = beta * n
        n_t = (1.0 - beta) * n / (1.0 + 2.0 * beta * n)
        return SqueezedThermalParamsSingle(r=elementwise(np.arcsinh, np.sqrt(n_s)), n_t=n_t)
    n_s = 0.5 * beta * n
    pool = (1.0 - beta) * n / (1.0 + beta * n)
    return SqueezedThermalParamsTwo(r=elementwise(np.arcsinh, np.sqrt(n_s)), n_t1=spec.gamma * pool,
                                    n_t2=(1.0 - spec.gamma) * pool)


def _pair(spec: ProbeSpec, ch: LossChannel) -> tuple:
    """(input, output) parameters of probes sent through the channel(s)."""
    p_in = params_from_spec(spec)
    recover = output_params_single if spec.modes == 1 else output_params_two
    return p_in, recover(p_in, ch)


def discriminate(spec: ProbeSpec, ch: LossChannel, copies: int = 1) -> DiscriminationReport:
    """Chernoff report for a probe against its lossy image."""
    return qcb(*_pair(spec, ch), copies=copies)


def _rows(modes: int, n, beta, gamma, ch: LossChannel) -> tuple:
    """(input, output) parameters of every row of (N, beta, gamma) through its channel.

    n, beta, gamma (None for one mode) and the channel's fields broadcast.
    The rows are one stack: one ProbeSpec validates them all, and the
    channel, validated when built, is broadcast without a second check.
    Scalar rows give one state each.
    """
    n, beta, gamma_rows, *ch_rows = (float_or_array(x) for x in np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (n, beta, 1.0 if gamma is None else gamma, *ch.fields()))))
    spec = ProbeSpec(modes=modes, n=n, beta=beta, gamma=None if gamma is None else gamma_rows)
    return _pair(spec, LossChannel._of(ch_rows))


def q1(n, beta, ch):
    """Q for single-mode probes (N, beta) against the channel, elementwise, from one Chernoff call."""
    return _qcb_pairs([_rows(1, n, beta, None, ch)])[0][0]


def q2(n, beta, gamma, ch):
    """Q for two-mode probes (N, beta, gamma) against the channel, elementwise, from one Chernoff call."""
    return _qcb_pairs([_rows(2, n, beta, gamma, ch)])[0][0]


def _require_closed_form_domain(n, eta) -> None:
    require(np.logical_not(n < 0), "mean photon number must be >= 0, got {}", n)  # a NaN N passes, as n < 0 lets it
    require((0.0 < eta) & (eta <= 1.0), "transmissivity must be in (0, 1], got {}", eta)


def q1_analytic(n, eta):
    """Optimal (beta = 1) single-mode Q, elementwise: 1 / sqrt(1 + N (1 - eta^2))."""
    _require_closed_form_domain(n, eta)
    return float_or_array(1.0 / np.sqrt(1.0 + n * (1.0 - eta * eta)))


def q2_analytic(n, eta):
    """Optimal (beta = 1, gamma irrelevant) two-mode Q, elementwise: 4 / (2 + N (1 - sqrt(eta)))^2."""
    _require_closed_form_domain(n, eta)
    d = 2.0 + n * (1.0 - np.sqrt(eta))
    return float_or_array(4.0 / (d * d))  # d * d, as numpy squares an array: a float's ** 2 is libm's pow


def delta_q(n, beta, ch):
    """Q1(N, beta) - Q2(N, beta, 1), elementwise: positive where the two-mode probe wins."""
    return delta_q_gamma(n, beta, 1.0, ch)


def delta_q_gamma(n, beta, gamma, ch):
    """Q1(N, beta) - Q2(N, beta, gamma) for an arbitrary thermal split, elementwise, from one Chernoff call.

    Q1's rows broadcast over N, beta and the channel only, not over the splits.
    """
    (one, _, _), (two, _, _) = _qcb_pairs([_rows(1, n, beta, None, ch), _rows(2, n, beta, gamma, ch)])
    return one - two


def optimize_beta(n, ch: LossChannel, modes: int, gamma=None) -> tuple:
    """Best squeezing fraction for a fixed energy budget, in every lane at once.

    n, the channel's fields and (two modes) gamma broadcast to lanes.  Grid
    search over 101 values of beta, refined by golden section to 1e-6, all
    lanes in one `minimize_scalar_golden` call: each call of Q serves every
    lane, and a lane takes the steps it would take alone.  For two-mode
    probes gamma defaults to the optimal split 1; passing an explicit gamma
    optimizes beta at that split; one-mode probes take none.  Returns
    (beta_star, q_star): floats for scalar inputs, else lane-shaped arrays.
    """
    if modes not in (1, 2):
        raise ValueError(f"modes must be 1 or 2, got {modes}")
    require(modes == 2 or gamma is None, "gamma only applies to two-mode probes")
    split = None if modes == 1 else 1.0 if gamma is None else gamma
    lanes = np.broadcast_shapes(np.shape(n), ch.shape, np.shape(split))
    objective = lambda b: _qcb_pairs([_rows(modes, n, b, split, ch)])[0][0]  # noqa: E731
    return minimize_scalar_golden(objective, np.zeros(lanes), 1.0, BETA_TOL, grid_points=101)


def _newton_down(c3, c2, c1, c0, x):
    """Root below x of the cubic ((c3 x + c2) x + c1) x + c0, increasing and convex above it.

    Newton lowers x onto the root with no safeguard.  A lane stops when a
    step no longer lowers it, held there by np.where: it takes its own steps.
    """
    while True:
        lower = x - (((c3 * x + c2) * x + c1) * x + c0) / ((3.0 * c3 * x + 2.0 * c2) * x + c1)
        if not (down := lower < x).any():
            return x
        x = np.where(down, lower, x)


def critical_transmissivity() -> tuple[float, float]:
    """(eta_c, Gamma_c): below eta_c the classical probe never wins.

    eta_c = x^2 with x the real root of x^3 + x^2 + x - 1 (increasing and
    convex on x >= 0), by Newton from x = 1, and Gamma_c = -log(eta_c).
    """
    x = float(_newton_down(1.0, 1.0, 1.0, -1.0, np.asarray(1.0)))
    eta_c = x * x
    return eta_c, -math.log(eta_c)


def cubic_residual() -> float:
    """|x^3 + x^2 + x - 1| at x = sqrt(eta_c)."""
    x = math.sqrt(critical_transmissivity()[0])
    return abs(x**3 + x**2 + x - 1.0)


def threshold_energy(eta):
    """Energy N_th below which the single-mode probe beats the two-mode one, elementwise.

    Q1(N, eta) = Q2(N, eta), cleared of its trivial root N = 0, reads in
    u = (1 - x) N, with x = sqrt(eta),

        u^3 + 8 u^2 + 24 u = 16 (x^3 + x^2 + x - 1).

    The left side is increasing and convex on u >= 0 and the right positive
    exactly when eta > eta_c, so Newton from the least one-term upper bound
    falls onto the root, one lane per eta, and N = u (1 + x) / (1 - eta).
    Returns 0 at or below eta_c, a float for a float eta; raises
    ThresholdSearchError, naming the first such eta, when a root exceeds
    1e3 (it diverges as eta -> 1).
    """
    eta = np.asarray(eta, dtype=float)
    require((0.0 < eta) & (eta < 1.0), "transmissivity must be in (0, 1), got {}", eta)
    x = np.sqrt(eta)
    c = 16.0 * np.maximum(((x + 1.0) * x + 1.0) * x - 1.0, 0.0)  # lanes at or below eta_c stay at u = 0
    u = _newton_down(1.0, 8.0, 24.0, -c, np.minimum(np.minimum(c / 24.0, np.sqrt(c / 8.0)), np.cbrt(c)))
    n = u * (1.0 + x) / (1.0 - eta)
    if (over := n > N_MAX_THRESHOLD).any():
        raise ThresholdSearchError(f"threshold energy exceeds {N_MAX_THRESHOLD:g} at eta = {eta.ravel()[over.argmax()]}")
    return float_or_array(n)


def threshold_fit_near_critical() -> tuple[float, float, float]:
    """Least-squares fit N_th(eta) ~ c1 x + c2 x^2, x = eta - eta_c.

    Fitted over FIT_POINTS evenly spaced eta in [eta_c, eta_c + FIT_WINDOW]
    with no constant term.  Returns (c1, c2, rms_residual).
    """
    eta_c, _ = critical_transmissivity()
    xs = np.linspace(0.0, FIT_WINDOW, FIT_POINTS)
    ys = threshold_energy(eta_c + xs)
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


_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)  # each round's multipliers
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)  # the key's step per round
_ROUND_STEPS = np.arange(10, dtype=np.uint64)[:, None, None] * _PHILOX_W  # round r's key: the key plus row r, mod 2^64
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M0, _M1 = _PHILOX_M & _LOW32, _PHILOX_M >> _32


def _mulhilo(b):
    """(high, low) 64-bit words of the 128-bit products _PHILOX_M * b of uint64 arrays, from 32-bit halves."""
    b0, b1 = b & _LOW32, b >> _32
    cross = _M1 * b0 + ((_M0 * b0) >> _32)  # each sum is below 2^64
    mid = _M0 * b1 + (cross & _LOW32)
    return _M1 * b1 + (cross >> _32) + (mid >> _32), _PHILOX_M * b  # array products wrap mod 2^64, silently


def _philox4x64(seed: int, stream: int, count: int) -> np.ndarray:
    """Words 0 to 2 of Philox4x64-10 at the counters (1, stream, 0, k), k < count, one column per k.

    The 128-bit key is (seed mod 2^64, seed >> 64).  The counter is held as
    the multiplied words x = (v0, v2) and the others y = (v1, v3), so both
    products of a round are one (2, count) array.  Every product and sum
    is of uint64 arrays, which wrap mod 2^64 silently: no uint64 scalar wraps.
    """
    k = np.arange(count, dtype=np.uint64)
    x, y = np.stack((np.ones_like(k), np.zeros_like(k))), np.stack((np.full_like(k, stream), k))
    for round_key in np.array([[seed & (2**64 - 1)], [seed >> 64]], dtype=np.uint64) + _ROUND_STEPS:
        hi, lo = _mulhilo(x)
        x, y = hi[::-1] ^ y ^ round_key, lo[::-1]
    return np.stack((x[0], y[0], x[1]))


def random_probes(
    count: int,
    seed: int,
    stream: int = 0,
    ranges: SweepRanges = SweepRanges(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, beta, Gamma) draws as float64 columns, uniform on (0, n_max] x [0, 1) x (0, gamma_ch_max].

    Draw k is Philox4x64-10 keyed by seed at its own counter (1, stream, 0,
    k), the block numpy's `Philox(key=seed, counter=[0, stream, 0, k])`
    gives first, since numpy steps the counter before it fills its empty
    buffer.  Philox is a pure function of key and counter, so all draws are
    computed at once as uint64 array arithmetic, and draw k is the same bit
    for bit however many draws are taken; distinct streams give independent
    draws for one seed.  The top 53 bits of each draw's first three words,
    times 2^-53, are the doubles of `Generator.uniform`.
    """
    seed, stream = operator.index(seed), operator.index(stream)
    require(0 <= seed < 2**128, "seed must be an integer in [0, 2^128), got {}", seed)
    require(0 <= stream < 2**64, "stream must be an integer in [0, 2^64), got {}", stream)
    require(count >= 0, "draw count must be >= 0, got {}", count)
    words = _philox4x64(seed, stream, count)
    u = (words >> np.uint64(11)) * 2.0**-53  # one contiguous row per column
    return ranges.n_max * (1.0 - u[0]), u[1], ranges.gamma_ch_max * (1.0 - u[2])


def random_sweep(
    sample_count: int,
    gamma: float,
    seed: int,
    ranges: SweepRanges = SweepRanges(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sampled Q1 - Q2 gaps at a fixed thermal split gamma: the columns (N, beta, Gamma, deltaQ_gamma).

    The points are random_probes(sample_count, seed, ranges=ranges), so the
    columns are reproducible bit for bit and independent of evaluation order.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"thermal split must be in [0, 1], got {gamma}")
    n, beta, g_ch = random_probes(sample_count, seed, ranges=ranges)
    return n, beta, g_ch, delta_q_gamma(n, beta, gamma, LossChannel.from_gamma(g_ch))

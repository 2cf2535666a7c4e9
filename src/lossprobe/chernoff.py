"""Quantum Chernoff bound for pairs of squeezed thermal states.

For M copies the discrimination error of the optimal collective measurement
obeys P_e <= Q^M / 2 with Q = inf_s Tr[rho_A^s rho_B^(1-s)].  For Gaussian
states Q_s has a closed form built from the functions

    G_s(x) = 1 / ((x + 1)^s - x^s),      Lambda_s(x) = x^s G_s(x),

evaluated on the thermal occupations: Q_s = Pi_s / sqrt(det Sigma_s), where
Pi_s multiplies G_s(n_k) G_(1-s)(n'_k) over modes and Sigma_s adds the two
squeezed "weight" matrices with Lambda replacing the occupations,

    Sigma_s = S W[Lambda_s(n)] S^T + S' W[Lambda_(1-s)(n')] S'^T,

with W(x) = (x + 1/2) I2 per mode in the vacuum = 1/2 normalization used
throughout.  The identity Lambda_s(t) + Lambda_(1-s)(t) + 1 =
G_s(t) G_(1-s)(t) makes Q_s = 1 for identical states.  The overlap
Tr[rho_A rho_B] = 1 / sqrt(det(sigma_A + sigma_B)) is the same quotient with
weights w = n_t + 1/2 and numerator 1, so one determinant per mode count
(`_q_single`, `_q_two`) serves both, from the weights of each state and
s-free factors of the pair:

  * One mode: S(r) = diag(e^r, e^-r), so

        det = (w_a e^2r_a + w_b e^2r_b)(w_a e^-2r_a + w_b e^-2r_b).

  * Two modes: two-mode squeezers commute and have unit determinant, so
    S(-r_a) keeps the determinant and maps a's matrix to diag(w_a1, w_a1,
    w_a2, w_a2) and b's to the squeezed block matrix [[x I2, z Z], [z Z,
    y I2]] (Z = diag(1, -1)) of squeezing D = r_b - r_a, with x = w_b1
    cosh^2 D + w_b2 sinh^2 D, y = w_b1 sinh^2 D + w_b2 cosh^2 D and
    x y - z^2 = w_b1 w_b2.  Then det = ((w_a1 + x)(w_a2 + y) - z^2)^2 = S^2
    with

        S = w_a1 w_a2 + w_b1 w_b2 + cosh^2 D (w_a1 w_b2 + w_a2 w_b1)
            + sinh^2 D (w_a1 w_b1 + w_a2 w_b2).

Both are sums and products of positive terms, so nothing cancels.  The
difference x y - z^2 of the summed blocks of both states cancels between
terms of order N^2 times the smaller weight (Q = 0.688, not 1, for a
two-mode state against itself at N = 3e5), and the LU determinant of the
summed matrices misses the overlap by up to 2e-9 on pure probes up to
N = 1e6.

Array semantics.  q_s_single and q_s_two are elementwise and broadcast,
and a scalar input gives a float.  States enter as parameters (one state
or a stack, see `gaussian`) or as the lanes of `stack_pair`.  `qcb` takes
two states or two stacks of one mode count whose shapes broadcast: its
pure lanes take the overlap straight from the parameters (`_overlap`, no
covariance matrix), and its mixed lanes share one lane-wise golden
section (`minimize_scalar_golden`), one call of Q_s per step, each lane
freezing once its own bracket is at most S_TOL.  A single probe is a
one-lane stack, so a lane's q and s* are the same bits alone and in a
stack, and a one-state call returns floats, converted at the return.  The
powers and the other transcendentals come from numpy's array loops, which
give a lane the same bits alone and in a stack.

Q_s is convex in s (Audenaert et al., PRL 98, 160501, 2007), so the grid
seeded golden section finds its infimum.  When one of the states is pure
(an occupation of exactly zero in every mode) the infimum sits at the
boundary of s and collapses to the state overlap, which doubles as the
fidelity.  The switch is exact: Q is continuous in the occupations but
approaches the pure value only like 1 / |ln n_t|, so any tolerance on n_t
would make a jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    VACUUM_NOISE,
    at_least_zero,
    elementwise,
    float_or_array,
    make_two_mode_st,  # not called here: perfbench/test_harness.py pins this binding in every module
    require,
)

S_EPS = 1e-6
S_TOL = 1e-10
_GRID_POINTS = 21
_GRID_CHUNK = 2**16  # lane-points per call of f on the seeding grid: bounds its temporaries
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

Params = SqueezedThermalParamsSingle | SqueezedThermalParamsTwo


def _exponent(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    require((0.0 < s) & (s < 1.0), "exponent must be in (0, 1), got {}", s)
    return s


def _g_lambda(xs, us):
    """(G_s(x), Lambda_s(x)) from the powers xs = x^s and us = (x + 1)^s."""
    g = 1.0 / (us - xs)
    return g, xs * g


class PairLanes(NamedTuple):
    """Pairs of squeezed thermal states of one mode count, one pair per lane.

    `bases_a` and `bases_b` hold each state's occupations, then the
    occupations plus one, on the first axis (the lanes follow), so its powers
    come from one call.  `factors` are the pair's s-free factors of the
    determinant, (e^2r_a, e^-2r_a, e^2r_b, e^-2r_b) or (cosh^2 D, sinh^2 D),
    D = r_b - r_a, from numpy's exp, cosh and sinh (`elementwise`).
    """

    bases_a: np.ndarray
    bases_b: np.ndarray
    factors: tuple


def _factors(pa: Params, pb: Params) -> tuple:
    if isinstance(pa, SqueezedThermalParamsSingle):
        return tuple(elementwise(np.exp, k * p.r) for p in (pa, pb) for k in (2.0, -2.0))
    d = pb.r - pa.r
    return tuple(x * x for x in (elementwise(np.cosh, d), elementwise(np.sinh, d)))


def stack_pair(pa: Params, pb: Params) -> PairLanes:
    """Lanes of one pair (0-d lanes, plain float factors) or of two stacks whose shapes broadcast."""
    bases = (list(p.fields()[1:]) for p in (pa, pb))
    return PairLanes(*(np.array(b + [n + 1.0 for n in b], dtype=float) for b in bases), _factors(pa, pb))


def _q_single(g, wa, wb, factors):
    """g / sqrt(det) of a one-mode pair with weights wa and wb; see the module docstring."""
    up_a, down_a, up_b, down_b = factors
    return g / np.sqrt((wa * up_a + wb * up_b) * (wa * down_a + wb * down_b))


def _q_two(g, wa1, wa2, wb1, wb2, factors):
    """g / sqrt(det) of a two-mode pair with weights wa1, wa2, wb1 and wb2; see the module docstring."""
    c2, s2 = factors
    return g / (wa1 * wa2 + wb1 * wb2 + c2 * (wa1 * wb2 + wa2 * wb1) + s2 * (wa1 * wb1 + wa2 * wb2))


def _powers(bases: np.ndarray, s: np.ndarray) -> np.ndarray:
    """bases ** s from numpy's array loop, the base index first, the lanes broadcast against s."""
    extra = s.ndim - (bases.ndim - 1)
    if extra > 0:
        bases = bases.reshape(bases.shape[:1] + (1,) * extra + bases.shape[1:])
    return bases**s


def minimize_scalar_golden(f, lo, hi, tol: float, grid_points: int = _GRID_POINTS):
    """Golden-section minimum of f on [lo, hi] in every lane at once.

    lo and hi are floats or arrays, one entry per lane.  f maps an array of
    abscissae, the lanes on its last axes, to an array of values of the same
    shape.  A grid of `grid_points`, evaluated in groups of points with at
    most 2^16 lane-points per call of f, locates the best bracket; golden
    section tightens it to width tol with one call of f per step for all
    lanes; the bracket midpoint is then compared with the two endpoints
    explicitly, so a boundary minimum is never missed.  A lane freezes once
    its bracket is at most tol, so each lane takes exactly the steps it would
    take alone.  Returns (argmin, min): floats for scalar lo and hi, else
    arrays.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    k = np.arange(grid_points).reshape((-1,) + (1,) * lo.ndim)
    xs = lo + (hi - lo) * k / (grid_points - 1)
    step = max(1, _GRID_CHUNK // max(lo.size, 1))
    fs = np.concatenate([f(xs[i : i + step]) for i in range(0, grid_points, step)])
    best = np.argmin(fs, axis=0)[None]
    a = np.take_along_axis(xs, np.maximum(best - 1, 0), 0)[0]
    b = np.take_along_axis(xs, np.minimum(best + 1, grid_points - 1), 0)[0]

    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    active = b - a > tol
    while active.any():
        left = f1 <= f2
        # only the bracket of a frozen lane must stay; its points no longer count
        go_left = active & left
        b = np.where(go_left, x2, b)
        a = np.where(active ^ go_left, x1, a)
        x = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fx = f(x)
        x1, x2, f1, f2 = np.where(left, (x, x1, fx, f1), (x2, x, f2, fx))
        active = b - a > tol

    x = (a + b) / 2.0
    fx = f(x)
    for edge, f_edge in ((lo, fs[0]), (hi, fs[-1])):
        lower = f_edge < fx
        x, fx = np.where(lower, edge, x), np.where(lower, f_edge, fx)
    return (float(x), float(fx)) if lo.ndim == 0 else (x, fx)


def q_s_single(pa, pb, s):
    """Q_s for pairs of single-mode squeezed thermal states, elementwise.

    pa and pb are parameters whose lanes broadcast against s, or pa is the
    `PairLanes` of a pair and pb is None.
    """
    lanes = pa if pb is None else stack_pair(pa, pb)
    s = _exponent(s)
    ga, la = _g_lambda(*_powers(lanes.bases_a, s))
    gb, lb = _g_lambda(*_powers(lanes.bases_b, 1.0 - s))
    return float_or_array(_q_single(ga * gb, la + 0.5, lb + 0.5, lanes.factors))


def q_s_two(pa, pb, s):
    """Q_s for pairs of two-mode squeezed thermal states, elementwise.

    pa and pb are parameters whose lanes broadcast against s, or pa is the
    `PairLanes` of a pair and pb is None.
    """
    lanes = pa if pb is None else stack_pair(pa, pb)
    s = _exponent(s)
    xa1, xa2, ua1, ua2 = _powers(lanes.bases_a, s)
    xb1, xb2, ub1, ub2 = _powers(lanes.bases_b, 1.0 - s)
    (ga1, la1), (ga2, la2) = _g_lambda(xa1, ua1), _g_lambda(xa2, ua2)
    (gb1, lb1), (gb2, lb2) = _g_lambda(xb1, ub1), _g_lambda(xb2, ub2)
    pi_s = ga1 * ga2 * gb1 * gb2
    return float_or_array(_q_two(pi_s, la1 + 0.5, la2 + 0.5, lb1 + 0.5, lb2 + 0.5, lanes.factors))


def _overlap(pa: Params, pb: Params) -> np.ndarray:
    """Tr[rho_a rho_b] of two flat stacks: the determinant at weights n_t + 1/2, over 1."""
    q = _q_single if isinstance(pa, SqueezedThermalParamsSingle) else _q_two
    weights = [n + VACUUM_NOISE for p in (pa, pb) for n in p.fields()[1:]]
    return q(1.0, *weights, _factors(pa, pb))


@dataclass(frozen=True)
class DiscriminationReport:
    """Chernoff-bound summary for discriminating two states with M copies.

    fidelity is only available on the pure-state path (where it coincides
    with the overlap); the fidelity-based bounds are None without it.  The
    report of a stack of pairs holds arrays of the stack shape, NaN where a
    lane has no fidelity.  The error bounds are computed (`error_bounds`)
    the first time one is read, as the figure commands read only q; `qcb`
    has checked their inputs.
    """

    q: float
    s_star: float
    copies: int
    fidelity: float | None = None

    @cached_property
    def _bounds(self) -> tuple:
        return error_bounds(self.q, self.fidelity, self.copies)

    pe_lower = property(lambda self: self._bounds[0], doc="Fidelity lower bound on P_e, or None.")
    pe_upper = property(lambda self: self._bounds[1], doc="Chernoff upper bound Q^M / 2 on P_e.")
    pe_fidelity_upper = property(lambda self: self._bounds[2], doc="Fidelity upper bound on P_e, or None.")


def _require_bound_inputs(q, f, m) -> None:
    require((0.0 <= q) & (q <= 1.0 + 1e-12), "Chernoff quantity must be in [0, 1], got {}", q)
    if m < 1 or m != int(m):
        raise ValueError(f"copy count must be a positive integer, got {m}")
    if f is not None:
        ok = (0.0 <= f) & (f <= 1.0 + 1e-12)
        require(ok | np.isnan(f) if np.ndim(f) else ok, "fidelity must be in [0, 1], got {}", f)


def error_bounds(q, f, m: int):
    """(lower, Chernoff upper, fidelity upper) bounds on the M-copy error, elementwise.

    P_e >= (1 - sqrt(1 - F^M)) / 2 and P_e <= F^(M/2) / 2 need the fidelity;
    they are None when f is None (NaN where an array f is NaN).  P_e <= Q^M / 2
    always.  The lower bound is taken as F^M / (2 (1 + sqrt(1 - F^M))), which
    is the same number without the cancellation of 1 - sqrt(1 - F^M) at small
    F^M.  The powers are numpy's (`elementwise(np.power, ...)`), so a lane
    has the same bits alone and in a stack.
    """
    _require_bound_inputs(q, f, m)
    pe_upper = 0.5 * elementwise(np.power, q, m)
    if f is None:
        return None, pe_upper, None
    w = elementwise(np.power, f, m)
    pe_lower = float_or_array(w / (2.0 * (1.0 + np.sqrt(at_least_zero(1.0 - w)))))
    return pe_lower, pe_upper, 0.5 * elementwise(np.power, f, m / 2.0)


def _is_pure(p: Params) -> np.ndarray:
    # pure iff every symplectic eigenvalue n_t + 1/2 sits at the vacuum floor
    return np.all([n == 0.0 for n in p.fields()[1:]], axis=0)


def _minimize_mixed(q_s, pa: Params, pb: Params) -> tuple:
    """(q, s*) of every lane of two flat stacks of mixed states, from one golden section."""
    lanes = stack_pair(pa, pb)
    s_m, q_m = minimize_scalar_golden(lambda s: q_s(lanes, None, s), np.full(pa.shape, S_EPS), 1.0 - S_EPS, S_TOL)
    # min(q, 1.0) as Python takes it
    return np.where(1.0 < q_m, 1.0, q_m), s_m


def qcb(pa: Params, pb: Params, copies: int = 1) -> DiscriminationReport:
    """Quantum Chernoff bound between two squeezed thermal states, or two stacks.

    pa and pb are states or stacks of one mode count whose shapes broadcast;
    the report holds floats for one state, else arrays of the stack shape.
    A lane with a pure state takes the overlap: rho^s is constant in s, so
    the infimum sits at the boundary, where Q equals Tr[rho_a rho_b], which
    is also the fidelity (one state is pure) and gives the fidelity bounds.
    The pure lanes take the overlap from the parameters, with no covariance
    matrix (`_overlap`); all other lanes share one golden section over s in
    [1e-6, 1 - 1e-6] to 1e-10.  A Q or fidelity outside [0, 1] (NaN
    included) or a copy count that is not an integer raises here, though the
    report computes its error bounds only when they are read.
    """
    if copies < 1:
        raise ValueError(f"copy count must be >= 1, got {copies}")
    if type(pa) is not type(pb):
        raise TypeError(f"mode mismatch: {type(pa).__name__} vs {type(pb).__name__}")
    if type(pa) not in (SqueezedThermalParamsSingle, SqueezedThermalParamsTwo):
        raise TypeError(f"unsupported parameter type {type(pa).__name__}")
    single = type(pa) is SqueezedThermalParamsSingle
    shape = np.broadcast_shapes(pa.shape, pb.shape)
    pa, pb = (p._of([np.broadcast_to(v, shape).ravel() for v in p.fields()]) for p in (pa, pb))
    size = math.prod(shape)
    q, s_star, fid = np.empty(size), np.empty(size), np.full(size, np.nan)
    pure_a = _is_pure(pa)
    pure = pure_a | _is_pure(pb)
    if pure.any():
        q[pure] = fid[pure] = _overlap(pa.take(pure), pb.take(pure))
        s_star[pure] = np.where(pure_a[pure], 0.0, 1.0)
    if not pure.all():
        q_s = q_s_single if single else q_s_two
        q[~pure], s_star[~pure] = _minimize_mixed(q_s, pa.take(~pure), pb.take(~pure))

    q, s_star, fid = (x.reshape(shape) for x in (q, s_star, fid))
    if not shape:
        q, s_star, fid = float(q), float(s_star), None if np.isnan(fid) else float(fid)
    _require_bound_inputs(q, fid, copies)
    return DiscriminationReport(q, s_star, copies, fid)

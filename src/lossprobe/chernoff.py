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
weights w = n_t + 1/2 and numerator 1, so one sum S (`_det_sum`) serves both
quantities and both mode counts, from the weights of each state and the
s-free factor sinh^2 D of the pair, D = r_b - r_a:

        S = w_a1 w_a2 + w_b1 w_b2 + cosh^2 D (w_a1 w_b2 + w_a2 w_b1)
            + sinh^2 D (w_a1 w_b1 + w_a2 w_b2)
          = (w_a1 + w_b1)(w_a2 + w_b2) + sinh^2 D (w_a1 + w_a2)(w_b1 + w_b2),

by cosh^2 D = 1 + sinh^2 D, so Q_s = Pi_s S^(-m/2) for m modes, and the
overlap is S^(-m/2).  The factored form keeps the paper's equalities
exact: at D = 0 a one-mode S is (w_a + w_b)^2, whose square root is
w_a + w_b to the bit, and a two-mode state beside an untouched vacuum
mode (w_2 = 1/2 and G_s = 1 for both states, D = 0) has S = w_a1 + w_b1,
so its Q_s is the one-mode Q_s bit for bit.

  * Two modes: two-mode squeezers commute and have unit determinant, so
    S(-r_a) keeps the determinant and maps a's matrix to diag(w_a1, w_a1,
    w_a2, w_a2) and b's to the squeezed block matrix [[x I2, z Z], [z Z,
    y I2]] (Z = diag(1, -1)) of squeezing D, with x = w_b1 cosh^2 D + w_b2
    sinh^2 D, y = w_b1 sinh^2 D + w_b2 cosh^2 D and x y - z^2 = w_b1 w_b2.
    Then det = ((w_a1 + x)(w_a2 + y) - z^2)^2 = S^2.

  * One mode: S(r) = diag(e^r, e^-r), so det = (w_a e^2r_a + w_b
    e^2r_b)(w_a e^-2r_a + w_b e^-2r_b) = w_a^2 + w_b^2 + 2 w_a w_b cosh 2D,
    and cosh 2D = cosh^2 D + sinh^2 D makes it S at balanced weights,
    S(w_a, w_a, w_b, w_b) (Pirandola and Lloyd, PRA 78, 012331, 2008).
    A 50:50 beam splitter maps the two-mode state (r, n, n) to the
    one-mode states (r, n) and (-r, n), so a balanced two-mode pair has
    the square of its one-mode pair's Q_s.

S is a sum of products of positive terms, so nothing cancels.  The
difference x y - z^2 of the summed blocks of both states cancels between
terms of order N^2 times the smaller weight (Q = 0.688, not 1, for a
two-mode state against itself at N = 3e5), and the LU determinant of the
summed matrices misses the overlap by up to 2e-9 on pure probes up to
N = 1e6.

Array semantics.  q_s is elementwise and broadcasts, and a scalar input
gives a float; it reads the mode count from the states, so one function
serves both.  States enter as parameters (one state or a stack, see
`gaussian`) or as the lanes of `stack_pairs`, pairs of both mode counts:
the powers, G_s and Lambda_s run once over all their bases, and the
determinant tail once over all the lanes, into a lane-sized array of its
own (a one-mode lane's mode stands in for its second in S, as in
`_overlap`).  `_qcb_pairs` takes any number of pairs, each two states or
two stacks of one mode count whose shapes broadcast, and returns each
pair's lanes (q, s*, fidelity); `qcb`, its one-pair case, is the only
caller that makes a report with error bounds.  The pure lanes take the
overlap from the parameters (`_overlap`, no covariance matrix), and the
mixed lanes of all pairs form one stack, which takes a lane-wise golden
section (`minimize_scalar_golden`) per block of _BLOCK_LANES lanes, so its memory
is bounded at any size: one call of Q_s per block per step, each lane
freezing once its own bracket is at most S_TOL.  A single probe is a
one-lane stack, so a lane's q and s* are the same bits alone and in any
stack or block, and a one-state call returns floats, converted at the
return.  The powers and the other transcendentals come from numpy's array
loops, which give a lane the same bits alone and in a stack.

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
from itertools import accumulate
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
# lane-points per call of f on the seeding grid, or one grid point per call when the lanes are more: it bounds
# the grid's temporaries (Q_s raises up to 8 bases per lane-point); the grid is elementwise, so the size changes no bit
_GRID_CHUNK = 2**12
# lanes per golden section in `_qcb_pairs`: it bounds the memory of a stack of any size; a lane takes its own
# steps, so the size changes no bit
_BLOCK_LANES = 2**13
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

Params = SqueezedThermalParamsSingle | SqueezedThermalParamsTwo


def _g_lambda(xs, us):
    """(G_s(x), Lambda_s(x)) from the powers xs = x^s and us = (x + 1)^s, written over them if arrays."""
    out = (us, xs) if isinstance(us, np.ndarray) else (None, None)
    g = np.divide(1.0, np.subtract(us, xs, out=out[0]), out=out[0])
    return g, np.multiply(xs, g, out=out[1])


class PairLanes(NamedTuple):
    """Pairs of squeezed thermal states of either mode count, one pair per lane, the one-mode lanes first.

    `bases[0]` holds the occupations of each pair's state a, then of its state b, on the first axis;
    on the second, the one-mode lanes' occupations, then the two-mode lanes' first modes, then their
    second modes.  `bases[1]` holds them plus one, so all the powers of a step come from one call.
    `ones` counts the one-mode lanes.  `sinh2` is each pair's s-free factor of the determinant sum S,
    sinh^2 D with D = r_b - r_a for either mode count, from numpy's sinh (`elementwise`).
    """

    bases: np.ndarray
    sinh2: np.ndarray
    ones: int


def _sinh2(pa: Params, pb: Params):
    sinh = elementwise(np.sinh, pb.r - pa.r)
    return sinh * sinh


def _flat_pair(pa: Params, pb: Params, *shapes) -> tuple:
    """(shape, pa, pb): the pair's states of one mode count broadcast against each other and `shapes`, raveled."""
    if type(pa) is not type(pb):
        raise TypeError(f"mode mismatch: {type(pa).__name__} vs {type(pb).__name__}")
    if type(pa) not in (SqueezedThermalParamsSingle, SqueezedThermalParamsTwo):
        raise TypeError(f"unsupported parameter type {type(pa).__name__}")
    shape = np.broadcast_shapes(pa.shape, pb.shape, *shapes)
    return shape, *(p._of([np.broadcast_to(v, shape).ravel() for v in p.fields()]) for p in (pa, pb))


def stack_pairs(pairs: list) -> PairLanes:
    """The lanes of flat pairs (pa, pb) laid end to end, the one-mode pairs first."""
    occupations = [[pair[i].fields()[1:] for pair in pairs] for i in (0, 1)]
    # state a's first modes, then its second modes (of the two-mode lanes), then state b's
    n = np.concatenate([ns[mode] for state in occupations for mode in (0, 1) for ns in state if mode < len(ns)])
    n = np.stack((n, n + 1.0)).reshape(2, 2, -1)
    ones = sum(len(pa.r) for pa, _ in pairs if type(pa) is SqueezedThermalParamsSingle)
    return PairLanes(n, np.concatenate([_sinh2(pa, pb) for pa, pb in pairs]), ones)


def _det_sum(a1, a2, b1, b2, s2):
    """The determinant sum S from each mode's weights (a one-mode state's in both); see the module docstring."""
    return (a1 + b1) * (a2 + b2) + s2 * (a1 + a2) * (b1 + b2)


def minimize_scalar_golden(f, lo, hi, tol: float, grid_points: int = _GRID_POINTS):
    """Golden-section minimum of f on [lo, hi] in every lane at once.

    lo and hi are floats or arrays, one entry per lane.  f maps an array of
    abscissae, the lanes on its last axes, to an array of values of the same
    shape.  A grid of `grid_points`, evaluated in groups of points with at
    most 2^12 lane-points per call of f (one grid point per call when the
    lanes alone are more), locates the best bracket; golden section
    tightens it to width tol with one call of f per step for all lanes; the
    bracket midpoint is then compared with the two endpoints
    explicitly, so a boundary minimum is never missed.  A lane freezes once
    its bracket is at most tol, so each lane takes exactly the steps it would
    take alone.  Returns (argmin, min): floats for scalar lo and hi, else
    arrays.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    k = np.arange(grid_points).reshape((-1,) + (1,) * lo.ndim)
    step, fs = max(1, _GRID_CHUNK // max(lo.size, 1)), np.empty(k.shape[:1] + lo.shape)
    for i in range(0, grid_points, step):  # each group's abscissae in turn, never the whole grid's
        fs[i : i + step] = f(lo + (hi - lo) * k[i : i + step] / (grid_points - 1))
    best = np.argmin(fs, axis=0)
    a, b = (lo + (hi - lo) * np.clip(best + d, 0, grid_points - 1) / (grid_points - 1) for d in (-1, 1))

    width = b - a
    x1, x2 = b - _INV_GOLDEN * width, a + _INV_GOLDEN * width
    f1, f2 = f(np.stack((x1, x2)))
    active = width > tol
    while active.any():
        left = f1 <= f2
        # only the bracket of a frozen lane must stay; its points no longer count
        go_left = active & left
        b = np.where(go_left, x2, b)
        a = np.where(active ^ go_left, x1, a)
        width = b - a
        inner = _INV_GOLDEN * width
        x = np.where(left, b - inner, a + inner)
        fx = f(x)
        x1, x2, f1, f2 = np.where(left, x, x2), np.where(left, x1, x), np.where(left, fx, f2), np.where(left, f1, fx)
        active = width > tol

    x = (a + b) / 2.0
    fx = f(x)
    for edge, f_edge in ((lo, fs[0]), (hi, fs[-1])):
        lower = f_edge < fx
        x, fx = np.where(lower, edge, x), np.where(lower, f_edge, fx)
    return (float(x), float(fx)) if lo.ndim == 0 else (x, fx)


def q_s(pa, pb, s):
    """Q_s for pairs of squeezed thermal states of either mode count, elementwise.

    pa and pb are parameters whose lanes broadcast against s, or pa is the
    `PairLanes` of pairs of both mode counts, the lanes on the last axis of
    s, and pb is None.  The mode count comes from the states: G_s is
    multiplied over every mode of both, in order, so a one-mode pair gives
    G_s(n_a) G_(1-s)(n_b) and a two-mode pair ((g_a1 g_a2) g_b1) g_b2.  The
    powers, G_s and Lambda_s run once over the bases of every lane, and the
    tail (that product, S and the quotient) once over every lane of both mode
    counts, into a fresh array, not a view of the powers.
    """
    s, shape = np.asarray(s, dtype=float), None
    if pb is not None:  # one pair's lanes, flat, broadcast against s
        shape, pa, pb = _flat_pair(pa, pb, s.shape)
        pa, s = stack_pairs([(pa, pb)]), np.broadcast_to(s, shape).ravel()
    require((0.0 < s) & (s < 1.0), "exponent must be in (0, 1), got {}", s)
    m, lanes, t = pa.ones, s.shape[-1], 1.0 - s
    # the exponent of each of the bases' modes: state a's, then state b's, on the last two axes
    e = np.concatenate((s, s[..., m:], t, t[..., m:]), -1).reshape(s.shape[:-1] + (2, -1))
    # numpy's array loop raises the bases, x then x + 1, each against e
    xs, us = pa.bases.reshape((2,) + (1,) * (s.ndim - 1) + (2, -1)) ** e
    g, w = _g_lambda(xs, us)  # over the powers in place, as is Lambda + 1/2: fresh arrays of a grid call page-fault
    w += 0.5
    # the tail over every lane at once, in a fresh array: the product of G over each lane's modes,
    # ((g_a1 g_a2) g_b1) g_b2 or g_a1 g_b1, then S^(-m/2), a one-mode lane's mode standing in for its second
    g[..., 0, m:lanes] *= g[..., 0, lanes:]
    q = g[..., 0, :lanes] * g[..., 1, :lanes]
    q[..., m:] *= g[..., 1, lanes:]
    w2 = np.concatenate((w[..., :m], w[..., lanes:]), -1)
    S = _det_sum(w[..., 0, :lanes], w2[..., 0, :], w[..., 1, :lanes], w2[..., 1, :], pa.sinh2)
    np.sqrt(S[..., :m], out=S[..., :m])
    q /= S
    return float_or_array(q if shape is None else q.reshape(shape))


q_s_single = q_s_two = q_s  # not called here: perfbench/tracing.py wraps both names as the chernoff.qs layer


def _overlap(pa: Params, pb: Params) -> np.ndarray:
    """Tr[rho_a rho_b] of two flat stacks: the determinant at weights n_t + 1/2, over 1."""
    wa, wb = ([n + VACUUM_NOISE for n in p.fields()[1:]] for p in (pa, pb))
    S = _det_sum(wa[0], wa[-1], wb[0], wb[-1], _sinh2(pa, pb))
    return 1.0 / S if len(wa) == 2 else 1.0 / np.sqrt(S)


@dataclass(frozen=True)
class DiscriminationReport:
    """Chernoff-bound summary for discriminating two states with M copies.

    fidelity is only available on the pure-state path (where it coincides
    with the overlap); the fidelity-based bounds (`pe_lower`,
    `pe_fidelity_upper`) are None without it, and `pe_upper` is the Chernoff
    bound Q^M / 2, all from `error_bounds`.  The report of a stack of pairs
    holds arrays of the stack shape, NaN where a lane has no fidelity.
    """

    q: float
    s_star: float
    copies: int
    fidelity: float | None
    pe_lower: float | None
    pe_upper: float
    pe_fidelity_upper: float | None


def _require_copies(m) -> None:
    if m < 1 or m != int(m):
        raise ValueError(f"copy count must be a positive integer, got {m}")


def _require_unit(q, f) -> None:
    """q, and f unless None, in [0, 1] up to 1e-12: NaN fails, but for the lanes of an array f with no fidelity."""
    require((0.0 <= q) & (q <= 1.0 + 1e-12), "Chernoff quantity must be in [0, 1], got {}", q)
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
    _require_unit(q, f)
    _require_copies(m)
    return _error_bounds(q, f, m)


def _error_bounds(q, f, m: int):
    """`error_bounds` of lanes whose range and copy count are already checked."""
    pe_upper = 0.5 * elementwise(np.power, q, m)
    if f is None:
        return None, pe_upper, None
    w = elementwise(np.power, f, m)
    pe_lower = float_or_array(w / (2.0 * (1.0 + np.sqrt(at_least_zero(1.0 - w)))))
    return pe_lower, pe_upper, 0.5 * elementwise(np.power, f, m / 2.0)


def _is_pure(p: Params) -> np.ndarray:
    # pure iff every symplectic eigenvalue n_t + 1/2 sits at the vacuum floor
    return np.all([n == 0.0 for n in p.fields()[1:]], axis=0)


def _qcb_pairs(pairs: list) -> list[tuple]:
    """The lanes (q, s_star, fidelity) of each pair (pa, pb), of either mode count, from one lane stack.

    Each lane is an array of the pair's broadcast shape, NaN where a fidelity is not known, or for one
    state a float, and None for no fidelity.  The mixed lanes of every pair, the one-mode pairs' first,
    form one stack, which takes its golden sections in blocks of _BLOCK_LANES lanes, one call of Q_s per
    block per step, so the memory does not grow with the lanes.  A pair keeps only the indices of its
    mixed lanes, and each block takes its lanes from the pair's flat stacks by them.  A lane takes its own
    steps, so its q and s* are the same bits here, in its pair's `qcb` call and alone.  A q or fidelity
    outside [0, 1] (NaN included) raises.
    """
    stacks, mixed = [], []
    for pa, pb in pairs:
        shape, pa, pb = _flat_pair(pa, pb)
        size = math.prod(shape)
        q, s_star, fid = np.empty(size), np.empty(size), np.full(size, np.nan)
        pure_a = _is_pure(pa)
        pure = pure_a | _is_pure(pb)
        if pure.any():
            q[pure] = fid[pure] = _overlap(pa.take(pure), pb.take(pure))
            s_star[pure] = np.where(pure_a[pure], 0.0, 1.0)
        mix = np.flatnonzero(~pure)
        if mix.size:
            mixed.append((len(stacks), mix, pa, pb))
        stacks.append((shape, mix, q, s_star, fid))
    mixed.sort(key=lambda m: type(m[2]) is not SqueezedThermalParamsSingle)  # the one-mode pairs first
    ends = [0, *accumulate(len(mix) for _, mix, _, _ in mixed)]
    s_m, q_m = np.empty(ends[-1]), np.empty(ends[-1])
    for i in range(0, ends[-1], _BLOCK_LANES):
        j = min(i + _BLOCK_LANES, ends[-1])
        lanes = stack_pairs([tuple(p.take(mix[slice(*np.clip((i, j), start, end) - start)]) for p in pair)
                             for (_, mix, *pair), start, end in zip(mixed, ends, ends[1:])])
        s_m[i:j], q_m[i:j] = minimize_scalar_golden(lambda s: q_s(lanes, None, s), np.full(j - i, S_EPS),
                                                    1.0 - S_EPS, S_TOL)
    for (k, *_), start, end in zip(mixed, ends, ends[1:]):
        _, mix, q, s_star, _ = stacks[k]
        q[mix] = np.where(1.0 < q_m[start:end], 1.0, q_m[start:end])  # min(q, 1.0) as Python takes it
        s_star[mix] = s_m[start:end]
    lanes = []
    for shape, _, q, s_star, fid in stacks:
        q, s_star, fid = (x.reshape(shape) for x in (q, s_star, fid))
        if not shape:
            q, s_star, fid = float(q), float(s_star), None if np.isnan(fid) else float(fid)
        _require_unit(q, fid)
        lanes.append((q, s_star, fid))
    return lanes


def qcb(pa: Params, pb: Params, copies: int = 1) -> DiscriminationReport:
    """Quantum Chernoff bound between two squeezed thermal states, or two stacks.

    pa and pb are states or stacks of one mode count whose shapes broadcast;
    the report holds floats for one state, else arrays of the stack shape.
    A lane with a pure state takes the overlap: rho^s is constant in s, so
    the infimum sits at the boundary, where Q equals Tr[rho_a rho_b], which
    is also the fidelity (one state is pure) and gives the fidelity bounds.
    The pure lanes take the overlap from the parameters, with no covariance
    matrix (`_overlap`); all other lanes take a golden section over s in
    [1e-6, 1 - 1e-6] to 1e-10, one per block of lanes.  A copy count that is
    not a positive integer raises before the minimisation, a Q or fidelity
    outside [0, 1] (NaN included) after it.  The lanes are the one-pair case
    of `_qcb_pairs`, which takes several pairs, and this is the only place
    that makes a report and its error bounds (`error_bounds`, with no second
    range check of the lanes).
    """
    _require_copies(copies)
    q, s_star, fid = _qcb_pairs([(pa, pb)])[0]
    return DiscriminationReport(q, s_star, copies, fid, *_error_bounds(q, fid, copies))

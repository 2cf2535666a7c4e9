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
G_s(t) G_(1-s)(t) makes Q_s = 1 for identical states.

Array semantics.  g_s, lambda_s, q_s_single and q_s_two are elementwise and
broadcast: occupations and s may be numpy arrays, and a scalar input gives
a float.  States enter Q_s as their parameters or stacked one per lane by
`stack_states`.  `qcb_batch` takes many (input, output) pairs, of any mix
of channels and mode counts, and minimizes every mixed pair in one
lane-wise golden section (`minimize_scalar_golden`): one call of Q_s per
step covers all lanes, and each lane freezes once its own bracket is at
most S_TOL, so it takes exactly the steps it would take alone.  `qcb` is
the batch at length 1.  A lone lane runs on 0-d lanes: its bookkeeping and
arithmetic stay on Python floats, which costs a fraction of the same work
on 0-d arrays, while its powers still come from numpy's array loop.  So a
lane's q and s* are the same bit for bit alone and in a batch (numpy's pow
and Python's ** differ in the last bit for a few percent of arguments).

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
from typing import NamedTuple, Sequence

import numpy as np

from .gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_single_mode_st,
    make_two_mode_st,
    overlap,
)

S_EPS = 1e-6
S_TOL = 1e-10
_GRID_POINTS = 21
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

Params = SqueezedThermalParamsSingle | SqueezedThermalParamsTwo


def _float_or_array(x):
    return x if isinstance(x, np.ndarray) else float(x)


def _exponent(s) -> float | np.ndarray:
    # a float stays a float: the arithmetic of one lane is far cheaper on
    # Python floats than on 0-d arrays, and bit for bit the same
    if isinstance(s, float):
        if not 0.0 < s < 1.0:
            raise ValueError(f"exponent must be in (0, 1), got {s}")
        return s
    s = np.asarray(s, dtype=float)
    if not ((s > 0.0) & (s < 1.0)).all():
        raise ValueError(f"exponent must be in (0, 1), got {s}")
    return s


def _g_lambda(xs, us):
    """(G_s(x), Lambda_s(x)) from the powers xs = x^s and us = (x + 1)^s."""
    g = 1.0 / (us - xs)
    return g, xs * g


def _checked_g_lambda(x, s):
    x, s = np.asarray(x, dtype=float), _exponent(s)
    if (x < 0.0).any():
        raise ValueError(f"occupation must be >= 0, got {x}")
    return [_float_or_array(v) for v in _g_lambda(x**s, (x + 1.0) ** s)]


def g_s(x, s):
    """G_s(x) = 1 / ((x + 1)^s - x^s) for x >= 0, s in (0, 1), elementwise."""
    return _checked_g_lambda(x, s)[0]


def lambda_s(x, s):
    """Lambda_s(x) = x^s G_s(x) for x >= 0, s in (0, 1), elementwise; 0 at x = 0."""
    return _checked_g_lambda(x, s)[1]


class StateLanes(NamedTuple):
    """Squeezed thermal states of one mode count, one per lane.

    The first axis indexes quantities, the others are lanes.  `bases` holds
    the occupations and the occupations plus one, (n_t, n_t + 1) or (n_t1,
    n_t2, n_t1 + 1, n_t2 + 1), so each state's powers come from one call;
    `squeeze` holds the factors that do not depend on s, (e^2r,) or
    (cosh^2 r, sinh^2 r, cosh r sinh r), computed per state with math as
    the per-point formulas did (numpy's cosh differs in the last bit).
    """

    bases: np.ndarray
    squeeze: np.ndarray


def stack_states(states: Params | Sequence[Params] | StateLanes) -> StateLanes:
    """Lanes of a sequence of states of one mode count; one state gives 0-d lanes."""
    if isinstance(states, StateLanes):
        return states
    one = isinstance(states, (SqueezedThermalParamsSingle, SqueezedThermalParamsTwo))
    rows = [states] if one else list(states)
    if all(isinstance(p, SqueezedThermalParamsSingle) for p in rows):
        cols = [(p.n_t, p.n_t + 1.0, math.exp(2.0 * p.r)) for p in rows]
    elif all(isinstance(p, SqueezedThermalParamsTwo) for p in rows):
        cols = [
            (p.n_t1, p.n_t2, p.n_t1 + 1.0, p.n_t2 + 1.0,
             math.cosh(p.r) ** 2, math.sinh(p.r) ** 2, math.cosh(p.r) * math.sinh(p.r))
            for p in rows
        ]
    else:
        raise TypeError("states must be squeezed thermal parameters of one mode count")
    table = np.array(cols, dtype=float).reshape(len(rows), -1).T
    split = 2 if len(table) == 3 else 4
    if one:
        # plain floats: they only ever meet the arithmetic of one lane
        return StateLanes(table[:split, 0], table[split:, 0].tolist())
    return StateLanes(table[:split], table[split:])


def _powers(bases: np.ndarray, s) -> np.ndarray | list[float]:
    """bases ** s, the base index first, the lanes broadcast against s.

    The powers always come from numpy's array loop, so one lane gets the
    same bits alone as in a batch; one lane at one s comes back as floats.
    """
    extra = (s.ndim if isinstance(s, np.ndarray) else 0) - (bases.ndim - 1)
    if extra > 0:
        bases = bases.reshape(bases.shape[:1] + (1,) * extra + bases.shape[1:])
    out = bases**s
    return out.tolist() if out.ndim == 1 else out


def _select(c, p, q):
    # lane-wise choice; a lone lane carries plain scalars and a plain branch
    if isinstance(c, np.ndarray):
        return np.where(c, p, q)
    return p if c else q


def _any(c) -> bool:
    return bool(c.any() if isinstance(c, np.ndarray) else c)


def minimize_scalar_golden(f, lo, hi, tol: float, grid_points: int = _GRID_POINTS):
    """Golden-section minimum of f on [lo, hi] in every lane at once.

    lo and hi are floats or arrays, one entry per lane.  f maps an array of
    abscissae, the lanes on its last axes, to an array of values of the same
    shape.  A grid of `grid_points`, evaluated in one call, locates the best
    bracket; golden section tightens it to width tol with one call of f per
    step for all lanes; the bracket midpoint is then compared with the two
    endpoints explicitly, so a boundary minimum is never missed.  A lane
    freezes once its bracket is at most tol, so each lane takes exactly the
    steps it would take alone.  Returns (argmin, min): floats for scalar lo
    and hi, else arrays.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    k = np.arange(grid_points).reshape((-1,) + (1,) * lo.ndim)
    xs = lo + (hi - lo) * k / (grid_points - 1)
    fs = f(xs)
    best = np.argmin(fs, axis=0)[None]
    # a lone lane steps on plain floats
    a = _float_or_array(np.take_along_axis(xs, np.maximum(best - 1, 0), 0)[0])
    b = _float_or_array(np.take_along_axis(xs, np.minimum(best + 1, grid_points - 1), 0)[0])

    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    active = b - a > tol
    while _any(active):
        left = f1 <= f2
        # only the bracket of a frozen lane must stay; its points no longer count
        go_left = active & left
        b = _select(go_left, x2, b)
        a = _select(active ^ go_left, x1, a)
        x = _select(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fx = f(x)
        x1, x2, f1, f2 = _select(left, (x, x1, fx, f1), (x2, x, f2, fx))
        active = b - a > tol

    x = (a + b) / 2.0
    fx = f(x)
    for edge, f_edge in ((lo, fs[0]), (hi, fs[-1])):
        lower = f_edge < fx
        x, fx = _select(lower, edge, x), _select(lower, f_edge, fx)
    return (float(x), float(fx)) if lo.ndim == 0 else (x, fx)


def q_s_single(pa, pb, s):
    """Q_s for pairs of single-mode squeezed thermal states, elementwise.

    pa and pb are parameters or `StateLanes`; their lanes broadcast against s.
    """
    a, b = stack_states(pa), stack_states(pb)
    s = _exponent(s)
    xa, ua = _powers(a.bases, s)
    xb, ub = _powers(b.bases, 1.0 - s)
    ga, la = _g_lambda(xa, ua)
    gb, lb = _g_lambda(xb, ub)
    wa = la + 0.5
    wb = lb + 0.5
    (e2a,), (e2b,) = a.squeeze, b.squeeze
    det = (wa * e2a + wb * e2b) * (wa / e2a + wb / e2b)
    return _float_or_array(ga * gb / np.sqrt(det))


def q_s_two(pa, pb, s):
    """Q_s for pairs of two-mode squeezed thermal states, elementwise.

    pa and pb are parameters or `StateLanes`; their lanes broadcast against s.
    Both weight matrices share the block structure [[x I2, z Z], [z Z, y I2]]
    (Z = diag(1, -1)), whose determinant is (x y - z^2)^2, so the 4x4
    determinant reduces to arithmetic on the entries.
    """
    a, b = stack_states(pa), stack_states(pb)
    s = _exponent(s)
    xa1, xa2, ua1, ua2 = _powers(a.bases, s)
    xb1, xb2, ub1, ub2 = _powers(b.bases, 1.0 - s)
    (ga1, la1), (ga2, la2) = _g_lambda(xa1, ua1), _g_lambda(xa2, ua2)
    (gb1, lb1), (gb2, lb2) = _g_lambda(xb1, ub1), _g_lambda(xb2, ub2)
    pi_s = ga1 * ga2 * gb1 * gb2

    def blocks(lanes: StateLanes, w1, w2):
        c2, s2, cs = lanes.squeeze
        return w1 * c2 + w2 * s2, w1 * s2 + w2 * c2, (w1 + w2) * cs

    xa, ya, za = blocks(a, la1 + 0.5, la2 + 0.5)
    xb, yb, zb = blocks(b, lb1 + 0.5, lb2 + 0.5)
    x, y, z = xa + xb, ya + yb, za + zb
    return _float_or_array(pi_s / (x * y - z * z))


@dataclass(frozen=True)
class DiscriminationReport:
    """Chernoff-bound summary for discriminating two states with M copies.

    fidelity is only available on the pure-state path (where it coincides
    with the overlap); the fidelity-based bounds are None without it.
    """

    q: float
    s_star: float
    copies: int
    pe_upper: float
    fidelity: float | None = None
    pe_lower: float | None = None
    pe_fidelity_upper: float | None = None


def error_bounds(
    q: float, f: float | None, m: int
) -> tuple[float | None, float, float | None]:
    """(lower, Chernoff upper, fidelity upper) bounds on the M-copy error.

    P_e >= (1 - sqrt(1 - F^M)) / 2 and P_e <= F^(M/2) / 2 need the fidelity;
    they are None when f is None.  P_e <= Q^M / 2 always.
    """
    if not (0.0 <= q <= 1.0 + 1e-12):
        raise ValueError(f"Chernoff quantity must be in [0, 1], got {q}")
    if m < 1 or m != int(m):
        raise ValueError(f"copy count must be a positive integer, got {m}")
    pe_upper = 0.5 * q**m
    if f is None:
        return None, pe_upper, None
    if not (0.0 <= f <= 1.0 + 1e-12):
        raise ValueError(f"fidelity must be in [0, 1], got {f}")
    pe_lower = 0.5 * (1.0 - math.sqrt(max(1.0 - f**m, 0.0)))
    pe_fid_upper = 0.5 * f ** (m / 2.0)
    return pe_lower, pe_upper, pe_fid_upper


def _is_pure_single(p: SqueezedThermalParamsSingle) -> bool:
    return p.n_t == 0.0


def _is_pure_two(p: SqueezedThermalParamsTwo) -> bool:
    # pure iff every symplectic eigenvalue n_t + 1/2 sits at the vacuum floor
    return max(p.n_t1, p.n_t2) == 0.0


def _pure_report(pa: Params, pb: Params, pure_a: bool, copies: int) -> DiscriminationReport:
    # the only branch that needs the CMs; the mixed one works on parameters
    make = make_single_mode_st if isinstance(pa, SqueezedThermalParamsSingle) else make_two_mode_st
    q = overlap(make(pa), make(pb))
    pe_lower, pe_upper, pe_fid = error_bounds(q, q, copies)
    return DiscriminationReport(
        q=q,
        s_star=0.0 if pure_a else 1.0,
        copies=copies,
        pe_upper=pe_upper,
        fidelity=q,
        pe_lower=pe_lower,
        pe_fidelity_upper=pe_fid,
    )


def qcb_batch(pairs: Sequence[tuple[Params, Params]], copies: int = 1) -> list[DiscriminationReport]:
    """Quantum Chernoff bound of every (pa, pb) pair, in one minimization.

    A pair with a pure state takes the overlap: rho^s is then constant in s
    and the infimum sits at the boundary, where Q equals Tr[rho_a rho_b];
    that path also reports the fidelity (equal to the overlap since at least
    one state is pure) and the fidelity-based error bounds.  All other pairs,
    single- and two-mode alike, are lanes of one golden section over s in
    [1e-6, 1 - 1e-6] to 1e-10.  Reports come back in the order of the pairs.
    """
    if copies < 1:
        raise ValueError(f"copy count must be >= 1, got {copies}")
    reports: list[DiscriminationReport | None] = [None] * len(pairs)
    mixed: dict[type, list[int]] = {SqueezedThermalParamsSingle: [], SqueezedThermalParamsTwo: []}
    for k, (pa, pb) in enumerate(pairs):
        if type(pa) is not type(pb):
            raise TypeError(f"mode mismatch: {type(pa).__name__} vs {type(pb).__name__}")
        if isinstance(pa, SqueezedThermalParamsSingle):
            pure_a, pure_b = _is_pure_single(pa), _is_pure_single(pb)
        elif isinstance(pa, SqueezedThermalParamsTwo):
            pure_a, pure_b = _is_pure_two(pa), _is_pure_two(pb)
        else:
            raise TypeError(f"unsupported parameter type {type(pa).__name__}")
        if pure_a or pure_b:
            reports[k] = _pure_report(pa, pb, pure_a, copies)
        else:
            mixed[type(pa)].append(k)

    order = mixed[SqueezedThermalParamsSingle] + mixed[SqueezedThermalParamsTwo]
    if not order:
        return reports
    # a lone pair runs on 0-d lanes, so its arithmetic stays on plain floats
    lone = len(order) == 1
    parts, start = [], 0
    for q_s, ks in ((q_s_single, mixed[SqueezedThermalParamsSingle]), (q_s_two, mixed[SqueezedThermalParamsTwo])):
        if ks:
            a, b = (stack_states(pairs[ks[0]][i] if lone else [pairs[k][i] for k in ks]) for i in (0, 1))
            parts.append((q_s, a, b, slice(start, start + len(ks))))
            start += len(ks)

    def curve(s):
        if len(parts) == 1:
            q_s, a, b, _ = parts[0]
            return q_s(a, b, s)
        return np.concatenate([q_s(a, b, s[..., lanes]) for q_s, a, b, lanes in parts], axis=-1)

    lo = S_EPS if lone else np.full(len(order), S_EPS)
    s_star, q = minimize_scalar_golden(curve, lo, 1.0 - S_EPS, S_TOL)
    for k, s_k, q_k in zip(order, np.atleast_1d(s_star).tolist(), np.atleast_1d(q).tolist()):
        q_k = min(q_k, 1.0)
        _, pe_upper, _ = error_bounds(q_k, None, copies)
        reports[k] = DiscriminationReport(q=q_k, s_star=s_k, copies=copies, pe_upper=pe_upper)
    return reports


def qcb(pa: Params, pb: Params, copies: int = 1) -> DiscriminationReport:
    """Quantum Chernoff bound between two squeezed thermal states: `qcb_batch` of one pair."""
    return qcb_batch([(pa, pb)], copies)[0]

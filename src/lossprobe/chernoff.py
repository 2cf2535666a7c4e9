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

Array semantics.  q_s_single and q_s_two are elementwise and broadcast,
and a scalar input gives a float.  States enter as parameters (one state
or a stack, see `gaussian`) or as lanes from `stack_states`.  `qcb` takes
two states or two stacks of one mode count whose shapes broadcast: its
pure lanes take the overlap straight from the parameters (`_overlap`, no
covariance matrix), and its mixed lanes share one lane-wise golden
section (`minimize_scalar_golden`), one call of Q_s per step, each lane
freezing once its own bracket is at most S_TOL.  A lone mixed lane
keeps its arithmetic on Python floats (far cheaper than 0-d arrays) while
its powers still come from numpy's array loop, so a lane's q and s* are the
same bit for bit alone and in a stack (numpy's pow and Python's ** differ
in the last bit for a few percent of arguments).

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
    any_of,
    at_least_zero,
    float_or_array,
    libm,
    make_two_mode_st,  # not called here: perfbench/test_harness.py pins this binding in every module
    require,
    select,
)

S_EPS = 1e-6
S_TOL = 1e-10
_GRID_POINTS = 21
_GRID_CHUNK = 2**16  # lane-points per call of f on the seeding grid: bounds its temporaries
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

Params = SqueezedThermalParamsSingle | SqueezedThermalParamsTwo


def _exponent(s) -> float | np.ndarray:
    # a float stays a float: the arithmetic of one lane is far cheaper on
    # Python floats than on 0-d arrays, and bit for bit the same
    s = s if isinstance(s, float) else np.asarray(s, dtype=float)
    ok = 0.0 < s < 1.0 if isinstance(s, float) else (0.0 < s) & (s < 1.0)
    require(ok, "exponent must be in (0, 1), got {}", s)
    return s


def _g_lambda(xs, us):
    """(G_s(x), Lambda_s(x)) from the powers xs = x^s and us = (x + 1)^s."""
    g = 1.0 / (us - xs)
    return g, xs * g


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


def stack_states(p: Params | StateLanes) -> StateLanes:
    """Lanes of one state (0-d lanes, plain float factors) or of a stack."""
    if isinstance(p, StateLanes):
        return p
    if isinstance(p, SqueezedThermalParamsSingle):
        bases, squeeze = [p.n_t, p.n_t + 1.0], [libm(math.exp, 2.0 * p.r)]
    else:
        bases = [p.n_t1, p.n_t2, p.n_t1 + 1.0, p.n_t2 + 1.0]
        ch, sh = libm(math.cosh, p.r), libm(math.sinh, p.r)
        squeeze = [libm(pow, ch, 2), libm(pow, sh, 2), ch * sh]
    # one state keeps plain floats: they only ever meet the arithmetic of one lane
    return StateLanes(np.array(bases, dtype=float), squeeze if not p.shape else np.array(squeeze))


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
    # a lone lane steps on plain floats, with plain branches in select
    a = float_or_array(np.take_along_axis(xs, np.maximum(best - 1, 0), 0)[0])
    b = float_or_array(np.take_along_axis(xs, np.minimum(best + 1, grid_points - 1), 0)[0])

    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    active = b - a > tol
    while any_of(active):
        left = f1 <= f2
        # only the bracket of a frozen lane must stay; its points no longer count
        go_left = active & left
        b = select(go_left, x2, b)
        a = select(active ^ go_left, x1, a)
        x = select(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fx = f(x)
        x1, x2, f1, f2 = select(left, (x, x1, fx, f1), (x2, x, f2, fx))
        active = b - a > tol

    x = (a + b) / 2.0
    fx = f(x)
    for edge, f_edge in ((lo, fs[0]), (hi, fs[-1])):
        lower = f_edge < fx
        x, fx = select(lower, edge, x), select(lower, f_edge, fx)
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
    return float_or_array(ga * gb / np.sqrt(det))


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
    return float_or_array(pi_s / (x * y - z * z))


def _overlap(pa: Params, pb: Params) -> np.ndarray:
    """Tr[rho_a rho_b] = 1 / sqrt(det(sigma_a + sigma_b)) of two flat stacks, from their parameters.

    One mode: sigma = nu diag(e^2r, e^-2r) with nu = n_t + 1/2, so the
    determinant is (nu_a e^2r_a + nu_b e^2r_b)(nu_a e^-2r_a + nu_b e^-2r_b),
    the arithmetic of `det2` on the two CMs, bit for bit.

    Two modes: two-mode squeezers commute and have unit determinant, so
    S(-r_a) maps sigma_a to diag(nu_a1, nu_a1, nu_a2, nu_a2) and sigma_b to
    the squeezed thermal CM [[x I2, z Z], [z Z, y I2]] of squeezing
    D = r_b - r_a and b's nu_k = n_tk + 1/2, where x = nu_b1 cosh^2 D +
    nu_b2 sinh^2 D, y = nu_b1 sinh^2 D + nu_b2 cosh^2 D and x y - z^2 =
    nu_b1 nu_b2.  Then det(sigma_a + sigma_b) = ((nu_a1 + x)(nu_a2 + y) - z^2)^2
    = S^2 with

        S = nu_a1 nu_a2 + nu_b1 nu_b2 + cosh^2 D (nu_a1 nu_b2 + nu_a2 nu_b1)
            + sinh^2 D (nu_a1 nu_b1 + nu_a2 nu_b2),

    a sum of positive terms, so nothing cancels.  The LU determinant of the
    summed CMs, and x y - z^2 of the summed blocks, cancel between terms of
    order N^2 and lose up to 2e-9 relative on pure probes up to N = 1e6.
    """
    if isinstance(pa, SqueezedThermalParamsSingle):
        nu_a, nu_b = pa.n_t + VACUUM_NOISE, pb.n_t + VACUUM_NOISE
        up = nu_a * libm(math.exp, 2 * pa.r) + nu_b * libm(math.exp, 2 * pb.r)
        down = nu_a * libm(math.exp, -2 * pa.r) + nu_b * libm(math.exp, -2 * pb.r)
        return 1.0 / np.sqrt(up * down)
    a1, a2 = pa.n_t1 + VACUUM_NOISE, pa.n_t2 + VACUUM_NOISE
    b1, b2 = pb.n_t1 + VACUUM_NOISE, pb.n_t2 + VACUUM_NOISE
    d = pb.r - pa.r
    c2, s2 = libm(pow, libm(math.cosh, d), 2), libm(pow, libm(math.sinh, d), 2)
    return 1.0 / (a1 * a2 + b1 * b2 + c2 * (a1 * b2 + a2 * b1) + s2 * (a1 * b1 + a2 * b2))


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
    F^M.  The powers are Python's (`libm(pow, ...)`), the rest numpy
    arithmetic, so a lane has the same bits alone and in a stack.
    """
    _require_bound_inputs(q, f, m)
    pe_upper = 0.5 * libm(pow, q, m)
    if f is None:
        return None, pe_upper, None
    w = libm(pow, f, m)
    pe_lower = float_or_array(w / (2.0 * (1.0 + np.sqrt(at_least_zero(1.0 - w)))))
    return pe_lower, pe_upper, 0.5 * libm(pow, f, m / 2.0)


def _is_pure(p: Params) -> np.ndarray:
    # pure iff every symplectic eigenvalue n_t + 1/2 sits at the vacuum floor
    return np.all([n == 0.0 for n in p.fields()[1:]], axis=0)


def _minimize_mixed(q_s, pa: Params, pb: Params) -> tuple:
    """(q, s*) of every lane of two flat stacks of mixed states, from one golden section."""
    lone = pa.shape == (1,)
    a, b = (stack_states(p.row(0) if lone else p) for p in (pa, pb))
    lo = S_EPS if lone else np.full(pa.shape, S_EPS)
    s_m, q_m = minimize_scalar_golden(lambda s: q_s(a, b, s), lo, 1.0 - S_EPS, S_TOL)
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

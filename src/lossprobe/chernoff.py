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

When one of the states is pure the infimum sits at the boundary of s and
collapses to the state overlap, which doubles as the fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import (
    PURITY_TOL,
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


def g_s(x: float, s: float) -> float:
    """G_s(x) = 1 / ((x + 1)^s - x^s) for x >= 0, s in (0, 1)."""
    if x < 0:
        raise ValueError(f"occupation must be >= 0, got {x}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent must be in (0, 1), got {s}")
    return 1.0 / ((x + 1.0) ** s - x**s)


def lambda_s(x: float, s: float) -> float:
    """Lambda_s(x) = x^s G_s(x); vanishes at x = 0."""
    if x == 0.0:
        if not 0.0 < s < 1.0:
            raise ValueError(f"exponent must be in (0, 1), got {s}")
        return 0.0
    return x**s * g_s(x, s)


def minimize_scalar_golden(
    f,
    lo: float,
    hi: float,
    tol: float,
    grid_points: int = _GRID_POINTS,
) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi], seeded by a coarse grid.

    The grid locates the best bracket, golden-section tightens it to width
    tol, and the endpoints are compared explicitly so a boundary minimum is
    never missed.  Returns (argmin, min).
    """
    xs = [lo + (hi - lo) * k / (grid_points - 1) for k in range(grid_points)]
    fs = [f(x) for x in xs]
    k = min(range(grid_points), key=fs.__getitem__)
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, grid_points - 1)]

    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)

    candidates = [((a + b) / 2.0, f((a + b) / 2.0)), (lo, fs[0]), (hi, fs[-1])]
    return min(candidates, key=lambda t: t[1])


def q_s_single(
    pa: SqueezedThermalParamsSingle,
    pb: SqueezedThermalParamsSingle,
    s: float,
) -> float:
    """Q_s for a pair of single-mode squeezed thermal states."""
    ga = g_s(pa.n_t, s)
    gb = g_s(pb.n_t, 1.0 - s)
    wa = lambda_s(pa.n_t, s) + 0.5
    wb = lambda_s(pb.n_t, 1.0 - s) + 0.5
    e2a = math.exp(2.0 * pa.r)
    e2b = math.exp(2.0 * pb.r)
    det = (wa * e2a + wb * e2b) * (wa / e2a + wb / e2b)
    return ga * gb / math.sqrt(det)


def q_s_two(
    pa: SqueezedThermalParamsTwo,
    pb: SqueezedThermalParamsTwo,
    s: float,
) -> float:
    """Q_s for a pair of two-mode squeezed thermal states.

    Both weight matrices share the block structure [[x I2, z Z], [z Z, y I2]]
    (Z = diag(1, -1)), whose determinant is (x y - z^2)^2, so the 4x4
    determinant reduces to scalar arithmetic.
    """
    pi_s = (
        g_s(pa.n_t1, s)
        * g_s(pa.n_t2, s)
        * g_s(pb.n_t1, 1.0 - s)
        * g_s(pb.n_t2, 1.0 - s)
    )

    def blocks(p: SqueezedThermalParamsTwo, w1: float, w2: float) -> tuple[float, float, float]:
        c2 = math.cosh(p.r) ** 2
        s2 = math.sinh(p.r) ** 2
        cs = math.cosh(p.r) * math.sinh(p.r)
        return w1 * c2 + w2 * s2, w1 * s2 + w2 * c2, (w1 + w2) * cs

    xa, ya, za = blocks(pa, lambda_s(pa.n_t1, s) + 0.5, lambda_s(pa.n_t2, s) + 0.5)
    xb, yb, zb = blocks(pb, lambda_s(pb.n_t1, 1.0 - s) + 0.5, lambda_s(pb.n_t2, 1.0 - s) + 0.5)
    x, y, z = xa + xb, ya + yb, za + zb
    return pi_s / (x * y - z * z)


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
    return p.n_t <= PURITY_TOL


def _is_pure_two(p: SqueezedThermalParamsTwo) -> bool:
    # pure iff every symplectic eigenvalue n_t + 1/2 sits at the vacuum floor
    return max(p.n_t1, p.n_t2) <= PURITY_TOL


def qcb(
    pa: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo,
    pb: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo,
    copies: int = 1,
) -> DiscriminationReport:
    """Quantum Chernoff bound between two squeezed thermal states.

    Mixed pairs are minimized by golden section over s in [1e-6, 1 - 1e-6]
    to 1e-10.  If a state is pure, rho^s is constant in s and the infimum
    sits at the boundary, where Q equals the overlap Tr[rho_a rho_b]; that
    path also reports the fidelity (equal to the overlap since at least one
    state is pure) and the fidelity-based error bounds.
    """
    if type(pa) is not type(pb):
        raise TypeError(f"mode mismatch: {type(pa).__name__} vs {type(pb).__name__}")
    if copies < 1:
        raise ValueError(f"copy count must be >= 1, got {copies}")

    if isinstance(pa, SqueezedThermalParamsSingle):
        pure_a, pure_b = _is_pure_single(pa), _is_pure_single(pb)
        make = make_single_mode_st
        curve = lambda s: q_s_single(pa, pb, s)  # noqa: E731
    elif isinstance(pa, SqueezedThermalParamsTwo):
        pure_a, pure_b = _is_pure_two(pa), _is_pure_two(pb)
        make = make_two_mode_st
        curve = lambda s: q_s_two(pa, pb, s)  # noqa: E731
    else:
        raise TypeError(f"unsupported parameter type {type(pa).__name__}")

    if pure_a or pure_b:
        # the only branch that needs the CMs; the mixed one works on parameters
        q = overlap(make(pa), make(pb))
        s_star = 0.0 if pure_a else 1.0
        pe_lower, pe_upper, pe_fid = error_bounds(q, q, copies)
        return DiscriminationReport(
            q=q,
            s_star=s_star,
            copies=copies,
            pe_upper=pe_upper,
            fidelity=q,
            pe_lower=pe_lower,
            pe_fidelity_upper=pe_fid,
        )

    s_star, q = minimize_scalar_golden(curve, S_EPS, 1.0 - S_EPS, S_TOL)
    q = min(q, 1.0)
    _, pe_upper, _ = error_bounds(q, None, copies)
    return DiscriminationReport(q=q, s_star=s_star, copies=copies, pe_upper=pe_upper)

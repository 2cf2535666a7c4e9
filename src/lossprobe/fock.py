"""Truncated Fock-space brute force for validating the Gaussian machinery.

States are density matrices in the number basis.  Everything stays real
float64 (the squeezing generators are real antisymmetric, so the unitaries
are real orthogonal), and nothing is renormalized: the truncation tail is
measured, capped by `tail_tol`, and otherwise left in the numbers so the
comparisons stay honest.

Charge sectors.  Single-mode squeezing conserves photon-number parity,
two-mode squeezing conserves the charge n1 - n2, and loss on the first mode
preserves the charge difference between row and column.  So every oracle
state is block diagonal, with blocks of size at most `dim`, and a
`FockDensityMatrix` stores only those blocks, never a dense matrix.  A
prepared block U diag(w) U^T keeps (w, U) as its spectrum (U from the
`eigh` of a real tridiagonal); loss is one diagonal-shift kernel on the
mode-1 levels, and its output diagonalises its blocks once.  Equal-size
blocks share one stacked LAPACK call.  Moments come from banded ladder
expectations, the fidelity from singular values.  The Chernoff s-curve, a
sum of exponentials in s with non-negative weights, is log-convex: its
minimum is an edge whose slope points outward, or Newton on the slope inside
its sign bracket.  Rank and fidelity floors
are relative to the largest eigenvalue over all sectors, and an eigenvalue
below -1e-10 in any sector raises.  The dense route (`expm`, Kraus matmuls,
complex quadratures, one full `eigh`) is the reference in the tests.  This
module imports only numpy.

Quadratures follow the package convention q = (a + a^dag)/sqrt(2),
p = (a - a^dag)/(i sqrt(2)), vacuum variance 1/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .chernoff import S_EPS, S_TOL
from .gaussian import SqueezedThermalParamsSingle, SqueezedThermalParamsTwo

EIG_CLAMP = 1e-10
_HERMITICITY_TOL = 1e-12
DEFAULT_HELSTROM_CAP = 4096


class TruncationError(ArithmeticError):
    """Raised when too much state weight escapes past the Fock cutoff."""


class HelstromCapError(ValueError):
    """Raised when the multi-copy Helstrom matrix would exceed the size cap."""


@dataclass(frozen=True)
class TruncationConfig:
    """Fock cutoff per mode and the tolerated trace deficit."""

    dim: int
    tail_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.dim}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail tolerance must be in (0, 1), got {self.tail_tol}")


def _charge(dims: tuple[int, ...]) -> np.ndarray:
    """n for one mode, n1 - n2 for two, per flat basis index."""
    n = np.indices(dims).reshape(len(dims), -1)
    return n[0] if len(dims) == 1 else n[0] - n[1]


class _Layout(NamedTuple):
    sectors: list[np.ndarray]  # flat basis indices of each class, ascending
    sector_of: np.ndarray  # per basis index: its sector
    position: np.ndarray  # per basis index: its place in its sector
    size: np.ndarray  # per sector: its length
    start: np.ndarray  # per sector, and one past the end: where its block starts in `data`
    rows: np.ndarray  # per entry of `data`: the basis indices of its row
    cols: np.ndarray  # and of its column


@lru_cache(maxsize=32)
def _sector_layout(dims: tuple[int, ...], modulus: int) -> _Layout:
    """The classes of charge mod `modulus`, ascending, each block raveled after the last."""
    _, sector_of, size = np.unique(_charge(dims) % modulus, return_inverse=True, return_counts=True)
    sectors = [np.flatnonzero(sector_of == k) for k in range(sector_of.max() + 1)]
    position = np.empty_like(sector_of)
    position[np.concatenate(sectors)] = np.concatenate([np.arange(len(idx)) for idx in sectors])
    rows = np.concatenate([np.repeat(idx, len(idx)) for idx in sectors])
    cols = np.concatenate([np.tile(idx, len(idx)) for idx in sectors])
    return _Layout(sectors, sector_of, position, size, np.concatenate(([0], np.cumsum(size**2))), rows, cols)


def _stacked(fn, mats: list[np.ndarray]) -> list:
    """fn of each square matrix, one stacked call per size: a linalg gufunc
    factorises each matrix of a stack alone, so the bits are those of one call each."""
    by_size: dict[int, list[int]] = {}
    for k, m in enumerate(mats):
        by_size.setdefault(len(m), []).append(k)
    out: list = [None] * len(mats)
    for ks in by_size.values():
        res = fn(np.stack([mats[k] for k in ks]))
        for k, r in zip(ks, zip(*res) if isinstance(res, tuple) else res):
            out[k] = r
    return out


def _entries(lay: _Layout, data: np.ndarray, rows, cols) -> np.ndarray:
    """Dense-matrix entries (rows, cols), broadcast, read from `data`: zero between sectors."""
    s = lay.sector_of[rows]
    at = lay.start[s] + lay.position[rows] * lay.size[s] + lay.position[cols]
    return np.where(s == lay.sector_of[cols], data.take(at, mode="clip"), 0.0)


@dataclass(frozen=True, init=False, eq=False)
class FockDensityMatrix:
    """Density matrix on a truncated Fock space of one or two modes, kept as sector blocks.

    The basis splits into the classes of charge mod `modulus`, and `data`
    holds their blocks, raveled one after another.  State preparation and
    loss pass both; `FockDensityMatrix(dims, mat)` takes a dense matrix and
    keeps the finest partition whose off-sector entries are exactly zero,
    tried finest first (the exact charge, then parity, then 1, the whole
    space).  Hermiticity is validated at construction; positivity at the
    first spectral use (eigenvalues below -1e-10 raise, small negatives
    clamp), unless the blocks come with their `spectrum`.  `mat` is a dense
    copy, built on demand.
    """

    dims: tuple[int, ...]
    modulus: int
    data: np.ndarray = field(repr=False)
    layout: _Layout = field(repr=False)

    def __init__(self, dims, mat=None, *, modulus: int = 1, data=None, spectrum=None) -> None:
        dims = tuple(int(x) for x in dims)
        if len(dims) not in (1, 2):
            raise ValueError(f"one or two modes supported, got dims {dims}")
        d = math.prod(dims)
        if mat is not None:
            m = np.asarray(mat, dtype=float)
            if m.shape != (d, d):
                raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
            gap = _charge(dims)[:, None] - _charge(dims)
            modulus = next(k for k in (d, 2, 1) if not m[gap % k != 0].any())
        lay = _sector_layout(dims, modulus)
        data = np.asarray(data if mat is None else m[lay.rows, lay.cols], dtype=float)
        mirror = _entries(lay, data, lay.cols, lay.rows)
        if np.max(np.abs(data - mirror)) > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        data = (data + mirror) / 2.0
        data.setflags(write=False)
        self.__dict__.update(dims=dims, modulus=modulus, data=data, layout=lay)
        if spectrum is not None:
            self.__dict__["spectrum"] = list(spectrum)
        if self.diagonal.sum() > 1.0 + 1e-12:
            raise ValueError(f"trace {self.diagonal.sum()} exceeds 1")

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """One square block per sector, each a view into `data`."""
        return tuple(self.data[a : a + n * n].reshape(n, n) for a, n in zip(self.layout.start, self.layout.size))

    @property
    def diagonal(self) -> np.ndarray:
        """The populations, in flat basis order."""
        n = np.arange(math.prod(self.dims))
        return _entries(self.layout, self.data, n, n)

    @property
    def mat(self) -> np.ndarray:
        m = np.zeros((math.prod(self.dims),) * 2)
        m[self.layout.rows, self.layout.cols] = self.data
        return m

    @cached_property
    def spectrum(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(eigenvalues, eigenvectors) per block, negatives clamped to 0."""
        spectra = _stacked(np.linalg.eigh, self.blocks)
        if (low := min(vals.min() for vals, _ in spectra)) < -EIG_CLAMP:
            raise ArithmeticError(f"density matrix eigenvalue {low:.3e} below -1e-10")
        return [(np.maximum(vals, 0.0), vecs) for vals, vecs in spectra]


def _common(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> tuple[FockDensityMatrix, FockDensityMatrix]:
    """Both states on the coarser of their partitions, which both respect: blocks merged, not rebuilt."""
    if rho_a.dims != rho_b.dims:
        raise ValueError(f"dims differ: {rho_a.dims} vs {rho_b.dims}")
    modulus = min(rho_a.modulus, rho_b.modulus)
    rows, cols = _sector_layout(rho_a.dims, modulus)[-2:]
    a, b = (
        rho if rho.modulus == modulus else
        FockDensityMatrix(rho.dims, modulus=modulus, data=_entries(rho.layout, rho.data, rows, cols))
        for rho in (rho_a, rho_b)
    )
    return a, b


def thermal_diagonal(n_t: float, dim: int) -> np.ndarray:
    """Thermal weights n_t^m / (n_t + 1)^(m + 1), m < dim."""
    if n_t == 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    m = np.arange(dim)
    return np.exp(m * math.log(n_t) - (m + 1) * math.log(n_t + 1.0))


def _squeeze_unitaries(subs: list[np.ndarray]) -> list[np.ndarray]:
    """exp(G) for each G = diag(sub, -1) - diag(sub, 1), each distinct nonzero one once.

    G = -i D T D^* with D = diag(i^j) and T = diag(sub, -1) + diag(sub, 1), so
    exp(G)[j, k] = i^(j - k) (cos T - i sin T)[j, k]: cos T, sin T, -cos T or
    -sin T for (j - k) mod 4 = 0 to 3 (T is a path: cos T is even, sin T odd).
    """
    distinct = {sub.tobytes(): sub for sub in subs if sub.any()}
    spectra = _stacked(np.linalg.eigh, [np.diag(sub, -1) + np.diag(sub, 1) for sub in distinct.values()])
    exps = {}
    for key, (w, v) in zip(distinct, spectra):
        cos, sin = (v * np.cos(w)) @ v.T, (v * np.sin(w)) @ v.T
        exps[key] = np.choose(np.subtract.outer(np.arange(len(w)), np.arange(len(w))) % 4, (cos, sin, -cos, -sin))
    return [exps[sub.tobytes()] if sub.any() else np.eye(len(sub) + 1) for sub in subs]


def truncation_deficit(rho: FockDensityMatrix) -> float:
    """Missing trace plus the population of the top two Fock levels per mode.

    The squeeze unitaries are orthogonal even after truncation, so weight
    they rotate past the cutoff never shows up as lost trace; the occupation
    of the highest retained levels is the sentinel for that spillover.  Two
    levels, because squeezed vacuum populates only every other one.
    """
    diag = rho.diagonal
    deficit = 1.0 - float(diag.sum())
    if len(rho.dims) == 1:
        return deficit + float(diag[-2:].sum())
    grid = diag.reshape(rho.dims)
    return deficit + float(grid[-2:, :].sum() + grid[:, -2:].sum() - grid[-2:, -2:].sum())


def fock_squeezed_thermal(
    params: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo,
    cfg: TruncationConfig,
) -> FockDensityMatrix:
    """Squeezed thermal state as a truncated density matrix.

    Single mode: exp((r/2)(a^dag^2 - a^2)) (antisqueezes q, matching the CM
    convention) couples n to n + 2 inside each parity sector.  Two modes:
    exp(r (a^dag b^dag - a b)) couples (n1, n2) to (n1 + 1, n2 + 1) inside
    each sector of fixed n1 - n2.  Each sector's generator is tridiagonal in
    that chain, and its block U diag(weights) U^T keeps (weights, U) as its
    spectrum.

    Raises TruncationError if the truncation deficit (lost trace plus
    top-level spillover) exceeds cfg.tail_tol.
    """
    dim = cfg.dim
    if isinstance(params, SqueezedThermalParamsSingle):
        dims: tuple[int, ...] = (dim,)
        weights = thermal_diagonal(params.n_t, dim)
        modulus = 2 if params.r else dim  # parity, or each level alone

        def coupling(n: np.ndarray) -> np.ndarray:
            return 0.5 * params.r * np.sqrt((n + 1.0) * (n + 2.0))

    elif isinstance(params, SqueezedThermalParamsTwo):
        dims = (dim, dim)
        weights = np.outer(thermal_diagonal(params.n_t1, dim), thermal_diagonal(params.n_t2, dim)).ravel()
        modulus = dim * dim

        def coupling(flat: np.ndarray) -> np.ndarray:
            n1, n2 = np.divmod(flat, dim)
            return params.r * np.sqrt((n1 + 1.0) * (n2 + 1.0))

    else:
        raise TypeError(f"unsupported parameter type {type(params).__name__}")
    sectors = _sector_layout(dims, modulus).sectors
    spectrum = [(weights[idx], u) for idx, u in zip(sectors, _squeeze_unitaries([coupling(idx[:-1]) for idx in sectors]))]
    data = np.concatenate([((u * w) @ u.T).ravel() for w, u in spectrum])
    out = FockDensityMatrix(dims, modulus=modulus, data=data, spectrum=spectrum)
    deficit = truncation_deficit(out)
    if deficit > cfg.tail_tol:
        raise TruncationError(f"truncation deficit {deficit:.3e} exceeds {cfg.tail_tol:g} at dim {cfg.dim}; raise the cutoff")
    return out


def apply_loss_kraus(rho: FockDensityMatrix, eta: float) -> FockDensityMatrix:
    """Loss on the first mode: rho -> sum_m (K_m x I) rho (K_m x I)^T.

    K_m = sum_j sqrt(binom(j + m, m) (1 - eta)^m eta^j) |j><j + m| removes m
    photons, so on the (d1, d2, d1, d2) tensor it is the diagonal shift
    rho[j + m, :, k + m, :] -> out[j, :, k, :] weighted by K_m[j] K_m[k].
    The blocks are gathered into a (d1, d1, X) array over the mode-1 row and
    column levels: X = 1 for one mode, X = d2 (the mode-2 row level; the
    column level follows) for an exact two-mode charge, else X = d2^2.  Each
    m is one slice product, and the output keeps the input's sectors.  The
    binomials come from cumulative log-factorials.  On the truncated space
    the set is exactly trace preserving: the binomial sum over m <= j is
    complete for every j < dim.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    if eta == 1.0:
        return rho
    d1, d2 = rho.dims[0], math.prod(rho.dims[1:])
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 2 * d1 - 1)))))
    m, j = np.arange(d1)[:, None], np.arange(d1)[None, :]
    # amp[m, j] = K_m[j]; only entries with j + m < d1 are read
    amp = np.exp(0.5 * (log_fact[j + m] - log_fact[m] - log_fact[j] + m * math.log(1.0 - eta) + j * math.log(eta)))
    (n1, n2), (k1, k2) = np.divmod(rho.layout.rows, d2), np.divmod(rho.layout.cols, d2)
    exact = rho.modulus == d1 * d2
    width = d2 if exact else d2 * d2
    at = (n1 * d1 + k1) * width + (n2 if exact else n2 * d2 + k2)
    src, out = np.zeros((2, d1, d1, width))
    src.flat[at] = rho.data
    for lost in range(d1):
        w = amp[lost, : d1 - lost]
        out[: d1 - lost, : d1 - lost] += np.outer(w, w)[:, :, None] * src[lost:, lost:]
    return FockDensityMatrix(rho.dims, modulus=rho.modulus, data=out.ravel()[at])


def _ladder(rho1: np.ndarray) -> tuple[float, float, float]:
    """<a>, <a^2> and <(a a^dag + a^dag a)/2> of a one-mode matrix.

    The operators are the truncated matrices, so a a^dag has 0, not dim,
    as its top diagonal entry.
    """
    n = np.arange(1.0, rho1.shape[0])
    a1 = float(np.diagonal(rho1, -1) @ np.sqrt(n))
    a2 = float(np.diagonal(rho1, -2) @ np.sqrt(n[:-1] * n[1:]))
    sym = float(np.diagonal(rho1)[:-1] @ (n - 0.5)) + 0.5 * (rho1.shape[0] - 1) * float(rho1[-1, -1])
    return a1, a2, sym


def moments_from_fock(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and covariance matrix of a Fock-basis state.

    The state is real symmetric, so <X^T> = <X> for every real ladder
    monomial X: every <p> and every q-p covariance vanishes, and the rest
    follows from <a>, <a^2>, <a a^dag + a^dag a> per mode and, for two
    modes, <a b> and <a b^dag>, each read off one diagonal band.  The
    entries t[n1, n2, k1, k2] of the (d1, d2, d1, d2) tensor come from the
    blocks (d2 = 1 for one mode).
    """
    d1, d2 = rho.dims[0], math.prod(rho.dims[1:])

    def t(n1, n2, k1, k2) -> np.ndarray:
        return _entries(rho.layout, rho.data, n1 * d2 + n2, k1 * d2 + k2)

    i, j = np.arange(d1)[:, None, None], np.arange(d2)[:, None]
    modes = [_ladder(t(i, j, np.arange(d1), j).sum(axis=1))]
    if len(rho.dims) == 2:
        modes.append(_ladder(t(i, j, i, np.arange(d2)).sum(axis=0)))
    first, second = np.zeros(2 * len(modes)), np.zeros((2 * len(modes), 2 * len(modes)))
    for k, (a1, a2, sym) in enumerate(modes):
        first[2 * k] = math.sqrt(2.0) * a1
        second[2 * k, 2 * k], second[2 * k + 1, 2 * k + 1] = sym + a2, sym - a2
    if len(modes) == 2:
        root = np.outer(np.sqrt(np.arange(1.0, d1)), np.sqrt(np.arange(1.0, d2)))
        i, j = np.arange(d1 - 1)[:, None], np.arange(d2 - 1)
        ab = float(np.sum(t(i + 1, j + 1, i, j) * root))
        ab_dag = float(np.sum(t(i + 1, j, i, j + 1) * root))
        second[0, 2] = second[2, 0] = ab + ab_dag
        second[1, 3] = second[3, 1] = ab_dag - ab
    return first, second - np.outer(first, first)


def _spectral_overlap(
    rho_a: FockDensityMatrix, rho_b: FockDensityMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, table, mu): both spectra and |<v_i|w_j>|^2, one row per common sector.

    Rows are zero-padded to the widest sector; a padded eigenvalue is an
    exact 0 with a zero overlap row, so it adds nothing.
    Tr[rho_a^s rho_b^(1-s)] = sum over rows of lam^s @ table @ mu^(1-s), so
    after this one factorization each s evaluation is one batched product.
    """
    rho_a, rho_b = _common(rho_a, rho_b)
    count, width = len(rho_a.blocks), int(rho_a.layout.size.max())
    lam, mu, table = np.zeros((count, width)), np.zeros((count, width)), np.zeros((count, width, width))
    for k, ((la, va), (lb, vb)) in enumerate(zip(rho_a.spectrum, rho_b.spectrum)):
        n = len(la)
        lam[k, :n], mu[k, :n], table[k, :n, :n] = la, lb, (va.T @ vb) ** 2
    return lam, table, mu


def _s_step(s: float, lam: np.ndarray, table: np.ndarray, mu: np.ndarray) -> tuple[float, float, float]:
    """(Q, Q', Q'') at s, for Q(s) = sum over rows of lam^s @ table @ mu^(1-s).

    A term exp(s ln lam_i + (1 - s) ln mu_j) T_ij has derivatives weighted by
    (ln lam_i - ln mu_j) and its square, so the rows lam^s (1, ln lam,
    ln^2 lam) meet the table, then the columns mu^(1-s) (1, ln mu, ln^2 mu),
    in one batched product.  ln 0 = -inf makes exp(s ln 0) exactly 0, and a
    zero weight's log factor counts as 0.
    """
    with np.errstate(divide="ignore"):
        log_lam, log_mu = np.log(lam), np.log(mu)
    powers = []
    for e, w, log in ((s, lam, log_lam), (1.0 - s, mu, log_mu)):
        p, ln = np.exp(e * log), np.where(w > 0.0, log, 0.0)
        powers.append(np.stack((p, p * ln, p * ln * ln), axis=-1))
    m = (np.swapaxes(powers[0], 1, 2) @ table @ powers[1]).sum(axis=0)
    return float(m[0, 0]), float(m[1, 0] - m[0, 1]), float(m[2, 0] - 2.0 * m[1, 1] + m[0, 2])


def _minimize_s(lam: np.ndarray, table: np.ndarray, mu: np.ndarray) -> tuple[float, float]:
    """(s_star, Q): the minimum of the log-convex s-curve on [S_EPS, 1 - S_EPS].

    Q' is increasing, so a non-negative slope at S_EPS (a non-positive one
    at 1 - S_EPS) puts the minimum at that edge.  Otherwise Newton on Q'
    from s = 0.5 stays inside the bracket of its sign change, bisecting
    when a step would leave it, until the step is at most S_TOL.
    """
    lo, hi = S_EPS, 1.0 - S_EPS
    q, slope, _ = _s_step(lo, lam, table, mu)
    if slope >= 0.0:
        return lo, q
    q, slope, _ = _s_step(hi, lam, table, mu)
    if slope <= 0.0:
        return hi, q
    s = 0.5
    while True:
        q, slope, curv = _s_step(s, lam, table, mu)
        if slope == 0.0:
            return s, q
        lo, hi = (s, hi) if slope < 0.0 else (lo, s)
        step = -slope / curv if curv > 0.0 else math.inf  # a roundoff curvature <= 0 bisects
        nxt = s + step if lo < s + step < hi else 0.5 * (lo + hi)
        if abs(nxt - s) <= S_TOL:
            return s, q
        s = nxt


def s_overlap_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix, s: float) -> float:
    """Tr[rho_a^s rho_b^(1-s)] by explicit fractional powers.

    Near s = 0 (and 1) this is only as good as the smallest eigenvalues.  A
    prepared state keeps its exact zero weights, but a state diagonalised
    by `eigh` (a loss output, or one built from a dense matrix) keeps its
    clamped roundoff eigenvalues: about 1e-17, raised to s = 1e-6, they
    count as about 1 instead of 0.  qcb_fock is protected by its
    rank-floored boundary candidates; this curve is not.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent must be in (0, 1), got {s}")
    return _s_step(s, *_spectral_overlap(rho_a, rho_b))[0]


def qcb_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> tuple[float, float]:
    """(Q, s_star): minimum of the s-overlap, boundaries included.

    On [S_EPS, 1 - S_EPS], `_minimize_s` stops at an edge whose slope
    points outward, else runs Newton on Q' inside its sign bracket.  The
    boundary values are lim_(s -> 0) = Tr[P_a rho_b] and the mirror image,
    with P the support projector (eigenvalues above a rank floor relative
    to the largest eigenvalue over all sectors); they win exactly when a
    state is pure.
    """
    la, table, lb = _spectral_overlap(rho_a, rho_b)
    s_star, q = _minimize_s(la, table, lb)
    rank_a = (la > la.max() * 1e-12).astype(float)
    rank_b = (lb > lb.max() * 1e-12).astype(float)
    at_zero = float(np.einsum("ki,kij,kj->", rank_a, table, lb))
    at_one = float(np.einsum("ki,kij,kj->", la, table, rank_b))
    for cand_s, cand_q in ((0.0, at_zero), (1.0, at_one)):
        if cand_q < q:
            s_star, q = cand_s, cand_q
    return q, s_star


def _trace_distance(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix, copies: int) -> float:
    """(1/2) ||rho_a^xM - rho_b^xM||_1: one block per M-tuple of sectors, the Kronecker product of its blocks."""
    rho_a, rho_b = _common(rho_a, rho_b)
    diffs = [
        reduce(np.kron, [rho_a.blocks[k] for k in ks]) - reduce(np.kron, [rho_b.blocks[k] for k in ks])
        for ks in itertools.product(range(len(rho_a.blocks)), repeat=copies)
    ]
    return 0.5 * sum(float(np.abs(vals).sum()) for vals in _stacked(np.linalg.eigvalsh, diffs))


def trace_distance_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """(1/2) ||rho_a - rho_b||_1."""
    return _trace_distance(rho_a, rho_b, 1)


def helstrom_pe_fock(
    rho_a: FockDensityMatrix,
    rho_b: FockDensityMatrix,
    copies: int = 1,
    cap: int = DEFAULT_HELSTROM_CAP,
) -> float:
    """Exact M-copy Helstrom error (1 - T(rho_a^xM, rho_b^xM)) / 2.

    The M-fold tensor powers are block diagonal over tuples of sectors
    (`_trace_distance`).  For M > 1 the total dimension dim^M must stay at
    or below `cap`; one copy materializes nothing beyond the states.
    """
    if copies < 1:
        raise ValueError(f"copy count must be >= 1, got {copies}")
    d = math.prod(rho_a.dims)
    if copies > 1 and d**copies > cap:
        raise HelstromCapError(f"dimension {d}^{copies} exceeds the Helstrom cap {cap}")
    return 0.5 * (1.0 - _trace_distance(rho_a, rho_b, copies))


def fidelity_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """Uhlmann fidelity (Tr |sqrt(rho_a) sqrt(rho_b)|)^2 = (Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2.

    Per block, the singular values of diag(sqrt(la)) Va^T Vb diag(sqrt(lb)),
    from both spectra: no root is taken of a roundoff eigenvalue, whose
    root (3e-9 for 1e-17) would survive into the trace.  So each state's
    roots also have a floor relative to its largest eigenvalue: weight this
    far below the top of a trace-1 spectrum is noise.
    """
    rho_a, rho_b = _common(rho_a, rho_b)
    roots = []
    for rho in (rho_a, rho_b):
        floor = 1e-13 * max(vals.max() for vals, _ in rho.spectrum)
        roots.append([np.sqrt(np.where(vals < floor, 0.0, vals)) for vals, _ in rho.spectrum])
    mats = [ra[:, None] * (va.T @ vb) * rb for ra, rb, (_, va), (_, vb) in zip(*roots, rho_a.spectrum, rho_b.spectrum)]
    svals = _stacked(lambda x: np.linalg.svd(x, compute_uv=False), mats)
    return sum(float(vals.sum()) for vals in svals) ** 2

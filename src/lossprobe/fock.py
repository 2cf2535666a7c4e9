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
`eigh` of a real tridiagonal); loss is one Toeplitz product over the mode-1
diagonals, and its output diagonalises its blocks once.  Equal-size blocks
share one stacked LAPACK call.  Moments are sums over int32 band maps, the
fidelity comes from singular values.  The Chernoff s-curve, a
sum of exponentials in s with non-negative weights, is log-convex: its
minimum is an edge whose slope points outward, or Newton on the slope inside
its sign bracket, stopped by the tangents at the bracket ends.  Rank and
fidelity floors are relative to the largest eigenvalue over all sectors, and
an eigenvalue below -1e-10 in any sector raises.  A sector without weight
(a pure input has weight in one) is an exactly zero block: it is built and
factorised without LAPACK, adds exactly 0 to the s-curve and both end
candidates, and leaves the live block's trace in the trace distance.
The fidelity keeps only eigenvectors at or above its floor: a floored root
zeroes a row, which adds no singular value.  The dense route (`expm`, Kraus
matmuls, complex quadratures, one full `eigh`) is the reference in the
tests.  This module imports only numpy.

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

from .chernoff import S_EPS
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
    row_at: np.ndarray  # per basis index i: where its row starts in `data`, so (i, j) sits at row_at[i] + position[j]
    rows: np.ndarray  # per entry of `data`: the basis indices of its row
    cols: np.ndarray  # and of its column
    transpose: np.ndarray  # per entry of `data`: where its mirror entry sits (int32)
    diag: np.ndarray  # per basis index: where its diagonal entry sits (int32)


@lru_cache(maxsize=32)
def _sector_layout(dims: tuple[int, ...], modulus: int) -> _Layout:
    """The classes of charge mod `modulus`, ascending, each block raveled after the last."""
    _, sector_of, size = np.unique(_charge(dims) % modulus, return_inverse=True, return_counts=True)
    sectors = [np.flatnonzero(sector_of == k) for k in range(sector_of.max() + 1)]
    position = np.empty_like(sector_of)
    position[np.concatenate(sectors)] = np.concatenate([np.arange(len(idx)) for idx in sectors])
    rows = np.concatenate([np.repeat(idx, len(idx)) for idx in sectors])
    cols = np.concatenate([np.tile(idx, len(idx)) for idx in sectors])
    start = np.concatenate(([0], np.cumsum(size**2)))
    row_at = start[sector_of] + position * size[sector_of]
    maps = (row_at[cols] + position[rows], row_at + position)
    return _Layout(sectors, sector_of, position, size, start, row_at, rows, cols, *(m.astype(np.int32) for m in maps))


def _stacked(fn, mats: list[np.ndarray]) -> list:
    """fn of each matrix, one stacked call per shape: a linalg gufunc
    factorises each matrix of a stack alone, so the bits are those of one call each."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for k, m in enumerate(mats):
        by_shape.setdefault(m.shape, []).append(k)
    out: list = [None] * len(mats)
    for ks in by_shape.values():
        res = fn(np.stack([mats[k] for k in ks]))
        for k, r in zip(ks, zip(*res) if isinstance(res, tuple) else res):
            out[k] = r
    return out


@lru_cache(maxsize=32)
def _diagonal_map(dims: tuple[int, ...], modulus: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(at, deltas, lanes): per entry of `data`, its place in a (d1, len(deltas), lanes) array of mode-1 diagonals.

    Each entry takes its upper mirror's place: level n1 of mode-1 diagonal
    k1 - n1 >= 0, in the lane of its mode-2 levels (the row's alone when
    the exact charge fixes the column's); `deltas` lists the diagonals.
    """
    lay = _sector_layout(dims, modulus)
    d1, d2 = dims[0], math.prod(dims[1:])
    (n1, n2), (k1, k2) = np.divmod(np.minimum(lay.rows, lay.cols), d2), np.divmod(np.maximum(lay.rows, lay.cols), d2)
    lanes, lane = (d2, n2) if modulus == math.prod(dims) else (d2 * d2, n2 * d2 + k2)
    present = np.bincount(k1 - n1, minlength=d1) > 0
    deltas = np.flatnonzero(present)
    at = (n1 * len(deltas) + (np.cumsum(present) - 1)[k1 - n1]) * lanes + lane
    return at.astype(np.int32), deltas, lanes


@lru_cache(maxsize=32)
def _moment_bands(dims: tuple[int, ...], modulus: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions in `data` (int32), weights) of the band entries inside a sector, per ladder moment:
    <a>, <a^2> and the truncated <(a a^dag + a^dag a)/2> (top weight (dim - 1)/2) per mode, then <a b>, <a b^dag>."""
    lay, grid = _sector_layout(dims, modulus), np.arange(math.prod(dims)).reshape(dims)

    def band(rows, cols, w) -> tuple[np.ndarray, np.ndarray]:
        inside = lay.sector_of[rows] == lay.sector_of[cols]
        return (lay.row_at[rows] + lay.position[cols])[inside].astype(np.int32), np.broadcast_to(w, rows.shape)[inside]

    bands = []
    for mode, d in enumerate(dims):
        flat, n = np.moveaxis(grid, mode, 0).reshape(d, -1), np.arange(d)[:, None]  # flat[n, other mode's level]
        bands += [band(flat[1:], flat[:-1], np.sqrt(n[1:])), band(flat[2:], flat[:-2], np.sqrt(n[1:-1] * n[2:]))]
        bands.append(band(flat, flat, np.where(n < d - 1, n + 0.5, 0.5 * (d - 1))))
    if len(dims) == 2:
        root = np.sqrt(np.outer(np.arange(1.0, dims[0]), np.arange(1.0, dims[1])))
        bands += [band(grid[1:, 1:], grid[:-1, :-1], root), band(grid[1:, :-1], grid[:-1, 1:], root)]
    return bands


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
        mirror = data.take(lay.transpose)
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

    @cached_property
    def live(self) -> np.ndarray:
        """Per sector: whether its block has any nonzero entry."""
        return np.logical_or.reduceat(self.data != 0.0, self.layout.start[:-1])

    @property
    def diagonal(self) -> np.ndarray:
        """The populations, in flat basis order."""
        return self.data.take(self.layout.diag)

    @property
    def mat(self) -> np.ndarray:
        m = np.zeros((math.prod(self.dims),) * 2)
        m[self.layout.rows, self.layout.cols] = self.data
        return m

    @cached_property
    def spectrum(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(eigenvalues, eigenvectors) per block, negatives clamped to 0; a dead block is (zeros, identity)."""
        found = iter(_stacked(np.linalg.eigh, [b for b, live in zip(self.blocks, self.live) if live]))
        spectra = [next(found) if live else (np.zeros(len(b)), np.eye(len(b))) for b, live in zip(self.blocks, self.live)]
        if (low := min(vals.min() for vals, _ in spectra)) < -EIG_CLAMP:
            raise ArithmeticError(f"density matrix eigenvalue {low:.3e} below -1e-10")
        return [(np.maximum(vals, 0.0), vecs) for vals, vecs in spectra]


def _common(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> tuple[FockDensityMatrix, FockDensityMatrix]:
    """Both states on the coarser of their partitions, which both respect: blocks merged, not rebuilt."""
    if rho_a.dims != rho_b.dims:
        raise ValueError(f"dims differ: {rho_a.dims} vs {rho_b.dims}")
    modulus = min(rho_a.modulus, rho_b.modulus)
    lay = _sector_layout(rho_a.dims, modulus)

    def merged(rho: FockDensityMatrix) -> FockDensityMatrix:  # each entry moved to its place in the coarser blocks
        at = lay.row_at[rho.layout.rows] + lay.position[rho.layout.cols]
        return FockDensityMatrix(rho.dims, modulus=modulus, data=np.bincount(at, rho.data, lay.start[-1]))

    return tuple(merged(rho) if rho.modulus > modulus else rho for rho in (rho_a, rho_b))


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
    live = [weights[idx].any() for idx in sectors]
    found = iter(_squeeze_unitaries([coupling(idx[:-1]) for idx, k in zip(sectors, live) if k]))
    spectrum = [(weights[idx], next(found) if k else np.eye(len(idx))) for idx, k in zip(sectors, live)]
    data = np.concatenate([((u * w) @ u.T).ravel() if k else np.zeros(len(w) ** 2) for (w, u), k in zip(spectrum, live)])
    out = FockDensityMatrix(dims, modulus=modulus, data=data, spectrum=spectrum)
    deficit = truncation_deficit(out)
    if deficit > cfg.tail_tol:
        raise TruncationError(f"truncation deficit {deficit:.3e} exceeds {cfg.tail_tol:g} at dim {cfg.dim}; raise the cutoff")
    return out


def apply_loss_kraus(rho: FockDensityMatrix, eta: float) -> FockDensityMatrix:
    """Loss on the first mode: rho -> sum_m (K_m x I) rho (K_m x I)^T.

    K_m = sum_j sqrt(binom(j + m, m) (1 - eta)^m eta^j) |j><j + m| removes m
    photons, so on the mode-1 levels
    out[j, k] = eta^((j + k)/2) / sqrt(j! k!) sum_m ((1 - eta)^m / m!) sqrt((j + m)! (k + m)!) rho[j + m, k + m].
    Scaled by alpha_a = sqrt(a!) / G^a, every mode-1 diagonal k - j of every
    mode-2 lane meets one Toeplitz kernel T[j, i >= j] = (G^2 (1 - eta))^(i - j)
    / (i - j)!: one product over the gathered diagonals (`_diagonal_map`).
    G^2 = dim/e keeps alpha within exp(+-dim/(2e)) and T below exp(dim/e),
    finite up to a mode-1 cutoff of 1800.  Trace preserving to roundoff: the
    binomial sum over m <= j is complete for every j < dim.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    if eta == 1.0:
        return rho
    if (d1 := rho.dims[0]) > 1800:
        raise ValueError(f"the loss kernel's scales overflow past a mode-1 cutoff of 1800, got {d1}")
    at, deltas, lanes = _diagonal_map(rho.dims, rho.modulus)
    g2, n = d1 / math.e, np.arange(1.0, d1)
    alpha = np.cumprod(np.concatenate(([1.0], np.sqrt(n / g2))))
    decay = np.cumprod(np.concatenate(([1.0], g2 * (1.0 - eta) / n)))
    gain = eta ** (0.5 * np.arange(d1)) / alpha
    kernel = np.triu(decay[np.abs(np.subtract.outer(np.arange(d1), np.arange(d1)))])
    pair = np.minimum(np.arange(d1)[:, None] + deltas, d1 - 1)  # the column level; slots past d1 hold zeros
    grid = np.zeros((d1, len(deltas), lanes))
    grid.reshape(-1)[at] = rho.data
    grid *= (alpha[:, None] * alpha[pair])[:, :, None]
    out = (kernel @ grid.reshape(d1, -1)).reshape(grid.shape) * (gain[:, None] * gain[pair])[:, :, None]
    return FockDensityMatrix(rho.dims, modulus=rho.modulus, data=out.take(at))


def moments_from_fock(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and covariance matrix of a Fock-basis state.

    The state is real symmetric, so <X^T> = <X> for every real ladder
    monomial X: every <p> and every q-p covariance vanishes, and the rest
    follows from the ladder moments, each one weighted sum over its band of
    `data` (`_moment_bands`).
    """
    values = np.array([(rho.data.take(at) * w).sum() for at, w in _moment_bands(rho.dims, rho.modulus)])
    modes = len(rho.dims)
    a1, a2, sym = values[: 3 * modes].reshape(modes, 3).T
    first, second = np.zeros(2 * modes), np.diag(np.column_stack((sym + a2, sym - a2)).ravel())
    first[::2] = math.sqrt(2.0) * a1
    if modes == 2:
        ab, ab_dag = values[6:]
        second[0, 2] = second[2, 0] = ab + ab_dag
        second[1, 3] = second[3, 1] = ab_dag - ab
    return first, second - np.outer(first, first)


def _spectral_overlap(
    rho_a: FockDensityMatrix, rho_b: FockDensityMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, table, mu): both spectra and |<v_i|w_j>|^2, one row per sector live in both states.

    Rows are zero-padded to the widest; a padded eigenvalue is an exact 0
    with a zero overlap row, and so is a sector dead in either state: both add nothing.
    Tr[rho_a^s rho_b^(1-s)] = sum over rows of lam^s @ table @ mu^(1-s), so
    after this one factorization each s evaluation is one batched product.
    """
    rho_a, rho_b = _common(rho_a, rho_b)
    both = np.flatnonzero(rho_a.live & rho_b.live)
    count, width = len(both), int(rho_a.layout.size[both].max(initial=0))
    lam, mu, table = np.zeros((count, width)), np.zeros((count, width)), np.zeros((count, width, width))
    for row, k in enumerate(both):
        (la, va), (lb, vb), n = rho_a.spectrum[k], rho_b.spectrum[k], rho_a.layout.size[k]
        lam[row, :n], mu[row, :n], table[row, :n, :n] = la, lb, (va.T @ vb) ** 2
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
    when a step would leave it, until the lower end is within 4 eps of where
    the end tangents cross, below the minimum of the convex Q (a flat curve,
    whose Q' is roundoff, never meets a stop on the step in s).
    """
    ends = []
    for edge in (S_EPS, 1.0 - S_EPS):
        q, slope, _ = _s_step(edge, lam, table, mu)
        if slope * (edge - 0.5) <= 0.0:  # the slope points out of [S_EPS, 1 - S_EPS]
            return edge, q
        ends.append((edge, q, slope))
    s = 0.5
    while True:
        q, slope, curv = _s_step(s, lam, table, mu)
        if slope == 0.0:
            return s, q
        ends[slope > 0.0] = (s, q, slope)  # s becomes the end whose slope has its sign
        (lo, q_lo, d_lo), (hi, q_hi, d_hi) = ends
        cross = (q_hi - q_lo + d_lo * lo - d_hi * hi) / (d_lo - d_hi)
        best = (lo, q_lo) if q_lo <= q_hi else (hi, q_hi)
        if best[1] - (q_lo + d_lo * (cross - lo)) <= 4.0 * np.finfo(float).eps * best[1]:
            return best
        step = -slope / curv if curv > 0.0 else math.inf  # a roundoff curvature <= 0 bisects
        s = s + step if lo < s + step < hi else 0.5 * (lo + hi)


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
    rho_a, rho_b = _common(rho_a, rho_b)
    la, table, lb = _spectral_overlap(rho_a, rho_b)
    s_star, q = _minimize_s(la, table, lb)
    rank_a = (la > max(vals.max() for vals, _ in rho_a.spectrum) * 1e-12).astype(float)
    rank_b = (lb > max(vals.max() for vals, _ in rho_b.spectrum) * 1e-12).astype(float)
    at_zero = float(np.einsum("ki,kij,kj->", rank_a, table, lb))
    at_one = float(np.einsum("ki,kij,kj->", la, table, rank_b))
    for cand_s, cand_q in ((0.0, at_zero), (1.0, at_one)):
        if cand_q < q:
            s_star, q = cand_s, cand_q
    return q, s_star


def _trace_distance(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix, copies: int) -> float:
    """(1/2) ||rho_a^xM - rho_b^xM||_1: one block per M-tuple of sectors, the Kronecker product of its blocks.

    Only a tuple live in both states (all its sectors live) calls `eigvalsh`.
    One live in one state adds the product of its positive blocks' traces: its
    trace norm, up to the roundoff eigenvalues the positivity check clamps."""
    rho_a, rho_b = _common(rho_a, rho_b)
    tuples = np.array(list(itertools.product(range(len(rho_a.blocks)), repeat=copies)))
    diffs, one_sided = [], []
    for ks, in_a, in_b in zip(tuples, rho_a.live[tuples].all(axis=1), rho_b.live[tuples].all(axis=1)):
        if in_a and in_b:
            diffs.append(reduce(np.kron, [rho_a.blocks[k] for k in ks]) - reduce(np.kron, [rho_b.blocks[k] for k in ks]))
        elif in_a or in_b:
            one_sided.append(math.prod(float(np.trace((rho_a if in_a else rho_b).blocks[k])) for k in ks))
    return 0.5 * sum([float(np.abs(vals).sum()) for vals in _stacked(np.linalg.eigvalsh, diffs)] + one_sided)


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
    far below the top of a trace-1 spectrum is noise.  A floored root would
    zero a row, which adds no singular value, so the blocks are rectangular.
    """
    rho_a, rho_b = _common(rho_a, rho_b)
    support = []
    for rho in (rho_a, rho_b):
        floor = 1e-13 * max(vals.max() for vals, _ in rho.spectrum)
        support.append([(np.sqrt(vals[vals >= floor]), vecs[:, vals >= floor]) for vals, vecs in rho.spectrum])
    mats = [ra[:, None] * (va.T @ vb) * rb for (ra, va), (rb, vb) in zip(*support) if len(ra) and len(rb)]
    svals = _stacked(lambda x: np.linalg.svd(x, compute_uv=False), mats)
    return sum(float(vals.sum()) for vals in svals) ** 2

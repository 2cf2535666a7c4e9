"""Truncated Fock-space brute force for validating the Gaussian machinery.

States are density matrices in the number basis.  Everything stays real
float64 (the squeezing generators are real antisymmetric, so the unitaries
are real orthogonal), and nothing is renormalized: the truncation tail is
measured, capped by `tail_tol`, and otherwise left in the numbers so the
comparisons stay honest.

Charge sectors.  Single-mode squeezing conserves photon-number parity,
two-mode squeezing conserves the charge n1 - n2, and loss on the first mode
preserves the charge difference between row and column.  So every oracle
state is block diagonal, and a `FockDensityMatrix` stores only its blocks,
by size: each size class is one contiguous (count, n, n) view of `data`,
and every stage makes one stacked call per class.  A prepared block U
diag(w) U^T keeps (w, U) as its spectrum (U from the `eigh` of a real
tridiagonal); loss is one Toeplitz product over the mode-1 diagonals;
moments are sums over int32 band maps.  The Chernoff s-curve, a sum of
exponentials in s with non-negative weights, is log-convex: its minimum is
an edge whose slope points outward, or Newton on the slope inside its sign
bracket, stopped by the tangents at the bracket ends.  Rank and fidelity
floors are relative to the largest eigenvalue over all sectors, and an
eigenvalue below -1e-10 in any sector raises.  A sector without weight (a
pure input has weight in one) is an exactly zero block that no LAPACK call
sees: it adds exactly 0 to the s-curve and both end candidates, and the
trace distance takes the live block's trace.  The dense route (`expm`,
Kraus matmuls, complex quadratures, one full `eigh`) is the reference in
the tests.  This module imports only numpy.

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
    sectors: list[np.ndarray]  # per size class: the flat basis indices of its sectors, (count, n), each row ascending
    classes: list[tuple[int, int, int]]  # per size class, ascending: (n, first sector, end sector)
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
    """The sectors (classes of charge mod `modulus`) by size, then by charge, each block raveled after
    the last: the blocks of one size, a size class, make one contiguous (count, n, n) stretch of `data`."""
    _, charge_of, counts = np.unique(_charge(dims) % modulus, return_inverse=True, return_counts=True)
    order = np.argsort(counts, kind="stable")
    size, sector_of = counts[order], np.argsort(order)[charge_of]
    members = [np.flatnonzero(sector_of == k) for k in range(len(size))]
    sizes, first = np.unique(size, return_index=True)
    classes = list(zip(sizes.tolist(), first.tolist(), first[1:].tolist() + [len(size)]))
    position = np.empty_like(sector_of)
    position[np.concatenate(members)] = np.concatenate([np.arange(len(idx)) for idx in members])
    rows = np.concatenate([np.repeat(idx, len(idx)) for idx in members])
    cols = np.concatenate([np.tile(idx, len(idx)) for idx in members])
    start = np.concatenate(([0], np.cumsum(size**2)))
    row_at = start[sector_of] + position * size[sector_of]
    maps = (row_at[cols] + position[rows], row_at + position)
    sectors = [np.array(members[a:b]) for _, a, b in classes]
    return _Layout(sectors, classes, sector_of, position, size, start, row_at, rows, cols, *(m.astype(np.int32) for m in maps))


def _select(keep: np.ndarray, *stacks: np.ndarray) -> list[np.ndarray]:
    """The members of each stack where `keep`: the stacks themselves, uncopied, where it keeps all."""
    return list(stacks) if keep.all() else [x[keep] for x in stacks]


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
    def stacks(self) -> list[np.ndarray]:
        """The blocks of each size class, ascending in size: a (count, n, n) view into `data`."""
        return [self.data[self.layout.start[a] : self.layout.start[b]].reshape(b - a, n, n) for n, a, b in self.layout.classes]

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
        """(eigenvalues (count, n), eigenvectors (count, n, n)) per size class, negatives clamped to 0:
        one stacked `eigh` per class over its live blocks; a dead block is (zeros, identity)."""
        spectra = []
        for (n, a, b), stack in zip(self.layout.classes, self.stacks):
            if (live := self.live[a:b]).all():
                vals, vecs = np.linalg.eigh(stack)
            else:
                vals, vecs = np.zeros((b - a, n)), np.broadcast_to(np.eye(n), stack.shape).copy()
                if live.any():
                    vals[live], vecs[live] = np.linalg.eigh(stack[live])
            spectra.append((vals, vecs))
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


def _squeeze_unitaries(subs: np.ndarray) -> np.ndarray:
    """exp(G) for each row of `subs`, G = diag(sub, -1) - diag(sub, 1): one stacked `eigh` over the distinct rows.

    G = -i D T D^* with D = diag(i^j) and T = diag(sub, -1) + diag(sub, 1), so
    exp(G)[j, k] = i^(j - k) (cos T - i sin T)[j, k]: cos T, sin T, -cos T or
    -sin T for (j - k) mod 4 = 0 to 3 (T is a path: cos T is even, sin T odd).
    A zero row (no squeezing, a 1 x 1 block, or a block without weight) gives the identity without LAPACK.
    """
    n, nonzero = subs.shape[1] + 1, subs.any(axis=1)
    out = np.broadcast_to(np.eye(n), (len(subs), n, n)).copy()
    if nonzero.any():
        first = (subs[:, None] == subs).all(axis=2).argmax(axis=1)  # per row, the first row equal to it
        distinct = np.flatnonzero((first == np.arange(len(subs))) & nonzero)
        t = np.zeros((len(distinct), n * n))
        t[:, 1 :: n + 1] = t[:, n :: n + 1] = subs[distinct]  # the super- and subdiagonal
        w, v = np.linalg.eigh(t.reshape(-1, n, n))
        cos, sin = (v * np.cos(w)[:, None]) @ v.mT, (v * np.sin(w)[:, None]) @ v.mT
        exps = np.choose(np.subtract.outer(np.arange(n), np.arange(n)) % 4, (cos, sin, -cos, -sin))
        out[nonzero] = exps[np.searchsorted(distinct, first[nonzero])]
    return out


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
    spectrum; the blocks of one size are built as one stack.

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
    lay = _sector_layout(dims, modulus)
    # each level's link up its chain, 0 in a sector without weight: its block keeps the identity
    link = coupling(np.arange(math.prod(dims))) * (np.bincount(lay.sector_of, weights) > 0.0)[lay.sector_of]
    spectrum = [(weights[idx], _squeeze_unitaries(link[idx[:, :-1]])) for idx in lay.sectors]  # per size class
    data = np.concatenate([((u * w[:, None, :]) @ u.mT).ravel() if w.any() else np.zeros(u.size) for w, u in spectrum])
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

    Rows come class by class (one batched product each), zero-padded to the widest: a padded
    eigenvalue is an exact 0 with a zero overlap row.  Tr[rho_a^s rho_b^(1-s)] = sum over rows of
    lam^s @ table @ mu^(1-s), so after this one factorization each s evaluation is one batched product.
    """
    rho_a, rho_b = _common(rho_a, rho_b)
    both = rho_a.live & rho_b.live
    ends, width = np.concatenate(([0], np.cumsum(both))), int(rho_a.layout.size[both].max(initial=0))
    lam, mu, table = np.zeros((ends[-1], width)), np.zeros((ends[-1], width)), np.zeros((ends[-1], width, width))
    for (n, a, b), (la, va), (lb, vb) in zip(rho_a.layout.classes, rho_a.spectrum, rho_b.spectrum):
        if ends[b] > ends[a]:  # the class's sectors live in both take rows ends[a] to ends[b]
            (la, va, lb, vb), rows = _select(both[a:b], la, va, lb, vb), slice(ends[a], ends[b])
            lam[rows, :n], mu[rows, :n], table[rows, :n, :n] = la, lb, (va.mT @ vb) ** 2
    return lam, table, mu


def _logs(lam: np.ndarray, mu: np.ndarray) -> list:
    """(ln w, ln w with a zero weight's factor 0) of both spectra, computed once per s-curve."""
    with np.errstate(divide="ignore"):
        return [(log, np.where(w > 0.0, log, 0.0)) for w in (lam, mu) for log in (np.log(w),)]


def _s_step(s: float, table: np.ndarray, logs: list) -> tuple[float, float, float]:
    """(Q, Q', Q'') at s, for Q(s) = sum over rows of lam^s @ table @ mu^(1-s).

    A term exp(s ln lam_i + (1 - s) ln mu_j) T_ij has derivatives weighted by
    (ln lam_i - ln mu_j) and its square, so the rows lam^s (1, ln lam,
    ln^2 lam) meet the table, then the columns mu^(1-s) (1, ln mu, ln^2 mu),
    in one batched product.  ln 0 = -inf makes exp(s ln 0) exactly 0, and a
    zero weight's log factor counts as 0 (`_logs`).
    """
    powers = []
    for e, (log, ln) in zip((s, 1.0 - s), logs):
        p = np.exp(e * log)
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
    ends, logs = [], _logs(lam, mu)
    for edge in (S_EPS, 1.0 - S_EPS):
        q, slope, _ = _s_step(edge, table, logs)
        if slope * (edge - 0.5) <= 0.0:  # the slope points out of [S_EPS, 1 - S_EPS]
            return edge, q
        ends.append((edge, q, slope))
    s = 0.5
    while True:
        q, slope, curv = _s_step(s, table, logs)
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
    lam, table, mu = _spectral_overlap(rho_a, rho_b)
    return _s_step(s, table, _logs(lam, mu))[0]


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


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Kronecker product of every pair of blocks: (p, n, n) and (q, m, m) give (p q, n m, n m), x's blocks major."""
    return (x[:, None, :, None, :, None] * y[None, :, None, :, None, :]).reshape(len(x) * len(y), x.shape[1] * y.shape[1], -1)


def _trace_distance(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix, copies: int) -> float:
    """(1/2) ||rho_a^xM - rho_b^xM||_1: one block per M-tuple of sectors, the Kronecker product of its blocks.

    A tuple live in one state only adds the product of its positive blocks' traces (its trace norm, up to
    the roundoff eigenvalues the positivity check clamps); those live in both make one `eigvalsh` per class tuple."""
    rho_a, rho_b = _common(rho_a, rho_b)
    live = [reduce(np.logical_and.outer, [rho.live] * copies) for rho in (rho_a, rho_b)]  # per M-tuple of sectors
    both = live[0] & live[1]
    total = sum(reduce(np.multiply.outer, [np.bincount(rho.layout.sector_of, rho.diagonal)] * copies)[mine & ~both].sum()
                for rho, mine in zip((rho_a, rho_b), live))
    for cs in itertools.product(zip(rho_a.layout.classes, rho_a.stacks, rho_b.stacks), repeat=copies):
        if (keep := both[tuple(slice(a, b) for (_, a, b), _, _ in cs)].ravel()).any():
            diff = reduce(_kron, [sa for _, sa, _ in cs]) - reduce(_kron, [sb for _, _, sb in cs])
            total += np.abs(np.linalg.eigvalsh(_select(keep, diff)[0])).sum()
    return 0.5 * float(total)


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
    one stacked `svd` per size class: no root is taken of a roundoff
    eigenvalue (3e-9 for 1e-17 would survive into the trace), so each
    state's roots have a floor relative to its largest eigenvalue.  Only the
    columns that some member of the class supports are kept; a floored root
    among them zeroes its row (column), adding a singular value of roundoff size.
    """
    rho_a, rho_b = _common(rho_a, rho_b)
    floors = [1e-13 * max(vals.max() for vals, _ in rho.spectrum) for rho in (rho_a, rho_b)]
    total = 0.0
    for (la, va), (lb, vb) in zip(rho_a.spectrum, rho_b.spectrum):
        ra, rb = (np.sqrt(np.where(vals >= floor, vals, 0.0)) for vals, floor in ((la, floors[0]), (lb, floors[1])))
        if (both := ra.any(axis=1) & rb.any(axis=1)).any():
            ca, cb = ra.any(axis=0), rb.any(axis=0)  # the columns some member of the class supports
            ra, va, rb, vb = _select(both, ra[:, ca], va[:, :, ca], rb[:, cb], vb[:, :, cb])
            total += float(np.linalg.svd(ra[:, :, None] * (va.mT @ vb) * rb[:, None, :], compute_uv=False).sum())
    return total**2

"""Truncated Fock-space brute force for validating the Gaussian machinery.

States are explicit density matrices in the number basis.  Everything stays
real float64 (the squeezing generators are real antisymmetric, so the
unitaries are real orthogonal), and nothing is renormalized: the truncation
tail is measured, capped by `tail_tol`, and otherwise left in the numbers so
the comparisons stay honest.

Charge sectors.  Single-mode squeezing conserves photon-number parity,
two-mode squeezing conserves the charge n1 - n2, and loss on the first mode
preserves the charge difference between row and column.  So every oracle
state is block diagonal, with blocks of size at most `dim`.  Each
`FockDensityMatrix` finds its own sectors: the finest charge partition of
its `dims` whose off-sector entries are exactly zero (a hand-built matrix
that breaks the symmetry gets one sector, the whole space).  States are
built per sector (the tridiagonal generator of each block exponentiated by
`eigh`), loss is a sum of diagonal shifts of the (d1, d2, d1, d2) tensor,
moments come from banded ladder expectations, and every spectral function
loops over the sectors shared by its two states.  The dense matrix stays
the carrier.  The rank and fidelity floors stay relative to the largest
eigenvalue over all sectors, and an eigenvalue below -1e-10 in any sector
raises.  The dense route (`expm`, Kraus matmuls, complex quadratures, one
full `eigh`) is the reference in the tests.  This module imports only numpy.

Quadratures follow the package convention q = (a + a^dag)/sqrt(2),
p = (a - a^dag)/(i sqrt(2)), vacuum variance 1/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .chernoff import S_EPS, S_TOL, minimize_scalar_golden
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


def _sectors(dims: tuple[int, ...], modulus: int) -> list[np.ndarray]:
    """Flat basis indices of each class of charge mod `modulus`, ascending."""
    labels = _charge(dims) % modulus
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on a truncated Fock space of one or two modes.

    Hermiticity is validated at construction; positivity is enforced at each
    spectral use (eigenvalues below -1e-10 raise, small negatives clamp).
    `modulus` labels the sectors: the basis splits by charge mod `modulus`,
    tried finest first (the exact charge, then parity, then 1, the whole
    space), and the first partition with exactly zero off-sector entries wins.
    """

    dims: tuple[int, ...]
    mat: np.ndarray
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.dims) not in (1, 2):
            raise ValueError(f"one or two modes supported, got dims {self.dims}")
        d = int(np.prod(self.dims))
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        dims = tuple(int(x) for x in self.dims)
        # The off-sector entries are all zero exactly when the blocks hold
        # every nonzero entry; modulus 1 is one block and always qualifies.
        # Hermiticity is then checked, and enforced, block by block.
        nonzero = np.count_nonzero(m)
        for modulus in (d, 2, 1):
            sectors = _sectors(dims, modulus)
            blocks = [m[np.ix_(i, i)] for i in sectors]
            if sum(np.count_nonzero(b) for b in blocks) == nonzero:
                break
        sym = np.zeros(m.shape)
        for idx, b in zip(sectors, blocks):
            if np.max(np.abs(b - b.T)) > _HERMITICITY_TOL:
                raise ValueError("density matrix is not Hermitian")
            sym[np.ix_(idx, idx)] = (b + b.T) / 2.0
        if m.trace() > 1.0 + 1e-12:
            raise ValueError(f"trace {m.trace()} exceeds 1")
        m = sym
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "modulus", modulus)

    @property
    def trace_deficit(self) -> float:
        return 1.0 - float(self.mat.trace())


def _blocks(rho: FockDensityMatrix, sectors: list[np.ndarray]) -> list[np.ndarray]:
    return [rho.mat[np.ix_(idx, idx)] for idx in sectors]


def _common_blocks(
    rho_a: FockDensityMatrix, rho_b: FockDensityMatrix
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Both states' blocks on the coarser of their partitions, which both respect."""
    if rho_a.dims != rho_b.dims:
        raise ValueError(f"dims differ: {rho_a.dims} vs {rho_b.dims}")
    sectors = _sectors(rho_a.dims, min(rho_a.modulus, rho_b.modulus))
    return _blocks(rho_a, sectors), _blocks(rho_b, sectors)


def _trace_norm(x: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(x)).sum())


def thermal_diagonal(n_t: float, dim: int) -> np.ndarray:
    """Thermal weights n_t^m / (n_t + 1)^(m + 1), m < dim."""
    if n_t == 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    m = np.arange(dim)
    return np.exp(m * math.log(n_t) - (m + 1) * math.log(n_t + 1.0))


def _expm_tridiagonal(sub: np.ndarray) -> np.ndarray:
    """exp(G) for G real antisymmetric with subdiagonal `sub`, via eigh(i G)."""
    if not sub.any():
        return np.eye(len(sub) + 1)
    gen = np.diag(sub, -1) - np.diag(sub, 1)
    w, v = np.linalg.eigh(1j * gen)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def truncation_deficit(rho: FockDensityMatrix) -> float:
    """Missing trace plus the population of the top two Fock levels per mode.

    The squeeze unitaries are orthogonal even after truncation, so weight
    they rotate past the cutoff never shows up as lost trace; the occupation
    of the highest retained levels is the sentinel for that spillover.  Two
    levels, because squeezed vacuum populates only every other one.
    """
    deficit = 1.0 - float(rho.mat.trace())
    diag = np.diag(rho.mat)
    if len(rho.dims) == 1:
        return deficit + float(diag[-2:].sum())
    d1, d2 = rho.dims
    grid = diag.reshape(d1, d2)
    return deficit + float(
        grid[-2:, :].sum() + grid[:, -2:].sum() - grid[-2:, -2:].sum()
    )


def fock_squeezed_thermal(
    params: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo,
    cfg: TruncationConfig,
) -> FockDensityMatrix:
    """Squeezed thermal state as a truncated density matrix.

    Single mode: exp((r/2)(a^dag^2 - a^2)) (antisqueezes q, matching the CM
    convention) couples n to n + 2 inside each parity sector.  Two modes:
    exp(r (a^dag b^dag - a b)) couples (n1, n2) to (n1 + 1, n2 + 1) inside
    each sector of fixed n1 - n2.  Each sector's generator is tridiagonal in
    that chain.

    Raises TruncationError if the truncation deficit (lost trace plus
    top-level spillover) exceeds cfg.tail_tol.
    """
    dim = cfg.dim
    if isinstance(params, SqueezedThermalParamsSingle):
        dims: tuple[int, ...] = (dim,)
        weights = thermal_diagonal(params.n_t, dim)
        sectors = _sectors(dims, 2)

        def coupling(n: np.ndarray) -> np.ndarray:
            return 0.5 * params.r * np.sqrt((n + 1.0) * (n + 2.0))

    elif isinstance(params, SqueezedThermalParamsTwo):
        dims = (dim, dim)
        weights = np.outer(thermal_diagonal(params.n_t1, dim), thermal_diagonal(params.n_t2, dim)).ravel()
        sectors = _sectors(dims, dim * dim)

        def coupling(flat: np.ndarray) -> np.ndarray:
            n1, n2 = np.divmod(flat, dim)
            return params.r * np.sqrt((n1 + 1.0) * (n2 + 1.0))

    else:
        raise TypeError(f"unsupported parameter type {type(params).__name__}")
    rho = np.zeros((weights.size, weights.size))
    for idx in sectors:
        u = _expm_tridiagonal(coupling(idx[:-1]))
        rho[np.ix_(idx, idx)] = (u * weights[idx]) @ u.T
    out = FockDensityMatrix(dims=dims, mat=rho)
    deficit = truncation_deficit(out)
    if deficit > cfg.tail_tol:
        raise TruncationError(
            f"truncation deficit {deficit:.3e} exceeds {cfg.tail_tol:g} at dim {cfg.dim}; "
            "raise the cutoff"
        )
    return out


def apply_loss_kraus(rho: FockDensityMatrix, eta: float) -> FockDensityMatrix:
    """Loss on the first mode: rho -> sum_m (K_m x I) rho (K_m x I)^T.

    K_m = sum_j sqrt(binom(j + m, m) (1 - eta)^m eta^j) |j><j + m| removes m
    photons, so on the (d1, d2, d1, d2) tensor it is the diagonal shift
    rho[j + m, :, k + m, :] -> out[j, :, k, :] weighted by K_m[j] K_m[k].
    K_m maps each charge sector into one sector, so the output keeps the
    input's sectors and only their entries are shifted: in an output block
    the entries whose mode-1 levels stay below d1 - m form a leading square,
    and their sources a contiguous square of one input block.  The binomials
    come from cumulative log-factorials.  On the truncated space the set is
    exactly trace preserving: the binomial sum over m <= j is complete for
    every j < dim.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    if eta == 1.0:
        return rho
    d1 = rho.dims[0]
    shift = rho.mat.shape[0] // d1  # flat-index step of one photon in mode 1
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 2 * d1 - 1)))))
    m, j = np.arange(d1)[:, None], np.arange(d1)[None, :]
    # amp[m, j] = K_m[j]; only entries with j + m < d1 are read
    amp = np.exp(0.5 * (log_fact[j + m] - log_fact[m] - log_fact[j] + m * math.log(1.0 - eta) + j * math.log(eta)))
    sectors = _sectors(rho.dims, rho.modulus)
    blocks = _blocks(rho, sectors)
    sector_of, position = np.empty((2, rho.mat.shape[0]), dtype=int)
    for k, idx in enumerate(sectors):
        sector_of[idx], position[idx] = k, np.arange(len(idx))
    out = np.zeros(rho.mat.shape)
    for idx in sectors:
        level = idx // shift  # nondecreasing along the sector
        acc = np.zeros((len(idx), len(idx)))
        for lost in range(d1 - level[0]):
            n = np.searchsorted(level, d1 - lost)
            src = idx[0] + lost * shift  # first of the sources idx[:n] + lost * shift
            p = position[src]
            w = amp[lost, level[:n]]
            acc[:n, :n] += np.outer(w, w) * blocks[sector_of[src]][p : p + n, p : p + n]
        out[np.ix_(idx, idx)] = acc
    return FockDensityMatrix(dims=rho.dims, mat=out)


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
    modes, <a b> and <a b^dag>, each read off one diagonal band.
    """
    if len(rho.dims) == 1:
        modes = [_ladder(rho.mat)]
    else:
        d1, d2 = rho.dims
        t = rho.mat.reshape(d1, d2, d1, d2)
        modes = [_ladder(np.einsum("ijkj->ik", t)), _ladder(np.einsum("ijil->jl", t))]
    first, second = np.zeros(2 * len(modes)), np.zeros((2 * len(modes), 2 * len(modes)))
    for k, (a1, a2, sym) in enumerate(modes):
        first[2 * k] = math.sqrt(2.0) * a1
        second[2 * k, 2 * k], second[2 * k + 1, 2 * k + 1] = sym + a2, sym - a2
    if len(modes) == 2:
        root = np.outer(np.sqrt(np.arange(1.0, d1)), np.sqrt(np.arange(1.0, d2)))
        ab = float(np.sum(np.einsum("ijij->ij", t[1:, 1:, :-1, :-1]) * root))
        ab_dag = float(np.sum(np.einsum("ijij->ij", t[1:, :-1, :-1, 1:]) * root))
        second[0, 2] = second[2, 0] = ab + ab_dag
        second[1, 3] = second[3, 1] = ab_dag - ab
    return first, second - np.outer(first, first)


def _clamped_spectrum(blocks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(eigenvalues, eigenvectors) per block, negatives clamped to 0."""
    out = []
    for block in blocks:
        vals, vecs = np.linalg.eigh(block)
        if vals.min() < -EIG_CLAMP:
            raise ArithmeticError(f"density matrix eigenvalue {vals.min():.3e} below -1e-10")
        out.append((np.maximum(vals, 0.0), vecs))
    return out


def _spectral_overlap(
    rho_a: FockDensityMatrix, rho_b: FockDensityMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, table, mu): both spectra and |<v_i|w_j>|^2, one row per common sector.

    Rows are zero-padded to the widest sector; a padded eigenvalue is an
    exact 0 with a zero overlap row, so it adds nothing.
    Tr[rho_a^s rho_b^(1-s)] = sum over rows of lam^s @ table @ mu^(1-s), so
    after this one factorization each s evaluation is one batched product.
    """
    blocks_a, blocks_b = _common_blocks(rho_a, rho_b)
    count, width = len(blocks_a), max(len(b) for b in blocks_a)
    lam, mu, table = np.zeros((count, width)), np.zeros((count, width)), np.zeros((count, width, width))
    pairs = zip(_clamped_spectrum(blocks_a), _clamped_spectrum(blocks_b))
    for k, ((la, va), (lb, vb)) in enumerate(pairs):
        n = len(la)
        lam[k, :n], mu[k, :n], table[k, :n, :n] = la, lb, (va.T @ vb) ** 2
    return lam, table, mu


def _s_curve(lam: np.ndarray, table: np.ndarray, mu: np.ndarray, s: float) -> float:
    return float(np.einsum("ki,kij,kj->", lam**s, table, mu ** (1.0 - s)))


def s_overlap_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix, s: float) -> float:
    """Tr[rho_a^s rho_b^(1-s)] by explicit fractional powers."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent must be in (0, 1), got {s}")
    return _s_curve(*_spectral_overlap(rho_a, rho_b), s)


def qcb_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> tuple[float, float]:
    """(Q, s_star): minimum of the s-overlap, boundaries included.

    The boundary values are lim_(s -> 0) = Tr[P_a rho_b] and the mirror
    image, with P the support projector (eigenvalues above a rank floor
    relative to the largest eigenvalue over all sectors); they win exactly
    when a state is pure.
    """
    la, table, lb = _spectral_overlap(rho_a, rho_b)
    s_star, q = minimize_scalar_golden(lambda s: _s_curve(la, table, lb, s), S_EPS, 1.0 - S_EPS, S_TOL)
    rank_a = (la > la.max() * 1e-12).astype(float)
    rank_b = (lb > lb.max() * 1e-12).astype(float)
    at_zero = float(np.einsum("ki,kij,kj->", rank_a, table, lb))
    at_one = float(np.einsum("ki,kij,kj->", la, table, rank_b))
    for cand_s, cand_q in ((0.0, at_zero), (1.0, at_one)):
        if cand_q < q:
            s_star, q = cand_s, cand_q
    return q, s_star


def trace_distance_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """(1/2) ||rho_a - rho_b||_1."""
    return 0.5 * sum(_trace_norm(a - b) for a, b in zip(*_common_blocks(rho_a, rho_b)))


def helstrom_pe_fock(
    rho_a: FockDensityMatrix,
    rho_b: FockDensityMatrix,
    copies: int = 1,
    cap: int = DEFAULT_HELSTROM_CAP,
) -> float:
    """Exact M-copy Helstrom error (1 - T(rho_a^xM, rho_b^xM)) / 2.

    The M-fold tensor powers are block diagonal over tuples of sectors; each
    block is the Kronecker product of the single-copy blocks.  For M > 1 the
    total dimension dim^M must stay at or below `cap`; one copy materializes
    nothing beyond the states themselves.
    """
    if copies < 1:
        raise ValueError(f"copy count must be >= 1, got {copies}")
    d = rho_a.mat.shape[0]
    if copies > 1 and d**copies > cap:
        raise HelstromCapError(
            f"dimension {d}^{copies} exceeds the Helstrom cap {cap}"
        )
    blocks_a, blocks_b = _common_blocks(rho_a, rho_b)
    norm = sum(
        _trace_norm(reduce(np.kron, [blocks_a[k] for k in ks]) - reduce(np.kron, [blocks_b[k] for k in ks]))
        for ks in itertools.product(range(len(blocks_a)), repeat=copies)
    )
    return 0.5 * (1.0 - 0.5 * norm)


def fidelity_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2."""
    blocks_a, blocks_b = _common_blocks(rho_a, rho_b)
    spectra = _clamped_spectrum(blocks_a)
    # Relative floor before the root: the square root turns clamped roundoff
    # eigenvalues (~1e-17) into ~1e-8 directions that survive into the final
    # trace; weight this far below the top of a trace-1 spectrum is noise.
    floor = 1e-13 * max(la.max() for la, _ in spectra)
    total = 0.0
    for (la, va), block_b in zip(spectra, blocks_b):
        root = (va * np.sqrt(np.where(la < floor, 0.0, la))) @ va.T
        inner = root @ block_b @ root
        vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
        if vals.min() < -EIG_CLAMP:
            raise ArithmeticError(f"fidelity kernel eigenvalue {vals.min():.3e} below -1e-10")
        total += float(np.sqrt(np.maximum(vals, 0.0)).sum())
    return total**2

"""Truncated Fock-space brute force for validating the Gaussian machinery.

States are built as explicit density matrices: thermal diagonals conjugated
by matrix exponentials of the squeezing generators, loss applied through its
Kraus decomposition.  Everything stays real float64 (the generators are real
antisymmetric, so the unitaries are real orthogonal), and nothing is
renormalized: the truncation tail is measured, capped by `tail_tol`, and
otherwise left in the numbers so the comparisons stay honest.

Quadratures follow the package convention q = (a + a^dag)/sqrt(2),
p = (a - a^dag)/(i sqrt(2)), vacuum variance 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

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


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on a truncated Fock space, dims per mode.

    Hermiticity is validated at construction; positivity is enforced at each
    spectral use (eigenvalues below -1e-10 raise, small negatives clamp).
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self) -> None:
        d = int(np.prod(self.dims))
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        if np.max(np.abs(m - m.T)) > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if m.trace() > 1.0 + 1e-12:
            raise ValueError(f"trace {m.trace()} exceeds 1")
        m = (m + m.T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))

    @property
    def trace_deficit(self) -> float:
        return 1.0 - float(self.mat.trace())


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def thermal_diagonal(n_t: float, dim: int) -> np.ndarray:
    """Thermal weights n_t^m / (n_t + 1)^(m + 1), m < dim."""
    if n_t == 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    m = np.arange(dim)
    return np.exp(m * math.log(n_t) - (m + 1) * math.log(n_t + 1.0))


def squeeze_unitary(r: float, dim: int) -> np.ndarray:
    """exp((r/2)(a^dag^2 - a^2)): antisqueezes q, matching the CM convention."""
    a = annihilation(dim)
    gen = 0.5 * r * (a.T @ a.T - a @ a)
    return expm(gen)


def two_mode_squeeze_unitary(r: float, dim: int) -> np.ndarray:
    """exp(r (a^dag b^dag - a b)) on the dim^2 product space."""
    a = annihilation(dim)
    gen = r * (np.kron(a.T, a.T) - np.kron(a, a))
    return expm(gen)


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

    Raises TruncationError if the truncation deficit (lost trace plus
    top-level spillover) exceeds cfg.tail_tol.
    """
    if isinstance(params, SqueezedThermalParamsSingle):
        u = squeeze_unitary(params.r, cfg.dim)
        rho = u @ np.diag(thermal_diagonal(params.n_t, cfg.dim)) @ u.T
        dims: tuple[int, ...] = (cfg.dim,)
    elif isinstance(params, SqueezedThermalParamsTwo):
        u = two_mode_squeeze_unitary(params.r, cfg.dim)
        diag = np.kron(
            thermal_diagonal(params.n_t1, cfg.dim),
            thermal_diagonal(params.n_t2, cfg.dim),
        )
        rho = u @ np.diag(diag) @ u.T
        dims = (cfg.dim, cfg.dim)
    else:
        raise TypeError(f"unsupported parameter type {type(params).__name__}")
    out = FockDensityMatrix(dims=dims, mat=rho)
    deficit = truncation_deficit(out)
    if deficit > cfg.tail_tol:
        raise TruncationError(
            f"truncation deficit {deficit:.3e} exceeds {cfg.tail_tol:g} at dim {cfg.dim}; "
            "raise the cutoff"
        )
    return out


def _loss_kraus(eta: float, dim: int) -> list[np.ndarray]:
    """Kraus operators of the loss channel, K_m ~ a^m eta^((n - m)/2).

    Entry (j - m, j) is sqrt(binom(j, m) (1 - eta)^m eta^(j - m)), assembled
    in log space.  On the truncated space the set is exactly trace
    preserving: the binomial sum over m <= j is complete for every j < dim.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    if eta == 1.0:
        return [np.eye(dim)]
    ops = []
    log_eta = math.log(eta)
    log_1m = math.log(1.0 - eta)
    for m in range(dim):
        j = np.arange(m, dim)
        log_binom = gammaln(j + 1) - gammaln(m + 1) - gammaln(j - m + 1)
        vals = np.exp(0.5 * (log_binom + m * log_1m + (j - m) * log_eta))
        ops.append(np.diag(vals, m))
    return ops


def apply_loss_kraus(rho: FockDensityMatrix, eta: float) -> FockDensityMatrix:
    """Loss on the first mode: rho -> sum_m (K_m x I) rho (K_m x I)^T."""
    kraus = _loss_kraus(eta, rho.dims[0])
    if len(rho.dims) == 1:
        out = np.zeros_like(rho.mat)
        for k in kraus:
            out += k @ rho.mat @ k.T
        return FockDensityMatrix(dims=rho.dims, mat=out)
    d1, d2 = rho.dims
    tensor = rho.mat.reshape(d1, d2, d1, d2)
    out4 = np.zeros_like(tensor)
    for k in kraus:
        t = np.tensordot(k, tensor, axes=([1], [0]))  # i <- j
        out4 += np.tensordot(t, k, axes=([2], [1])).transpose(0, 1, 3, 2)
    return FockDensityMatrix(dims=rho.dims, mat=out4.reshape(d1 * d2, d1 * d2))


def quadrature_operators(dims: tuple[int, ...]) -> list[np.ndarray]:
    """[q1, p1, (q2, p2)] as dense complex matrices on the product space."""
    out = []
    eyes = [np.eye(d) for d in dims]
    for mode, d in enumerate(dims):
        a = annihilation(d)
        q = (a + a.T) / math.sqrt(2.0)
        p = (a - a.T) / (1j * math.sqrt(2.0))
        for op in (q, p):
            factors = [eyes[m] if m != mode else op for m in range(len(dims))]
            full = factors[0]
            for f in factors[1:]:
                full = np.kron(full, f)
            out.append(full)
    return out


def moments_from_fock(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and covariance matrix of a Fock-basis state."""
    ops = quadrature_operators(rho.dims)
    n2 = len(ops)
    first = np.array([float(np.trace(rho.mat @ op).real) for op in ops])
    prods = [rho.mat @ op for op in ops]
    cm = np.zeros((n2, n2))
    for i in range(n2):
        for j in range(i, n2):
            sym = 0.5 * (np.sum(prods[i] * ops[j].T) + np.sum(prods[j] * ops[i].T))
            cm[i, j] = cm[j, i] = float(sym.real) - first[i] * first[j]
    return first, cm


def _clamped_spectrum(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(rho.mat)
    if vals.min() < -EIG_CLAMP:
        raise ArithmeticError(f"density matrix eigenvalue {vals.min():.3e} below -1e-10")
    return np.maximum(vals, 0.0), vecs


def _spectral_overlap(
    rho_a: FockDensityMatrix, rho_b: FockDensityMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, table, mu): both spectra and the overlap table |<v_i|w_j>|^2.

    Tr[rho_a^s rho_b^(1-s)] = lam^s @ table @ mu^(1-s), so after this one
    factorization each s evaluation is O(dim^2).
    """
    la, va = _clamped_spectrum(rho_a)
    lb, vb = _clamped_spectrum(rho_b)
    return la, (va.T @ vb) ** 2, lb


def s_overlap_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix, s: float) -> float:
    """Tr[rho_a^s rho_b^(1-s)] by explicit fractional powers."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent must be in (0, 1), got {s}")
    la, table, lb = _spectral_overlap(rho_a, rho_b)
    return float(la**s @ table @ lb ** (1.0 - s))


def qcb_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> tuple[float, float]:
    """(Q, s_star): minimum of the s-overlap, boundaries included.

    The boundary values are lim_(s -> 0) = Tr[P_a rho_b] and the mirror
    image, with P the support projector (eigenvalues above a relative rank
    floor); they win exactly when a state is pure.
    """
    la, table, lb = _spectral_overlap(rho_a, rho_b)

    def f(s: float) -> float:
        return float(la**s @ table @ lb ** (1.0 - s))

    s_star, q = minimize_scalar_golden(f, S_EPS, 1.0 - S_EPS, S_TOL)
    rank_a = (la > la.max() * 1e-12).astype(float)
    rank_b = (lb > lb.max() * 1e-12).astype(float)
    at_zero = float(rank_a @ table @ lb)
    at_one = float(la @ table @ rank_b)
    for cand_s, cand_q in ((0.0, at_zero), (1.0, at_one)):
        if cand_q < q:
            s_star, q = cand_s, cand_q
    return q, s_star


def trace_distance_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """(1/2) ||rho_a - rho_b||_1."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho_a.mat - rho_b.mat)).sum())


def helstrom_pe_fock(
    rho_a: FockDensityMatrix,
    rho_b: FockDensityMatrix,
    copies: int = 1,
    cap: int = DEFAULT_HELSTROM_CAP,
) -> float:
    """Exact M-copy Helstrom error (1 - T(rho_a^xM, rho_b^xM)) / 2.

    The tensor powers are materialized, so the total dimension dim^M must
    stay at or below `cap`.
    """
    if copies < 1:
        raise ValueError(f"copy count must be >= 1, got {copies}")
    d = rho_a.mat.shape[0]
    if d**copies > cap:
        raise HelstromCapError(
            f"dimension {d}^{copies} exceeds the Helstrom cap {cap}"
        )
    ma, mb = rho_a.mat, rho_b.mat
    for _ in range(copies - 1):
        ma = np.kron(ma, rho_a.mat)
        mb = np.kron(mb, rho_b.mat)
    t = 0.5 * float(np.abs(np.linalg.eigvalsh(ma - mb)).sum())
    return 0.5 * (1.0 - t)


def fidelity_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2."""
    la, va = _clamped_spectrum(rho_a)
    # Relative floor before the root: the square root turns clamped roundoff
    # eigenvalues (~1e-17) into ~1e-8 directions that survive into the final
    # trace; weight this far below the top of a trace-1 spectrum is noise.
    la = np.where(la < la.max() * 1e-13, 0.0, la)
    root = (va * np.sqrt(la)) @ va.T
    inner = root @ rho_b.mat @ root
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    if vals.min() < -EIG_CLAMP:
        raise ArithmeticError(f"fidelity kernel eigenvalue {vals.min():.3e} below -1e-10")
    return float(np.sqrt(np.maximum(vals, 0.0)).sum()) ** 2

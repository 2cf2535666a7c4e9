"""Gaussian states of one and two bosonic modes.

The states of interest are squeezed thermal states: a thermal state squeezed
along the q axis, so the q variance is the large one (a >= b).  They are
carried as their parameters (squeezing r, thermal occupations n_t), which is
all the loss channel and the Chernoff bound need.  Covariance matrices (CMs)
are built from the parameters only where the matrix itself is needed: the
overlap of a pure pair, the symplectic spectra and correlation quantifiers,
and the round-trip check of the channel's parameter recovery.  A CM is
validated once, when it is built.

CMs use the vacuum normalized to 1/2, i.e. sigma_vac = I/2, hbar = 1, and
quadratures ordered (q1, p1, q2, p2, ...).  All entropic quantities
elsewhere in the package use natural logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_NOISE = 0.5

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10
PURITY_TOL = 1e-9

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class UnphysicalStateError(ValueError):
    """Raised when a matrix fails the uncertainty-principle test."""


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega = direct sum of [[0,1],[-1,0]]."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _OMEGA_1
    return out


def det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


@dataclass(frozen=True)
class CovarianceMatrix:
    """A physical covariance matrix.

    Construction validates symmetry (to 1e-12) and the uncertainty relation
    sigma + i Omega / 2 >= 0 (eigenvalues above -1e-10); the stored array is
    made read-only.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or m.shape[0] < 2:
            raise ValueError(f"covariance matrix must be 2n x 2n, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=SYMMETRY_TOL):
            raise ValueError("covariance matrix is not symmetric")
        m = (m + m.T) / 2.0
        omega = symplectic_form(m.shape[0] // 2)
        w = np.linalg.eigvalsh(m + 0.5j * omega)
        if w.min() < -PHYSICALITY_TOL:
            raise UnphysicalStateError(
                f"uncertainty relation violated: min eig(sigma + i Omega/2) = {w.min():.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def n(self) -> int:
        """Number of modes."""
        return self.mat.shape[0] // 2


@dataclass(frozen=True)
class SqueezedThermalParamsSingle:
    """Single-mode squeezed thermal state: squeezing r >= 0, thermal photons n_t >= 0."""

    r: float
    n_t: float

    def __post_init__(self) -> None:
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"squeezing must be a finite float >= 0, got {self.r}")
        if not (self.n_t >= 0.0 and math.isfinite(self.n_t)):
            raise ValueError(f"thermal occupation must be a finite float >= 0, got {self.n_t}")


@dataclass(frozen=True)
class SqueezedThermalParamsTwo:
    """Two-mode squeezed thermal state.

    A two-mode squeezer with parameter r >= 0 acting on a product of thermal
    states with finite occupations n_t1, n_t2 >= 0.
    """

    r: float
    n_t1: float
    n_t2: float

    def __post_init__(self) -> None:
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"squeezing must be a finite float >= 0, got {self.r}")
        if not all(x >= 0.0 and math.isfinite(x) for x in (self.n_t1, self.n_t2)):
            raise ValueError(
                f"thermal occupations must be finite floats >= 0, got ({self.n_t1}, {self.n_t2})"
            )


def make_single_mode_st(p: SqueezedThermalParamsSingle) -> CovarianceMatrix:
    """CM of a single-mode squeezed thermal state, diag(a, b) with a >= b.

    a = (n_t + 1/2) e^{2r}, b = (n_t + 1/2) e^{-2r}.
    """
    nu = p.n_t + VACUUM_NOISE
    return CovarianceMatrix(np.diag([nu * math.exp(2 * p.r), nu * math.exp(-2 * p.r)]))


def two_mode_blocks(p: SqueezedThermalParamsTwo) -> tuple[float, float, float]:
    """Block entries (A, B, C) of a two-mode squeezed thermal state.

    Its CM is (1/2) [[A I2, C Z], [C Z, B I2]] with Z = diag(1, -1) and

        A = cosh 2r + 2 n_t1 cosh^2 r + 2 n_t2 sinh^2 r
        B = cosh 2r + 2 n_t1 sinh^2 r + 2 n_t2 cosh^2 r
        C = (1 + n_t1 + n_t2) sinh 2r
    """
    ch2, sh2 = math.cosh(2 * p.r), math.sinh(2 * p.r)
    c2, s2 = math.cosh(p.r) ** 2, math.sinh(p.r) ** 2
    a = ch2 + 2 * p.n_t1 * c2 + 2 * p.n_t2 * s2
    b = ch2 + 2 * p.n_t1 * s2 + 2 * p.n_t2 * c2
    c = (1 + p.n_t1 + p.n_t2) * sh2
    return a, b, c


def make_two_mode_st(p: SqueezedThermalParamsTwo) -> CovarianceMatrix:
    """CM of a two-mode squeezed thermal state, assembled from two_mode_blocks."""
    a, b, c = two_mode_blocks(p)
    m = np.zeros((4, 4))
    m[:2, :2] = 0.5 * a * np.eye(2)
    m[2:, 2:] = 0.5 * b * np.eye(2)
    m[:2, 2:] = 0.5 * c * np.diag([1.0, -1.0])
    m[2:, :2] = m[:2, 2:]
    return CovarianceMatrix(m)


def symplectic_invariants(cm: CovarianceMatrix) -> tuple[float, float, float, float, float, float]:
    """Local symplectic invariants (I1, I2, I3, I4, Delta, Delta_tilde) of a two-mode CM.

    I1, I2 are the determinants of the single-mode blocks, I3 of the
    correlation block, I4 = det sigma.  Delta = I1 + I2 + 2 I3 and
    Delta_tilde = I1 + I2 - 2 I3 (the partial-transpose variant).
    """
    if cm.n != 2:
        raise ValueError(f"symplectic invariants need a two-mode CM, got {cm.n} modes")
    m = cm.mat
    i1 = det2(m[:2, :2])
    i2 = det2(m[2:, 2:])
    i3 = det2(m[:2, 2:])
    # LU keeps det sigma accurate relative to its (small) value; the cofactor
    # expansion cancels from terms of order ||sigma||^4 and ruins d_pm
    i4 = float(np.linalg.det(m))
    return i1, i2, i3, i4, i1 + i2 + 2 * i3, i1 + i2 - 2 * i3


def symplectic_eigenvalues(cm: CovarianceMatrix) -> tuple[float, ...]:
    """Symplectic eigenvalues, sorted descending.

    One mode: sqrt(det sigma).  More modes: eigenvalues of the Hermitian
    matrix sqrt(sigma) (i Omega) sqrt(sigma), which is similar to i Omega
    sigma but lets eigvalsh deliver them with absolute error ~eps*||sigma||.
    The d_pm closed form on the invariants, kept in the tests as a reference
    route, loses half the digits near pure states, where Delta^2 - 4 I4
    cancels to ~sqrt(eps).
    """
    if cm.n == 1:
        return (math.sqrt(det2(cm.mat)),)
    evals, evecs = np.linalg.eigh(cm.mat)
    root = (evecs * np.sqrt(evals)) @ evecs.T
    herm = root @ (1j * symplectic_form(cm.n)) @ root
    w = np.sort(np.linalg.eigvalsh(herm))[::-1]
    # spectrum is +/- d_k; the top half are the d_k themselves
    return tuple(float(x) for x in w[: cm.n])


def overlap(cm_a: CovarianceMatrix, cm_b: CovarianceMatrix) -> float:
    """Tr[rho_a rho_b] for zero-mean Gaussian states: 1 / sqrt(det(sigma_a + sigma_b))."""
    if cm_a.n != cm_b.n:
        raise ValueError(f"mode mismatch: {cm_a.n} vs {cm_b.n}")
    total = cm_a.mat + cm_b.mat
    # LU for two modes and up, as in symplectic_invariants: cofactor
    # expansion cancels from terms far larger than the determinant
    d = det2(total) if cm_a.n == 1 else float(np.linalg.det(total))
    return 1.0 / math.sqrt(d)


def mean_photons(cm: CovarianceMatrix) -> float:
    """Total mean photon number (Tr sigma - n) / 2 of a zero-mean state."""
    return float((np.trace(cm.mat) - cm.n) / 2.0)


def purity(cm: CovarianceMatrix) -> float:
    """Tr rho^2 = prod_k 1 / (2 d_k)."""
    out = 1.0
    for d in symplectic_eigenvalues(cm):
        out /= 2.0 * d
    return out


def is_pure(cm: CovarianceMatrix, tol: float = PURITY_TOL) -> bool:
    """True when every symplectic eigenvalue sits at the vacuum floor."""
    return max(symplectic_eigenvalues(cm)) <= VACUUM_NOISE + tol

"""Gaussian states of one and two bosonic modes, one state or a stack.

The states of interest are squeezed thermal states: a thermal state squeezed
along the q axis, so the q variance is the large one (a >= b).  They are
carried as their parameters (squeezing r, thermal occupations n_t), which is
all the loss channel and the Chernoff bound need (`chernoff` takes even
the overlap of a pure pair from them).  Covariance matrices (CMs) are built
only where the matrix itself is needed: the spectra and correlation
quantifiers; the channel's recovery checks its round trip on the block
entries of `two_mode_blocks`.  `overlap` is the CM route to Tr[rho_a rho_b],
kept as the cross-check.

Everything here takes one state or a stack: parameter fields are floats or
arrays of one shape, a `CovarianceMatrix` holds (..., 2n, 2n) and is
validated once, a whole stack in one call, and the spectra and the overlap
give one value per state, floats for one state (`float_or_array`, at the
return; the code has no scalar branch).  A state gets the same bits alone
as in any stack: arithmetic, sqrt and the batched LAPACK calls act per
matrix, and every transcendental is a numpy ufunc over the whole array
(`elementwise`), whose loops act per element.

CMs use the vacuum normalized to 1/2, i.e. sigma_vac = I/2, hbar = 1, and
quadratures ordered (q1, p1, q2, p2, ...).  All entropic quantities
elsewhere in the package use natural logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VACUUM_NOISE = 0.5

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class UnphysicalStateError(ValueError):
    """Raised when a matrix fails the uncertainty-principle test."""


def elementwise(f, x, *args):
    """The numpy ufunc f at x (and args) over the whole array, a float for a 0-d x.

    Overflow, division by zero and invalid arguments raise FloatingPointError
    instead of giving inf or nan.  The bits of an element follow numpy's
    SIMD dispatch on the machine, but are the same alone and in any stack.
    """
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return float_or_array(f(x, *args))


def float_or_array(x):
    """A 0-d result as a Python float, any other as the array."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def at_least_zero(x) -> np.ndarray:
    """Python's max(x, 0.0) elementwise: -0.0 and NaN stay as they are."""
    return np.where(0.0 > x, 0.0, x)


def require(ok, message: str, *values) -> None:
    """ValueError(message) filled with each of values at the first element where ok fails."""
    if not isinstance(ok, np.ndarray) or not ok.ndim:
        if not ok:
            raise ValueError(message.format(*values))
    elif not ok.all():
        k = np.argmin(ok.ravel())
        raise ValueError(message.format(*(np.ravel(np.broadcast_to(v, ok.shape))[k].item() for v in values)))


def nonnegative_finite(x):
    return (np.asarray(x) >= 0.0) & np.isfinite(x)


def _worst(badness) -> str:
    # the flat index of the worst matrix of a stack, NaN counting as worst
    if not np.ndim(badness):
        return ""
    return f" (matrix {int(np.argmax(np.nan_to_num(badness, nan=np.inf)))} of the stack)"


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega = direct sum of [[0,1],[-1,0]]."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _OMEGA_1
    return out


def det2(m: np.ndarray):
    """Determinant of the 2 x 2 matrix on the last two axes, per matrix."""
    return float_or_array(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])


@dataclass(frozen=True)
class CovarianceMatrix:
    """A physical covariance matrix, or a stack of them on the leading axes.

    Construction validates symmetry (to 1e-12) and the uncertainty relation
    sigma + i Omega / 2 >= 0 of every matrix in one call, its eigenvalues
    above -1e-10 max(1, max |entry|): their roundoff grows with the entries.
    An error names the worst matrix of a stack.  The stored array is made
    read-only.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2 or m.shape[-1] < 2:
            raise ValueError(f"covariance matrix must be 2n x 2n, got shape {m.shape}")
        mt = m.swapaxes(-1, -2)
        asym = np.abs(m - mt).max(axis=(-2, -1))
        if not (asym <= SYMMETRY_TOL).all():
            raise ValueError("covariance matrix is not symmetric" + _worst(asym))
        m = (m + mt) / 2.0
        w = np.linalg.eigvalsh(m + 0.5j * symplectic_form(m.shape[-1] // 2)).min(axis=-1)
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        if not (w >= -PHYSICALITY_TOL * scale).all():
            message = f"uncertainty relation violated: min eig(sigma + i Omega/2) = {w.min():.3e}"
            raise UnphysicalStateError(message + _worst(-w / scale))
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def n(self) -> int:
        """Number of modes."""
        return self.mat.shape[-1] // 2


class _ParameterStack:
    """Fields that are all floats (one member) or read-only arrays of one shape (a stack)."""

    def __post_init__(self) -> None:
        values = self.fields()
        if any(type(v) is not float for v in values):
            if any(np.ndim(v) for v in values):
                values = [np.array(v, dtype=float) for v in np.broadcast_arrays(*values)]
                for v in values:
                    v.setflags(write=False)
            else:
                values = [float(v) if isinstance(v, (np.ndarray, np.generic)) else v for v in values]
            for name, v in zip(self.__dataclass_fields__, values):
                object.__setattr__(self, name, v)
        self._validate()

    def _validate(self) -> None:
        """Every field finite and >= 0; a stack with other domains overrides this."""
        for name, v in zip(self.__dataclass_fields__, self.fields()):
            require(nonnegative_finite(v), f"{_FIELD_NAMES[name]} must be a finite float >= 0, got {{}}", v)

    def fields(self) -> tuple:
        # the instance dict holds exactly the dataclass fields, in order
        return tuple(self.__dict__.values())

    @property
    def shape(self) -> tuple:
        return getattr(self.fields()[0], "shape", ())

    @classmethod
    def _of(cls, values):
        # fields taken from validated states: no second validation
        out = object.__new__(cls)
        for name, v in zip(cls.__dataclass_fields__, values):
            object.__setattr__(out, name, v)
        return out

    def row(self, k: int):
        """The member at flat index k, with float fields."""
        return self._of([np.ravel(v)[k].item() for v in self.fields()])

    def take(self, index):
        """The flat sub-stack at `index` (a mask or indices into the flattened stack)."""
        return self._of([np.ravel(v)[index] for v in self.fields()])


_FIELD_NAMES = {"r": "squeezing", "n_t": "thermal occupation", "n_t1": "thermal occupation n_t1",
                "n_t2": "thermal occupation n_t2"}


@dataclass(frozen=True)
class SqueezedThermalParamsSingle(_ParameterStack):
    """Single-mode squeezed thermal state: squeezing r >= 0, thermal photons n_t >= 0."""

    r: float
    n_t: float


@dataclass(frozen=True)
class SqueezedThermalParamsTwo(_ParameterStack):
    """Two-mode squeezed thermal state.

    A two-mode squeezer with parameter r >= 0 acting on a product of thermal
    states with finite occupations n_t1, n_t2 >= 0.
    """

    r: float
    n_t1: float
    n_t2: float


def make_single_mode_st(p: SqueezedThermalParamsSingle) -> CovarianceMatrix:
    """CM of a single-mode squeezed thermal state, diag(a, b) with a >= b.

    a = (n_t + 1/2) e^{2r}, b = (n_t + 1/2) e^{-2r}.
    """
    nu = p.n_t + VACUUM_NOISE
    m = np.zeros(p.shape + (2, 2))
    m[..., 0, 0] = nu * elementwise(np.exp, 2 * p.r)
    m[..., 1, 1] = nu * elementwise(np.exp, -2 * p.r)
    return CovarianceMatrix(m)


def two_mode_blocks(p: SqueezedThermalParamsTwo):
    """Block entries (A, B, C) of a two-mode squeezed thermal state (or stack).

    Its CM is (1/2) [[A I2, C Z], [C Z, B I2]] with Z = diag(1, -1) and

        A = cosh 2r + 2 n_t1 cosh^2 r + 2 n_t2 sinh^2 r
        B = cosh 2r + 2 n_t1 sinh^2 r + 2 n_t2 cosh^2 r
        C = (1 + n_t1 + n_t2) sinh 2r
    """
    ch2, sh2 = elementwise(np.cosh, 2 * p.r), elementwise(np.sinh, 2 * p.r)
    c2, s2 = (x * x for x in (elementwise(np.cosh, p.r), elementwise(np.sinh, p.r)))
    a = ch2 + 2 * p.n_t1 * c2 + 2 * p.n_t2 * s2
    b = ch2 + 2 * p.n_t1 * s2 + 2 * p.n_t2 * c2
    c = (1 + p.n_t1 + p.n_t2) * sh2
    return a, b, c


def make_two_mode_st(p: SqueezedThermalParamsTwo) -> CovarianceMatrix:
    """CM of a two-mode squeezed thermal state, assembled from two_mode_blocks."""
    a, b, c = two_mode_blocks(p)
    m = np.zeros(p.shape + (4, 4))
    m[..., 0, 0] = m[..., 1, 1] = 0.5 * a
    m[..., 2, 2] = m[..., 3, 3] = 0.5 * b
    m[..., 0, 2] = m[..., 2, 0] = 0.5 * c
    m[..., 1, 3] = m[..., 3, 1] = -0.5 * c
    return CovarianceMatrix(m)


def symplectic_invariants(cm: CovarianceMatrix) -> tuple:
    """Local symplectic invariants (I1, I2, I3, I4, Delta, Delta_tilde) of a two-mode CM.

    I1, I2 are the determinants of the single-mode blocks, I3 of the
    correlation block, I4 = det sigma.  Delta = I1 + I2 + 2 I3 and
    Delta_tilde = I1 + I2 - 2 I3 (the partial-transpose variant).  Floats
    for one matrix, arrays over the stack otherwise.
    """
    if cm.n != 2:
        raise ValueError(f"symplectic invariants need a two-mode CM, got {cm.n} modes")
    m = cm.mat
    i1 = det2(m[..., :2, :2])
    i2 = det2(m[..., 2:, 2:])
    i3 = det2(m[..., :2, 2:])
    # LU keeps det sigma accurate relative to its (small) value; the cofactor
    # expansion cancels from terms of order ||sigma||^4 and ruins d_pm
    i4 = float_or_array(np.linalg.det(m))
    return i1, i2, i3, i4, i1 + i2 + 2 * i3, i1 + i2 - 2 * i3


def symplectic_eigenvalues(cm: CovarianceMatrix) -> tuple:
    """Symplectic eigenvalues, sorted descending: one float (or array over the stack) per mode.

    One mode: sqrt(det sigma).  More modes: eigenvalues of the Hermitian
    matrix sqrt(sigma) (i Omega) sqrt(sigma), which is similar to i Omega
    sigma but lets eigvalsh deliver them with absolute error ~eps*||sigma||.
    The d_pm closed form on the invariants, kept in the tests as a reference
    route, loses half the digits near pure states, where Delta^2 - 4 I4
    cancels to ~sqrt(eps).
    """
    if cm.n == 1:
        return (float_or_array(np.sqrt(det2(cm.mat))),)
    evals, evecs = np.linalg.eigh(cm.mat)
    root = (evecs * np.sqrt(evals)[..., None, :]) @ evecs.swapaxes(-1, -2)
    herm = root @ (1j * symplectic_form(cm.n)) @ root
    w = np.sort(np.linalg.eigvalsh(herm), axis=-1)
    # spectrum is +/- d_k; the top half are the d_k themselves
    return tuple(float_or_array(w[..., -1 - k]) for k in range(cm.n))


def overlap(cm_a: CovarianceMatrix, cm_b: CovarianceMatrix):
    """Tr[rho_a rho_b] for zero-mean Gaussian states: 1 / sqrt(det(sigma_a + sigma_b)), per pair."""
    if cm_a.n != cm_b.n:
        raise ValueError(f"mode mismatch: {cm_a.n} vs {cm_b.n}")
    total = cm_a.mat + cm_b.mat
    # LU for two modes and up, as in symplectic_invariants: cofactor
    # expansion cancels from terms far larger than the determinant
    d = det2(total) if cm_a.n == 1 else np.linalg.det(total)
    return float_or_array(1.0 / np.sqrt(d))

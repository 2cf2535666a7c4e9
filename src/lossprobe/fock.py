"""Truncated Fock-space brute force for validating the Gaussian machinery.

States are density matrices in the number basis.  Everything stays real
float64 (the squeezing generators are real antisymmetric, so the unitaries
are real orthogonal), and nothing is renormalized: the truncation tail is
measured, capped by `tail_tol`, and otherwise left in the numbers so the
comparisons stay honest.

Charge sectors.  Single-mode squeezing conserves photon-number parity,
two-mode squeezing conserves the charge n1 - n2, and loss on the first mode
preserves the charge difference between row and column.  So every oracle
state is block diagonal on one partition that the mode count fixes (parity
for one mode, n1 - n2 for two), and a `FockDensityMatrix` stores only its
blocks, by size: each size class is one contiguous (count, n, n) view of
`data`, and every stage makes one stacked call per class, or per bucket of
CHAIN_BUCKET consecutive sizes, each block zero-padded to the bucket's
widest.  A prepared block U diag(w) U^T keeps (w, U) as its spectrum (U
from the `eigh` of a real tridiagonal, one stacked call per bucket of chain
lengths); loss is one Toeplitz product over the mode-1 diagonals; moments
are sums over band maps.  Every index map is int32, and the cached index
per block entry is where its mirror sits and where the loss gathers it, 8
bytes; an entry's row and column are derived from the sectors where a
one-time build needs them.  So the blocks, and the loss's
array of diagonals, hold at most 2^31 entries: past that (two-mode cutoffs
from 1477, and from 1291 for the loss) they raise ValueError before
anything is allocated per entry, and `check_loss_size` checks the loss's
bound before the input state is built.  The Chernoff s-curve, a sum of
exponentials in s with non-negative weights, is log-convex: its minimum is
an edge whose slope points outward, or Newton on the slope inside its sign
bracket, stopped by the tangents at the bracket ends.  A sector without
weight (a pure input has weight in one) is an exactly zero block that no
LAPACK call sees: it adds exactly 0 to the s-curve and both end candidates,
and the single-copy trace distance takes the live block's trace.  So a loss
output is factorised only in the sectors where the other state of its pair
has weight, plus any block whose trace reaches the largest eigenvalue found
there; a block's largest eigenvalue is at most its trace, so its largest
eigenvalue over all sectors is exact.  A factorised state's rank and
fidelity floors are relative to it; a prepared state's weights are exact,
so its support, for Q and the fidelity alike, is its nonzero weights.  An
eigenvalue below -1e-10 in a factorised block raises.  The oracle checks Q,
the fidelity and the exact single-copy Helstrom error against the Gaussian
closed forms; M copies are the Chernoff bound's (P_e <= Q^M / 2).
`pair_checks` is the one pass that factorises each state of a pair where
the other has weight and builds the pair's rows and one zero-padded stack
of the overlaps Va^T Vb, which the fidelity's `svd` reads and the s-curve
then squares in place; the trace distance and the fidelity make one stacked
call per bucket (a zero pad adds exact zero eigenvalues and singular
values).  `qcb_fock`, `trace_distance_fock`, `helstrom_pe_fock` and
`fidelity_fock` read its result.  A state is plain data: it keeps no
factorisation, so each pass factorises a loss output afresh.  A state comes
in as its blocks only; the dense route (`expm`, Kraus matmuls, complex
quadratures, one full `eigh`, a state from a dense matrix) is the reference
in the tests, and `mat` is a dense view of the blocks.  This module imports
only numpy.

Quadratures follow the package convention q = (a + a^dag)/sqrt(2),
p = (a - a^dag)/(i sqrt(2)), vacuum variance 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .chernoff import S_EPS
from .gaussian import SqueezedThermalParamsSingle, SqueezedThermalParamsTwo

EIG_CLAMP = 1e-10
_HERMITICITY_TOL = 1e-12
MAX_LOSS_CUTOFF = 1800  # the loss kernel's scales overflow past this mode-1 cutoff
_INDEX_LIMIT = 2**31  # entries an int32 index map can address
CHAIN_BUCKET = 8  # squeeze chains, and a pair's blocks for the trace distance and fidelity, of this many consecutive sizes share one stacked call


class TruncationError(ArithmeticError):
    """Raised when too much state weight escapes past the Fock cutoff."""


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
    """The conserved charge per flat basis index: n mod 2 for one mode, n1 - n2 for two (mod d1 d2, so that
    the negative charges sort after the others)."""
    n = np.indices(dims).reshape(len(dims), -1)
    return n[0] % 2 if len(dims) == 1 else (n[0] - n[1]) % math.prod(dims)


class _Layout(NamedTuple):
    sectors: list[np.ndarray]  # per size class: the flat basis indices of its sectors, (count, n), each row ascending
    classes: list[tuple[int, int, int]]  # per size class, ascending: (n, first sector, end sector)
    sector_of: np.ndarray  # per basis index: its sector
    position: np.ndarray  # per basis index: its place in its sector
    start: np.ndarray  # per sector, and one past the end: where its block starts in `data` (int64)
    row_at: np.ndarray  # per basis index i: where its row starts in `data`, so (i, j) sits at row_at[i] + position[j]
    transpose: np.ndarray  # per entry of `data`: where its mirror entry sits
    diag: np.ndarray  # per basis index: where its diagonal entry sits
    buckets: list[range]  # per bucket of CHAIN_BUCKET consecutive sizes: its size classes


@lru_cache(maxsize=32)
def _sector_layout(dims: tuple[int, ...]) -> _Layout:
    """The sectors (classes of `_charge`) by size, then by charge, each block raveled after
    the last: the blocks of one size, a size class, make one contiguous (count, n, n) stretch of `data`.

    Every index but `start` is int32, so the blocks may hold at most 2^31 entries; the count comes from
    the sector sizes, before anything is allocated per entry."""
    _, charge_of, counts = np.unique(_charge(dims), return_inverse=True, return_counts=True)
    order = np.argsort(counts, kind="stable")
    size = counts[order]
    start = np.concatenate(([0], np.cumsum(size**2)))
    if start[-1] > _INDEX_LIMIT:
        raise ValueError(f"the sector blocks of dims {dims} hold {start[-1]:,} entries, past the 2^31 an int32 index addresses")
    sector_of = np.argsort(order).astype(np.int32)[charge_of]
    members = np.argsort(sector_of, kind="stable").astype(np.int32)  # sector by sector, each ascending
    first = np.concatenate(([0], np.cumsum(size)))  # per sector: where its members start
    position = np.empty_like(sector_of)
    position[members] = np.arange(len(members)) - np.repeat(first[:-1], size)
    sizes, low = np.unique(size, return_index=True)
    classes = list(zip(sizes.tolist(), low.tolist(), low[1:].tolist() + [len(size)]))
    first_class = np.unique((sizes - 1) // CHAIN_BUCKET, return_index=True)[1].tolist()
    buckets = [range(a, b) for a, b in zip(first_class, first_class[1:] + [len(classes)])]
    sectors = [members[first[a] : first[b]].reshape(b - a, n) for n, a, b in classes]
    row_at = (start[sector_of] + position * size[sector_of]).astype(np.int32)
    transpose = np.empty(start[-1], dtype=np.int32)
    for n, a, b in classes:  # the entry at p n + q of a block mirrors to q n + p
        block = transpose[start[a] : start[b]].reshape(b - a, n, n)
        block[...] = np.arange(n * n, dtype=np.int32).reshape(n, n).T
        block += start[a:b, None, None].astype(np.int32)
    return _Layout(sectors, classes, sector_of, position, start, row_at, transpose, row_at + position, buckets)


def _rows_cols(lay: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of `data`: the basis indices of its row and of its column (int32), from the sectors."""
    rows = np.concatenate([np.repeat(idx, idx.shape[1], axis=1).ravel() for idx in lay.sectors])
    cols = np.concatenate([np.tile(idx, idx.shape[1]).ravel() for idx in lay.sectors])
    return rows, cols


def _select(keep: np.ndarray, *stacks: np.ndarray) -> list[np.ndarray]:
    """The members of each stack where `keep`: the stacks themselves, uncopied, where it keeps all."""
    return list(stacks) if keep.all() else [x[keep] for x in stacks]


def _loss_lanes(dims: tuple[int, ...]) -> int:
    """The lanes of the loss's array of diagonals, one per mode-2 level; ValueError if the array may pass 2^31
    entries, from the dims alone."""
    d1, lanes = dims[0], math.prod(dims[1:])
    if d1 * d1 * lanes > _INDEX_LIMIT:
        raise ValueError(f"the loss grid of dims {dims} takes up to {d1 * d1 * lanes:,} entries, past the 2^31 an int32 index addresses")
    return lanes


def _state_dims(params: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo, dim: int) -> tuple[int, ...]:
    """The dims of `fock_squeezed_thermal`'s state."""
    if isinstance(params, SqueezedThermalParamsSingle):
        return (dim,)
    if isinstance(params, SqueezedThermalParamsTwo):
        return (dim, dim)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


def check_loss_size(params: SqueezedThermalParamsSingle | SqueezedThermalParamsTwo, cfg: TruncationConfig) -> None:
    """ValueError if `apply_loss_kraus` on this state would pass 2^31 grid entries: from the dims, before any state is built."""
    _loss_lanes(_state_dims(params, cfg.dim))


@lru_cache(maxsize=32)
def _diagonal_map(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """(at, deltas, lanes): per entry of `data`, its place (int32) in a (d1, len(deltas), lanes) array of mode-1 diagonals.

    Each entry takes its upper mirror's place: level n1 of mode-1 diagonal
    k1 - n1 >= 0, in the lane of the row's mode-2 level (the charge fixes
    the column's); `deltas` lists the diagonals.  They are at most d1, so
    d1 * d1 * lanes bounds the array's size (`_loss_lanes`).
    """
    lanes = _loss_lanes(dims)
    rows, cols = _rows_cols(_sector_layout(dims))
    (n1, n2), k1 = np.divmod(np.minimum(rows, cols), lanes), np.maximum(rows, cols) // lanes
    present = np.bincount(k1 - n1, minlength=dims[0]) > 0
    deltas = np.flatnonzero(present)
    return (n1 * len(deltas) + (np.cumsum(present, dtype=np.int32) - 1)[k1 - n1]) * lanes + n2, deltas, lanes


@lru_cache(maxsize=32)
def _moment_bands(dims: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions in `data` (int32), weights) of the band entries inside a sector, per ladder moment:
    <a>, <a^2> and the truncated <(a a^dag + a^dag a)/2> (top weight (dim - 1)/2) per mode, then <a b>, <a b^dag>."""
    lay, grid = _sector_layout(dims), np.arange(math.prod(dims)).reshape(dims)

    def band(rows, cols, w) -> tuple[np.ndarray, np.ndarray]:
        inside = lay.sector_of[rows] == lay.sector_of[cols]
        return (lay.row_at[rows] + lay.position[cols])[inside], np.broadcast_to(w, rows.shape)[inside]

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

    The sectors follow from the mode count (`_charge`: parity for one mode,
    n1 - n2 for two), and `data` holds their blocks, raveled one after
    another: the only input format, which state preparation and loss pass
    (there is no dense input).  The length of `data` is checked, and
    Hermiticity, at construction; positivity as a pair's checks factorise
    the blocks (`_factorised`: eigenvalues below -1e-10 raise, small
    negatives clamp), unless the blocks come with their `spectrum`, whose
    weights are exact.  A state is plain data and keeps no factorisation;
    `mat` is a dense view of the blocks, built on demand.
    """

    dims: tuple[int, ...]
    data: np.ndarray = field(repr=False)
    layout: _Layout = field(repr=False)
    spectrum: list | None = field(repr=False)  # a prepared state's (weights (count, n), eigenvectors (count, n, n)) per size class

    def __init__(self, dims, *, data, spectrum=None) -> None:
        dims = tuple(int(x) for x in dims)
        if len(dims) not in (1, 2):
            raise ValueError(f"one or two modes supported, got dims {dims}")
        lay, data = _sector_layout(dims), np.asarray(data, dtype=float)
        if data.shape != (lay.start[-1],):
            raise ValueError(f"data of shape {data.shape}, but the blocks of dims {dims} take {lay.start[-1]} entries")
        mirror = data.take(lay.transpose)
        sym = np.subtract(data, mirror)  # one scratch array: the asymmetry, then the symmetrised blocks
        if np.abs(sym, out=sym).max() > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        data = np.add(data, mirror, out=sym)
        data /= 2.0
        data.setflags(write=False)
        self.__dict__.update(dims=dims, data=data, layout=lay, spectrum=spectrum)
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

    @cached_property
    def traces(self) -> np.ndarray:
        """Per sector: its block's trace."""
        return np.bincount(self.layout.sector_of, self.diagonal)

    @property
    def diagonal(self) -> np.ndarray:
        """The populations, in flat basis order."""
        return self.data.take(self.layout.diag)

    @property
    def mat(self) -> np.ndarray:
        m = np.zeros((math.prod(self.dims),) * 2)
        m[_rows_cols(self.layout)] = self.data
        return m


def _factorised(rho: FockDensityMatrix, need: np.ndarray) -> tuple[list, float, bool]:
    """(classes, top, exact): per size class, [eigenvalues (count, n), eigenvectors (count, n, n) or None while
    no block of it is factorised]; the largest eigenvalue over all sectors; whether the weights are exact.

    A prepared state gives its construction spectrum.  Any other state has its
    live blocks in the sectors of `need` factorised, then every other live
    block whose trace reaches the largest eigenvalue found (less 1e-12 of it,
    for roundoff): a block's largest eigenvalue is at most its trace, so `top`
    is exact.  Each stage makes one stacked `eigh` per size class over its
    blocks, each with the bits of a call over all blocks; an eigenvalue below
    -1e-10 raises, and small negatives clamp to 0.  A block not factorised
    holds zeros.
    """
    if rho.spectrum is not None:
        return rho.spectrum, max(w.max() for w, _ in rho.spectrum), True
    classes, top = [[np.zeros((b - a, n)), None] for n, a, b in rho.layout.classes], 0.0
    for stage in range(2):
        todo = rho.live & (need if stage == 0 else ~need & (rho.traces >= top * (1.0 - 1e-12)))
        new = [(k, pick, *np.linalg.eigh(_select(pick, stack)[0]))
               for k, ((_, a, b), stack) in enumerate(zip(rho.layout.classes, rho.stacks)) if (pick := todo[a:b]).any()]
        if new and (low := min(vals.min() for _, _, vals, _ in new)) < -EIG_CLAMP:
            raise ArithmeticError(f"density matrix eigenvalue {low:.3e} below -1e-10")
        for k, pick, vals, vecs in new:
            vals = np.maximum(vals, 0.0)
            top = max(top, vals.max())
            if pick.all():  # no block of the class was factorised before
                classes[k] = [vals, vecs]
                continue
            if classes[k][1] is None:
                classes[k][1] = np.zeros(pick.shape + vecs.shape[1:])
            classes[k][0][pick], classes[k][1][pick] = vals, vecs
    return classes, top, False


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
    exp(G)[j, k] = i^(j - k) (cos T - i sin T)[j, k].  T is a path, so cos T is
    even and sin T odd: exp(G) takes cos T where j - k is even and sin T where
    it is odd, times +1 for (j - k) mod 4 = 0 or 1 and -1 for 2 or 3.
    A zero row (no squeezing, a 1 x 1 block, or a block without weight) gives the identity without LAPACK.
    """
    n, nonzero = subs.shape[1] + 1, subs.any(axis=1)
    if not nonzero.all():  # the identity for each zero row, the others in their places
        out = np.broadcast_to(np.eye(n), (len(subs), n, n)).copy()
        if nonzero.any():
            out[nonzero] = _squeeze_unitaries(subs[nonzero])
        return out
    first = (subs[:, None] == subs).all(axis=2).argmax(axis=1)  # per row, the first row equal to it
    distinct = np.flatnonzero(first == np.arange(len(subs)))
    t = np.zeros((len(distinct), n * n))
    t[:, 1 :: n + 1] = t[:, n :: n + 1] = subs[distinct]  # the super- and subdiagonal
    w, v = np.linalg.eigh(t.reshape(-1, n, n))
    del t
    cos, sin = (v * np.cos(w)[:, None]) @ v.mT, (v * np.sin(w)[:, None]) @ v.mT
    gap = np.subtract.outer(np.arange(n), np.arange(n))
    np.copyto(cos, sin, where=gap % 2 == 1)
    cos *= np.where(gap % 4 < 2, 1.0, -1.0)
    return cos[np.searchsorted(distinct, first)]


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
    spectrum.  The chains of CHAIN_BUCKET consecutive lengths are factorised
    as one stack, each padded with zero links to the longest: a zero link
    leaves exp(G) + I (direct sum), so a chain of n levels takes the top-left
    n x n block.  The blocks of one size are built as one stack.

    Raises TruncationError if the truncation deficit (lost trace plus
    top-level spillover) exceeds cfg.tail_tol.
    """
    dim = cfg.dim
    dims = _state_dims(params, dim)
    if isinstance(params, SqueezedThermalParamsSingle):
        weights = thermal_diagonal(params.n_t, dim)

        def coupling(n: np.ndarray) -> np.ndarray:
            return 0.5 * params.r * np.sqrt((n + 1.0) * (n + 2.0))

    else:
        weights = np.outer(thermal_diagonal(params.n_t1, dim), thermal_diagonal(params.n_t2, dim)).ravel()

        def coupling(flat: np.ndarray) -> np.ndarray:
            n1, n2 = np.divmod(flat, dim)
            return params.r * np.sqrt((n1 + 1.0) * (n2 + 1.0))

    lay = _sector_layout(dims)
    # each level's link up its chain, 0 in a sector without weight: its block keeps the identity
    link = coupling(np.arange(math.prod(dims))) * (np.bincount(lay.sector_of, weights) > 0.0)[lay.sector_of]
    spectrum = []  # per size class: (weights, unitaries)
    for bucket in lay.buckets:
        group = [lay.sectors[k] for k in bucket]  # the classes of one bucket, each chain padded with zero links to the longest
        subs = np.zeros((sum(len(idx) for idx in group), group[-1].shape[1] - 1))
        ends = np.cumsum([len(idx) for idx in group])
        for idx, end in zip(group, ends):
            subs[end - len(idx) : end, : idx.shape[1] - 1] = link[idx[:, :-1]]
        for idx, u in zip(group, np.split(_squeeze_unitaries(subs), ends[:-1])):
            spectrum.append((weights[idx], u[:, : idx.shape[1], : idx.shape[1]].copy()))  # a copy: no view keeps the bucket
    data = np.zeros(lay.start[-1])  # filled class by class; a class without weight stays zero
    for (n, a, b), (w, u) in zip(lay.classes, spectrum):
        if w.any():
            np.matmul(u * w[:, None, :], u.mT, out=data[lay.start[a] : lay.start[b]].reshape(b - a, n, n))
    out = FockDensityMatrix(dims, data=data, spectrum=spectrum)
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
    finite up to a mode-1 cutoff of MAX_LOSS_CUTOFF = 1800.  Trace preserving
    to roundoff: the binomial sum over m <= j is complete for every j < dim.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    if eta == 1.0:
        return rho
    if (d1 := rho.dims[0]) > MAX_LOSS_CUTOFF:
        raise ValueError(f"the loss kernel's scales overflow past a mode-1 cutoff of {MAX_LOSS_CUTOFF}, got {d1}")
    at, deltas, lanes = _diagonal_map(rho.dims)
    g2, n = d1 / math.e, np.arange(1.0, d1)
    alpha = np.cumprod(np.concatenate(([1.0], np.sqrt(n / g2))))
    decay = np.cumprod(np.concatenate(([1.0], g2 * (1.0 - eta) / n)))
    gain = eta ** (0.5 * np.arange(d1)) / alpha
    kernel = np.triu(decay[np.abs(np.subtract.outer(np.arange(d1), np.arange(d1)))])
    pair = np.minimum(np.arange(d1)[:, None] + deltas, d1 - 1)  # the column level; slots past d1 hold zeros
    grid = np.zeros((d1, len(deltas), lanes))
    grid.reshape(-1)[at] = rho.data
    grid *= (alpha[:, None] * alpha[pair])[:, :, None]
    out = (kernel @ grid.reshape(d1, -1)).reshape(grid.shape)
    del grid  # each full-size array dies before the next is made
    out *= (gain[:, None] * gain[pair])[:, :, None]
    data = out.take(at)
    del out
    return FockDensityMatrix(rho.dims, data=data)


def moments_from_fock(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and covariance matrix of a Fock-basis state.

    The state is real symmetric, so <X^T> = <X> for every real ladder
    monomial X: every <p> and every q-p covariance vanishes, and the rest
    follows from the ladder moments, each one weighted sum over its band of
    `data` (`_moment_bands`).
    """
    values = np.array([(rho.data.take(at) * w).sum() for at, w in _moment_bands(rho.dims)])
    modes = len(rho.dims)
    a1, a2, sym = values[: 3 * modes].reshape(modes, 3).T
    first, second = np.zeros(2 * modes), np.diag(np.column_stack((sym + a2, sym - a2)).ravel())
    first[::2] = math.sqrt(2.0) * a1
    if modes == 2:
        ab, ab_dag = values[6:]
        second[0, 2] = second[2, 0] = ab + ab_dag
        second[1, 3] = second[3, 1] = ab_dag - ab
    return first, second - np.outer(first, first)


class _Pair(NamedTuple):
    """A pair of states on the same dims, each factorised where the other has weight (`_factorised`), and its overlap
    stack: one row per sector live in both, in sector order, zero-padded to the widest (a padded eigenvalue
    is an exact 0)."""

    states: tuple[FockDensityMatrix, FockDensityMatrix]
    spectra: tuple[tuple[list, float, bool], tuple[list, float, bool]]  # per state: `_factorised`'s (classes, top, exact)
    both: np.ndarray  # per sector: whether it is live in both states
    ends: np.ndarray  # per sector, and one past the end: its row, the count of such sectors before it
    buckets: list[tuple[list[int], int, int, int]]  # per bucket with rows (none empty): (classes with rows, first row, end row, widest)
    lam: np.ndarray  # (rows, width): rho_a's eigenvalues
    overlap: np.ndarray  # (rows, width, width): Va^T Vb, signed, until `squared`
    mu: np.ndarray  # (rows, width): rho_b's eigenvalues

    def floors(self, rel: float) -> list[float]:
        """Per state, the weight its support lies above: 0 for a prepared state, whose weights are exact, else
        rel times its largest eigenvalue over all sectors (a factorised state keeps clamped roundoff eigenvalues)."""
        return [0.0 if exact else rel * top for _, top, exact in self.spectra]

    def squared(self) -> np.ndarray:
        """The overlap stack squared in place into the s-curve's table |<v_i|w_j>|^2, bucket by bucket:
        a pad beyond a bucket's widest block stays an untouched zero page."""
        for _, first, end, n in self.buckets:
            block = self.overlap[first:end, :n, :n]
            np.square(block, out=block)
        return self.overlap


def _pair(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> _Pair:
    """The pair's rows and overlap stack, one batched Va^T Vb per size class over its sectors live in both states."""
    if rho_a.dims != rho_b.dims:
        raise ValueError(f"dims differ: {rho_a.dims} vs {rho_b.dims}")
    both, classes = rho_a.live & rho_b.live, rho_a.layout.classes
    ends, buckets = np.concatenate(([0], np.cumsum(both))), []
    for bucket in rho_a.layout.buckets:
        if group := [k for k in bucket if ends[classes[k][2]] > ends[classes[k][1]]]:
            (_, a, _), (n, _, b) = classes[group[0]], classes[group[-1]]
            buckets.append((group, int(ends[a]), int(ends[b]), n))
    spectra = _factorised(rho_a, rho_b.live), _factorised(rho_b, rho_a.live)
    count, width = int(ends[-1]), buckets[-1][3] if buckets else 0
    lam, mu, overlap = np.zeros((count, width)), np.zeros((count, width)), np.zeros((count, width, width))
    for (n, a, b), (la, va), (lb, vb) in zip(classes, spectra[0][0], spectra[1][0]):
        if ends[b] > ends[a]:  # the class's sectors live in both take rows ends[a] to ends[b]
            (la, va, lb, vb), at = _select(both[a:b], la, va, lb, vb), slice(ends[a], ends[b])
            lam[at, :n], mu[at, :n], overlap[at, :n, :n] = la, lb, va.mT @ vb
    return _Pair((rho_a, rho_b), spectra, both, ends, buckets, lam, overlap, mu)


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


def _chernoff(p: _Pair) -> tuple[float, float]:
    """(Q, s_star): minimum of the s-overlap, boundaries included, from the overlap stack, which it squares in
    place into the s-curve's table.

    On [S_EPS, 1 - S_EPS], `_minimize_s` stops at an edge whose slope
    points outward, else runs Newton on Q' inside its sign bracket.  The
    boundary values are lim_(s -> 0) = Tr[P_a rho_b] and the mirror image,
    with P the support projector: a prepared state's nonzero weights, which
    are exact, or a factorised state's eigenvalues above a rank floor
    relative to its largest eigenvalue over all sectors.  They win where a
    state lacks full support, as a pure one does.
    """
    la, table, lb = p.lam, p.squared(), p.mu
    s_star, q = _minimize_s(la, table, lb)
    floors = p.floors(1e-12)
    rank_a, rank_b = (la > floors[0]).astype(float), (lb > floors[1]).astype(float)
    at_zero = float(np.einsum("ki,kij,kj->", rank_a, table, lb))
    at_one = float(np.einsum("ki,kij,kj->", la, table, rank_b))
    for cand_s, cand_q in ((0.0, at_zero), (1.0, at_one)):
        if cand_q < q:
            s_star, q = cand_s, cand_q
    return q, s_star


def _fidelity(p: _Pair) -> float:
    """Uhlmann fidelity (Tr |sqrt(rho_a) sqrt(rho_b)|)^2 = (Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2 from the
    signed overlap stack.

    Per block, the singular values of diag(sqrt(la)) Va^T Vb diag(sqrt(lb)),
    one stacked `svd` per bucket (a zero pad adds exact zero singular
    values).  Each state's roots are taken on its support: a prepared
    state's nonzero weights, which are exact, or a factorised state's
    eigenvalues above a floor relative to its largest eigenvalue (no root is
    taken of a roundoff eigenvalue: 3e-9 for 1e-17 would survive into the
    trace).  Only the columns that some member of the bucket supports are
    kept; a floored root among them zeroes its row (column), adding a
    singular value of roundoff size.
    """
    ra, rb = (np.sqrt(np.where(w >= floor, w, 0.0)) for w, floor in zip((p.lam, p.mu), p.floors(1e-13)))
    total = 0.0
    for _, first, end, n in p.buckets:
        ra_k, rb_k = ra[first:end, :n], rb[first:end, :n]
        if (keep := np.flatnonzero(ra_k.any(axis=1) & rb_k.any(axis=1))).size:
            at, cols_a, cols_b = first + keep[:, None], np.flatnonzero(ra_k.any(axis=0)), np.flatnonzero(rb_k.any(axis=0))
            m = p.overlap[at[:, :, None], cols_a[:, None], cols_b]
            m *= ra[at, cols_a][:, :, None]
            m *= rb[at, cols_b][:, None, :]
            total += float(np.linalg.svd(m, compute_uv=False).sum())
    return total**2


def _trace_distance(p: _Pair) -> float:
    """(1/2) ||rho_a - rho_b||_1: one `eigvalsh` per bucket over the differences of the blocks live in both
    states (a zero pad adds exact zero eigenvalues).  A block live in one state only adds its trace (its trace
    norm, up to the roundoff eigenvalues the positivity check clamps)."""
    (rho_a, rho_b), total = p.states, sum(rho.traces[rho.live & ~p.both].sum() for rho in p.states)
    for group, first, end, width in p.buckets:
        diff = np.zeros((end - first, width, width))
        for k in group:
            n, a, b = rho_a.layout.classes[k]
            x, y = _select(p.both[a:b], rho_a.stacks[k], rho_b.stacks[k])
            np.subtract(x, y, out=diff[p.ends[a] - first : p.ends[b] - first, :n, :n])
        total += np.abs(np.linalg.eigvalsh(diff)).sum()
    return 0.5 * float(total)


class PairChecks(NamedTuple):
    """The oracle's checks of one pair (`pair_checks`)."""

    q: float
    s_star: float
    trace_distance: float
    fidelity: float

    @property
    def helstrom_pe(self) -> float:
        """Exact single-copy Helstrom error (1 - T) / 2."""
        return 0.5 * (1.0 - self.trace_distance)


def pair_checks(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> PairChecks:
    """Q and s_star (`_chernoff`), the trace distance (`_trace_distance`) and the fidelity (`_fidelity`) of
    one pair in one pass: the only route to each of them.

    Each state is factorised once where the other has weight, and one
    overlap stack Va^T Vb serves both the fidelity and, squared in place,
    the s-curve.
    """
    p = _pair(rho_a, rho_b)
    fidelity = _fidelity(p)
    return PairChecks(*_chernoff(p), _trace_distance(p), fidelity)


def s_overlap_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix, s: float) -> float:
    """Tr[rho_a^s rho_b^(1-s)] by explicit fractional powers.

    Near s = 0 (and 1) this is only as good as the smallest eigenvalues.  A
    prepared state keeps its exact zero weights, but a state diagonalised
    by `eigh` (a loss output, or one passed as bare blocks) keeps its
    clamped roundoff eigenvalues: about 1e-17, raised to s = 1e-6, they
    count as about 1 instead of 0.  qcb_fock is protected by its
    rank-floored boundary candidates; this curve is not.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent must be in (0, 1), got {s}")
    p = _pair(rho_a, rho_b)
    return _s_step(s, p.squared(), _logs(p.lam, p.mu))[0]


def qcb_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> tuple[float, float]:
    """(Q, s_star) of `pair_checks`."""
    return pair_checks(rho_a, rho_b)[:2]


def trace_distance_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """(1/2) ||rho_a - rho_b||_1 of `pair_checks`."""
    return pair_checks(rho_a, rho_b).trace_distance


def helstrom_pe_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """Exact single-copy Helstrom error (1 - T) / 2 of `pair_checks`."""
    return pair_checks(rho_a, rho_b).helstrom_pe


def fidelity_fock(rho_a: FockDensityMatrix, rho_b: FockDensityMatrix) -> float:
    """Uhlmann fidelity of `pair_checks`."""
    return pair_checks(rho_a, rho_b).fidelity

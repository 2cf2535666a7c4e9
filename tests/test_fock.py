"""Tests for the truncated Fock-space oracle.

Builds squeezed thermal density matrices in the number basis, pushes them
through the Kraus form of the loss channel, and checks moments, overlaps,
Chernoff quantities, Helstrom error, and fidelity against the Gaussian
machinery and against closed forms.

The package builds and analyses states by charge sector, one stacked call
per size class of sectors.  The dense route below (scipy `expm` of the full
generator, Kraus matmuls, complex quadrature matrices, one `eigh` of the
whole matrix) is the reference it must match at small cutoffs.  The
per-sector exponential is also checked against its complex route,
`eigh(i G)`.
"""

import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

from lossprobe import fock, verification
from lossprobe.channel import LossChannel, evolve, output_params_single, output_params_two
from lossprobe.chernoff import S_EPS, S_TOL, error_bounds, minimize_scalar_golden, q_s, qcb
from lossprobe.fock import (
    FockDensityMatrix,
    TruncationConfig,
    TruncationError,
    _squeeze_unitaries,
    apply_loss_kraus,
    fidelity_fock,
    fock_squeezed_thermal,
    helstrom_pe_fock,
    moments_from_fock,
    pair_checks,
    qcb_fock,
    s_overlap_fock,
    thermal_diagonal,
    trace_distance_fock,
    truncation_deficit,
)
from lossprobe.gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_single_mode_st,
    make_two_mode_st,
)
from lossprobe.probes import ProbeSpec, params_from_spec

S1 = SqueezedThermalParamsSingle
T2 = SqueezedThermalParamsTwo
CHAIN_SLACK = 1e-9
DENSE_TOL = 1e-13


# ---------------------------------------------------------------------------
# dense reference route
# ---------------------------------------------------------------------------


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def squeeze_unitary(r: float, dim: int) -> np.ndarray:
    """exp((r/2)(a^dag^2 - a^2)): antisqueezes q, matching the CM convention."""
    a = annihilation(dim)
    return expm(0.5 * r * (a.T @ a.T - a @ a))


def two_mode_squeeze_unitary(r: float, dim: int) -> np.ndarray:
    """exp(r (a^dag b^dag - a b)) on the dim^2 product space."""
    a = annihilation(dim)
    return expm(r * (np.kron(a.T, a.T) - np.kron(a, a)))


def _loss_kraus(eta: float, dim: int) -> list[np.ndarray]:
    """Kraus operators of the loss channel, entry (j - m, j) of K_m is
    sqrt(binom(j, m) (1 - eta)^m eta^(j - m))."""
    ops = []
    for m in range(dim):
        j = np.arange(m, dim)
        log_binom = gammaln(j + 1) - gammaln(m + 1) - gammaln(j - m + 1)
        vals = np.exp(0.5 * (log_binom + m * math.log(1.0 - eta) + (j - m) * math.log(eta)))
        ops.append(np.diag(vals, m))
    return ops


def quadrature_operators(dims: tuple[int, ...]) -> list[np.ndarray]:
    """[q1, p1, (q2, p2)] as dense complex matrices on the product space."""
    out = []
    eyes = [np.eye(d) for d in dims]
    for mode, d in enumerate(dims):
        a = annihilation(d)
        q = (a + a.T) / math.sqrt(2.0)
        p = (a - a.T) / (1j * math.sqrt(2.0))
        for op in (q, p):
            out.append(reduce(np.kron, [eyes[m] if m != mode else op for m in range(len(dims))]))
    return out


def dense_state(params, dim: int) -> np.ndarray:
    if isinstance(params, S1):
        u = squeeze_unitary(params.r, dim)
        return u @ np.diag(thermal_diagonal(params.n_t, dim)) @ u.T
    u = two_mode_squeeze_unitary(params.r, dim)
    diag = np.kron(thermal_diagonal(params.n_t1, dim), thermal_diagonal(params.n_t2, dim))
    return u @ np.diag(diag) @ u.T


def dense_loss(rho: np.ndarray, dims: tuple[int, ...], eta: float) -> np.ndarray:
    """sum_m (K_m x I) rho (K_m x I)^T."""
    rest = np.eye(rho.shape[0] // dims[0])
    out = np.zeros_like(rho)
    for k in _loss_kraus(eta, dims[0]):
        full = np.kron(k, rest)
        out += full @ rho @ full.T
    return out


def dense_moments(rho: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    ops = quadrature_operators(dims)
    first = np.array([float(np.trace(rho @ op).real) for op in ops])
    cm = np.array([[float(np.trace(rho @ (x @ y + y @ x)).real) / 2.0 for y in ops] for x in ops])
    return first, cm - np.outer(first, first)


def dense_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -1e-10:
        raise ArithmeticError(f"density matrix eigenvalue {vals.min():.3e} below -1e-10")
    return np.maximum(vals, 0.0), vecs


def dense_s_overlap(rho_a: np.ndarray, rho_b: np.ndarray, s: float) -> float:
    la, va = dense_spectrum(rho_a)
    lb, vb = dense_spectrum(rho_b)
    return float(la**s @ (va.T @ vb) ** 2 @ lb ** (1.0 - s))


def s_curve(lam: np.ndarray, table: np.ndarray, mu: np.ndarray):
    """s -> sum over rows of lam^s @ table @ mu^(1-s), one s at a time, for (k, w) spectra and (k, w, w) tables."""

    def curve(s):
        return np.array([np.einsum("ki,kij,kj->", lam**x, table, mu ** (1.0 - x)) for x in np.ravel(s)]).reshape(np.shape(s))

    return curve


def golden_qcb(lam: np.ndarray, table: np.ndarray, mu: np.ndarray) -> float:
    """The Chernoff minimum by golden section over the curve, and the rank-floored s = 0 and s = 1 values."""
    _, q = minimize_scalar_golden(s_curve(lam, table, mu), S_EPS, 1.0 - S_EPS, S_TOL)
    at_zero = float(np.einsum("ki,kij,kj->", lam > lam.max() * 1e-12, table, mu))
    at_one = float(np.einsum("ki,kij,kj->", lam, table, mu > mu.max() * 1e-12))
    return min(q, at_zero, at_one)


def dense_qcb(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    la, va = dense_spectrum(rho_a)
    lb, vb = dense_spectrum(rho_b)
    return golden_qcb(la[None], ((va.T @ vb) ** 2)[None], lb[None])


def dense_trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho_a - rho_b)).sum())


def dense_helstrom(rho_a: np.ndarray, rho_b: np.ndarray, copies: int) -> float:
    ma = reduce(np.kron, [rho_a] * copies)
    mb = reduce(np.kron, [rho_b] * copies)
    return 0.5 * (1.0 - dense_trace_distance(ma, mb))


def dense_fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    la, va = dense_spectrum(rho_a)
    la = np.where(la < la.max() * 1e-13, 0.0, la)
    root = (va * np.sqrt(la)) @ va.T
    inner = root @ rho_b @ root
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    # no root of a roundoff eigenvalue (eigvalsh's is about n eps times the largest): 3e-9 for 1e-17
    # would survive into the trace
    return float(np.sqrt(np.where(vals < vals.size * np.finfo(float).eps * vals.max(), 0.0, vals)).sum()) ** 2


def from_dense(dims: tuple[int, ...], mat: np.ndarray) -> FockDensityMatrix:
    """The state of a dense matrix, whose entries off the sectors of its mode count must be exactly zero."""
    lay, mat = fock._sector_layout(tuple(dims)), np.asarray(mat, dtype=float)
    assert not mat[lay.sector_of[:, None] != lay.sector_of].any(), "an entry off the sectors"
    return FockDensityMatrix(dims, data=mat[fock._rows_cols(lay)])


@pytest.fixture(scope="module")
def single_st():
    """(r=0.5, n_t=0.3) at dim 80, shared across the single-mode tests."""
    return fock_squeezed_thermal(S1(0.5, 0.3), TruncationConfig(dim=80))


@pytest.fixture(scope="module")
def two_mode_st():
    """(r=0.5, n_t1=0.2, n_t2=0.1) at dim 32 per mode."""
    return fock_squeezed_thermal(T2(0.5, 0.2, 0.1), TruncationConfig(dim=32))


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


def test_vacuum_density_matrix():
    rho = fock_squeezed_thermal(S1(0.0, 0.0), TruncationConfig(dim=10))
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho.mat - expected)) < 1e-15


def test_thermal_state_geometric_diagonal():
    dim = 60
    rho = fock_squeezed_thermal(S1(0.0, 1.0), TruncationConfig(dim=dim))
    m = np.arange(dim)
    expected = 0.5**(m + 1)
    assert np.max(np.abs(np.diag(rho.mat) - expected)) < 1e-15
    off = rho.mat - np.diag(np.diag(rho.mat))
    assert np.max(np.abs(off)) == 0.0
    assert abs(1.0 - rho.diagonal.sum()) < 1e-17


def test_thermal_diagonal_normalization():
    w = thermal_diagonal(0.7, 100)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(w > 0)


def test_single_mode_moments_match_cm(single_st):
    first, cm = moments_from_fock(single_st)
    assert np.max(np.abs(first)) < 1e-9
    expected = make_single_mode_st(S1(0.5, 0.3)).mat
    assert np.max(np.abs(cm - expected)) < 1e-8


def test_two_mode_moments_match_cm(two_mode_st):
    first, cm = moments_from_fock(two_mode_st)
    assert np.max(np.abs(first)) < 1e-9
    expected = make_two_mode_st(T2(0.5, 0.2, 0.1)).mat
    assert np.max(np.abs(cm - expected)) < 1e-8


def test_truncation_error_when_cutoff_too_low():
    with pytest.raises(TruncationError, match="dim 12"):
        fock_squeezed_thermal(S1(1.0, 0.0), TruncationConfig(dim=12))


def test_spillover_sentinel_sees_rotated_weight():
    # The squeeze unitary stays exactly orthogonal after truncation, so a
    # too-small cutoff loses no trace; the top-level occupation is what
    # betrays the spilled weight.
    rho = fock_squeezed_thermal(S1(1.0, 0.0), TruncationConfig(dim=12, tail_tol=0.5))
    assert abs(1.0 - rho.diagonal.sum()) < 1e-12
    assert truncation_deficit(rho) > 1e-3


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(dim=1)
    with pytest.raises(ValueError):
        TruncationConfig(dim=20, tail_tol=0.0)
    with pytest.raises(ValueError):
        TruncationConfig(dim=20, tail_tol=1.0)


def test_density_matrix_validation():
    bad = np.zeros((4, 4))
    bad[0, 2] = 1.0  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        from_dense((4,), bad)
    with pytest.raises(ValueError, match="trace"):
        from_dense((4,), 2.0 * np.eye(4))
    with pytest.raises(ValueError, match="modes"):
        FockDensityMatrix((2, 2, 2), data=np.eye(8).ravel() / 8.0)
    # the blocks of dims (4,) are the two 2 x 2 parity blocks: 8 entries
    for size in (7, 9):
        with pytest.raises(ValueError, match=f"shape \\({size},\\), but the blocks of dims \\(4,\\) take 8 entries"):
            FockDensityMatrix((4,), data=np.full(size, 0.1))
    with pytest.raises(ValueError, match="dims differ"):
        qcb_fock(from_dense((4,), np.eye(4) / 4.0), from_dense((2, 2), np.eye(4) / 4.0))


# ---------------------------------------------------------------------------
# loss channel in Kraus form
# ---------------------------------------------------------------------------


def test_loss_at_unit_transmissivity_is_identity(single_st):
    out = apply_loss_kraus(single_st, 1.0)
    assert np.max(np.abs(out.mat - single_st.mat)) == 0.0


def test_single_photon_splits_binomially():
    one = np.zeros((5, 5))
    one[1, 1] = 1.0
    rho = from_dense((5,), one)
    out = apply_loss_kraus(rho, 0.7)
    expected = np.zeros((5, 5))
    expected[0, 0] = 0.3
    expected[1, 1] = 0.7
    assert np.max(np.abs(out.mat - expected)) < 1e-15


def test_loss_preserves_trace(single_st):
    out = apply_loss_kraus(single_st, 0.55)
    assert abs(float(out.mat.trace()) - float(single_st.mat.trace())) < 1e-12


@pytest.mark.parametrize("eta", [0.3, 0.6, 0.9])
def test_loss_moments_match_cm_evolution(single_st, eta):
    out = apply_loss_kraus(single_st, eta)
    first, cm = moments_from_fock(out)
    expected = evolve(make_single_mode_st(S1(0.5, 0.3)), LossChannel.from_eta(eta))
    assert np.max(np.abs(first)) < 1e-9
    assert np.max(np.abs(cm - expected.mat)) < 1e-8


def test_two_mode_loss_moments_match_cm_evolution(two_mode_st):
    out = apply_loss_kraus(two_mode_st, 0.6)
    first, cm = moments_from_fock(out)
    expected = evolve(make_two_mode_st(T2(0.5, 0.2, 0.1)), LossChannel.from_eta(0.6))
    assert np.max(np.abs(first)) < 1e-9
    assert np.max(np.abs(cm - expected.mat)) < 1e-8


def test_loss_rejects_bad_transmissivity(single_st):
    with pytest.raises(ValueError):
        apply_loss_kraus(single_st, 0.0)
    with pytest.raises(ValueError):
        apply_loss_kraus(single_st, 1.2)


@pytest.mark.parametrize("eta", [1e-3, 0.5, 1.0 - 1e-9])
def test_loss_at_high_cutoff_matches_the_exact_binomials(eta):
    # sqrt(250!) is far past the float range, so this guards the kernel's
    # geometric scaling: |250><250| and the coherence between 250 and 248
    # photons at dim 300, against K_m[j] = <j|K_m|j + m> from lgamma
    dim = 300

    def amp(j: int, m: int) -> float:
        log_binom = math.lgamma(j + m + 1) - math.lgamma(m + 1) - math.lgamma(j + 1)
        return math.exp(0.5 * (log_binom + m * math.log(1.0 - eta) + j * math.log(eta)))

    for n, k, weight in ((250, 250, 1.0), (250, 248, 0.5)):
        mat = np.zeros((dim, dim))
        mat[n, k] = mat[k, n] = weight
        out = apply_loss_kraus(from_dense((dim,), mat), eta)
        ref = np.zeros((dim, dim))
        for m in range(k + 1):
            ref[n - m, k - m] = ref[k - m, n - m] = weight * amp(n - m, m) * amp(k - m, m)
        assert np.max(np.abs(out.mat - ref)) <= 1e-13, (n, k)


def test_loss_kernel_stays_finite_up_to_its_cutoff_limit():
    # the scales reach exp(dim/e): finite at a mode-1 cutoff of 1800, refused past it
    for dim in (1800, 1801):
        lay = fock._sector_layout((dim,))
        top = np.zeros(lay.start[-1])
        top[lay.diag[-1]] = 1.0
        rho = FockDensityMatrix((dim,), data=top)
        if dim == 1801:
            with pytest.raises(ValueError, match="1800"):
                apply_loss_kraus(rho, 1e-3)
        else:
            assert abs(float(apply_loss_kraus(rho, 1e-3).diagonal.sum()) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# s-overlap and Chernoff quantity
# ---------------------------------------------------------------------------


def test_s_overlap_identical_states_is_one(single_st):
    for s in (0.2, 0.5, 0.8):
        assert abs(s_overlap_fock(single_st, single_st, s) - 1.0) < 1e-8


def test_s_overlap_matches_gaussian_closed_form():
    cfg = TruncationConfig(dim=60)
    vac = fock_squeezed_thermal(S1(0.0, 0.0), cfg)
    th = fock_squeezed_thermal(S1(0.0, 1.0), cfg)
    value = s_overlap_fock(vac, th, 0.5)
    assert abs(value - q_s(S1(0.0, 0.0), S1(0.0, 1.0), 0.5)) < 1e-8
    assert abs(value - 1.0 / math.sqrt(2.0)) < 1e-8


def test_s_overlap_rejects_boundary_exponents(single_st):
    with pytest.raises(ValueError):
        s_overlap_fock(single_st, single_st, 0.0)
    with pytest.raises(ValueError):
        s_overlap_fock(single_st, single_st, 1.0)


def test_qcb_fock_identical_states(single_st):
    q, _ = qcb_fock(single_st, single_st)
    assert abs(q - 1.0) < 1e-8


def test_qcb_fock_pure_vs_mixed_is_state_overlap():
    # With one state pure the s-curve is minimized at the boundary and the
    # Chernoff quantity collapses to Tr[rho_a rho_b].
    cfg = TruncationConfig(dim=60)
    pure = fock_squeezed_thermal(S1(0.4, 0.0), cfg)
    mixed = fock_squeezed_thermal(S1(0.0, 0.5), cfg)
    q, s_star = qcb_fock(pure, mixed)
    product_trace = float(np.sum(pure.mat * mixed.mat.T))
    assert abs(q - product_trace) < 1e-8
    assert s_star in (0.0, 1.0)
    report = qcb(S1(0.4, 0.0), S1(0.0, 0.5))
    assert abs(q - report.q) < 1e-6


@pytest.mark.parametrize(
    "params,eta,dim",
    [
        (S1(0.5, 0.3), 0.7, 80),
        (S1(0.3, 1.0), 0.3, 90),
        (S1(1.0, 0.0), 0.5, 110),
    ],
)
def test_qcb_fock_matches_gaussian_single(params, eta, dim):
    rho = fock_squeezed_thermal(params, TruncationConfig(dim=dim))
    out = apply_loss_kraus(rho, eta)
    q_fock, _ = qcb_fock(rho, out)
    report = qcb(params, output_params_single(params, LossChannel.from_eta(eta)))
    assert abs(q_fock - report.q) < 1e-6


def test_qcb_fock_matches_gaussian_two_mode(two_mode_st):
    out = apply_loss_kraus(two_mode_st, 0.6)
    q_fock, _ = qcb_fock(two_mode_st, out)
    params_b = output_params_two(T2(0.5, 0.2, 0.1), LossChannel.from_eta(0.6))
    report = qcb(T2(0.5, 0.2, 0.1), params_b)
    assert abs(q_fock - report.q) < 1e-6


def test_qcb_fock_converges_under_dim_doubling():
    for params, eta, dim in ((S1(0.3, 0.2), 0.7, 40), (S1(0.5, 0.0), 0.5, 60)):
        values = []
        for d in (dim, 2 * dim):
            rho = fock_squeezed_thermal(params, TruncationConfig(dim=d))
            values.append(qcb_fock(rho, apply_loss_kraus(rho, eta))[0])
        assert abs(values[1] - values[0]) < 1e-7


def verification_pairs(dim: int | None):
    """(case, rho_a, rho_b) for every standard case, at its own cutoff or at dim."""
    for case in verification.standard_cases():
        cfg = TruncationConfig(dim=dim or case.dim)
        rho_a = fock_squeezed_thermal(case.params_a, cfg)
        rho_b = apply_loss_kraus(rho_a, case.eta) if case.eta is not None else fock_squeezed_thermal(case.params_b, cfg)
        yield case, rho_a, rho_b


@pytest.mark.bits
@pytest.mark.parametrize("dim", [None, 80])
def test_newton_minimum_matches_golden_section(dim):
    # the same spectra and table, minimised by golden section over the curve
    # evaluated by plain powers; where Newton stops inside (0, 1), its point
    # is no higher than the golden-section minimum
    for case, rho_a, rho_b in verification_pairs(dim):
        p = fock._pair(rho_a, rho_b)
        lam, table, mu = p.lam, p.squared(), p.mu
        q_ref = golden_qcb(lam, table, mu)
        q, s_star = qcb_fock(rho_a, rho_b)
        assert abs(q - q_ref) <= 1e-14 * q_ref, (case.name, q, q_ref)
        if 0.0 < s_star < 1.0:
            assert s_curve(lam, table, mu)(s_star) <= q_ref * (1.0 + 1e-14), case.name


@pytest.mark.bits
def test_verify_takes_few_s_curve_steps(monkeypatch):
    # a pure input stops at its S_EPS edge, whose slope is >= 0, after one
    # step; a mixed case takes both edge slopes and a few Newton steps (the
    # golden section took 616 evaluations per verify)
    steps, per_case = [], []
    step, checks = fock._s_step, verification.pair_checks

    def counted_step(*args):
        steps.append(1)
        return step(*args)

    def counted_checks(rho_a, rho_b):
        before = len(steps)
        out = checks(rho_a, rho_b)
        per_case.append(len(steps) - before)
        return out

    monkeypatch.setattr(fock, "_s_step", counted_step)
    monkeypatch.setattr(verification, "pair_checks", counted_checks)
    assert all(r.passed for r in verification.run_all())
    pure = [not any(c.params_a.fields()[1:]) for c in verification.standard_cases()]
    assert len(per_case) == len(pure) == 13
    assert [n for n, p in zip(per_case, pure) if p] == [1, 1, 1, 1], per_case
    assert max(per_case) <= 8, per_case
    assert sum(per_case) <= 100, per_case


@pytest.mark.bits
@pytest.mark.parametrize("dim", [None, 80])
def test_pair_checks_are_the_bits_of_each_check_alone(dim):
    # verify's one pass per pair shares the common partition, the spectra and
    # the overlap stack; each of its values has the bits of its own function
    for case, rho_a, rho_b in verification_pairs(dim):
        q, s_star, distance, fid = pair_checks(rho_a, rho_b)
        assert (q, s_star) == qcb_fock(rho_a, rho_b), case.name
        assert distance == trace_distance_fock(rho_a, rho_b), case.name
        assert fid == fidelity_fock(rho_a, rho_b), case.name
        assert helstrom_pe_fock(rho_a, rho_b) == 0.5 * (1.0 - distance), case.name


@pytest.mark.bits
def test_flat_curve_stops_on_its_tangent_certificate(monkeypatch):
    # eta = 0.9999 leaves Q within 2e-9 of 1 and Q' at roundoff (|Q'| <=
    # 9e-16 against Q'' = 1.3e-8), so a stop on the step in s bisected 11 times
    steps = []
    step = fock._s_step

    def counted_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(fock, "_s_step", counted_step)
    rho = fock_squeezed_thermal(T2(0.5, 0.2, 0.1), TruncationConfig(dim=32))
    out = apply_loss_kraus(rho, 0.9999)
    q, _ = qcb_fock(rho, out)
    assert len(steps) <= 8, len(steps)
    p = fock._pair(rho, out)
    lam, table, mu = p.lam, p.squared(), p.mu
    assert abs(q - golden_qcb(lam, table, mu)) <= 1e-14 * q


def test_s_overlap_near_zero_matches_gaussian_for_a_prepared_input():
    # the prepared input keeps its exact zero weights, so at s = 1e-6 no
    # roundoff eigenvalue of it is raised to a power near 1
    pa = params_from_spec(ProbeSpec(2, 4.0, 0.8, gamma=1.0))
    ch = LossChannel.from_gamma(2.0)
    expected = q_s(pa, output_params_two(pa, ch), 1e-6)
    for dim in (52, 64):
        rho = fock_squeezed_thermal(pa, TruncationConfig(dim=dim))
        value = s_overlap_fock(rho, apply_loss_kraus(rho, float(ch.eta)), 1e-6)
        assert abs(value - expected) < 1e-12, (dim, value, expected)


# ---------------------------------------------------------------------------
# trace distance, Helstrom error, fidelity
# ---------------------------------------------------------------------------


def test_identical_states_are_indistinguishable(single_st):
    assert trace_distance_fock(single_st, single_st) == 0.0
    assert helstrom_pe_fock(single_st, single_st) == 0.5


def test_orthogonal_states_error_free():
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    b = np.zeros((4, 4))
    b[1, 1] = 1.0
    rho_a = from_dense((4,), a)
    rho_b = from_dense((4,), b)
    assert abs(trace_distance_fock(rho_a, rho_b) - 1.0) < 1e-12
    assert abs(helstrom_pe_fock(rho_a, rho_b)) < 1e-12


def test_helstrom_error_below_chernoff_bound():
    # Full budget in squeezing (one photon), half the light lost.
    r = math.asinh(1.0)
    params = S1(r, 0.0)
    rho = fock_squeezed_thermal(params, TruncationConfig(dim=110))
    out = apply_loss_kraus(rho, 0.5)
    pe = helstrom_pe_fock(rho, out)
    report = qcb(params, output_params_single(params, LossChannel.from_eta(0.5)))
    assert pe <= report.q / 2.0 + CHAIN_SLACK
    fid = fidelity_fock(rho, out)
    lower = 0.5 * (1.0 - math.sqrt(max(1.0 - fid, 0.0)))
    assert pe >= lower - CHAIN_SLACK


def test_multi_copy_helstrom_improves():
    # dim 24 keeps the hotter thermal tail (0.375^24 ~ 6e-11) under the
    # deficit tolerance; the two-copy error comes from the dense Kronecker
    # square (576 dimensions)
    cfg = TruncationConfig(dim=24)
    rho_a = fock_squeezed_thermal(S1(0.0, 0.3), cfg)
    rho_b = fock_squeezed_thermal(S1(0.0, 0.6), cfg)
    pe1 = helstrom_pe_fock(rho_a, rho_b)
    pe2 = dense_helstrom(rho_a.mat, rho_b.mat, 2)
    assert pe2 <= pe1
    report = qcb(S1(0.0, 0.3), S1(0.0, 0.6), copies=2)
    assert pe2 <= report.q**2 / 2.0 + CHAIN_SLACK


def test_fidelity_identical_states(single_st):
    assert abs(fidelity_fock(single_st, single_st) - 1.0) < 1e-8


def test_fidelity_pure_state_reduction():
    # For pure rho_a the Uhlmann formula collapses to <psi|rho_b|psi>.
    cfg = TruncationConfig(dim=60)
    pure = fock_squeezed_thermal(S1(0.4, 0.0), cfg)
    mixed = fock_squeezed_thermal(S1(0.0, 0.5), cfg)
    expected = float(np.sum(pure.mat * mixed.mat.T))
    assert abs(fidelity_fock(pure, mixed) - expected) < 1e-8


def test_error_probability_chain_on_mixed_pair():
    params = S1(0.3, 0.4)
    rho = fock_squeezed_thermal(params, TruncationConfig(dim=70))
    out = apply_loss_kraus(rho, 0.6)
    q, _ = qcb_fock(rho, out)
    pe = helstrom_pe_fock(rho, out)
    fid = fidelity_fock(rho, out)
    lower = 0.5 * (1.0 - math.sqrt(max(1.0 - fid, 0.0)))
    assert lower - CHAIN_SLACK <= pe
    assert pe <= q / 2.0 + CHAIN_SLACK
    assert q / 2.0 <= math.sqrt(fid) / 2.0 + CHAIN_SLACK


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


def test_verification_case_passes():
    case = verification.standard_cases()[0]
    results = verification.run_case(case, q=verification._gaussian_q([case])[0])
    assert results
    assert all(r.passed for r in results)


def test_run_all_makes_one_qcb_stack_per_mode_count(monkeypatch):
    # both mode counts in one Chernoff call, each recovered in one call over its channel cases
    counts = {"_qcb_pairs": 0, "output_params_single": 0, "output_params_two": 0, "run_case": 0}

    def counted(name):
        fn = getattr(verification, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(verification, name, counted(name))
    results = verification.run_all()
    assert counts == {"_qcb_pairs": 1, "output_params_single": 1, "output_params_two": 1, "run_case": 13}
    # a case's rows are the same from the stack as from its own one-lane call
    cases = verification.standard_cases()
    for k in (0, 5, 9):
        alone = verification.run_case(cases[k], q=verification._gaussian_q([cases[k]])[0])
        assert [r for r in results if r.case == cases[k].name] == alone, cases[k].name


@pytest.mark.bits
def test_expected_moments_are_the_bits_of_the_cm_route():
    # verify's expected CMs come from the parameters; they are the bits that
    # make_*_st and evolve_* give, for the standard cases and wider probes
    cases = verification.standard_cases()
    for spec in (ProbeSpec(1, 5.0, 1.0), ProbeSpec(1, 10.0, 0.3), ProbeSpec(2, 4.0, 0.8, 1.0), ProbeSpec(2, 5.0, 0.1, 0.999)):
        cases += [verification.OracleCase("wide", params_from_spec(spec), dim=10, eta=eta) for eta in (0.3, 0.77, 1.0)]
    for case in cases:
        two_mode = isinstance(case.params_a, T2)
        make = make_two_mode_st if two_mode else make_single_mode_st
        cm_a = make(case.params_a)
        cm_b = make(case.params_b) if case.eta is None else evolve(cm_a, LossChannel.from_eta(case.eta))
        for got, want in zip(verification._expected_cms(case), (cm_a.mat, cm_b.mat)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), case.name


def test_verification_flags_undersized_cutoff():
    deep = next(c for c in verification.standard_cases() if c.params_a == S1(1.0, 0.0))
    results = verification.run_case(deep, dim=12, q=verification._gaussian_q([deep])[0])
    assert len(results) == 1
    assert not results[0].passed
    assert "truncation" in results[0].check


def test_verification_case_set_is_large_enough():
    assert len(verification.standard_cases()) >= 12


def test_verification_covers_the_sampled_domain():
    # The sweeps draw N up to 5 and Gamma up to 2; the standard bank stops
    # at parameters <= 1.  Cutoffs are the smallest that keep every moment
    # residual under its 1e-8 tolerance.
    wide = [
        ("single-pure-N5-Gamma2", ProbeSpec(1, 5.0, 1.0), 300, 2.0),
        ("single-mixed-N5-Gamma1", ProbeSpec(1, 5.0, 0.5), 300, 1.0),
        ("single-thermal-N5-Gamma0.5", ProbeSpec(1, 5.0, 0.0), 160, 0.5),
        ("two-mode-N4-Gamma2", ProbeSpec(2, 4.0, 0.8, 1.0), 60, 2.0),
    ]
    for name, spec, dim, gamma_ch in wide:
        case = verification.OracleCase(name, params_from_spec(spec), dim=dim, eta=math.exp(-gamma_ch))
        results = verification.run_case(case, q=verification._gaussian_q([case])[0])
        assert len(results) == 8, name
        assert all(r.passed for r in results), [(r.case, r.check, r.value) for r in results if not r.passed]


# Rows of the figure grids at the paper's energies, each at a cutoff where
# q_fock has converged: a cutoff 25% higher moves it by at most 1.4e-12, and
# the truncation deficit alone is no guide (the first row's deficit is 5e-9
# at dim 336, where q_fock is still 1.1e-6 low).  The pure rows (beta = 1)
# keep weight in one input sector, so their size classes have dead members;
# they and the three mixed rows after them each sit at the first cutoff of
# the ladder 16, 21, 27, ... (times 1.25, plus 1) whose q_fock the next one
# matches to 1e-12 (at the first cutoff within the deficit bound, 336 and
# 108, the N = 10 rows are 7.4e-12 low and 1.0e-11 high).  Those mixed rows
# are one-mode or two-mode with gamma < 1, whose minimum lies inside (0, 1):
# they read 2.1e-14, 9.3e-13 and 1.3e-15 off the Gaussian qcb.  The last row
# is of the two-mode, gamma = 1, mixed kind whose infimum is the s -> 0
# limit: the Gaussian qcb reports Q at s = S_EPS instead, 1.9e-7 too high.
PAPER_ENERGY_ROWS = [
    pytest.param(ProbeSpec(1, 10.0, 0.3), 1.0, 800, id="single-N10-beta0.3-Gamma1"),
    pytest.param(ProbeSpec(1, 5.0, 0.5), 0.9, 450, id="single-N5-beta0.5-Gamma0.9"),
    pytest.param(ProbeSpec(2, 5.0, 0.1, 0.999), 0.2, 140, id="two-mode-N5-beta0.1-gamma0.999-Gamma0.2"),
    pytest.param(ProbeSpec(1, 5.0, 1.0), 0.3, 214, id="single-N5-beta1-Gamma0.3"),
    pytest.param(ProbeSpec(1, 10.0, 1.0), 0.1, 421, id="single-N10-beta1-Gamma0.1"),
    pytest.param(ProbeSpec(2, 5.0, 1.0), 1.0, 68, id="two-mode-N5-beta1-Gamma1"),
    pytest.param(ProbeSpec(2, 10.0, 1.0), 0.1, 136, id="two-mode-N10-beta1-Gamma0.1"),
    pytest.param(ProbeSpec(1, 5.0, 0.8), 0.3, 336, id="single-N5-beta0.8-Gamma0.3"),
    pytest.param(ProbeSpec(2, 5.0, 0.5, 0.5), 1.0, 68, id="two-mode-N5-beta0.5-gamma0.5-Gamma1"),
    pytest.param(ProbeSpec(2, 4.0, 0.8, 0.9), 2.0, 54, id="two-mode-N4-beta0.8-gamma0.9-Gamma2"),
    pytest.param(
        ProbeSpec(2, 4.0, 0.8), 2.0, 80, id="two-mode-N4-beta0.8-Gamma2",
        marks=pytest.mark.xfail(strict=True, reason="qcb stops at s = S_EPS short of the exact s -> 0 end (ROADMAP items 3b and 10)"),
    ),
]


@pytest.mark.parametrize("spec,gamma_ch,dim", PAPER_ENERGY_ROWS)
def test_oracle_matches_qcb_at_the_papers_energies(spec, gamma_ch, dim):
    params, eta = params_from_spec(spec), math.exp(-gamma_ch)
    recover = output_params_single if spec.modes == 1 else output_params_two
    q = float(qcb(params, recover(params, LossChannel.from_eta(eta))).q)
    rho = fock_squeezed_thermal(params, TruncationConfig(dim=dim))
    q_fock, _ = qcb_fock(rho, apply_loss_kraus(rho, eta))
    assert abs(q_fock - q) <= 1e-10, q_fock - q


def converged_state(params) -> FockDensityMatrix:
    """The prepared state at the first cutoff, up from 16 by a factor 1.25, whose truncation deficit is at most 1e-15."""
    dim = 16
    while True:
        try:
            return fock_squeezed_thermal(params, TruncationConfig(dim=dim, tail_tol=1e-15))
        except TruncationError:
            dim = math.ceil(1.25 * dim)


def cross_check(params, eta: float) -> tuple[float, bool]:
    """(oracle Q - Gaussian Q, whether the Gaussian minimum stopped at an S_EPS edge) of a state and its loss
    output, after `verify`'s chain pe_lower <= P_e <= Q/2 <= sqrt(F)/2 (Gaussian Q, oracle P_e and F)."""
    recover = output_params_single if isinstance(params, S1) else output_params_two
    report = qcb(params, recover(params, LossChannel.from_eta(eta)))
    rho = converged_state(params)
    checks = pair_checks(rho, apply_loss_kraus(rho, eta))
    q_fock, pe, fid = checks.q, checks.helstrom_pe, checks.fidelity
    lower, _, _ = error_bounds(report.q, fid, 1)
    assert lower - CHAIN_SLACK <= pe <= report.q / 2.0 + CHAIN_SLACK
    assert report.q / 2.0 <= math.sqrt(fid) / 2.0 + CHAIN_SLACK
    return q_fock - float(report.q), report.s_star in (S_EPS, 1.0 - S_EPS)


@given(
    two=st.booleans(),
    r=st.floats(0.0, 0.8),
    n_t=st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 0.8)),
    pure=st.sampled_from([True, False, False, False, False]),
    eta=st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None, database=None)
@seed(18)
def test_oracle_matches_qcb_on_random_inputs(two, r, n_t, pure, eta):
    # one draw in five is pure, so the oracle factorises its loss output
    # only where the input has weight; at an S_EPS edge the Gaussian Q is
    # high by up to about 2e-7 (ROADMAP items 3b and 10, the strict xfail
    # row below), so there only the oracle's side of the bound is held
    n1, n2 = (0.0, 0.0) if pure else n_t
    gap, at_edge = cross_check(T2(r, n1, n2) if two else S1(r, n1), eta)
    assert (gap if at_edge else abs(gap)) <= 1e-10, gap


@pytest.mark.parametrize(
    "params,eta",
    [
        pytest.param(S1(0.65, 0.53), 0.22, id="single-mixed"),  # 1.1e-10 off at a deficit of 7.4e-15
        pytest.param(T2(0.5, 0.0, 0.0), 0.3, id="two-mode-pure"),
        pytest.param(
            T2(0.5, 0.8, 0.0), 0.9, id="two-mode-rank-deficient",
            marks=pytest.mark.xfail(strict=True, reason="qcb stops at s = S_EPS short of the exact s -> 0 end (ROADMAP items 3b and 10)"),
        ),
        pytest.param(  # found by test_oracle_matches_qcb_on_random_inputs at 15 times its example budget
            S1(0.5, 1.457e-195), 0.5, id="single-underflowing-weights",
            marks=pytest.mark.xfail(strict=True, reason="the oracle's thermal weights underflow to 0 while their "
                                    "s*-th powers do not: its Q is 1.7e-7 low at s* = 0.0135 (ROADMAP item 24)"),
        ),
    ],
)
def test_oracle_matches_qcb_on_fixed_inputs(params, eta):
    gap, _ = cross_check(params, eta)
    assert abs(gap) <= 1e-10, gap


# ---------------------------------------------------------------------------
# sector route against the dense reference
# ---------------------------------------------------------------------------

# Squeezing strong enough that the cutoff visibly shapes every state, so the
# comparison also covers the truncated-operator semantics (a a^dag has 0 as
# its top diagonal entry).  The states are hot, so every eigenvalue stays far
# above roundoff: fractional powers and square roots of eigenvalues near
# 1e-17 (cold states) amplify roundoff past 1e-13 on either route.
DENSE_CASES = [(S1(1.0, 3.0), 30, 0.6), (T2(0.7, 1.5, 1.2), 12, 0.5)]
DENSE_TRUNCATION = 0.9


@pytest.fixture(scope="module", params=DENSE_CASES, ids=["single", "two-mode"])
def dense_pair(request):
    """(state, lossy image) by the sector route and by the dense route."""
    params, dim, eta = request.param
    rho = fock_squeezed_thermal(params, TruncationConfig(dim=dim, tail_tol=DENSE_TRUNCATION))
    ref = dense_state(params, dim)
    return rho, apply_loss_kraus(rho, eta), ref, dense_loss(ref, rho.dims, eta)


@pytest.mark.bits
def test_sector_states_and_loss_match_dense(dense_pair):
    rho, out, ref, ref_out = dense_pair
    assert np.max(np.abs(rho.mat - ref)) < DENSE_TOL
    assert np.max(np.abs(out.mat - ref_out)) < DENSE_TOL


@pytest.mark.bits
def test_sector_moments_match_dense(dense_pair):
    rho, out, ref, ref_out = dense_pair
    for state, dense in ((rho, ref), (out, ref_out)):
        first, cm = moments_from_fock(state)
        ref_first, ref_cm = dense_moments(dense, state.dims)
        assert np.max(np.abs(first - ref_first)) < DENSE_TOL
        assert np.max(np.abs(cm - ref_cm)) < DENSE_TOL


@pytest.mark.bits
def test_sector_spectral_functions_match_dense(dense_pair):
    rho, out, ref, ref_out = dense_pair
    assert abs(qcb_fock(rho, out)[0] - dense_qcb(ref, ref_out)) < DENSE_TOL
    for s in (0.1, 0.5, 0.9):
        assert abs(s_overlap_fock(rho, out, s) - dense_s_overlap(ref, ref_out, s)) < DENSE_TOL
    assert abs(fidelity_fock(rho, out) - dense_fidelity(ref, ref_out)) < DENSE_TOL
    assert abs(trace_distance_fock(rho, out) - dense_trace_distance(ref, ref_out)) < DENSE_TOL
    assert abs(helstrom_pe_fock(rho, out) - dense_helstrom(ref, ref_out, 1)) < DENSE_TOL


@pytest.mark.bits
@pytest.mark.parametrize("params,dim,eta", [(S1(1.0, 3.0), 30, 0.6), (T2(0.7, 1.5, 1.2), 6, 0.5)])
def test_sector_two_copy_helstrom_matches_dense(params, dim, eta):
    # the sector route gives one copy; two copies are the dense Kronecker
    # square, between the fidelity lower bound and the Chernoff bound Q^2 / 2
    rho = fock_squeezed_thermal(params, TruncationConfig(dim=dim, tail_tol=DENSE_TRUNCATION))
    ref = dense_state(params, dim)
    ref_out = dense_loss(ref, rho.dims, eta)
    assert abs(helstrom_pe_fock(rho, apply_loss_kraus(rho, eta)) - dense_helstrom(ref, ref_out, 1)) < DENSE_TOL
    channel = LossChannel.from_eta(eta)
    out = output_params_single(params, channel) if isinstance(params, S1) else output_params_two(params, channel)
    report = qcb(params, out, copies=2)  # mixed: no fidelity, so the lower bound takes the dense one
    pe_lower, _, _ = error_bounds(report.q, dense_fidelity(ref, ref_out), 2)
    assert pe_lower <= dense_helstrom(ref, ref_out, 2) <= report.pe_upper


def test_sectors_follow_the_conserved_charge(single_st, two_mode_st):
    # the mode count fixes the sectors: parity for one mode (a diagonal state
    # too), n1 - n2 for two; loss on mode 1 keeps them
    thermal = fock_squeezed_thermal(S1(0.0, 0.5), TruncationConfig(dim=20))
    for rho, sectors in ((single_st, 2), (two_mode_st, 2 * 32 - 1), (thermal, 2)):
        n = np.indices(rho.dims).reshape(len(rho.dims), -1)
        charge = n[0] % 2 if len(rho.dims) == 1 else n[0] - n[1]
        assert len(set(zip(rho.layout.sector_of.tolist(), charge.tolist()))) == len(rho.layout.start) - 1 == sectors
        assert np.array_equal(apply_loss_kraus(rho, 0.6).layout.sector_of, rho.layout.sector_of)


def test_floors_are_relative_to_the_largest_eigenvalue_overall():
    rows = [
        # The 1e-14 weight sits alone in its sector.  Against a floor relative
        # to its own sector it would count as support (Q = 0.645 instead of
        # 0.6) and its square root would add 1e-7 to the fidelity.
        ([1.0 - 1e-14, 1e-14], [0.6, 0.4]),
        # b's largest eigenvalue sits where a has no weight, so no check reads
        # its block: the trace rule factorises it, as its trace 0.7 reaches
        # the 0.3 found where a has weight
        ([1.0, 0.0], [0.3, 0.7]),
        # a floor that decides Q: relative to a's 0.7, found by the trace
        # rule in the odd sector, where b has no weight, its 5e-13 is no
        # support, so Tr[P_a rho_b] = 0.01 wins at s = 0; relative to the 0.3
        # beside it in the even sector, it would be, and Q would read 0.023
        ([0.3 - 5e-13, 0.7, 5e-13], [0.01, 0.0, 0.99]),
    ]
    for a, b in rows:
        a, b = np.diag(a), np.diag(b)
        rho_a, rho_b = from_dense((len(a),), a), from_dense((len(b),), b)
        q, s_star = qcb_fock(rho_a, rho_b)
        assert s_star == 0.0
        assert abs(q - dense_qcb(a, b)) < DENSE_TOL
        assert abs(fidelity_fock(rho_a, rho_b) - dense_fidelity(a, b)) < DENSE_TOL
        assert abs(qcb_fock(rho_b, rho_a)[0] - dense_qcb(b, a)) < DENSE_TOL


def assert_q_pe_f_match(rho_a, rho_b, ref_a, ref_b, fid, tol=1e-14):
    """q and P_e against the dense route, F against `fid`, in both orders."""
    for a, b, ra, rb in ((rho_a, rho_b, ref_a, ref_b), (rho_b, rho_a, ref_b, ref_a)):
        checks = pair_checks(a, b)
        assert abs(checks.q - dense_qcb(ra, rb)) < tol
        assert abs(checks.helstrom_pe - dense_helstrom(ra, rb, 1)) < tol
        assert abs(checks.fidelity - fid) < tol


@pytest.mark.bits
@pytest.mark.parametrize("params,dim,eta", [(S1(0.8, 0.0), 40, 0.6), (T2(0.7, 0.0, 0.0), 14, 0.6),
                                            (S1(0.5, 0.0), 60, 0.5), (T2(0.5, 0.0, 0.0), 12, 0.5)],
                         ids=["single", "two-mode", "single-eta0.5", "two-mode-eta0.5"])
def test_pure_inputs_match_dense(params, dim, eta):
    # a squeezed vacuum has weight in one of its sectors, its loss output in
    # many; for a pure input the Uhlmann fidelity is <psi|rho_b|psi>, and
    # sqrt(rho_a) rho_b sqrt(rho_a) has rank 1: with the roots of its
    # roundoff eigenvalues the dense route read F 3.3e-8, 1.4e-7, 2.2e-8 and
    # 8.2e-8 above the oracle on these rows
    rho = fock_squeezed_thermal(params, TruncationConfig(dim=dim, tail_tol=DENSE_TRUNCATION))
    out = apply_loss_kraus(rho, eta)
    assert rho.live.sum() == 1 and out.live.sum() == (2 if len(rho.dims) == 1 else dim)
    ref = dense_state(params, dim)
    ref_out = dense_loss(ref, rho.dims, eta)
    psi = dense_spectrum(ref)[1][:, -1]
    assert_q_pe_f_match(rho, out, ref, ref_out, float(psi @ ref_out @ psi))
    assert abs(fidelity_fock(rho, out) - dense_fidelity(ref, ref_out)) < DENSE_TOL


@pytest.mark.bits
def test_one_sided_dead_sectors_match_dense():
    # the vacuum is live in the even sector alone, the thermal state in both
    cfg = TruncationConfig(dim=40, tail_tol=DENSE_TRUNCATION)
    vac, thermal = fock_squeezed_thermal(S1(0.0, 0.0), cfg), fock_squeezed_thermal(S1(0.0, 1.0), cfg)
    assert vac.live.sum() == 1 and thermal.live.all()
    assert_q_pe_f_match(vac, thermal, vac.mat, thermal.mat, float(thermal.diagonal[0]))


def test_one_sided_sectors_take_their_trace():
    # the squeezed vacuum is live in the even sector only, the thermal state
    # in both, so the odd sector is live in the thermal state alone: it adds
    # its block's trace
    a = dense_state(S1(0.5, 0.0), 8)
    b = np.diag(thermal_diagonal(0.2, 8))
    rho_a, rho_b = from_dense((8,), a), from_dense((8,), b)
    assert list(rho_a.live) == [True, False] and rho_b.live.all()
    assert abs(helstrom_pe_fock(rho_a, rho_b) - dense_helstrom(a, b, 1)) < 1e-14


def test_rank_floor_counts_the_sectors_dead_in_the_other_state():
    # rho_a's largest eigenvalue sits at level 1, the odd sector, where rho_b
    # is dead, so the only sector live in both, the even one, holds rho_a's
    # 5e-13: below the floor relative to rho_a's top (1e-12), above one
    # relative to its own sector's top.  Its support is level 1 alone, so
    # Tr[P_a rho_b] = 0 wins at s = 0 (and the mirror at s = 1); a
    # sector-local floor would give 0.5.
    a = np.diag([5e-13, 1.0 - 5e-13, 0.0])
    b = np.diag([0.5, 0.0, 0.5])
    rho_a, rho_b = from_dense((3,), a), from_dense((3,), b)
    assert list(rho_a.live & rho_b.live) == [False, True]  # the odd sector, size 1, comes first
    assert qcb_fock(rho_a, rho_b) == (dense_qcb(a, b), 0.0) == (0.0, 0.0)
    assert qcb_fock(rho_b, rho_a) == (dense_qcb(b, a), 1.0) == (0.0, 1.0)
    assert abs(fidelity_fock(rho_a, rho_b) - dense_fidelity(a, b)) < DENSE_TOL


def test_negative_eigenvalue_in_any_sector_raises():
    bad = from_dense((3,), np.diag([0.5, 0.5 + 1e-9, -1e-9]))
    good = from_dense((3,), np.diag([0.5, 0.3, 0.2]))
    for fn in (qcb_fock, fidelity_fock):
        with pytest.raises(ArithmeticError, match="below -1e-10"):
            fn(bad, good)


@pytest.mark.parametrize("n_t", [1e-3, 1e-6, 1e-9, 5e-10, 1e-13, 1e-30, 5.5e-55])
def test_pipeline_is_continuous_toward_pure_states(n_t):
    # qcb switches to the pure overlap only at n_t == 0: Q approaches the pure
    # value like 1 / |ln n_t|, and the old n_t <= 1e-9 switch jumped from
    # 0.9239 to the overlap 0.9115 here.  The prepared input keeps its exact
    # thermal weights, so even at n_t = 5e-10 (s* = 0.15) the oracle's Q
    # matches the Gaussian Q to roundoff (at most 2.4e-15 at dim 40).  Its
    # support is its nonzero weights: a rank floor 1e-12 below its top weight
    # made n_t <= 1e-13 pure, and Q the overlap (0.91148 at 5.5e-55, where
    # the s-curve's minimum is 0.91415 at s* = 0.039).
    pa = S1(0.5, n_t)
    q = qcb(pa, output_params_single(pa, LossChannel.from_eta(0.5))).q
    rho = fock_squeezed_thermal(pa, TruncationConfig(dim=40))
    q_fock, _ = qcb_fock(rho, apply_loss_kraus(rho, 0.5))
    assert abs(q - q_fock) < 1e-12, (q, q_fock)


def test_fidelity_is_continuous_toward_pure_states():
    # a prepared state's fidelity roots are taken on its nonzero weights, as
    # its rank is: a floor 1e-13 below its top weight dropped the thermal tail
    # of S1(0.5, n_t) from n_t < 1e-13 on, so F fell by 1.4e-7 at once to the
    # pure value.  F - F(0) goes like 0.43 sqrt(n_t), 6.8e-9 across that step.
    # The references are Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)), squared, at
    # 40 digits (mpmath) on the oracle's own float blocks and weights.
    rows = [
        (1.05e-13, 0.91148392073062704722),
        (0.95e-13, 0.91148391388331459674),
        (1e-15, 0.91148379413661247421),
        (1e-20, 0.91148378048954090259),
        (1e-30, 0.91148378044624859778),
        (0.0, 0.91148378044624816484),
    ]
    fid = []
    for n_t, ref in rows:
        rho = fock_squeezed_thermal(S1(0.5, n_t), TruncationConfig(dim=40))
        fid.append(fidelity_fock(rho, apply_loss_kraus(rho, 0.5)))
        assert abs(fid[-1] - ref) < 1e-14, (n_t, fid[-1], ref)
    assert all(x >= y for x, y in zip(fid, fid[1:])), fid


@pytest.mark.bits
def test_rebuilt_from_the_dense_view_is_the_same_state(single_st, two_mode_st):
    thermal = fock_squeezed_thermal(S1(0.0, 0.5), TruncationConfig(dim=20))
    for rho in (single_st, two_mode_st, thermal, apply_loss_kraus(two_mode_st, 0.6)):
        again = from_dense(rho.dims, rho.mat)
        assert len(again.stacks) == len(rho.stacks)
        assert all(np.array_equal(a, b) for a, b in zip(again.stacks, rho.stacks))
        # a prepared state carries its construction spectrum, so the round
        # trip is compared with the same blocks passed without one
        lossy = apply_loss_kraus(rho, 0.7)
        from_blocks = FockDensityMatrix(rho.dims, data=rho.data)
        assert qcb_fock(again, lossy) == qcb_fock(from_blocks, lossy)


def test_prepared_blocks_are_their_construction_spectrum(single_st, two_mode_st):
    thermal = fock_squeezed_thermal(S1(0.0, 0.5), TruncationConfig(dim=20))
    for rho in (single_st, two_mode_st, thermal):
        assert len(rho.spectrum) == len(rho.stacks) == len(rho.layout.classes)
        for (w, v), stack in zip(rho.spectrum, rho.stacks):
            assert w.shape == stack.shape[:2] and v.shape == stack.shape
            assert np.max(np.abs((v * w[:, None, :]) @ v.mT - stack)) < 1e-15
            assert np.max(np.abs(np.sort(w, axis=1) - np.linalg.eigvalsh(stack))) < 1e-15


def complex_squeeze_unitary(sub: np.ndarray) -> np.ndarray:
    """exp(G) for G real antisymmetric with subdiagonal `sub`, via eigh(i G)."""
    gen = np.diag(sub, -1) - np.diag(sub, 1)
    w, v = np.linalg.eigh(1j * gen)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def squeeze_chains(n: int) -> np.ndarray:
    """The links of a chain of n levels in both families (single-mode n -> n + 2, two-mode sector k = 3), and a zero one."""
    m = np.arange(n - 1.0)
    return np.array([0.5 * 0.8 * np.sqrt((2 * m + 1) * (2 * m + 2)), 0.6 * np.sqrt((m + 1) * (m + 4)), np.zeros(n - 1)])


@pytest.mark.bits
def test_real_tridiagonal_exponential_matches_the_complex_route():
    # every size up to 55, each size as one stack; a zero generator alone
    # and beside the others; a repeated row is factorised once
    for n in range(1, 56):
        subs = squeeze_chains(n)
        for stack in (subs, subs[[0, 1, 0]], subs[2:]):
            for sub, u in zip(stack, _squeeze_unitaries(stack)):
                assert np.max(np.abs(u - complex_squeeze_unitary(sub))) < 1e-15, n
                assert np.max(np.abs(u @ u.T - np.eye(n))) < 1e-13, n
    # as `fock_squeezed_thermal` stacks them: the chains of CHAIN_BUCKET sizes
    # in one stack, each padded with zero links to the longest, so that it
    # gives exp(G) + I and its top-left n x n block is exp(G)
    for low in range(1, 56, fock.CHAIN_BUCKET):
        sizes = range(low, min(low + fock.CHAIN_BUCKET, 56))
        rows = [(n, sub) for n in sizes for sub in squeeze_chains(n)]
        for (n, sub), u in zip(rows, _squeeze_unitaries(np.array([np.pad(sub, (0, sizes[-1] - n)) for n, sub in rows]))):
            assert np.max(np.abs(u[:n, :n] - complex_squeeze_unitary(sub))) < 1e-15, n
            rest = u.copy()
            rest[:n, :n] = np.eye(n)
            assert np.max(np.abs(rest - np.eye(sizes[-1]))) < 1e-15, n


@pytest.mark.bits
def test_class_stacks_are_views_with_the_same_bits_as_each_block_alone(single_st, two_mode_st):
    # every block of one size sits in one contiguous stretch of `data`, the
    # classes ascend in size, and a linalg gufunc factorises each matrix of
    # a stack alone: each member gets the bits of a call on its block alone
    thermal = fock_squeezed_thermal(S1(0.0, 0.5), TruncationConfig(dim=20))
    states = (single_st, two_mode_st, thermal, apply_loss_kraus(single_st, 0.6), apply_loss_kraus(two_mode_st, 0.6))
    svd = lambda x: np.linalg.svd(x, compute_uv=False)  # noqa: E731
    for rho in states:
        sizes = [stack.shape[1] for stack in rho.stacks]
        assert sizes == sorted(set(sizes)) == [n for n, _, _ in rho.layout.classes]
        assert sum(stack.size for stack in rho.stacks) == rho.data.size
        for stack in rho.stacks:
            assert np.shares_memory(stack, rho.data)
            for fn in (np.linalg.eigh, np.linalg.eigvalsh, svd):
                got = fn(stack)
                for k, block in enumerate(stack):
                    alone = fn(np.array(block))
                    for x, y in zip(alone if isinstance(alone, tuple) else (alone,), got if isinstance(got, tuple) else (got,)):
                        assert np.array_equal(x, y[k]), stack.shape


def test_verify_factorises_each_block_once(monkeypatch):
    # 201 LAPACK calls for the 13 cases: one stacked call per bucket of 8
    # chain lengths to build a state, one per size class per factorisation
    # of a loss output, one `eigvalsh` (trace distance) and at most one `svd`
    # (fidelity) per bucket of 8 block sizes live in both states of a pair,
    # none for a block without weight or one that no check reads, and none
    # for a covariance matrix (365 with one `eigvalsh` and one `svd` per size
    # class; 486 with one build call per size class and every live output
    # block factorised; one call per block made 2,392, one per block size
    # with the empty ones 679; the fidelity's rectangular supports, one svd
    # per shape, and the 26 validated CMs of the moment check made 525)
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    results = verification.run_all()
    assert all(r.passed for r in results)
    assert len(calls) <= 231, len(calls)


def pure_input_pair(name: str):
    """The prepared input of a `verify` case and its loss output."""
    case = next(c for c in verification.standard_cases() if c.name == name)
    rho = fock_squeezed_thermal(case.params_a, TruncationConfig(dim=case.dim))
    return rho, apply_loss_kraus(rho, case.eta), case.eta


@pytest.mark.bits
@pytest.mark.parametrize("name,live", [("tmsv-mid", 40), ("squeezed-vac-mid", 2)])
def test_loss_output_is_factorised_where_the_input_has_weight(monkeypatch, name, live):
    # a pure input has weight in one sector, its loss output in `live`;
    # Q and the fidelity read only the sectors where both have weight, and
    # another output block is factorised only when its trace reaches the
    # largest eigenvalue found there (its own largest eigenvalue is at most
    # its trace), so the rank and fidelity floors stay exact
    rho, out, _ = pure_input_pair(name)
    shared = rho.live & out.live
    assert rho.live.sum() == shared.sum() == 1 and out.live.sum() == live
    top = max(np.linalg.eigvalsh(stack[shared[a:b]]).max() for (_, a, b), stack in zip(out.layout.classes, out.stacks) if shared[a:b].any())
    by_trace = out.live & ~shared & (out.traces >= top * (1.0 - 1e-12))
    blocks, eigh = [], np.linalg.eigh

    def counted(x, *args, **kwargs):
        blocks.append(len(x) if x.ndim == 3 else 1)
        return eigh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    pair_checks(rho, out)
    assert sum(blocks) == shared.sum() + by_trace.sum(), (blocks, by_trace.sum())


def test_two_mode_oracle_memory_at_dim_80():
    # One dense 6400 x 6400 matrix is 328 MB; the blocks of a two-mode state
    # at dim 80 take 2.7 MB.
    params = T2(0.5, 0.2, 0.1)
    tracemalloc.start()
    try:
        rho = fock_squeezed_thermal(params, TruncationConfig(dim=80))
        out = apply_loss_kraus(rho, 0.6)
        moments_from_fock(rho), moments_from_fock(out)
        q = pair_checks(rho, out).q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"
    report = qcb(params, output_params_two(params, LossChannel.from_eta(0.6)))
    assert abs(q - report.q) < 1e-6


def _index_bytes(x) -> int:
    if isinstance(x, np.ndarray):
        return x.nbytes
    return sum(map(_index_bytes, x)) if isinstance(x, (list, tuple)) else 0


def test_cached_index_takes_at_most_9_bytes_per_block_entry():
    # int32 maps, and no row and column arrays: where an entry's mirror sits
    # and where the loss gathers it, plus the per-basis and per-sector arrays
    dims = (80, 80)
    lay = fock._sector_layout(dims)
    cached = _index_bytes(list(lay)) + _index_bytes(list(fock._diagonal_map(dims)))
    assert cached <= 9 * lay.start[-1], cached / lay.start[-1]
    assert lay.transpose.dtype == lay.diag.dtype == fock._diagonal_map(dims)[0].dtype == np.int32
    # the rows and columns derived from the sectors are where the entries sit
    rows, cols = fock._rows_cols(lay)
    assert np.array_equal(lay.row_at[rows] + lay.position[cols], np.arange(lay.start[-1]))
    assert np.array_equal(lay.transpose, lay.row_at[cols] + lay.position[rows])


@pytest.mark.parametrize(
    "build,dims",
    [(fock._diagonal_map, (1300, 1300)), (fock._sector_layout, (1500, 1500)), (fock._sector_layout, (65537,))],
    ids=["loss-grid", "two-mode-layout", "one-mode-layout"],
)
def test_index_past_int32_raises_before_any_per_entry_array(build, dims):
    # 1300^3 and about 2 * 1500^3 / 3 and 32769^2 + 32768^2 (the parity
    # blocks) entries pass 2^31: the arrays would take gigabytes, the checks
    # read the dims and the sector sizes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="past the 2\\^31"):
            build(dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6, f"peak {peak / 1e6:.1f} MB"


def test_run_case_refuses_a_loss_grid_past_int32_before_building_the_state():
    # at a two-mode cutoff of 1300 the blocks (about 1.46e9 entries) still fit
    # an int32 index, so the input state would be built, about 12 GB, before
    # the loss raised; the loss grid's bound is checked from the dims first
    case = next(c for c in verification.standard_cases() if c.eta is not None and isinstance(c.params_a, T2))
    q = verification._gaussian_q([case])[0]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="the loss grid of dims \\(1300, 1300\\)"):
            verification.run_case(case, dim=1300, q=q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"

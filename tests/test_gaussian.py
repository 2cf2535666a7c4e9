"""Covariance-matrix construction, symplectic spectra, overlaps.

The two-mode symplectic spectrum has one route in the package
(symplectic_eigenvalues); the invariant closed form and the moduli of
eig(i Omega sigma) live here as independent reference routes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossprobe.channel import LossChannel, output_params_single, output_params_two
from lossprobe.gaussian import (
    CovarianceMatrix,
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    UnphysicalStateError,
    elementwise,
    make_single_mode_st,
    make_two_mode_st,
    overlap,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_invariants,
)
from lossprobe.probes import ProbeSpec, params_from_spec, random_probes


def mean_photons(cm: CovarianceMatrix):
    """Total mean photon number (Tr sigma - n) / 2 of a zero-mean state, per matrix."""
    return (np.trace(cm.mat, axis1=-2, axis2=-1) - cm.n) / 2.0


single_params = st.builds(
    SqueezedThermalParamsSingle,
    r=st.floats(0.0, 3.0),
    n_t=st.floats(0.0, 10.0),
)
two_params = st.builds(
    SqueezedThermalParamsTwo,
    r=st.floats(0.0, 2.0),
    n_t1=st.floats(0.0, 5.0),
    n_t2=st.floats(0.0, 5.0),
)


PURITY_TOL = 1e-9


def purity(cm: CovarianceMatrix) -> float:
    """Tr rho^2 = prod_k 1 / (2 d_k)."""
    out = 1.0
    for d in symplectic_eigenvalues(cm):
        out /= 2.0 * d
    return out


def is_pure(cm: CovarianceMatrix, tol: float = PURITY_TOL) -> bool:
    """True when every symplectic eigenvalue sits at the vacuum floor."""
    return max(symplectic_eigenvalues(cm)) <= 0.5 + tol


def symplectic_eigenvalues_from_invariants(cm: CovarianceMatrix) -> tuple[float, float]:
    """Two-mode (d+, d-) from the closed form on the symplectic invariants.

    d_pm = sqrt((Delta pm sqrt(Delta^2 - 4 I4)) / 2), with d- recovered as
    sqrt(I4)/d+ to dodge the cancellation in Delta - sqrt(...).  Accurate to
    ~1e-10 away from the pure-state corner, where the discriminant itself
    cancels.
    """
    i4, delta = symplectic_invariants(cm)[3:5]
    disc = delta * delta - 4.0 * i4
    assert disc >= -1e-10, disc
    d_plus = math.sqrt((delta + math.sqrt(max(disc, 0.0))) / 2.0)
    d_minus = math.sqrt(max(i4, 0.0)) / d_plus
    return (d_plus, d_minus)


def symplectic_spectrum_numeric(cm: CovarianceMatrix) -> tuple[float, ...]:
    """Symplectic eigenvalues from eig(i Omega sigma), any mode count."""
    w = np.linalg.eigvals(1j * symplectic_form(cm.n) @ cm.mat)
    mods = np.sort(np.abs(w))[::-1]
    # eigenvalues come in +/- pairs; keep one representative per pair
    return tuple(float(x) for x in mods[::2])


def test_vacuum_cm():
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=0.0))
    np.testing.assert_allclose(cm.mat, np.eye(2) / 2.0, atol=1e-15)


def test_thermal_cm():
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=1.0))
    np.testing.assert_allclose(cm.mat, 1.5 * np.eye(2), atol=1e-15)


def test_squeezed_vacuum_cm():
    # q gets the antisqueezed quadrature: diag(e^2/2, e^-2/2)
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=1.0, n_t=0.0))
    expect = np.diag([math.exp(2.0) / 2.0, math.exp(-2.0) / 2.0])
    np.testing.assert_allclose(cm.mat, expect, rtol=1e-14)


def test_two_mode_vacuum_cm():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.0, n_t1=0.0, n_t2=0.0))
    np.testing.assert_allclose(cm.mat, np.eye(4) / 2.0, atol=1e-15)


def test_thermal_times_vacuum_cm():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.0, n_t1=2.0, n_t2=0.0))
    np.testing.assert_allclose(cm.mat, np.diag([2.5, 2.5, 0.5, 0.5]), atol=1e-15)


def test_tmsv_cm_entries():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.5, n_t1=0.0, n_t2=0.0))
    a = math.cosh(1.0) / 2.0
    c = math.sinh(1.0) / 2.0
    expect = np.array(
        [
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, -c],
            [c, 0.0, a, 0.0],
            [0.0, -c, 0.0, a],
        ]
    )
    np.testing.assert_allclose(cm.mat, expect, rtol=1e-14)


def test_invariants_two_mode_vacuum():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.0, n_t1=0.0, n_t2=0.0))
    i1, i2, i3, i4, delta, delta_t = symplectic_invariants(cm)
    assert (i1, i2, i3) == (0.25, 0.25, 0.0)
    assert math.isclose(i4, 1.0 / 16.0, rel_tol=1e-14)
    assert math.isclose(delta, 0.5, rel_tol=1e-14)
    assert math.isclose(delta_t, 0.5, rel_tol=1e-14)


def test_invariants_thermal_product():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.0, n_t1=2.0, n_t2=0.0))
    i1, i2, i3, i4, _, _ = symplectic_invariants(cm)
    assert math.isclose(i1, 25.0 / 4.0, rel_tol=1e-14)
    assert math.isclose(i2, 0.25, rel_tol=1e-14)
    assert i3 == 0.0
    assert math.isclose(i4, 25.0 / 16.0, rel_tol=1e-14)


def test_invariants_tmsv_correlation_block():
    # the correlation block has negative determinant: I3 = -(sinh(1)/2)^2
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.5, n_t1=0.0, n_t2=0.0))
    i3 = symplectic_invariants(cm)[2]
    assert math.isclose(i3, -((math.sinh(1.0) / 2.0) ** 2), rel_tol=1e-13)


@given(r=st.floats(0.0, 2.0))
def test_tmsv_is_pure(r):
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=r, n_t1=0.0, n_t2=0.0))
    d = symplectic_eigenvalues(cm)
    assert abs(d[0] - 0.5) < 1e-10 and abs(d[1] - 0.5) < 1e-10
    assert is_pure(cm)
    assert math.isclose(purity(cm), 1.0, abs_tol=1e-9)


def test_thermal_product_eigenvalues_sorted():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.0, n_t1=0.7, n_t2=2.3))
    d = symplectic_eigenvalues(cm)
    np.testing.assert_allclose(d, (2.8, 1.2), rtol=1e-14)


def test_eigenvalues_closed_form_vs_numeric():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.5, n_t1=1.0, n_t2=0.0))
    closed = symplectic_eigenvalues_from_invariants(cm)
    numeric = symplectic_spectrum_numeric(cm)
    np.testing.assert_allclose(sorted(closed), sorted(numeric), atol=1e-10)
    # the two-mode squeezed thermal spectrum is exactly the thermal occupations
    np.testing.assert_allclose(sorted(closed), (0.5, 1.5), atol=1e-10)


def test_eigenvalue_routes_agree_on_random_states():
    # invariant closed form, plain eig moduli, and the stable eigh route
    rng = np.random.Generator(np.random.Philox(key=20240517))
    for _ in range(1000):
        r, n1, n2 = rng.uniform(0.0, 1.5), rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        cm = make_two_mode_st(SqueezedThermalParamsTwo(r=r, n_t1=n1, n_t2=n2))
        closed = sorted(symplectic_eigenvalues_from_invariants(cm))
        numeric = sorted(symplectic_spectrum_numeric(cm))
        stable = sorted(symplectic_eigenvalues(cm))
        assert max(abs(c - n) for c, n in zip(closed, numeric)) < 1e-10
        assert max(abs(c - s) for c, s in zip(closed, stable)) < 1e-10


@given(p=single_params)
@settings(max_examples=200)
def test_single_mode_physicality(p):
    cm = make_single_mode_st(p)  # constructor validates sigma + (i/2) Omega >= 0
    assert min(symplectic_eigenvalues(cm)) >= 0.5 - 1e-10


@given(p=two_params)
@settings(max_examples=200)
def test_two_mode_physicality(p):
    cm = make_two_mode_st(p)
    assert min(symplectic_eigenvalues(cm)) >= 0.5 - 1e-10


def test_unphysical_matrix_rejected():
    with pytest.raises(UnphysicalStateError):
        CovarianceMatrix(np.diag([0.3, 0.3]))


def test_uncertainty_floor_scales_with_the_entries():
    # the pure probe at N = 562341.33 misses the uncertainty relation by
    # -1.67e-10, roundoff of entries near 2.8e5 (5.9e-16 of them), which the
    # absolute floor of 1e-10 rejected; a small violation still raises
    make_two_mode_st(params_from_spec(ProbeSpec(modes=2, n=562341.3251903491, beta=1.0)))
    with pytest.raises(UnphysicalStateError, match=r"= -1\.000e-01$"):
        CovarianceMatrix(np.diag([0.4, 0.4]))


def test_asymmetric_matrix_rejected():
    m = np.array([[1.0, 0.1], [0.2, 1.0]])
    with pytest.raises(ValueError):
        CovarianceMatrix(m)


def test_overlap_vacuum_pair():
    vac = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=0.0))
    assert math.isclose(overlap(vac, vac), 1.0, rel_tol=1e-14)


def test_overlap_vacuum_thermal():
    vac = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=0.0))
    th = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=1.0))
    assert math.isclose(overlap(vac, th), 0.5, rel_tol=1e-14)


@given(r=st.floats(0.0, 2.0))
def test_overlap_tmsv_self(r):
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=r, n_t1=0.0, n_t2=0.0))
    assert math.isclose(overlap(cm, cm), 1.0, abs_tol=1e-9)


@given(pa=single_params, pb=single_params)
@settings(max_examples=200)
def test_overlap_symmetric_and_bounded(pa, pb):
    cm_a, cm_b = make_single_mode_st(pa), make_single_mode_st(pb)
    ab = overlap(cm_a, cm_b)
    assert math.isclose(ab, overlap(cm_b, cm_a), rel_tol=1e-12)
    assert ab <= 1.0 + 1e-12


def test_mean_photons_vacuum():
    vac = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=0.0))
    assert abs(mean_photons(vac)) < 1e-15


@given(p=single_params)
@settings(max_examples=200)
def test_mean_photons_single_identity(p):
    # N = n_T + n_S + 2 n_S n_T with n_S = sinh^2 r
    n_s = math.sinh(p.r) ** 2
    expect = p.n_t + n_s + 2.0 * n_s * p.n_t
    got = mean_photons(make_single_mode_st(p))
    assert abs(got - expect) < 1e-10 * max(1.0, expect)


@given(p=two_params)
@settings(max_examples=200)
def test_mean_photons_two_mode_identity(p):
    # N = 2 n_S + (n_T1 + n_T2)(1 + 2 n_S) with n_S = sinh^2 r per mode
    n_s = math.sinh(p.r) ** 2
    expect = 2.0 * n_s + (p.n_t1 + p.n_t2) * (1.0 + 2.0 * n_s)
    got = mean_photons(make_two_mode_st(p))
    assert abs(got - expect) < 1e-10 * max(1.0, expect)


def test_param_validation():
    with pytest.raises(ValueError):
        SqueezedThermalParamsSingle(r=0.0, n_t=-0.1)
    with pytest.raises(ValueError):
        SqueezedThermalParamsTwo(r=0.1, n_t1=-1.0, n_t2=0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_occupations_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        SqueezedThermalParamsSingle(r=0.5, n_t=bad)
    with pytest.raises(ValueError, match="finite"):
        SqueezedThermalParamsTwo(r=0.5, n_t1=bad, n_t2=0.0)
    with pytest.raises(ValueError, match="finite"):
        SqueezedThermalParamsTwo(r=0.5, n_t1=0.0, n_t2=bad)


def test_cm_is_read_only():
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=0.0))
    with pytest.raises(ValueError):
        cm.mat[0, 0] = 2.0


# ---------------------------------------------------------------------------
# stacks: one state gets the same bits alone as inside a stack
# ---------------------------------------------------------------------------


def probe_stacks(modes: int):
    """(inputs, lossy outputs) of 1,000 random_probes draws, each a stack of 1,000."""
    n, beta, gamma_ch = random_probes(1000, seed=20261018)
    p = params_from_spec(ProbeSpec(modes=modes, n=n, beta=beta, gamma=0.999 if modes == 2 else None))
    recover = output_params_two if modes == 2 else output_params_single
    return p, recover(p, LossChannel.from_gamma(gamma_ch))


@pytest.mark.bits
@pytest.mark.parametrize("modes", [1, 2])
def test_spectra_and_overlap_are_the_same_bits_on_a_stack(modes):
    make = make_two_mode_st if modes == 2 else make_single_mode_st
    p_in, p_out = probe_stacks(modes)
    cm_in, cm_out = make(p_in), make(p_out)
    assert cm_in.mat.shape == (1000, 2 * modes, 2 * modes)
    spectra = [symplectic_eigenvalues(cm) for cm in (cm_in, cm_out)]
    invariants = [symplectic_invariants(cm) for cm in (cm_in, cm_out)] if modes == 2 else []
    overlaps = overlap(cm_in, cm_out)
    for k in range(1000):
        rows = make(p_in.row(k)), make(p_out.row(k))
        for row, stack in zip(rows, (cm_in, cm_out)):
            assert np.array_equal(row.mat, stack.mat[k])
        for row, stacked in zip(rows, spectra):
            assert symplectic_eigenvalues(row) == tuple(d[k] for d in stacked), k
        for row, stacked in zip(rows, invariants):
            assert symplectic_invariants(row) == tuple(i[k] for i in stacked), k
        assert overlap(*rows) == overlaps[k], k


def test_stack_validation_names_the_worst_matrix():
    stack = np.broadcast_to(0.5 * np.eye(2), (5, 2, 2)).copy()
    stack[3] = np.diag([0.3, 0.3])
    stack[1] = np.diag([0.45, 0.5])
    with pytest.raises(UnphysicalStateError, match=r"= -2\.000e-01 \(matrix 3 of the stack\)"):
        CovarianceMatrix(stack)
    stack[3, 0, 1] = 0.2
    with pytest.raises(ValueError, match=r"not symmetric \(matrix 3 of the stack\)"):
        CovarianceMatrix(stack)
    with pytest.raises(UnphysicalStateError, match=r"= -2\.000e-01$"):
        CovarianceMatrix(np.diag([0.3, 0.3]))


_GRID = np.concatenate([np.linspace(-3.0, 3.0, 2001), [0.0, -0.0, 1e-300, 5e-324, 30.0, -700.0, 700.0]])
_DOMAINS = [
    pytest.param(np.exp, _GRID, (), id="exp"),
    pytest.param(np.log, np.concatenate([np.geomspace(5e-324, 1e300, 1001), np.linspace(0.5, 50.0, 1001)]), (),
                 id="log"),
    pytest.param(np.cosh, _GRID, (), id="cosh"),
    pytest.param(np.sinh, _GRID, (), id="sinh"),
    pytest.param(np.arcsinh, np.concatenate([_GRID, np.sqrt(np.geomspace(1e-12, 1e300, 501))]), (), id="arcsinh"),
    pytest.param(np.power, np.linspace(0.0, 1.0, 2001), (7,), id="power-7"),
    pytest.param(np.power, np.geomspace(1e-30, 1.0, 2001), (3.5,), id="power-3.5"),
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("f, xs, args", _DOMAINS)
def test_elementwise_gives_the_same_bits_alone_and_in_any_stack(f, xs, args):
    # a float, a 1-element array, a contiguous stack and a strided column
    stack = elementwise(f, xs, *args)
    alone = [elementwise(f, x, *args) for x in xs.tolist()]
    assert all(type(v) is float for v in alone)
    one = [elementwise(f, np.array([x]), *args)[0] for x in xs.tolist()]
    column = elementwise(f, np.stack([xs[::-1], xs], axis=1)[:, 1], *args)
    assert _bits(stack) == _bits(alone) == _bits(one) == _bits(column)
    assert _bits(elementwise(f, xs.reshape(1, -1, 1), *args).ravel()) == _bits(stack)


@pytest.mark.bits
def test_squares_are_the_same_bits_alone_and_in_any_stack():
    xs = elementwise(np.cosh, np.linspace(0.0, 3.0, 20001))
    column = np.stack([xs[::-1], xs], axis=1)[:, 1]
    one = [(np.array([x]) * np.array([x]))[0] for x in xs.tolist()]
    assert _bits(xs * xs) == _bits([x * x for x in xs.tolist()]) == _bits(one) == _bits(column * column)


@pytest.mark.parametrize("f, x", [(np.exp, 710.0), (np.log, 0.0), (np.log, -1.0), (np.cosh, 711.0),
                                  (np.sinh, -711.0), (np.power, 1e300)])
def test_elementwise_raises_where_the_ufunc_would_give_inf_or_nan(f, x):
    args = (2,) if f is np.power else ()
    for value in (x, np.array([1.0, x])):
        with pytest.raises(FloatingPointError):
            elementwise(f, value, *args)

"""Loss-channel action on covariance matrices and parameter recovery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossprobe import channel
from lossprobe.channel import (
    LossChannel,
    ParameterRecoveryError,
    evolve,
    evolved_blocks,
    output_params_single,
    output_params_two,
)
from lossprobe.gaussian import (
    CovarianceMatrix,
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    det2,
    make_single_mode_st,
    make_two_mode_st,
    symplectic_eigenvalues,
)

import reference

single_params = st.builds(
    SqueezedThermalParamsSingle,
    r=st.floats(0.0, 2.0),
    n_t=st.floats(0.0, 5.0),
)
two_params = st.builds(
    SqueezedThermalParamsTwo,
    r=st.floats(0.0, 1.5),
    n_t1=st.floats(0.0, 3.0),
    n_t2=st.floats(0.0, 3.0),
)
gammas = st.floats(0.01, 3.0)


def test_channel_consistency():
    ch = LossChannel.from_gamma(0.5)
    assert math.isclose(ch.eta, math.exp(-0.5), rel_tol=1e-15)
    ch = LossChannel.from_eta(0.25)
    assert math.isclose(ch.gamma, math.log(4.0), rel_tol=1e-15)


def test_channel_validation():
    with pytest.raises(ValueError):
        LossChannel.from_gamma(-0.1)
    with pytest.raises(ValueError):
        LossChannel.from_eta(0.0)
    with pytest.raises(ValueError):
        LossChannel.from_eta(1.1)
    with pytest.raises(ValueError):
        LossChannel(gamma=1.0, eta=0.9)  # inconsistent pair


@pytest.mark.bits
def test_channel_stacks_are_their_scalar_channels_bit_for_bit():
    from lossprobe.probes import random_probes

    damping = np.concatenate([random_probes(200, seed=7)[2], [0.0, 1e-300, 700.0]])
    etas = np.concatenate([np.exp(-damping[:200]), [1.0, 0.5, 1e-300]])
    # the other field of each scalar channel has the bits of numpy's exp or log
    for build, values, derived in ((LossChannel.from_gamma, damping, lambda ch, v: ch.eta == np.exp(-v)),
                                   (LossChannel.from_eta, etas, lambda ch, v: ch.gamma == -np.log(v) + 0.0)):
        stack = build(values)
        assert stack.shape == values.shape and stack.gamma.dtype == stack.eta.dtype == float
        for k, v in enumerate(values.tolist()):
            one = build(v)
            assert type(one.gamma) is type(one.eta) is float and derived(one, v), v
            assert (one.gamma, one.eta) == (stack.gamma[k], stack.eta[k]), (build.__name__, v)
            assert math.copysign(1.0, one.gamma) == math.copysign(1.0, stack.gamma[k])
            assert repr(stack.row(k)) == repr(one), (build.__name__, v)
    assert LossChannel.from_gamma(damping.reshape(7, -1)).shape == (7, 29)
    with pytest.raises(ValueError):
        stack.eta[0] = 0.5  # read-only, as the state stacks


@pytest.mark.parametrize(
    "build, values, message",
    [
        (LossChannel.from_eta, [0.5, 0.0], r"transmissivity must be in \(0, 1\], got 0\.0$"),
        (LossChannel.from_eta, [0.5, 1.0, 1.5], r"transmissivity must be in \(0, 1\], got 1\.5$"),
        (LossChannel.from_eta, [math.nan, 0.5], r"transmissivity must be in \(0, 1\], got nan$"),
        (LossChannel.from_gamma, [0.1, -0.25], r"damping must be a finite float >= 0, got -0\.25$"),
        (LossChannel.from_gamma, [0.1, math.inf], r"damping must be a finite float >= 0, got inf$"),
        (LossChannel.from_gamma, [0.1, 800.0], r"transmissivity must be in \(0, 1\], got 0\.0$"),
    ],
)
def test_channel_stack_names_the_invalid_element(build, values, message):
    with pytest.raises(ValueError, match=message):
        build(np.array(values))


def test_inconsistent_pair_in_a_stack_is_named():
    with pytest.raises(ValueError, match=r"inconsistent pair: eta=0\.9 but exp\(-gamma\)=0\.36787944117144233$"):
        LossChannel(gamma=np.array([0.0, 1.0]), eta=np.array([1.0, 0.9]))


def test_identity_channel():
    ch = LossChannel.from_eta(1.0)
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=0.7, n_t=0.4))
    np.testing.assert_allclose(evolve(cm, ch).mat, cm.mat, rtol=1e-15)


def test_strong_damping_reaches_vacuum():
    ch = LossChannel.from_gamma(200.0)
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=2.0, n_t=5.0))
    np.testing.assert_allclose(evolve(cm, ch).mat, np.eye(2) / 2.0, atol=1e-12)


def test_vacuum_is_fixed_point():
    vac = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=0.0))
    for g in (0.1, 1.0, 5.0):
        out = evolve(vac, LossChannel.from_gamma(g))
        np.testing.assert_allclose(out.mat, vac.mat, atol=1e-15)


def test_tmsv_strong_damping_limit():
    # the lossy mode decays to vacuum, the idle mode keeps its local thermal CM
    r = 0.8
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=r, n_t1=0.0, n_t2=0.0))
    out = evolve(cm, LossChannel.from_gamma(200.0))
    expect = np.diag([0.5, 0.5, math.cosh(2 * r) / 2.0, math.cosh(2 * r) / 2.0])
    np.testing.assert_allclose(out.mat, expect, atol=1e-12)


def test_product_state_stays_product():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.0, n_t1=1.0, n_t2=0.5))
    out = evolve(cm, LossChannel.from_eta(0.4))
    assert np.max(np.abs(out.mat[:2, 2:])) == 0.0


@given(p=single_params, g1=gammas, g2=gammas)
@settings(max_examples=150)
def test_semigroup_single(p, g1, g2):
    cm = make_single_mode_st(p)
    step = evolve(evolve(cm, LossChannel.from_gamma(g1)), LossChannel.from_gamma(g2))
    joint = evolve(cm, LossChannel.from_gamma(g1 + g2))
    assert np.max(np.abs(step.mat - joint.mat)) < 1e-12 * max(1.0, np.max(np.abs(cm.mat)))


@given(p=two_params, g1=gammas, g2=gammas)
@settings(max_examples=150)
def test_semigroup_two(p, g1, g2):
    cm = make_two_mode_st(p)
    step = evolve(evolve(cm, LossChannel.from_gamma(g1)), LossChannel.from_gamma(g2))
    joint = evolve(cm, LossChannel.from_gamma(g1 + g2))
    assert np.max(np.abs(step.mat - joint.mat)) < 1e-12 * max(1.0, np.max(np.abs(cm.mat)))


@given(p=two_params, g=gammas)
@settings(max_examples=150)
def test_output_physical(p, g):
    out = evolve(make_two_mode_st(p), LossChannel.from_gamma(g))
    assert min(symplectic_eigenvalues(out)) >= 0.5 - 1e-10


@given(r=st.floats(0.0, 2.0), g=gammas)
@settings(max_examples=150)
def test_pure_probes_lose_purity(r, g):
    # det sigma is minimal (1/4 per mode) exactly for pure states, so loss can
    # only raise it for them.  Mixed inputs can gain purity instead: the
    # channel drags everything toward the pure vacuum.
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=r, n_t=0.0))
    out = evolve(cm, LossChannel.from_gamma(g))
    assert det2(out.mat) >= det2(cm.mat) - 1e-12


def test_thermal_input_gains_purity():
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=0.0, n_t=1.0))
    out = evolve(cm, LossChannel.from_gamma(1.0))
    assert det2(out.mat) < det2(cm.mat)


def test_single_output_stays_diagonal():
    cm = make_single_mode_st(SqueezedThermalParamsSingle(r=1.2, n_t=0.3))
    out = evolve(cm, LossChannel.from_eta(0.6))
    assert abs(out.mat[0, 1]) == 0.0


def test_two_mode_output_keeps_block_form():
    cm = make_two_mode_st(SqueezedThermalParamsTwo(r=0.9, n_t1=0.4, n_t2=0.2))
    m = evolve(cm, LossChannel.from_eta(0.3)).mat
    assert abs(m[0, 0] - m[1, 1]) < 1e-12
    assert abs(m[2, 2] - m[3, 3]) < 1e-12
    assert abs(m[0, 2] + m[1, 3]) < 1e-12
    assert abs(m[0, 1]) + abs(m[2, 3]) + abs(m[0, 3]) + abs(m[1, 2]) < 1e-12


def test_output_params_single_worked_example():
    # r=1, thermal-free input through eta=1/2: the quadrature ratio stays e^2,
    # so the output squeezing is exactly 1/2
    p = SqueezedThermalParamsSingle(r=1.0, n_t=0.0)
    out = output_params_single(p, LossChannel.from_eta(0.5))
    a = (math.exp(2.0) + 1.0) / 4.0
    b = (math.exp(-2.0) + 1.0) / 4.0
    assert math.isclose(out.r, 0.5, rel_tol=1e-12)
    assert math.isclose(out.n_t, math.sqrt(a * b) - 0.5, rel_tol=1e-12)
    assert math.isclose(out.n_t, 0.2715403174, abs_tol=1e-9)


def test_output_params_single_vacuum():
    p = SqueezedThermalParamsSingle(r=0.0, n_t=0.0)
    out = output_params_single(p, LossChannel.from_gamma(0.7))
    assert out.r == 0.0 and abs(out.n_t) < 1e-15


@given(n1=st.floats(0.0, 3.0), n2=st.floats(0.0, 3.0), g=gammas)
@settings(max_examples=150)
def test_output_params_thermal_product(n1, n2, g):
    # no squeezing: the lossy mode's occupation scales by eta, the idle one keeps its
    p = SqueezedThermalParamsTwo(r=0.0, n_t1=n1, n_t2=n2)
    ch = LossChannel.from_gamma(g)
    out = output_params_two(p, ch)
    assert abs(out.r) < 1e-12
    assert abs(out.n_t1 - ch.eta * n1) < 1e-10 * max(1.0, n1)
    assert abs(out.n_t2 - n2) < 1e-10 * max(1.0, n2)


@given(p=two_params, g=gammas)
@settings(max_examples=300)
def test_evolved_blocks_equal_evolve_two_exactly(p, g):
    # output_params_two reads the evolved state from these entries instead of
    # building and evolving a CM; the two routes must agree to the last bit
    ch = LossChannel.from_gamma(g)
    a, b, c = evolved_blocks(p, ch)
    block_form = 0.5 * np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
    assert np.array_equal(evolve(make_two_mode_st(p), ch).mat, block_form)


@pytest.mark.bits
def test_evolve_on_stacks_is_the_same_bits_as_row_by_row():
    # a (3, 2) stack of matrices against a (2,) channel stack, under each name
    # the tracer wraps: evolve_single damped every matrix with the wrong eta
    # (the channels ran along the matrix columns), and evolve_two raised
    # TypeError from math.sqrt
    rng = np.random.default_rng(30)
    r, n1, n2 = rng.uniform(0.0, 1.5, (3, 3, 2))
    chs = LossChannel.from_gamma(rng.uniform(0.01, 3.0, 2))
    stacks = make_single_mode_st(SqueezedThermalParamsSingle(r, n1)), make_two_mode_st(SqueezedThermalParamsTwo(r, n1, n2))
    for name in ("evolve", "evolve_single", "evolve_two"):
        for cms in stacks:
            out = getattr(channel, name)(cms, chs).mat
            assert out.shape == cms.mat.shape
            for i, j in np.ndindex(3, 2):
                row = evolve(CovarianceMatrix(cms.mat[i, j]), chs.row(j)).mat
                assert np.array_equal(out[i, j], row) and np.array_equal(np.signbit(out[i, j]), np.signbit(row)), name


def test_output_params_two_round_trip_example():
    p = SqueezedThermalParamsTwo(r=0.8, n_t1=0.3, n_t2=0.1)
    ch = LossChannel.from_eta(0.6)
    out = output_params_two(p, ch)
    rebuilt = make_two_mode_st(out).mat
    evolved = evolve(make_two_mode_st(p), ch).mat
    assert np.max(np.abs(rebuilt - evolved)) < 1e-9


@given(p=two_params, g=gammas)
@settings(max_examples=150)
def test_output_params_two_round_trip(p, g):
    ch = LossChannel.from_gamma(g)
    out = output_params_two(p, ch)
    rebuilt = make_two_mode_st(out).mat
    evolved = evolve(make_two_mode_st(p), ch).mat
    assert np.max(np.abs(rebuilt - evolved)) < 1e-9 * max(1.0, np.max(np.abs(evolved)))


@pytest.mark.parametrize("n", [0.1, 1.0, 10.0, 100.0, 1000.0])
def test_two_mode_recovery_on_the_probe_grid(n):
    # (A' + B')^2 / 4 - C'^2 cancels for strongly squeezed probes; the
    # difference form failed 2 of these 105 points at N = 100 and 14 at 1e3
    from lossprobe.probes import ProbeSpec, params_from_spec

    grid = itertools.product((0.0, 0.1, 0.5, 0.999, 1.0), (0.0, 0.5, 1.0), (1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0))
    for beta, gamma, eta in grid:
        p = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=gamma))
        out = output_params_two(p, LossChannel.from_eta(eta))
        r_ref, n1_ref, n2_ref = reference.recovery_two(p, eta)
        assert abs(out.r - r_ref) <= 1e-14 * r_ref, (beta, gamma, eta)
        assert abs(out.n_t1 - n1_ref) <= 1e-15 * (1.0 + n), (beta, gamma, eta)
        assert abs(out.n_t2 - n2_ref) <= 1e-15 * (1.0 + n), (beta, gamma, eta)


def _probe_batch(count: int):
    """Stacked (N, beta) and the channel stack of random_probes draws."""
    from lossprobe.probes import random_probes

    n, beta, gamma_ch = random_probes(count, seed=20261019)
    return n, beta, LossChannel.from_gamma(gamma_ch)


@pytest.mark.bits
def test_recovery_on_a_stack_is_the_same_bits_as_row_by_row():
    from lossprobe.probes import ProbeSpec, params_from_spec

    n, beta, chs = _probe_batch(1000)
    for modes, recover in ((1, output_params_single), (2, output_params_two)):
        p = params_from_spec(ProbeSpec(modes=modes, n=n, beta=beta, gamma=0.999 if modes == 2 else None))
        out = recover(p, chs)
        for k in range(1000):
            assert recover(p.row(k), chs.row(k)) == out.row(k), (modes, k)


@pytest.mark.parametrize(
    "n, beta, gamma, eta, error",
    [
        # round-trip residual 1.364e-09: the smaller occupation of a
        # strongly squeezed probe is a difference of numbers of size N
        (3e4, 0.5, 1.0, 1.0, ParameterRecoveryError),
        # n1 = -1.819e-12, below the -1e-12 clamp
        (1e5, 1.0, 1.0, 0.5, ArithmeticError),
        # round-trip residual 7.451e-09 at block entries of size N
        (1e8, 0.1, 0.0, 0.1, ParameterRecoveryError),
    ],
)
def test_failing_row_inside_a_batch_is_named(n, beta, gamma, eta, error):
    from lossprobe.probes import ProbeSpec, params_from_spec

    bad = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=gamma))
    with pytest.raises(error) as alone:
        output_params_two(bad, LossChannel.from_eta(eta))
    ns, betas, chs = _probe_batch(1000)
    gammas = np.ones(1000)
    k = 637
    ns[k], betas[k], gammas[k] = n, beta, gamma
    damping, etas = np.array(chs.gamma), np.array(chs.eta)
    damping[k], etas[k] = LossChannel.from_eta(eta).fields()
    chs = LossChannel(gamma=damping, eta=etas)
    with pytest.raises(error) as batch:
        output_params_two(params_from_spec(ProbeSpec(modes=2, n=ns, beta=betas, gamma=gammas)), chs)
    assert type(batch.value) is type(alone.value)
    if error is ParameterRecoveryError:
        assert str(alone.value).endswith(f" for {bad} through {chs.row(k)}")
        assert str(batch.value) == f"{alone.value} (row {k})"
    else:
        assert str(batch.value) == f"{alone.value} for {bad} through {chs.row(k)} (row {k})"


def test_failing_row_against_a_broadcast_channel_stack_names_its_channel():
    # a (3, 4) probe stack against a (4,) channel stack: row 6 is probe row 1
    # through channel 2, and only that pair fails its round trip
    from lossprobe.probes import ProbeSpec, params_from_spec

    ns = np.array([[1.0] * 4, [2.0, 2.0, 3e4, 2.0], [3.0] * 4])
    betas = np.array([0.5, 0.5, 0.5, 0.5])
    chs = LossChannel.from_eta(np.array([0.3, 0.6, 1.0, 0.9]))
    p = params_from_spec(ProbeSpec(modes=2, n=ns, beta=betas, gamma=1.0))
    with pytest.raises(ParameterRecoveryError) as alone:
        output_params_two(p.row(6), chs.row(2))
    with pytest.raises(ParameterRecoveryError) as batch:
        output_params_two(p, chs)
    assert str(alone.value).endswith(f" for {p.row(6)} through {chs.row(2)}")
    assert repr(chs.row(2)) == "LossChannel(gamma=0.0, eta=1.0)"
    assert str(batch.value) == f"{alone.value} (row 6)"


def test_lossless_channel_returns_a_large_pure_probe_unchanged():
    # its CM misses the uncertainty relation by -1.666e-10 at entries of
    # size N, which a CM rebuild rejected; the block entries match exactly
    from lossprobe.probes import ProbeSpec, params_from_spec

    p = params_from_spec(ProbeSpec(modes=2, n=562341.3251903491, beta=1.0))
    assert output_params_two(p, LossChannel.from_eta(1.0)) == p


def test_lossless_channel_stores_positive_zero_damping():
    # -log(1.0) is -0.0, which used to show up in every recovery error
    ch = LossChannel.from_eta(1.0)
    assert math.copysign(1.0, ch.gamma) == 1.0
    assert repr(ch) == "LossChannel(gamma=0.0, eta=1.0)"
    assert LossChannel.from_eta(0.5).gamma == -math.log(0.5)
    from lossprobe.probes import ProbeSpec, params_from_spec

    bad = params_from_spec(ProbeSpec(modes=2, n=3e4, beta=0.5, gamma=1.0))
    with pytest.raises(ParameterRecoveryError, match=r"through LossChannel\(gamma=0\.0, eta=1\.0\)$"):
        output_params_two(bad, ch)

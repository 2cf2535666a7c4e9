"""Chernoff quantity Q_s, its minimization, and the error-probability bounds.

The scalar golden section and the math-based Q_s below are the package's
former per-point route, kept as the reference for the batched core.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossprobe import chernoff
from lossprobe.channel import LossChannel, output_params_single, output_params_two
from lossprobe.chernoff import (
    S_EPS,
    S_TOL,
    DiscriminationReport,
    _g_lambda,
    _qcb_pairs,
    error_bounds,
    minimize_scalar_golden,
    q_s,
    qcb,
)
from lossprobe.gaussian import (
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_single_mode_st,
    make_two_mode_st,
    overlap,
)
from lossprobe.probes import ProbeSpec, params_from_spec, q1, q2, random_probes

import reference

# ---------------------------------------------------------------------------
# reference route: one s at a time, Python floats and math
# ---------------------------------------------------------------------------


def ref_g_s(x, s):
    return 1.0 / ((x + 1.0) ** s - x**s)


def ref_lambda_s(x, s):
    return 0.0 if x == 0.0 else x**s * ref_g_s(x, s)


def ref_q_s_single(pa, pb, s):
    ga, gb = ref_g_s(pa.n_t, s), ref_g_s(pb.n_t, 1.0 - s)
    wa, wb = ref_lambda_s(pa.n_t, s) + 0.5, ref_lambda_s(pb.n_t, 1.0 - s) + 0.5
    e2a, e2b = math.exp(2.0 * pa.r), math.exp(2.0 * pb.r)
    return ga * gb / math.sqrt((wa * e2a + wb * e2b) * (wa / e2a + wb / e2b))


def ref_q_s_two(pa, pb, s):
    pi_s = ref_g_s(pa.n_t1, s) * ref_g_s(pa.n_t2, s) * ref_g_s(pb.n_t1, 1.0 - s) * ref_g_s(pb.n_t2, 1.0 - s)

    def blocks(p, w1, w2):
        c2, s2 = math.cosh(p.r) ** 2, math.sinh(p.r) ** 2
        cs = math.cosh(p.r) * math.sinh(p.r)
        return w1 * c2 + w2 * s2, w1 * s2 + w2 * c2, (w1 + w2) * cs

    xa, ya, za = blocks(pa, ref_lambda_s(pa.n_t1, s) + 0.5, ref_lambda_s(pa.n_t2, s) + 0.5)
    xb, yb, zb = blocks(pb, ref_lambda_s(pb.n_t1, 1.0 - s) + 0.5, ref_lambda_s(pb.n_t2, 1.0 - s) + 0.5)
    x, y, z = xa + xb, ya + yb, za + zb
    return pi_s / (x * y - z * z)


def ref_golden(f, lo, hi, tol, grid_points=21):
    xs = [lo + (hi - lo) * k / (grid_points - 1) for k in range(grid_points)]
    fs = [f(x) for x in xs]
    k = min(range(grid_points), key=fs.__getitem__)
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, grid_points - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
    candidates = [((a + b) / 2.0, f((a + b) / 2.0)), (lo, fs[0]), (hi, fs[-1])]
    return min(candidates, key=lambda t: t[1])


def ref_qcb_mixed(pa, pb):
    """(s*, q) of a mixed pair by the reference route."""
    ref = ref_q_s_single if isinstance(pa, SqueezedThermalParamsSingle) else ref_q_s_two
    s_star, q = ref_golden(lambda s: ref(pa, pb, s), S_EPS, 1.0 - S_EPS, S_TOL)
    return s_star, min(q, 1.0)


def probe_pairs(count, seed):
    """(input, output) pairs of single- and two-mode (gamma-bar 0.999) probes."""
    pairs = []
    for n, beta, gamma_ch in zip(*random_probes(count, seed)):
        ch = LossChannel.from_gamma(gamma_ch)
        p1 = params_from_spec(ProbeSpec(modes=1, n=n, beta=beta))
        p2 = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=0.999))
        pairs += [(p1, output_params_single(p1, ch)), (p2, output_params_two(p2, ch))]
    return pairs


def stack(states):
    """One stack of states of one mode count, a lane per state."""
    return type(states[0])(*(np.array(col) for col in zip(*(p.fields() for p in states))))


def stacked_reports(pairs):
    """Each pair's lane of one qcb call per mode count, in pair order."""
    out = {}
    for kind in (SqueezedThermalParamsSingle, SqueezedThermalParamsTwo):
        ks = [k for k, (pa, _) in enumerate(pairs) if type(pa) is kind]
        rep = qcb(stack([pairs[k][0] for k in ks]), stack([pairs[k][1] for k in ks]))
        out.update((k, (rep.q[j], rep.s_star[j], rep.fidelity[j])) for j, k in enumerate(ks))
    return [out[k] for k in range(len(pairs))]


VACUUM = SqueezedThermalParamsSingle(r=0.0, n_t=0.0)
THERMAL1 = SqueezedThermalParamsSingle(r=0.0, n_t=1.0)

single_params = st.builds(
    SqueezedThermalParamsSingle,
    r=st.floats(0.0, 1.2),
    n_t=st.floats(0.01, 2.0),
)
two_params = st.builds(
    SqueezedThermalParamsTwo,
    r=st.floats(0.0, 1.0),
    n_t1=st.floats(0.01, 1.5),
    n_t2=st.floats(0.01, 1.5),
)


def g_lambda(x, s):
    """(G_s(x), Lambda_s(x)) through the powers, the route every Q_s takes."""
    return _g_lambda(x**s, (x + 1.0) ** s)


def test_g_lambda_at_zero():
    for s in (0.1, 0.5, 0.9):
        assert g_lambda(0.0, s) == (1.0, 0.0)


def test_g_half_at_one():
    # 1/((1+1)^0.5 - 1^0.5) = 1/(sqrt(2)-1) = sqrt(2)+1
    assert math.isclose(g_lambda(1.0, 0.5)[0], math.sqrt(2.0) + 1.0, rel_tol=1e-14)


def test_qs_identical_mixed_is_one():
    for s in (0.1, 0.5, 0.85):
        assert math.isclose(q_s(THERMAL1, THERMAL1, s), 1.0, rel_tol=1e-12)


def test_qs_vacuum_thermal_half():
    # Pi = G(0) G(1) = sqrt(2)+1, Sigma weights give sqrt(det) = 2 + sqrt(2)
    val = q_s(VACUUM, THERMAL1, 0.5)
    assert math.isclose(val, 2.0 ** -0.5, rel_tol=1e-12)


def test_qs_endpoint_limits():
    # with both states mixed, Tr[rho_b] = 1 recovers as s -> 0 (and 1 by symmetry)
    pa = SqueezedThermalParamsSingle(r=0.3, n_t=0.5)
    pb = SqueezedThermalParamsSingle(r=0.1, n_t=1.2)
    assert abs(q_s(pa, pb, 1e-7) - 1.0) < 1e-5
    assert abs(q_s(pa, pb, 1.0 - 1e-7) - 1.0) < 1e-5


@given(pa=single_params, pb=single_params, s=st.floats(0.05, 0.95))
@settings(max_examples=200)
def test_qs_swap_symmetry(pa, pb, s):
    assert math.isclose(
        q_s(pa, pb, s), q_s(pb, pa, 1.0 - s), rel_tol=1e-10
    )


@given(
    pa1=single_params, pb1=single_params,
    pa2=single_params, pb2=single_params,
    s=st.floats(0.05, 0.95),
)
@settings(max_examples=100)
def test_qs_two_mode_product_factorizes(pa1, pb1, pa2, pb2, s):
    # r=0 two-mode states are products; their Q_s splits into the mode factors
    pa = SqueezedThermalParamsTwo(r=0.0, n_t1=pa1.n_t, n_t2=pa2.n_t)
    pb = SqueezedThermalParamsTwo(r=0.0, n_t1=pb1.n_t, n_t2=pb2.n_t)
    lhs = q_s(pa, pb, s)
    rhs = q_s(
        SqueezedThermalParamsSingle(r=0.0, n_t=pa.n_t1),
        SqueezedThermalParamsSingle(r=0.0, n_t=pb.n_t1),
        s,
    ) * q_s(
        SqueezedThermalParamsSingle(r=0.0, n_t=pa.n_t2),
        SqueezedThermalParamsSingle(r=0.0, n_t=pb.n_t2),
        s,
    )
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


@pytest.mark.bits
@pytest.mark.parametrize("n,m", [(0.3, 1.7), (2.5, 0.01), (1e3, 4.0), (0.0, 0.8)])
def test_untouched_vacuum_mode_keeps_the_one_mode_bits(n, m):
    # beside a vacuum mode 2 at D = 0, S is w_a1 + w_b1 and the one-mode S
    # at D = 0 is (w_a + w_b)^2, whose sqrt is w_a + w_b: the same Q_s at every s
    s = np.linspace(0.01, 0.99, 99)
    two, one = q_s(SqueezedThermalParamsTwo(0.0, n, 0.0), SqueezedThermalParamsTwo(0.0, m, 0.0), s), q_s(
        SqueezedThermalParamsSingle(0.0, n), SqueezedThermalParamsSingle(0.0, m), s
    )
    assert np.array_equal(two, one), np.count_nonzero(two != one)


@given(pa=single_params, pb=single_params)
@settings(max_examples=60)
def test_qs_convex_in_s(pa, pb):
    s_grid = np.linspace(0.01, 0.99, 101)
    vals = np.array([q_s(pa, pb, s) for s in s_grid])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert second.min() >= -1e-8


def test_qcb_identical_states():
    for p in (VACUUM, THERMAL1, SqueezedThermalParamsSingle(r=0.5, n_t=0.2)):
        rep = qcb(p, p)
        assert math.isclose(rep.q, 1.0, abs_tol=1e-10)
        assert rep.pe_upper == pytest.approx(0.5, abs=1e-10)


def test_qcb_identical_two_mode():
    p = SqueezedThermalParamsTwo(r=0.4, n_t1=0.3, n_t2=0.1)
    assert math.isclose(qcb(p, p).q, 1.0, abs_tol=1e-10)


def test_qcb_squeezed_vacuum_vs_vacuum():
    # N=1 probe against total loss: Q = 1/sqrt(1 + N) = 1/sqrt(2)
    pa = SqueezedThermalParamsSingle(r=math.asinh(1.0), n_t=0.0)
    rep = qcb(pa, VACUUM)
    assert math.isclose(rep.q, 2.0 ** -0.5, rel_tol=1e-12)
    # both states pure: the infimum sits at the s boundary
    assert rep.s_star in (0.0, 1.0)
    assert rep.fidelity == pytest.approx(rep.q, rel=1e-12)


def test_qcb_vacuum_vs_thermal():
    rep = qcb(VACUUM, THERMAL1)
    assert math.isclose(rep.q, 0.5, rel_tol=1e-10)
    assert rep.s_star == 0.0  # vacuum is pure, so s collapses to its boundary
    assert rep.fidelity == pytest.approx(0.5, rel=1e-12)
    assert rep.pe_lower == pytest.approx((1.0 - math.sqrt(0.5)) / 2.0, rel=1e-12)
    assert rep.pe_upper == pytest.approx(0.25, rel=1e-12)
    assert rep.pe_fidelity_upper == pytest.approx(math.sqrt(0.5) / 2.0, rel=1e-12)


@given(pa=single_params, pb=single_params)
@settings(max_examples=60, deadline=None)
def test_qcb_swap_symmetric(pa, pb):
    assert math.isclose(qcb(pa, pb).q, qcb(pb, pa).q, abs_tol=1e-10)


@given(pa=single_params, pb=single_params)
@settings(max_examples=60, deadline=None)
def test_qcb_below_midpoint_value(pa, pb):
    rep = qcb(pa, pb)
    assert rep.q <= q_s(pa, pb, 0.5) + 1e-12
    assert rep.q <= 1.0 + 1e-12


@given(r=st.floats(0.0, 1.5), p=single_params)
@settings(max_examples=100, deadline=None)
def test_pure_vs_mixed_bound_chain(r, p):
    # with one state pure, F = Tr[rho_a rho_b] and F <= Q <= sqrt(F)
    pa = SqueezedThermalParamsSingle(r=r, n_t=0.0)
    rep = qcb(pa, p)
    f = overlap(make_single_mode_st(pa), make_single_mode_st(p))
    assert rep.fidelity == pytest.approx(f, rel=1e-10)
    assert f - 1e-10 <= rep.q <= math.sqrt(f) + 1e-10


def test_qcb_channel_outputs_two_mode_matches_mode_product():
    # gamma=1 leaves mode 2 untouched, so only mode 1 contributes to Q
    pa = SqueezedThermalParamsTwo(r=0.0, n_t1=0.8, n_t2=0.3)
    ch = LossChannel.from_eta(0.5)
    pb = output_params_two(pa, ch)
    twomode = qcb(pa, pb).q
    single_a = SqueezedThermalParamsSingle(r=0.0, n_t=0.8)
    single_b = output_params_single(single_a, ch)
    assert math.isclose(twomode, qcb(single_a, single_b).q, rel_tol=1e-10)


def test_error_bounds_indistinguishable():
    for m in (1, 10, 100):
        assert error_bounds(1.0, None, m)[1] == pytest.approx(0.5, rel=1e-15)


def test_error_bounds_pure_case_values():
    lower, cher, fid = error_bounds(0.5, 0.5, 1)
    assert lower == pytest.approx((1.0 - math.sqrt(0.5)) / 2.0, rel=1e-14)
    assert cher == pytest.approx(0.25, rel=1e-14)
    assert fid == pytest.approx(math.sqrt(0.5) / 2.0, rel=1e-14)
    assert lower <= cher <= fid


def test_error_bounds_many_copies():
    assert error_bounds(0.9, None, 50)[1] == pytest.approx(0.9**50 / 2.0, rel=1e-13)


def test_report_copies_scaling():
    pa = SqueezedThermalParamsSingle(r=math.asinh(1.0), n_t=0.0)
    one = qcb(pa, VACUUM)
    fifty = qcb(pa, VACUUM, copies=50)
    assert isinstance(one, DiscriminationReport)
    assert fifty.copies == 50
    assert fifty.pe_upper == pytest.approx(one.q**50 / 2.0, rel=1e-12)


def test_qcb_checks_bound_inputs_at_once(monkeypatch):
    # a NaN lane raises in the lanes, which q1 reads without a report
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"Chernoff quantity must be in \[0, 1\], got nan"):
            q1(np.array([1.0, 1e300]), 0.5, LossChannel.from_gamma(0.5))
    pa, pb = SqueezedThermalParamsSingle(0.5, 0.2), SqueezedThermalParamsSingle(0.3, 0.1)
    calls = []
    monkeypatch.setattr(chernoff, "_error_bounds", lambda *args: calls.append(args) or (None, 0.25, None))
    report = qcb(pa, pb, copies=3)
    assert report.pe_upper == 0.25 and report.pe_lower is None and report.pe_fidelity_upper is None
    assert calls == [(report.q, None, 3)]
    # a fractional copy count raises before qcb minimises
    monkeypatch.setattr(chernoff, "_qcb_pairs", lambda pairs: pytest.fail("minimised before the copy check"))
    with pytest.raises(ValueError, match="copy count must be a positive integer, got 1.5"):
        qcb(pa, pb, copies=1.5)


def test_seeding_grid_memory_does_not_grow_with_the_lanes():
    # figure 4's 20,402 rows in one q2 call: the 21-point grid over every
    # mixed lane at once peaked near 99 MB traced, in groups near 24 MB
    ns, betas = np.linspace(5.0 / 101, 5.0, 101), np.linspace(0.0, 1.0, 101)
    n, beta = np.tile(np.repeat(ns, 101), 2), np.tile(betas, 202)
    ch = LossChannel.from_gamma(np.repeat([0.1, 0.9], 101 * 101))
    tracemalloc.start()
    try:
        q2(n, beta, 1.0, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak


@pytest.mark.bits
def test_seeding_grid_groups_change_no_bit():
    # figure 6's benchmark size: 636 mixed lanes of both mode counts, whose
    # 21-point grid takes 21 calls of 1 point, 2 calls (2^13) or 1 call (2^20)
    n, beta, gamma_ch = random_probes(318, seed=31)
    ch = LossChannel.from_gamma(gamma_ch)
    pairs = []
    for modes, recover in ((1, output_params_single), (2, output_params_two)):
        p_in = params_from_spec(ProbeSpec(modes=modes, n=n, beta=beta, gamma=0.999 if modes == 2 else None))
        pairs.append((p_in, recover(p_in, ch)))
    runs = []
    for chunk in (1, 2**13, 2**20):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chernoff, "_GRID_CHUNK", chunk)
            lanes = _qcb_pairs(pairs)
        assert all(np.isnan(fid).all() for _, _, fid in lanes)  # every lane takes the golden section
        runs.append([np.concatenate([lane[k] for lane in lanes]).view(np.uint64).tolist() for k in (0, 1)])
    assert runs[0] == runs[1] == runs[2]


def test_golden_section_quadratic():
    argmin, val = minimize_scalar_golden(lambda s: (s - 0.3) ** 2 + 1.0, 0.0, 1.0, 1e-9)
    assert abs(argmin - 0.3) < 1e-7
    assert val == pytest.approx(1.0, abs=1e-13)


def test_golden_section_boundary_minimum():
    argmin, val = minimize_scalar_golden(lambda s: s, 0.0, 1.0, 1e-9)
    assert argmin == 0.0 and val == 0.0


# ---------------------------------------------------------------------------
# the batched core against the reference route
# ---------------------------------------------------------------------------


def test_batched_qcb_matches_scalar_reference():
    # numpy's pow and Python's ** differ in the last bit for a few percent of
    # arguments, which flips golden-section comparisons where Q_s is flat, so
    # s* itself may move (up to 2.6e-5 on these draws); what must hold is
    # that it is as good a minimizer of the reference curve.
    pairs = probe_pairs(1000, seed=20261018)
    reports = stacked_reports(pairs)
    assert len(reports) == 2000
    for (pa, pb), (q_k, s_k, f_k) in zip(pairs, reports):
        s_star, q = ref_qcb_mixed(pa, pb)
        ref = ref_q_s_single if isinstance(pa, SqueezedThermalParamsSingle) else ref_q_s_two
        assert np.isnan(f_k)
        assert math.isclose(q_k, q, rel_tol=1e-13), (pa, pb, q_k, q)
        assert ref(pa, pb, s_k) <= q * (1.0 + 1e-13), (pa, pb, s_k, s_star)


@pytest.mark.bits
def test_lane_is_bitwise_the_same_alone_and_in_a_batch():
    pairs = probe_pairs(500, seed=7)
    for (pa, pb), (q_k, s_k, _) in zip(pairs, stacked_reports(pairs)):
        alone = qcb(pa, pb)
        assert (alone.q, alone.s_star) == (q_k, s_k), (pa, pb)


def test_minimizer_lanes_take_the_scalar_steps():
    # one lane per minimum, three of them past an edge of the interval
    centres = np.array([-0.2, 0.0, 1e-7, 0.123456, 0.5, 0.77, 0.999999, 1.0, 1.3])
    lo, hi = np.zeros_like(centres), 1.0

    def f(x):
        return (x - centres) * (x - centres)

    x, fx = minimize_scalar_golden(f, lo, hi, 1e-10)
    for c, x_k, f_k in zip(centres.tolist(), x.tolist(), fx.tolist()):
        assert (x_k, f_k) == ref_golden(lambda s: (s - c) * (s - c), 0.0, 1.0, 1e-10), c


def test_minimizer_scalar_interval_returns_floats():
    x, fx = minimize_scalar_golden(lambda s: (s - 0.3) * (s - 0.3), 0.0, 1.0, 1e-9)
    assert type(x) is float and type(fx) is float
    assert (x, fx) == ref_golden(lambda s: (s - 0.3) * (s - 0.3), 0.0, 1.0, 1e-9)


# q_s under the names the tracer wraps: q_s_single gave 0.3295 for 0.9048 on
# a two-mode pair, and q_s_two raised IndexError on a one-mode pair
Q_S_NAMES = ("q_s", "q_s_single", "q_s_two")


@given(pa=single_params, pb=single_params, s=st.floats(0.05, 0.95))
@settings(max_examples=100)
def test_q_s_single_matches_reference(pa, pb, s):
    for name in Q_S_NAMES:
        assert math.isclose(getattr(chernoff, name)(pa, pb, s), ref_q_s_single(pa, pb, s), rel_tol=1e-13), name


@given(pa=two_params, pb=two_params, s=st.floats(0.05, 0.95))
@settings(max_examples=100)
def test_q_s_two_matches_reference(pa, pb, s):
    for name in Q_S_NAMES:
        assert math.isclose(getattr(chernoff, name)(pa, pb, s), ref_q_s_two(pa, pb, s), rel_tol=1e-13), name


def test_q_s_broadcasts_over_lanes_and_s():
    pas = SqueezedThermalParamsTwo(np.array([0.4, 0.9]), np.array([0.3, 0.0]), np.array([0.1, 1.2]))
    pbs = SqueezedThermalParamsTwo(np.array([0.2, 0.7]), np.array([0.5, 0.6]), np.array([0.1, 1.2]))
    s = np.array([[0.2, 0.7], [0.5, 0.5], [0.9, 0.1]])
    grid = q_s(pas, pbs, s)
    assert grid.shape == (3, 2)
    for i, j in np.ndindex(3, 2):
        assert grid[i, j] == q_s(pas.row(j), pbs.row(j), s[i, j])
    value = q_s(THERMAL1, VACUUM, 0.5)
    assert type(value) is float
    assert q_s(THERMAL1, VACUUM, np.array([0.5]))[0] == value
    with pytest.raises(ValueError):
        q_s(THERMAL1, VACUUM, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        q_s(pas.row(0), pbs.row(0), 0.0)
    with pytest.raises(TypeError, match="mode mismatch"):  # q_s_single gave 1.105 at the parent
        q_s(SqueezedThermalParamsSingle(0.3, 0.2), SqueezedThermalParamsTwo(0.1, 0.5, 0.1), 0.4)


def lane_pair(modes, count, seed):
    """One (input, output) pair of stacks of `count` probes of one mode count, through their channels."""
    n, beta, gamma_ch = random_probes(count, seed=seed)
    p_in = params_from_spec(ProbeSpec(modes=modes, n=n, beta=beta, gamma=0.999 if modes == 2 else None))
    recover = output_params_single if modes == 1 else output_params_two
    return p_in, recover(p_in, LossChannel.from_gamma(gamma_ch))


@pytest.mark.bits
@pytest.mark.parametrize("modes", [(1,), (2,), (1, 2)], ids=["one-mode", "two-mode", "mixed"])
@pytest.mark.parametrize("grid", [(), (3,)], ids=["flat-s", "grid-s"])
def test_lane_stack_is_each_pairs_q_s(modes, grid):
    # the determinant tail runs once over the lanes of both mode counts: a stack
    # of one-mode lanes only (ones == lanes), of two-mode lanes only (ones == 0)
    # and of both, at one s per lane and at a (k, lanes) grid; each lane has
    # the bits of its own pair's q_s, and the result is its own array, not a
    # view of the powers
    pairs = [lane_pair(m, 5 + m, seed=40 + m) for m in modes]
    lanes = chernoff.stack_pairs(pairs)
    rows = [(pa.row(k), pb.row(k)) for pa, pb in pairs for k in range(len(pa.r))]
    assert (lanes.ones, lanes.sinh2.size) == ((6 if modes[0] == 1 else 0), len(rows))
    s = np.random.default_rng(5).uniform(0.02, 0.98, grid + (len(rows),))
    q = q_s(lanes, None, s)
    assert q.shape == s.shape and q.flags.owndata
    alone = np.array([q_s(*rows[i[-1]], s[i]) for i in np.ndindex(s.shape)])
    assert q.ravel().view(np.uint64).tolist() == alone.view(np.uint64).tolist()


def test_g_lambda_elementwise():
    x = np.array([0.0, 0.5, 1.0, 3.0])
    s = np.array([[0.1], [0.5], [0.9]])
    g, lam = g_lambda(x, s)
    assert g.shape == lam.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        assert math.isclose(g[i, j], ref_g_s(x[j], s[i, 0]), rel_tol=1e-14)
        assert math.isclose(lam[i, j], ref_lambda_s(x[j], s[i, 0]), rel_tol=1e-14, abs_tol=0.0)


def test_pure_switch_is_exact_zero():
    # a tiny but nonzero occupation is a mixed state and is minimized over s
    near = qcb(SqueezedThermalParamsSingle(0.5, 1e-12), SqueezedThermalParamsSingle(0.3, 0.2))
    assert near.fidelity is None and 0.0 < near.s_star < 1.0
    exact = qcb(SqueezedThermalParamsSingle(0.5, 0.0), SqueezedThermalParamsSingle(0.3, 0.2))
    assert exact.fidelity is not None and exact.s_star == 0.0
    two = qcb(SqueezedThermalParamsTwo(0.5, 0.0, 1e-300), SqueezedThermalParamsTwo(0.3, 0.2, 0.1))
    assert two.fidelity is None and math.isfinite(two.q)


def assert_lanes_are_their_rows(report, rows):
    """Every lane of a stacked report has the bits of its row's own qcb report."""
    assert report.q.shape == report.s_star.shape == report.fidelity.shape
    for k, alone in enumerate(rows):
        lane = [np.ravel(v)[k] for v in (report.q, report.s_star, report.pe_upper, report.fidelity,
                                          report.pe_lower, report.pe_fidelity_upper)]
        assert [alone.q, alone.s_star, alone.pe_upper] == lane[:3], k
        if alone.fidelity is None:
            assert all(np.isnan(v) for v in lane[3:]), k
        else:
            assert [alone.fidelity, alone.pe_lower, alone.pe_fidelity_upper] == lane[3:], k


@pytest.mark.bits
def test_stacked_pair_is_the_same_bits_as_its_rows():
    # one (input, output) pair of stacks, pure and mixed rows together, and
    # the same rows one qcb call at a time
    n, beta, gamma_ch = random_probes(300, seed=11)
    beta[::7] = 1.0
    ch = LossChannel.from_gamma(gamma_ch)
    for modes, recover in ((1, output_params_single), (2, output_params_two)):
        p_in = params_from_spec(ProbeSpec(modes=modes, n=n, beta=beta, gamma=0.999 if modes == 2 else None))
        p_out = recover(p_in, ch)
        report = qcb(p_in, p_out, copies=3)
        assert report.q.shape == (300,) and np.isnan(report.fidelity).sum() == 300 - 43
        assert_lanes_are_their_rows(report, [qcb(p_in.row(k), p_out.row(k), copies=3) for k in range(300)])


@pytest.mark.bits
def test_lane_keeps_its_bits_in_a_joint_call():
    # one- and two-mode stacks with pure rows (beta = 1), a 0-d mixed pair and
    # a 0-d pure pair in one call: each is its own qcb call, and each lane alone
    n, beta, gamma_ch = random_probes(120, seed=29)
    beta[::5] = 1.0
    ch = LossChannel.from_gamma(gamma_ch)
    stacks = []
    for modes, recover in ((1, output_params_single), (2, output_params_two)):
        p_in = params_from_spec(ProbeSpec(modes=modes, n=n, beta=beta, gamma=0.999 if modes == 2 else None))
        stacks.append((p_in, recover(p_in, ch)))
    lone = SqueezedThermalParamsTwo(0.4, 0.3, 0.2)
    pairs = [stacks[0], (lone, output_params_two(lone, LossChannel.from_eta(0.6))), stacks[1], (THERMAL1, VACUUM)]
    joint = _qcb_pairs(pairs)
    assert [np.shape(q) for q, _, _ in joint] == [(120,), (), (120,), ()]

    def bits(lanes):
        return [type(v).__name__ for v in lanes[:2]] + [
            np.asarray(np.nan if v is None else v).view(np.uint64).tolist() for v in lanes]

    for (pa, pb), lanes in zip(pairs, joint):
        report = qcb(pa, pb, copies=2)
        assert bits(lanes) == bits((report.q, report.s_star, report.fidelity))
        if pa.shape:
            assert_lanes_are_their_rows(report, [qcb(pa.row(k), pb.row(k), copies=2) for k in range(120)])
    assert joint[1][2] is None and 0.0 < joint[1][1] < 1.0 and joint[3][1] == 1.0


@pytest.mark.bits
def test_lane_keeps_its_bits_across_lane_blocks(monkeypatch):
    # a two-mode and a one-mode pair of 50 lanes each: the stack puts the
    # one-mode lanes first, and in blocks of 16 the block [48, 64) holds both
    # mode counts; each lane has its bits alone, in its pair's qcb call and
    # in the joint stack
    n, beta, gamma_ch = random_probes(50, seed=37)
    ch = LossChannel.from_gamma(gamma_ch)
    pairs = []
    for modes, recover in ((2, output_params_two), (1, output_params_single)):
        p_in = params_from_spec(ProbeSpec(modes=modes, n=n, beta=beta, gamma=0.999 if modes == 2 else None))
        pairs.append((p_in, recover(p_in, ch)))
    blocks, original = [], chernoff.stack_pairs

    def recorded(block):
        blocks.append(original(block))
        return blocks[-1]

    monkeypatch.setattr(chernoff, "_BLOCK_LANES", 16)
    monkeypatch.setattr(chernoff, "stack_pairs", recorded)
    joint = _qcb_pairs(pairs)
    assert [(lanes.ones, lanes.sinh2.size) for lanes in blocks] == [(16, 16)] * 3 + [(2, 16)] + [(0, 16)] * 2 + [(0, 4)]
    for (pa, pb), (q, s_star, fid) in zip(pairs, joint):
        assert np.isnan(fid).all()  # every lane takes the golden section
        own = qcb(pa, pb)
        for k in range(50):
            alone = qcb(pa.row(k), pb.row(k))
            bits = [np.array(lane).view(np.uint64).tolist() for lane in ((q[k], s_star[k]), (own.q[k], own.s_star[k]))]
            assert bits == [np.array([alone.q, alone.s_star]).view(np.uint64).tolist()] * 2, k


def test_joint_call_checks_every_pair():
    with pytest.raises(TypeError, match="mode mismatch"):
        _qcb_pairs([(VACUUM, THERMAL1), (THERMAL1, SqueezedThermalParamsTwo(0.2, 0.5, 0.1))])
    with pytest.raises(ValueError, match="copy count"):
        qcb(VACUUM, THERMAL1, copies=0)


def test_one_state_broadcasts_against_a_stack():
    one = SqueezedThermalParamsSingle(r=0.3, n_t=0.2)
    # lanes 0 and 2 are pure, lane 4 is mixed by a hair
    many = SqueezedThermalParamsSingle(r=np.array([0.0, 0.3, 0.5, 1.1, 0.2]),
                                       n_t=np.array([0.0, 0.2, 0.0, 0.7, 1e-12]))
    for pa, pb, rows in ((one, many, [(one, many.row(k)) for k in range(5)]),
                         (many, one, [(many.row(k), one) for k in range(5)])):
        report = qcb(pa, pb, copies=2)
        assert report.q.shape == (5,) and np.isnan(report.fidelity).tolist() == [False, True, False, True, True]
        assert_lanes_are_their_rows(report, [qcb(a, b, copies=2) for a, b in rows])


def test_two_axis_stack_keeps_its_shape():
    n = np.linspace(0.2, 3.0, 12).reshape(3, 4)
    beta = np.tile([0.0, 0.4, 0.9, 1.0], (3, 1))
    p_in = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=0.999))
    p_out = output_params_two(p_in, LossChannel.from_gamma(0.7))
    report = qcb(p_in, p_out)
    # beta = 1 (the last column) gives pure probes
    assert report.q.shape == (3, 4)
    assert np.isnan(report.fidelity[:, :3]).all() and not np.isnan(report.fidelity[:, 3]).any()
    assert_lanes_are_their_rows(report, [qcb(p_in.row(k), p_out.row(k)) for k in range(12)])


def test_qcb_rejects_a_mode_mismatch():
    with pytest.raises(TypeError, match="mode mismatch"):
        qcb(THERMAL1, SqueezedThermalParamsTwo(0.2, 0.5, 0.1))
    with pytest.raises(TypeError, match="unsupported parameter type"):
        qcb(make_single_mode_st(THERMAL1), make_single_mode_st(VACUUM))


# ---------------------------------------------------------------------------
# pure lanes: the overlap from the parameters
# ---------------------------------------------------------------------------


def pure_two_mode_grid():
    """(input, output) stacks of pure two-mode probes over N 1e-2 to 1e6 and eta 1e-3 to 0.999.

    The outputs come from a decimal recovery: `output_params_two` fails on
    part of this range (its cancellation is a separate, open defect).
    """
    ns = [10.0 ** (k / 2) for k in range(-4, 13)]
    etas = [1e-3, 0.1, 0.5, 0.9, 0.99, 0.999]
    n, eta, gamma = (np.array(col) for col in zip(*itertools.product(ns, etas, (0.0, 0.5, 1.0))))
    p_in = params_from_spec(ProbeSpec(modes=2, n=n, beta=np.ones_like(n), gamma=gamma))
    # the decimal n2' of a pure input is 0 up to the last of its 60 digits
    out = [[max(v, 0.0) for v in reference.recovery_two(p_in.row(k), e)] for k, e in enumerate(eta.tolist())]
    return p_in, SqueezedThermalParamsTwo(*(np.array(col) for col in zip(*out)))


def random_pairs(rng, count, modes):
    """(pure a, mixed b) stacks of random states, r_b > r_a in every two-mode lane."""
    r_a = rng.uniform(0.0, 3.0, count)
    r_b = rng.uniform(0.0, 3.0, count) if modes == 1 else r_a + rng.uniform(1e-3, 3.0, count)
    if modes == 1:
        return (SqueezedThermalParamsSingle(r_a, np.zeros(count)),
                SqueezedThermalParamsSingle(r_b, rng.uniform(0.0, 5.0, count)))
    return (SqueezedThermalParamsTwo(r_a, np.zeros(count), np.zeros(count)),
            SqueezedThermalParamsTwo(r_b, rng.uniform(0.0, 5.0, count), rng.uniform(0.0, 5.0, count)))


def assert_matches_decimal(report, pa, pb, rel):
    assert not np.isnan(report.fidelity).any()
    overlap_ref = reference.overlap_single if isinstance(pa, SqueezedThermalParamsSingle) else reference.overlap_two
    for k in range(report.q.size):
        ref = overlap_ref(pa.row(k), pb.row(k))
        assert abs(report.q[k] - ref) <= rel * ref, (k, report.q[k], ref)


def test_single_mode_pure_lanes_match_the_decimal_determinant():
    # the two-mode S at balanced weights; the CM overlap (det2 of the summed matrices) agrees to the same bound
    rng = np.random.default_rng(20261018)
    pa, pb = random_pairs(rng, 1000, modes=1)
    n, beta, _ = random_probes(1000, seed=5)
    p_in = params_from_spec(ProbeSpec(modes=1, n=n, beta=np.ones_like(n)))
    p_out = output_params_single(p_in, LossChannel.from_eta(0.4))
    for a, b in ((pa, pb), (pb, pa), (p_in, p_out)):
        report = qcb(a, b)
        assert report.q.tolist() == report.fidelity.tolist()
        assert_matches_decimal(report, a, b, 2e-15)
        via_cm = overlap(make_single_mode_st(a), make_single_mode_st(b))
        np.testing.assert_allclose(report.q, via_cm, rtol=2e-15, atol=0.0)


def test_two_mode_pure_lanes_match_the_decimal_determinant():
    # the LU determinant of the summed CMs misses this reference by up to 2e-9
    p_in, p_out = pure_two_mode_grid()
    assert_matches_decimal(qcb(p_in, p_out), p_in, p_out, 2e-15)
    rng = np.random.default_rng(7)
    pa, pb = random_pairs(rng, 200, modes=2)
    assert_matches_decimal(qcb(pa, pb), pa, pb, 2e-15)
    # only b pure: a mixed input against a squeezed vacuum
    assert_matches_decimal(qcb(pb, pa), pb, pa, 2e-15)


@pytest.mark.bits
def test_pure_lanes_are_swap_symmetric_bit_for_bit():
    rng = np.random.default_rng(3)
    p_in, p_out = pure_two_mode_grid()
    for pa, pb in ((p_in, p_out), random_pairs(rng, 200, modes=2), random_pairs(rng, 200, modes=1)):
        forward, backward = qcb(pa, pb), qcb(pb, pa)
        assert forward.q.tolist() == backward.q.tolist()
        assert (forward.s_star + backward.s_star).tolist() == [1.0] * forward.q.size


def test_two_mode_pure_lanes_agree_with_the_cm_route():
    p_in, p_out = pure_two_mode_grid()
    small = p_in.n_t1 + p_in.n_t2 + 2.0 * np.sinh(p_in.r) ** 2 <= 10.0
    p_in, p_out = p_in.take(small), p_out.take(small)
    via_cm = overlap(make_two_mode_st(p_in), make_two_mode_st(p_out))
    assert p_in.shape[0] > 50
    np.testing.assert_allclose(qcb(p_in, p_out).q, via_cm, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Q_s against the decimal reference, the balanced-mode identity, and
# identical states at large N
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def g_s_allowance(pa, pb, s):
    """Relative roundoff G_s itself carries: (x + 1)^s - x^s cancels by about x / s at large x.

    This is a defect of G_s, open apart from the determinant; the bound on
    Q_s allows for it on top of a few ulps.
    """
    return EPS * (sum(pa.fields()[1:]) / s + sum(pb.fields()[1:]) / (1.0 - s))


def assert_q_s_matches_decimal(ref, pa, pb, s):
    got = q_s(pa, pb, s)
    s = np.broadcast_to(s, got.shape)
    for k in range(got.size):
        a, b, s_k = pa.row(k), pb.row(k), float(s[k])
        want = ref(a, b, s_k)
        assert abs(got[k] - want) <= (6.0 * EPS + g_s_allowance(a, b, s_k)) * want, (a, b, s_k, got[k], want)


def test_q_s_matches_the_decimal_reference():
    # x y - z^2 of the summed blocks missed these probe pairs by up to 5.8e-9
    # and the near-identical pairs by up to 2.6e-4
    n, beta, eta = (np.array(col) for col in zip(*itertools.product(
        [10.0 ** (k / 2) for k in range(-4, 11)], (0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999), (0.3, 0.9, 0.999))))
    ch = LossChannel.from_eta(eta)
    p_in = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=0.999))
    assert_q_s_matches_decimal(reference.q_s_two, p_in, output_params_two(p_in, ch), 0.5)
    p_in = params_from_spec(ProbeSpec(modes=1, n=n, beta=beta))
    assert_q_s_matches_decimal(reference.q_s_single, p_in, output_params_single(p_in, ch), 0.5)

    rng = np.random.default_rng(1)
    count = 400
    pa = params_from_spec(ProbeSpec(modes=2, n=10.0 ** rng.uniform(-3.0, 6.0, count), beta=rng.uniform(0.0, 1.0, count),
                                    gamma=rng.choice([0.0, 0.5, 1.0], count)))
    pb = SqueezedThermalParamsTwo(*(v * (1.0 + rng.uniform(0.0, 1e-6, count)) for v in pa.fields()))
    assert_q_s_matches_decimal(reference.q_s_two, pa, pb, rng.uniform(0.05, 0.95, count))


def test_balanced_two_mode_pairs_are_the_one_mode_pairs_squared():
    # a 50:50 beam splitter maps the two-mode state (r, n, n) to the one-mode
    # states (r, n) and (-r, n), and (-r, n) is (r, n) turned by pi/2; so a
    # pair of balanced two-mode states has the squared Q_s of its one-mode pair
    rng = np.random.default_rng(28)
    count = 2000
    r_a, r_b = rng.uniform(0.0, 3.0, (2, count))
    n_a, n_b = 10.0 ** rng.uniform(-3.0, 3.0, (2, count))
    n_a[::10] = n_b[5::10] = 0.0  # one lane in five is pure
    two = SqueezedThermalParamsTwo(r_a, n_a, n_a), SqueezedThermalParamsTwo(r_b, n_b, n_b)
    one = SqueezedThermalParamsSingle(r_a, n_a), SqueezedThermalParamsSingle(r_b, n_b)
    s = rng.uniform(0.05, 0.95, count)
    np.testing.assert_allclose(q_s(*two, s), q_s(*one, s) ** 2, rtol=4.0 * EPS, atol=0.0)
    q_two, q_one = qcb(*two), qcb(*one)
    pure = ~np.isnan(q_two.fidelity)
    assert pure.tolist() == (~np.isnan(q_one.fidelity)).tolist() and pure.sum() == count // 5
    np.testing.assert_allclose(q_two.q[pure], q_one.q[pure] ** 2, rtol=4.0 * EPS, atol=0.0)
    # the two golden sections end at other points of their curves: q_two
    # carries the roundoff a Q_s carries against the decimal route, and
    # q_one ** 2 twice that, as squaring doubles it
    mixed, at = (p.take(~pure) for p in two), q_two.s_star[~pure]
    got, want = q_two.q[~pure], q_one.q[~pure] ** 2
    assert (np.abs(got - want) <= 3.0 * (6.0 * EPS + g_s_allowance(*mixed, at)) * got).all()


def test_identical_states_give_q_one_up_to_large_energy():
    # x y - z^2 cancelled between terms of size N^2 when one mode is empty:
    # q(p, p) was 0.688 at N = 3e5, with a divide-by-zero warning above
    n, beta, gamma = (np.array(col) for col in zip(*itertools.product(
        [10.0 ** (k / 4) for k in range(-12, 25)], (0.0, 0.1, 0.5, 0.999), (0.0, 0.5, 1.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for spec in (ProbeSpec(modes=2, n=n, beta=beta, gamma=gamma), ProbeSpec(modes=1, n=n, beta=beta)):
            p = params_from_spec(spec)
            q = qcb(p, p).q
            assert np.abs(q - 1.0).max() <= 1e-9, (spec.modes, n[np.argmax(np.abs(q - 1.0))])
        p = params_from_spec(ProbeSpec(modes=2, n=3e5, beta=0.5, gamma=0.0))
        assert abs(qcb(p, p).q - 1.0) <= 1e-9


def test_pe_lower_does_not_cancel_at_small_fidelity():
    # the direct form 1 - sqrt(1 - F^M) cancels to 0 below F^M ~ 1e-16
    fs = np.concatenate([np.logspace(-30, 0, 301), [1.0 - 1e-12, 0.5]])
    for m in (1, 3):
        lower, _, _ = error_bounds(0.5, fs, m)
        for f, got in zip(fs.tolist(), lower.tolist()):
            ref = reference.pe_lower(f, m)
            assert abs(got - ref) <= 1e-15 * ref, (f, m, got, ref)
    assert error_bounds(1.0, 1.0, 1)[0] == 0.5


def test_upper_bounds_match_the_decimal_routes_to_one_ulp():
    # Q^M / 2 and sqrt(F^M) / 2, into the subnormals and past them to 0
    xs = np.concatenate([np.logspace(-30, 0, 301), [1.0 - 1e-12, 0.5, 1.0, 0.0]])
    for m in (1, 2, 3, 7, 50):
        _, upper, fidelity_upper = error_bounds(xs, xs, m)
        for x, got_q, got_f in zip(xs.tolist(), upper.tolist(), fidelity_upper.tolist()):
            for got, ref in ((got_q, reference.pe_upper(x, m)), (got_f, reference.pe_fidelity_upper(x, m))):
                assert abs(got - ref) <= np.spacing(ref), (x, m, got, ref)

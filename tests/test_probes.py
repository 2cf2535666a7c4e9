"""Probe parametrization, closed forms, threshold energy, random sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossprobe.channel import LossChannel
from lossprobe.gaussian import make_single_mode_st, make_two_mode_st
from lossprobe.probes import (
    ProbeSpec,
    SweepRanges,
    ThresholdSearchError,
    critical_transmissivity,
    cubic_residual,
    delta_q,
    delta_q_gamma,
    discriminate,
    optimize_beta,
    params_from_spec,
    q1,
    q1_analytic,
    q2,
    q2_analytic,
    random_sweep,
    threshold_energy,
    threshold_fit_near_critical,
)
from test_gaussian import mean_photons

ETA_C = 0.29559774252208476  # eta_c = x^2, x the real root of x^3+x^2+x-1
GAMMA_C = 1.2187557268720124  # -log(eta_c)


def test_spec_fully_thermal():
    p = params_from_spec(ProbeSpec(modes=1, n=3.0, beta=0.0))
    assert p.r == 0.0 and math.isclose(p.n_t, 3.0, rel_tol=1e-15)


def test_spec_squeezed_vacuum():
    p = params_from_spec(ProbeSpec(modes=1, n=3.0, beta=1.0))
    assert math.isclose(p.r, math.asinh(math.sqrt(3.0)), rel_tol=1e-15)
    assert p.n_t == 0.0


def test_spec_two_mode_budget():
    # n_S = beta N / 2 per mode, thermal pool (1-beta) N / (1 + beta N): the
    # pool denominator uses beta N (not 2 beta N as in the single-mode case)
    # because the cross term pairs the pool with 2 n_S = beta N.  Only this
    # split closes the budget: N = 2 n_S + pool (1 + 2 n_S).
    p = params_from_spec(ProbeSpec(modes=2, n=2.0, beta=0.5, gamma=1.0))
    assert math.isclose(math.sinh(p.r) ** 2, 0.5, rel_tol=1e-12)
    assert math.isclose(p.n_t1, 0.5, rel_tol=1e-12)
    assert p.n_t2 == 0.0
    assert abs(mean_photons(make_two_mode_st(p)) - 2.0) < 1e-10


@given(
    n=st.floats(0.0, 10.0),
    beta=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0),
)
@settings(max_examples=200)
def test_energy_budget_closure(n, beta, gamma):
    single = params_from_spec(ProbeSpec(modes=1, n=n, beta=beta))
    assert abs(mean_photons(make_single_mode_st(single)) - n) < 1e-10 * max(1.0, n)
    two = params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=gamma))
    assert abs(mean_photons(make_two_mode_st(two)) - n) < 1e-10 * max(1.0, n)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(modes=3, n=1.0, beta=0.5)
    with pytest.raises(ValueError):
        ProbeSpec(modes=1, n=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        ProbeSpec(modes=1, n=1.0, beta=1.5)
    with pytest.raises(ValueError):
        ProbeSpec(modes=1, n=1.0, beta=0.5, gamma=0.5)  # gamma is two-mode only
    assert ProbeSpec(modes=2, n=1.0, beta=0.5).gamma == 1.0


def test_identity_channel_gives_q_one():
    ch = LossChannel.from_gamma(0.0)
    assert math.isclose(q1(1.3, 0.7, ch), 1.0, abs_tol=1e-10)
    assert math.isclose(q2(1.3, 0.7, 0.5, ch), 1.0, abs_tol=1e-10)


def test_q1_analytic_values():
    assert math.isclose(q1_analytic(1.0, 1e-9), 2.0 ** -0.5, rel_tol=1e-9)
    assert math.isclose(q1_analytic(1.0, 0.5), 1.0 / math.sqrt(1.75), rel_tol=1e-14)
    assert q1_analytic(3.7, 1.0) == 1.0


def test_q2_analytic_values():
    assert math.isclose(q2_analytic(2.0, 0.25), 4.0 / 9.0, rel_tol=1e-14)
    assert q2_analytic(3.7, 1.0) == 1.0


def test_analytic_domain_errors():
    with pytest.raises(ValueError):
        q1_analytic(-1.0, 0.5)
    with pytest.raises(ValueError):
        q2_analytic(1.0, 0.0)


@given(n=st.floats(0.0, 20.0), gamma_ch=st.floats(0.01, 3.0))
@settings(max_examples=150, deadline=None)
def test_pipeline_matches_closed_forms(n, gamma_ch):
    ch = LossChannel.from_gamma(gamma_ch)
    assert abs(q1(n, 1.0, ch) - q1_analytic(n, ch.eta)) < 1e-9
    assert abs(q2(n, 1.0, 1.0, ch) - q2_analytic(n, ch.eta)) < 1e-9


def test_pipeline_matches_closed_forms_on_figure_3_grid():
    # The rows of figure 3 (beta = 1, so qcb takes the pure-overlap branch).
    # The overlap determinant by LU keeps q2 within about 6e-14 of the closed
    # form; a cofactor expansion lost up to 8e-13 on this grid.
    for gamma_ch in (0.1, 0.3, 1.0):
        ch = LossChannel.from_gamma(gamma_ch)
        for n in np.linspace(0.0, 10.0, 501):
            n = float(n)
            assert math.isclose(q1(n, 1.0, ch), q1_analytic(n, ch.eta), rel_tol=2e-13), n
            assert math.isclose(q2(n, 1.0, 1.0, ch), q2_analytic(n, ch.eta), rel_tol=2e-13), n


@given(gamma=st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_q2_beta_one_ignores_gamma(gamma):
    # beta=1 leaves no thermal photons for gamma to split
    ch = LossChannel.from_eta(0.35)
    assert math.isclose(q2(2.0, 1.0, gamma, ch), q2(2.0, 1.0, 1.0, ch), rel_tol=1e-12)


def test_monotone_in_energy_and_transmissivity():
    etas = np.linspace(0.05, 0.95, 10)
    ns = np.linspace(0.5, 10.0, 12)
    for eta in etas:
        vals1 = [q1_analytic(n, eta) for n in ns]
        vals2 = [q2_analytic(n, eta) for n in ns]
        assert all(a > b for a, b in zip(vals1, vals1[1:]))
        assert all(a > b for a, b in zip(vals2, vals2[1:]))
    for n in ns:
        vals1 = [q1_analytic(n, eta) for eta in etas]
        vals2 = [q2_analytic(n, eta) for eta in etas]
        assert all(a < b for a, b in zip(vals1, vals1[1:]))
        assert all(a < b for a, b in zip(vals2, vals2[1:]))


def test_optimize_beta_single():
    ch = LossChannel.from_gamma(0.3)
    beta_star, q_star = optimize_beta(1.0, ch, modes=1)
    assert beta_star > 1.0 - 1e-6
    assert math.isclose(q_star, q1_analytic(1.0, ch.eta), rel_tol=1e-9)


def test_optimize_beta_two_mode():
    ch = LossChannel.from_gamma(0.3)
    beta_star, q_star = optimize_beta(1.0, ch, modes=2)
    assert beta_star > 1.0 - 1e-6
    assert math.isclose(q_star, q2_analytic(1.0, ch.eta), rel_tol=1e-9)


def test_optimize_beta_zero_energy():
    ch = LossChannel.from_gamma(1.0)
    _, q_star = optimize_beta(1e-12, ch, modes=1)
    assert math.isclose(q_star, 1.0, abs_tol=1e-9)


def test_critical_transmissivity_frozen():
    eta_c, gamma_c = critical_transmissivity()
    assert math.isclose(eta_c, ETA_C, rel_tol=1e-14)
    assert math.isclose(gamma_c, GAMMA_C, rel_tol=1e-14)
    assert 0.294 <= eta_c <= 0.298
    assert 1.21 <= gamma_c <= 1.23
    assert cubic_residual() < 1e-12


def test_threshold_below_critical_is_zero():
    assert threshold_energy(0.2) == 0.0
    assert threshold_energy(0.05) == 0.0


def test_threshold_at_critical_is_zero():
    assert threshold_energy(ETA_C) <= 1e-8


def test_threshold_at_035():
    n_th = threshold_energy(0.35)
    assert math.isclose(n_th, 0.23507970944, abs_tol=1e-6)
    # the crossing is genuine: Q1 < Q2 below it, Q1 > Q2 above it
    assert q1_analytic(n_th - 0.01, 0.35) < q2_analytic(n_th - 0.01, 0.35)
    assert q1_analytic(n_th + 0.01, 0.35) > q2_analytic(n_th + 0.01, 0.35)


def test_threshold_root_property():
    for eta in (0.32, 0.5, 0.75, 0.9):
        n_th = threshold_energy(eta)
        assert n_th > 0.0
        assert abs(q1_analytic(n_th, eta) - q2_analytic(n_th, eta)) < 1e-6


def test_threshold_monotone_in_eta():
    etas = np.linspace(ETA_C + 1e-4, 0.99, 40)
    vals = [threshold_energy(eta) for eta in etas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_threshold_divergence_guard():
    with pytest.raises(ThresholdSearchError):
        threshold_energy(0.9999)
    with pytest.raises(ValueError):
        threshold_energy(1.0)


def test_threshold_fit_coefficients():
    c1, c2, rms = threshold_fit_near_critical()
    assert 3.5 <= c1 <= 4.5
    assert 4.5 <= c2 <= 6.5
    assert rms < 1e-3


def test_delta_q_positive_at_gamma_one():
    ch = LossChannel.from_gamma(0.8)
    assert delta_q(2.0, 0.5, ch) > 0.0
    assert delta_q_gamma(2.0, 0.5, 1.0, ch) == pytest.approx(delta_q(2.0, 0.5, ch))


def test_sweep_deterministic():
    a = random_sweep(50, 1.0, seed=42)
    b = random_sweep(50, 1.0, seed=42)
    assert a == b
    c = random_sweep(50, 1.0, seed=43)
    assert a != c


def test_sweep_prefix_stability():
    # counter-based streams: the first k records do not depend on the total count
    long = random_sweep(30, 0.9, seed=7)
    short = random_sweep(10, 0.9, seed=7)
    assert long[:10] == short


def test_sweep_ranges_respected():
    ranges = SweepRanges(n_max=2.0, gamma_ch_max=0.5)
    for rec in random_sweep(200, 1.0, seed=11, ranges=ranges):
        assert 0.0 < rec.n <= 2.0
        assert 0.0 <= rec.beta <= 1.0
        assert 0.0 < rec.gamma_ch <= 0.5
        assert rec.gamma == 1.0


def test_sweep_gap_positive_at_optimal_split():
    records = random_sweep(100, 1.0, seed=123)
    assert all(rec.delta_q > 0.0 for rec in records)


def test_sweep_validation():
    with pytest.raises(ValueError):
        random_sweep(0, 1.0, seed=1)
    with pytest.raises(ValueError):
        random_sweep(10, 1.5, seed=1)
    with pytest.raises(ValueError):
        SweepRanges(n_max=-1.0)


def test_discriminate_report_fields():
    rep = discriminate(ProbeSpec(modes=2, n=1.0, beta=1.0), LossChannel.from_eta(0.5))
    assert rep.copies == 1
    assert math.isclose(rep.q, q2_analytic(1.0, 0.5), rel_tol=1e-9)
    assert rep.fidelity is not None  # beta=1 probes are pure


def test_q_functions_are_elementwise_over_rows():
    ns = np.array([0.0, 0.4, 2.0, 5.0])
    betas = np.array([[0.0], [0.3], [1.0]])
    ch = LossChannel.from_gamma(0.7)
    grid1, grid2 = q1(ns, betas, ch), q2(ns, betas, 0.6, ch)
    gaps = delta_q_gamma(ns, betas, 0.6, ch)
    assert grid1.shape == grid2.shape == gaps.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        n, beta = float(ns[j]), float(betas[i, 0])
        assert grid1[i, j] == q1(n, beta, ch)
        assert grid2[i, j] == q2(n, beta, 0.6, ch)
        assert gaps[i, j] == delta_q_gamma(n, beta, 0.6, ch)
    assert type(q1(1.0, 0.5, ch)) is float
    assert np.array_equal(delta_q(ns, 0.5, ch), delta_q_gamma(ns, 0.5, 1.0, ch))


def test_q_rows_take_one_channel_each():
    chs = [LossChannel.from_gamma(g) for g in (0.1, 0.9, 2.0)]
    ns, betas = np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.5, 0.9])
    gaps = delta_q_gamma(ns, betas, 0.999, chs)
    for k, ch in enumerate(chs):
        assert gaps[k] == delta_q_gamma(float(ns[k]), float(betas[k]), 0.999, ch)
    assert np.array_equal(q2(1.5, 0.5, 1.0, chs), [q2(1.5, 0.5, 1.0, ch) for ch in chs])


def test_sweep_records_equal_per_point_gaps():
    for rec in random_sweep(40, 0.8, seed=5):
        assert rec.delta_q == delta_q_gamma(rec.n, rec.beta, 0.8, LossChannel.from_gamma(rec.gamma_ch))


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_spec_energy_message_says_finite(bad):
    with pytest.raises(ValueError, match="finite float >= 0"):
        ProbeSpec(modes=2, n=bad, beta=0.5)


def test_spec_of_arrays_names_the_first_bad_row():
    spec = ProbeSpec(modes=2, n=np.array([1.0, 2.0]), beta=np.array([0.5, 0.25]), gamma=0.5)
    p = params_from_spec(spec)
    for k, (n, beta) in enumerate([(1.0, 0.5), (2.0, 0.25)]):
        assert p.row(k) == params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=0.5))
    with pytest.raises(ValueError, match=r"got 1\.5"):
        ProbeSpec(modes=1, n=np.ones(3), beta=np.array([0.5, 1.5, 2.0]))
    with pytest.raises(ValueError, match="got inf"):
        q1(np.array([1.0, math.inf, -1.0]), 0.5, LossChannel.from_eta(0.5))


def test_q2_takes_one_split_per_row():
    # splits stacked as rows give the bits of one scalar-split call per split
    draws = [(0.3, 0.0, 0.2), (1.7, 0.4, 1.1), (4.9, 0.95, 0.05), (2.5, 1.0, 1.9)]
    n, beta, damping = (np.array(col) for col in zip(*draws))
    chs = [LossChannel.from_gamma(g) for g in damping.tolist()]
    splits = (0.99, 0.5, 0.0)
    k = len(splits)
    stacked = q2(np.tile(n, k), np.tile(beta, k), np.repeat(splits, len(n)), chs * k)
    for g, rows in zip(splits, np.split(stacked, k)):
        assert np.array_equal(rows, q2(n, beta, g, chs))
    assert np.array_equal(q2(1.5, 0.5, np.array(splits), chs[0]), [q2(1.5, 0.5, g, chs[0]) for g in splits])


def test_spec_names_the_bad_split_of_an_array():
    with pytest.raises(ValueError, match=r"thermal split must be in \[0, 1\], got 1\.25"):
        ProbeSpec(modes=2, n=np.ones(3), beta=0.5, gamma=np.array([0.5, 1.25, -1.0]))
    with pytest.raises(ValueError, match="got nan"):
        q2(1.0, 0.5, np.array([0.2, math.nan]), LossChannel.from_eta(0.5))

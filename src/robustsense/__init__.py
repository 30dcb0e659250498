"""Robust eigenvalue-based spectrum sensing.

Scatter-matrix M-estimators (sample covariance, Tyler, multivariate-t ML,
generalized Gaussian ML), largest-eigenvalue test statistics, complex
elliptically symmetric noise samplers, and a reproducible Monte Carlo
harness with a CSV-emitting command line.
"""

__version__ = "0.1.0"

from .detectors import DetectorSpec
from .estimators import (
    FixedPointOptions,
    WeightFunction,
    m_estimate_batch,
)
from .montecarlo import (
    CdfCurve,
    ExclusionRateError,
    ExperimentResult,
    RocCurve,
    SimConfig,
    StatSample,
    calibrate_threshold,
    derive_seed,
    empirical_pfa_curve,
    roc_curve,
    run_experiment,
    threshold_grid,
)
from .sampling import (
    Hypothesis,
    NoiseModel,
    RngStream,
    gg_scale,
    sample_chunk,
    sample_trial,
)

__all__ = [
    "__version__",
    "CdfCurve",
    "DetectorSpec",
    "ExclusionRateError",
    "ExperimentResult",
    "FixedPointOptions",
    "Hypothesis",
    "NoiseModel",
    "RngStream",
    "RocCurve",
    "SimConfig",
    "StatSample",
    "WeightFunction",
    "calibrate_threshold",
    "derive_seed",
    "empirical_pfa_curve",
    "gg_scale",
    "m_estimate_batch",
    "roc_curve",
    "run_experiment",
    "sample_chunk",
    "sample_trial",
    "threshold_grid",
]

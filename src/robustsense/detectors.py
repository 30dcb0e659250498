"""Eigenvalue test statistics and the threshold decision rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import KINDS, is_hermitian
from .sampling import Hypothesis

STATISTICS = ("rlrt", "glrt")


@dataclass(frozen=True)
class DetectorSpec:
    """One test statistic paired with the scatter estimator feeding it.

    The largest-root test (rlrt) divides the top eigenvalue by the known
    noise power and therefore requires ``sigma2``; the likelihood-ratio form
    (glrt) normalizes by the average eigenvalue and must not carry one.
    """

    statistic: str
    estimator: str
    sigma2: float | None = None

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; expected one of {STATISTICS}")
        if self.estimator not in KINDS:
            raise ValueError(f"unknown estimator {self.estimator!r}; expected one of {KINDS}")
        if self.statistic == "rlrt":
            if self.sigma2 is None or not 0 < self.sigma2 < np.inf:
                raise ValueError(f"rlrt requires a positive finite sigma2, got {self.sigma2}")
        elif self.sigma2 is not None:
            raise ValueError("glrt is blind to the noise power; sigma2 must be None")

    @property
    def label(self) -> str:
        return f"{self.estimator}_{self.statistic}"

    def evaluate(self, lam_max, trace, p: int):
        """rlrt = lam_max / sigma2 or glrt = lam_max * p / trace, on scalars or stacks.

        The one definition of both statistics; rlrt ignores ``trace`` and ``p``.
        """
        if self.statistic == "rlrt":
            return lam_max / self.sigma2
        return lam_max * p / trace


def largest_eigenvalue(sigma: np.ndarray) -> float:
    """Top eigenvalue of a Hermitian matrix."""
    sigma = np.asarray(sigma)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("expected a square matrix")
    if not is_hermitian(sigma):
        raise ValueError("matrix is not Hermitian")
    return float(np.linalg.eigvalsh(sigma)[-1])


def rlrt(sigma_hat: np.ndarray, sigma2: float) -> float:
    """Largest-root statistic: top eigenvalue over the known noise power."""
    # the spec checks sigma2 > 0; the formula does not depend on its estimator
    spec = DetectorSpec("rlrt", "scm", sigma2)
    return spec.evaluate(largest_eigenvalue(sigma_hat), None, None)


def glrt(sigma_hat: np.ndarray) -> float:
    """Blind statistic: top eigenvalue over the average eigenvalue.

    Lies in [1, p] for positive definite input and is invariant to rescaling
    of the estimate, so no noise-power knowledge is needed.
    """
    sigma_hat = np.asarray(sigma_hat)
    lam = largest_eigenvalue(sigma_hat)
    trace = float(np.trace(sigma_hat).real)
    if trace <= 0:
        raise ValueError("trace must be positive")
    return DetectorSpec("glrt", "scm").evaluate(lam, trace, sigma_hat.shape[0])


def decide(value: float, threshold: float) -> Hypothesis:
    """Declare a signal present iff the statistic strictly exceeds the threshold."""
    return Hypothesis.H1 if value > threshold else Hypothesis.H0

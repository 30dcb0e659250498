"""Eigenvalue test statistics: the largest-root (rlrt) and blind (glrt) forms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import KINDS

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


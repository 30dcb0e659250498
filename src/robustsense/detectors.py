"""Eigenvalue test statistics: the largest-root (rlrt) and blind (glrt) forms."""

from __future__ import annotations

from dataclasses import dataclass

from .estimators import KINDS

STATISTICS = ("rlrt", "glrt")


@dataclass(frozen=True)
class DetectorSpec:
    """One test statistic paired with the scatter estimator feeding it.

    The largest-root test (rlrt) divides the top eigenvalue by the known
    noise power; the likelihood-ratio form (glrt) normalizes by the average
    eigenvalue and needs no noise power.
    """

    statistic: str
    estimator: str

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; expected one of {STATISTICS}")
        if self.estimator not in KINDS:
            raise ValueError(f"unknown estimator {self.estimator!r}; expected one of {KINDS}")

    @property
    def label(self) -> str:
        return f"{self.estimator}_{self.statistic}"

    def evaluate(self, lam_max, trace, p: int, sigma2: float):
        """rlrt = lam_max / sigma2 or glrt = lam_max * p / trace, on scalars or stacks.

        The one definition of both statistics; rlrt ignores ``trace`` and
        ``p``, glrt ignores the noise power ``sigma2``.
        """
        if self.statistic == "rlrt":
            return lam_max / sigma2
        return lam_max * p / trace

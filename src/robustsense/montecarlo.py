"""Monte Carlo harness: trial generation under both hypotheses, empirical
false-alarm curves, threshold calibration and ROC curves.

Trials are independent. Trial ``t`` always draws from the stream
``(master_seed, t)``, and trials are processed in fixed-size chunks, so the
aggregate result is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover
    threadpool_limits = None

from .detectors import DetectorSpec
from .estimators import FixedPointOptions, WeightFunction, m_estimate_batch
from .sampling import (
    ChannelVector,
    Hypothesis,
    NoiseModel,
    RngStream,
    make_channel,
    sample_hypothesis,
)

_CHUNK = 4096
_MAX_EXCLUSION_RATE = 1e-3
DEFAULT_ROC_RESOLUTION = 512

# Pool workers can pin BLAS to one thread only through threadpoolctl; without
# it they keep the BLAS default and may oversubscribe the cores.
WORKER_BLAS_PINNED = threadpool_limits is not None


class ExclusionRateError(RuntimeError):
    """Raised when more than 0.1% of trials lose a usable estimate."""


def derive_seed(master_seed: int, salt: int) -> int:
    """Derive an independent 64-bit seed from a master seed and a salt."""
    seq = np.random.SeedSequence((master_seed, 0xA5, salt))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimConfig:
    """Geometry, noise model, detector list and seed of one simulation."""

    p: int
    n: int
    trials: int
    noise: NoiseModel
    detectors: tuple[DetectorSpec, ...]
    master_seed: int
    rho: float = 0.0
    student_t_nu: float = 3.0  # weight parameter for student_t detectors
    options: FixedPointOptions = FixedPointOptions()

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if not self.detectors:
            raise ValueError("at least one detector is required")
        robust = {s.estimator for s in self.detectors} - {"scm"}
        if robust and self.n <= self.p:
            raise ValueError(
                f"estimators {sorted(robust)} require n > p (got n={self.n}, p={self.p})"
            )
        if any(s.estimator == "gg_ml" for s in self.detectors) and self.noise.family != "gg":
            raise ValueError("the gg_ml estimator needs the true gg shape; noise family must be gg")

    def estimator_kinds(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for spec in self.detectors:
            seen.setdefault(spec.estimator, None)
        return tuple(seen)

    def weight_for(self, kind: str) -> WeightFunction:
        if kind == "scm":
            return WeightFunction.scm(self.p)
        if kind == "tyler":
            return WeightFunction.tyler(self.p)
        if kind == "student_t":
            return WeightFunction.student_t(self.p, self.student_t_nu)
        return WeightFunction.gg_ml(self.p, self.noise.shape_s)


@dataclass(frozen=True, eq=False)
class StatSample:
    """Sorted statistic values from one detector under one hypothesis."""

    values: np.ndarray
    spec: DetectorSpec
    hypothesis: Hypothesis
    n_excluded: int = 0


@dataclass(frozen=True, eq=False)
class CdfCurve:
    """Empirical P(T > t) and P(T <= t) over a threshold grid."""

    thresholds: np.ndarray
    pfa: np.ndarray
    cdf: np.ndarray


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Operating points (pfa, pod), sorted by increasing pfa."""

    pfa: np.ndarray
    pod: np.ndarray
    spec: DetectorSpec


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Everything one simulation produced, reproducible from its config."""

    config: SimConfig
    h0: dict[DetectorSpec, StatSample]
    h1: dict[DetectorSpec, StatSample] | None
    iteration_stats: dict[str, dict[str, float]]
    wall_clock: float


def _single_threaded_blas():
    # worker processes must not oversubscribe the cores with BLAS threads
    if WORKER_BLAS_PINNED:
        threadpool_limits(limits=1)


def _chunk_stats(config: SimConfig, hypothesis: Hypothesis, lo: int):
    """Sample and evaluate trials [lo, lo + chunk); self-contained per chunk."""
    hi = min(lo + _CHUNK, config.trials)
    p, n = config.p, config.n
    x = np.empty((hi - lo, p, n), dtype=np.complex128)
    for j, t in enumerate(range(lo, hi)):
        gen = RngStream(config.master_seed, t).generator()
        if hypothesis is Hypothesis.H1:
            channel = make_channel(p, config.rho, config.noise.sigma2, gen)
        else:
            channel = ChannelVector.zero(p, config.noise.sigma2)
        x[j] = sample_hypothesis(config.noise, channel, hypothesis, n, gen)
    out = {}
    for kind in config.estimator_kinds():
        res = m_estimate_batch(x, config.weight_for(kind), config.options)
        evals = np.linalg.eigvalsh(res.estimates)
        out[kind] = (
            evals[:, -1],
            np.einsum("kii->k", res.estimates).real,
            res.ok & res.converged,
            res.iterations,
        )
    return lo, out


def _run_chunks(config: SimConfig, hypothesis: Hypothesis, threads: int | None):
    """Per-trial sampling and batched estimation over fixed-size chunks.

    Returns per-estimator-kind arrays (lambda_max, trace, usable) indexed by
    trial, plus raw iteration counts.  Chunk boundaries are fixed, every trial
    draws from its own stream, and chunks are merged by index, so the worker
    count cannot change the result.
    """
    kinds = config.estimator_kinds()
    trials = config.trials

    lam = {kind: np.empty(trials) for kind in kinds}
    tr = {kind: np.empty(trials) for kind in kinds}
    usable = {kind: np.zeros(trials, dtype=bool) for kind in kinds}
    iters = {kind: np.zeros(trials, dtype=np.int64) for kind in kinds}

    starts = range(0, trials, _CHUNK)
    if threads is None or threads <= 1 or len(starts) <= 1:
        results = (_chunk_stats(config, hypothesis, lo) for lo in starts)
        pool = None
    else:
        pool = ProcessPoolExecutor(max_workers=threads, initializer=_single_threaded_blas)
        results = pool.map(_chunk_stats, repeat(config), repeat(hypothesis), starts)
    try:
        for lo, chunk in results:
            hi = min(lo + _CHUNK, trials)
            for kind in kinds:
                lam[kind][lo:hi], tr[kind][lo:hi], usable[kind][lo:hi], iters[kind][lo:hi] = chunk[kind]
    finally:
        if pool is not None:
            pool.shutdown()
    return lam, tr, usable, iters


def _collect_samples(config, hypothesis, lam, tr, usable):
    samples: dict[DetectorSpec, StatSample] = {}
    for spec in config.detectors:
        kind = spec.estimator
        mask = usable[kind]
        excluded = config.trials - int(mask.sum())
        if excluded > _MAX_EXCLUSION_RATE * config.trials:
            raise ExclusionRateError(
                f"{spec.label}: {excluded} of {config.trials} trials lost to "
                f"non-convergence (limit {_MAX_EXCLUSION_RATE:.1%})"
            )
        if spec.statistic == "rlrt":
            values = lam[kind][mask] / spec.sigma2
        else:
            values = lam[kind][mask] * config.p / tr[kind][mask]
        samples[spec] = StatSample(
            values=np.sort(values),
            spec=spec,
            hypothesis=hypothesis,
            n_excluded=excluded,
        )
    return samples


def run_trials(
    config: SimConfig,
    hypothesis: Hypothesis,
    threads: int | None = None,
) -> dict[DetectorSpec, StatSample]:
    """Generate the statistic sample of every configured detector.

    Each trial draws a fresh channel (under H1) and sample matrix from the
    stream ``(master_seed, trial_index)``, computes each requested estimator
    once, and feeds every statistic sharing it.  Trials whose estimator did
    not converge are dropped; more than 0.1% drops abort the run.
    """
    lam, tr, usable, _ = _run_chunks(config, hypothesis, threads)
    return _collect_samples(config, hypothesis, lam, tr, usable)


def run_experiment(
    config: SimConfig,
    with_h1: bool,
    threads: int | None = None,
) -> ExperimentResult:
    """Run H0 (and optionally H1) trials and gather iteration diagnostics.

    ``iteration_stats`` holds, per estimator kind, the mean, max and 50th,
    90th and 99th percentiles of the iteration counts of the usable trials,
    pooled over both hypotheses.
    """
    t0 = time.perf_counter()
    counts: dict[str, list[np.ndarray]] = {kind: [] for kind in config.estimator_kinds()}
    samples = {}
    for hypothesis in (Hypothesis.H0, Hypothesis.H1) if with_h1 else (Hypothesis.H0,):
        lam, tr, usable, iters = _run_chunks(config, hypothesis, threads)
        samples[hypothesis] = _collect_samples(config, hypothesis, lam, tr, usable)
        for kind, chunks in counts.items():
            chunks.append(iters[kind][usable[kind]])
    stats = {}
    for kind, chunks in counts.items():
        pooled = np.concatenate(chunks)
        p50, p90, p99 = np.percentile(pooled, (50, 90, 99))
        stats[kind] = {"mean": float(pooled.mean()), "max": float(pooled.max()),
                       "p50": float(p50), "p90": float(p90), "p99": float(p99)}
    return ExperimentResult(
        config=config,
        h0=samples[Hypothesis.H0],
        h1=samples.get(Hypothesis.H1),
        iteration_stats=stats,
        wall_clock=time.perf_counter() - t0,
    )


def threshold_grid(sample: StatSample, resolution: int = DEFAULT_ROC_RESOLUTION) -> np.ndarray:
    """Rank-uniform downsampling of the sample support, ascending."""
    values = sample.values
    k = min(int(resolution), values.size)
    ranks = np.unique(np.round(np.linspace(0, values.size - 1, k)).astype(np.int64))
    return values[ranks]


def empirical_pfa_curve(sample: StatSample, grid: np.ndarray) -> CdfCurve:
    """Empirical exceedance P(T > t) and CDF P(T <= t) on a threshold grid."""
    grid = np.asarray(grid, dtype=np.float64)
    n = sample.values.size
    below_or_at = np.searchsorted(sample.values, grid, side="right")
    return CdfCurve(
        thresholds=grid,
        pfa=(n - below_or_at) / n,
        cdf=below_or_at / n,
    )


def calibrate_threshold(sample: StatSample, target_pfa: float) -> float:
    """Order-statistic threshold guaranteeing empirical P(T > t) <= target.

    Returns the k-th smallest H0 value with k = ceil((1 - target) * N).
    Warns when N cannot resolve the requested quantile in either tail.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie strictly between 0 and 1")
    values = sample.values
    n = values.size
    if n * min(target_pfa, 1.0 - target_pfa) < 1.0:
        warnings.warn(
            f"quantile unresolvable: {n} trials cannot resolve target_pfa={target_pfa}",
            RuntimeWarning,
        )
    # floor with a tiny nudge so exact-decimal targets land on the intended rank
    k = n - math.floor(target_pfa * n + 1e-9)
    k = min(max(k, 1), n)
    return float(values[k - 1])


def roc_curve(
    h0: StatSample,
    h1: StatSample,
    resolution: int = DEFAULT_ROC_RESOLUTION,
) -> RocCurve:
    """Sweep thresholds over the merged support of both samples.

    Thresholds are downsampled uniformly in rank; one extra threshold below
    the merged minimum pins the (1, 1) endpoint and the merged maximum pins
    pfa = 0.
    """
    if h0.spec != h1.spec:
        raise ValueError("H0 and H1 samples come from different detectors")
    merged = np.sort(np.concatenate([h0.values, h1.values]))
    k = min(int(resolution), merged.size)
    ranks = np.unique(np.round(np.linspace(0, merged.size - 1, k)).astype(np.int64))
    support = merged[ranks]
    thresholds = np.concatenate([support[::-1], [np.nextafter(support[0], -np.inf)]])
    n0, n1 = h0.values.size, h1.values.size
    pfa = (n0 - np.searchsorted(h0.values, thresholds, side="right")) / n0
    pod = (n1 - np.searchsorted(h1.values, thresholds, side="right")) / n1
    return RocCurve(pfa=pfa, pod=pod, spec=h0.spec)


def pod_at_pfa(curve: RocCurve, pfa_target: float) -> float:
    """Linear interpolation of the detection probability at a false-alarm level."""
    if not 0.0 <= pfa_target <= 1.0:
        raise ValueError("pfa_target must lie in [0, 1]")
    # keep the highest pod among duplicated pfa values (step-function plateaus)
    rev_pfa = curve.pfa[::-1]
    uniq, first = np.unique(rev_pfa, return_index=True)
    pods = curve.pod[::-1][first]
    return float(np.interp(pfa_target, uniq, pods))


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov distance sup_t |F_a(t) - F_b(t)|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(ca - cb).max())

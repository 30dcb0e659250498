"""Monte Carlo harness: trial generation under both hypotheses, empirical
false-alarm curves, threshold calibration and ROC curves.

Trials are independent. Trial ``t`` always draws from the stream
``(master_seed, t)`` (the stream contract in the README), and trials are
sampled and estimated in chunks, so the aggregate result is bit-identical
for any worker count and any chunk size.

A chunk's size is set by bytes: it takes as many trials as fit its complex
(trials, p, n) sample stack, 16 p n bytes per trial, in ``_CHUNK_BYTES`` =
8.192 MB, at least 1 and at most ``_MAX_CHUNK`` = 4096.  That is 4096
trials at (p, n) = (5, 10) (the cap; the budget would give 10240), 2048 at
(5, 50) and 32 at (40, 400).  Inside a chunk the sampler and the estimator
engine bound their own pieces and blocks by bytes as well (see
``sample_chunk`` and ``robustsense.estimators``).

``run_experiments`` runs all simulations of one call, such as the noise
families of one CLI command, on at most one worker pool.  It submits every
chunk before it collects any, so workers never wait for the parent between
simulations.  The parent holds finished chunk records, 26 bytes per trial
per estimator kind (``_TRIAL``), until it reaches their simulation.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .detectors import DetectorSpec
from .estimators import KINDS, WeightFunction, m_estimate_batch
from .sampling import Hypothesis, NoiseModel, _check_geometry, _integer, sample_chunk

# bytes of a chunk's complex (trials, p, n) sample stack (2048 trials at
# p=5, n=50), and the most trials a chunk takes.  Smaller chunks cost page
# faults: glibc trims and re-grows the heap every chunk, and 1024-trial
# chunks took a fig4 run from about 19k to 78k minor faults.  The cap
# keeps fig1's two workers busy: uncapped, each family is one chunk, and
# 8192-trial fig1 runs on a 2-core VM took 1.49 s, not 1.14 s (medians of 6).
_CHUNK_BYTES = 8_192_000
_MAX_CHUNK = 4096
_MAX_EXCLUSION_RATE = 1e-3
_RESOLUTION = 512  # most thresholds a curve keeps

# one trial's outcome for one estimator kind (fields: see run_experiment)
_TRIAL = np.dtype([("lam", np.float64), ("trace", np.float64), ("iterations", np.int64),
                   ("ok", np.bool_), ("converged", np.bool_)])


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

    def __post_init__(self):
        for name in ("p", "n", "trials", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        _check_geometry(self.p, self.n, self.rho)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if not self.detectors:
            raise ValueError("at least one detector is required")
        robust = {s.estimator for s in self.detectors} - {"scm"}
        if robust and self.n <= self.p:
            raise ValueError(
                f"estimators {sorted(robust)} require n > p (got n={self.n}, p={self.p})"
            )
        for kind in self.estimator_kinds():
            # a bad weight parameter (gg_ml without gg noise's shape
            # included) fails here, not in the first chunk
            self.weight_for(kind)

    def estimator_kinds(self) -> tuple[str, ...]:
        """The configured kinds in ``KINDS`` order, warm-start sources first."""
        return tuple(k for k in KINDS if k in {spec.estimator for spec in self.detectors})

    def weight_for(self, kind: str) -> WeightFunction:
        return WeightFunction(kind, nu=self.student_t_nu, shape_s=self.noise.shape_s)


@dataclass(frozen=True, eq=False)
class StatSample:
    """Sorted statistic values from one detector under one hypothesis."""

    values: np.ndarray
    spec: DetectorSpec
    n_excluded: int = 0

    def __post_init__(self):  # the curves read order statistics off the values
        if self.values.size == 0 or (self.values[1:] < self.values[:-1]).any():
            raise ValueError(f"{self.spec.label}: a sample needs at least one value, sorted ascending")


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


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Everything one simulation produced, reproducible from its config."""

    h0: dict[DetectorSpec, StatSample]
    h1: dict[DetectorSpec, StatSample] | None
    iteration_stats: dict[str, dict[str, float]]


def _usable(trials: np.ndarray) -> np.ndarray:
    return trials["ok"] & trials["converged"]


def _chunk_trials(config: SimConfig) -> int:
    """Trials per chunk: as many as fit the sample stack in ``_CHUNK_BYTES``,
    at least 1 and at most ``_MAX_CHUNK``."""
    return max(1, min(_MAX_CHUNK, _CHUNK_BYTES // (16 * config.p * config.n)))


def _chunk_stats(config: SimConfig, hypothesis: Hypothesis, lo: int):
    """Sample and evaluate trials [lo, lo + chunk); self-contained per chunk.
    One ``_TRIAL`` record array per kind; ``_run_chunks`` places them at
    ``lo``, since chunk results arrive in task order."""
    hi = min(lo + _chunk_trials(config), config.trials)
    x = sample_chunk(config.noise, config.p, config.n, config.rho, hypothesis,
                     config.master_seed, lo, hi)
    out, estimates = {}, {}
    for weight in map(config.weight_for, config.estimator_kinds()):
        initial = None
        if weight.warm_start in estimates:
            # each member starts from its own usable source estimate, else the identity
            usable = _usable(out[weight.warm_start])[:, None, None]
            initial = np.where(usable, estimates[weight.warm_start], np.eye(config.p))
        res = m_estimate_batch(x, weight, initial=initial)
        estimates[weight.kind] = res.estimates
        out[weight.kind] = np.rec.fromarrays(
            (res.eigenvalues[:, -1], np.einsum("kii->k", res.estimates).real,
             res.iterations, res.ok, res.converged), dtype=_TRIAL)
    return out


def _chunk_starts(config: SimConfig) -> range:
    """First trial of each chunk of one (config, hypothesis) run."""
    return range(0, config.trials, _chunk_trials(config))


def _run_chunks(config: SimConfig, hypothesis: Hypothesis, results=None):
    """One record array of ``_TRIAL`` per estimator kind, indexed by trial,
    merged from the chunk results of ``_chunk_stats``.

    ``results`` yields the chunks a worker pool computed; without it the
    chunks run here, one after another.  Both yield in task order
    (``Executor.map`` does too), so result k is the chunk that starts at
    ``_chunk_starts(config)[k]``.  Every trial draws from its own stream and
    chunks are merged by index, so neither the worker count nor the chunk
    size can change the result.
    """
    records = {kind: np.empty(config.trials, _TRIAL) for kind in config.estimator_kinds()}
    starts = _chunk_starts(config)
    if results is None:
        results = (_chunk_stats(config, hypothesis, lo) for lo in starts)
    for lo, chunk in zip(starts, results, strict=True):
        for kind, trials in chunk.items():
            records[kind][lo:lo + trials.size] = trials
    return records


def _collect_samples(config: SimConfig, hypothesis: Hypothesis,
                     trials: dict[str, np.ndarray]) -> dict[DetectorSpec, StatSample]:
    """Each detector's sorted statistic over its kind's usable trials.
    ``hypothesis`` is not read here; the benchmark's tracer tags spans with it."""
    samples: dict[DetectorSpec, StatSample] = {}
    for spec in config.detectors:
        rec = trials[spec.estimator]
        usable = rec[_usable(rec)]
        excluded = config.trials - usable.size
        if excluded > _MAX_EXCLUSION_RATE * config.trials:
            singular = int(np.count_nonzero(~rec["ok"]))  # the rest are ok, not converged
            raise ExclusionRateError(
                f"{spec.label}: {excluded} of {config.trials} trials have no usable estimate "
                f"({singular} singular, {excluded - singular} hit max_iterations; "
                f"limit {_MAX_EXCLUSION_RATE:.1%})")
        values = spec.evaluate(usable["lam"], usable["trace"], config.p, config.noise.sigma2)
        samples[spec] = StatSample(values=np.sort(values), spec=spec, n_excluded=excluded)
    return samples


def _experiment(config: SimConfig, hypotheses, pending) -> ExperimentResult:
    """One simulation's result from its runs' chunk results (``None``: run
    the chunks here), one per hypothesis.  Each run's records are kept and
    pooled per kind for ``iteration_stats``."""
    samples, runs = {}, []
    for hypothesis, results in zip(hypotheses, pending):
        runs.append(_run_chunks(config, hypothesis, results))
        samples[hypothesis] = _collect_samples(config, hypothesis, runs[-1])
    stats = {}
    for kind in config.estimator_kinds():
        rec = np.concatenate([trials[kind] for trials in runs])
        counts = rec["iterations"][_usable(rec)]
        p50, p90, p99 = np.percentile(counts, (50, 90, 99))
        stats[kind] = {"mean": float(counts.mean()), "max": float(counts.max()),
                       "p50": float(p50), "p90": float(p90), "p99": float(p99),
                       "singular": int(np.count_nonzero(~rec["ok"])),
                       "max_iterations": int(np.count_nonzero(rec["ok"] & ~rec["converged"]))}
    return ExperimentResult(h0=samples[Hypothesis.H0], h1=samples.get(Hypothesis.H1),
                            iteration_stats=stats)


def run_experiments(configs, with_h1: bool, threads: int = 1):
    """Run several simulations on at most one worker pool and yield each
    one's ``ExperimentResult``, in the order of ``configs``.

    The pool starts ``min(threads, chunks of the whole call)`` workers, and
    every chunk of every simulation is submitted before any result is
    collected, so workers go from one simulation's chunks straight to the
    next while the caller consumes the results already yielded.  Until the
    parent reaches a simulation it holds that simulation's finished chunk
    records (their size: see the module docstring).  With one worker, or
    one chunk, nothing is forked and each simulation runs when its result
    is asked for.  A failed simulation, or closing the generator
    (``contextlib.closing`` where a caller may stop early), cancels the
    chunks not yet started and shuts the pool down.  See ``run_experiment``
    for what a result holds and for ``threads``.
    """
    threads = _integer("threads", threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    configs = tuple(configs)
    hypotheses = (Hypothesis.H0, Hypothesis.H1) if with_h1 else (Hypothesis.H0,)
    workers = min(threads, len(hypotheses) * sum(len(_chunk_starts(c)) for c in configs))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # Executor.map submits all of a run's chunks at once
        pending = [[None if pool is None else
                    pool.map(_chunk_stats, repeat(config), repeat(hyp), _chunk_starts(config))
                    for hyp in hypotheses] for config in configs]
        for config, results in zip(configs, pending):
            yield _experiment(config, hypotheses, results)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_experiment(
    config: SimConfig,
    with_h1: bool,
    threads: int = 1,
) -> ExperimentResult:
    """Run H0 (and optionally H1) trials: every configured detector's
    statistic sample under each hypothesis, plus iteration diagnostics.

    Each trial draws a fresh channel (under H1) and sample matrix from the
    stream ``(master_seed, trial_index)`` and computes each requested
    estimator once, feeding every statistic that shares it.  Every trial
    leaves one record per estimator kind: the estimate's largest eigenvalue
    and trace, its iteration count (map evaluations), ``ok`` (by
    ``m_estimate_batch``'s rule: no all-zero snapshot column, singular
    iterate or unusable step, and a passed exit vetting) and ``converged``.
    A trial is *usable* for a kind when it is both ok and converged; only
    usable trials feed the statistics, and more than 0.1% unusable trials
    raise ``ExclusionRateError``, which names both counts below.
    ``iteration_stats`` holds, per kind, the mean, max and 50th, 90th and
    99th percentiles of the usable trials' iteration counts, and why the
    other trials were excluded: ``singular`` (not ok) and ``max_iterations``
    (ok, but no convergence within the iteration budget), all pooled over
    both hypotheses.  A kind with a warm start (``WeightFunction.warm_start``,
    gg_ml from tyler) counts its iterations from the other kind's estimate
    when the run has that kind.  ``threads`` caps the worker processes; it
    must be an integer of at least 1, and it never changes the result.  This
    is ``run_experiments`` on one config, so the H0 and H1 chunks share one
    pool; see there for the pool's behaviour.
    """
    [result] = run_experiments((config,), with_h1, threads)
    return result


def _rank_grid(values: np.ndarray) -> np.ndarray:
    """At most ``_RESOLUTION`` of the sorted ``values``, uniform in rank, ascending."""
    k = min(_RESOLUTION, values.size)
    return values[np.unique(np.round(np.linspace(0, values.size - 1, k)).astype(np.int64))]


def threshold_grid(sample: StatSample) -> np.ndarray:
    """Rank-uniform downsampling of the sample support, ascending."""
    return _rank_grid(sample.values)


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
    k = max(n - math.floor(target_pfa * n + 1e-9), 1)
    return float(values[k - 1])


def roc_curve(h0: StatSample, h1: StatSample) -> RocCurve:
    """Sweep thresholds over the merged support of both samples.

    Thresholds are downsampled uniformly in rank; one extra threshold below
    the merged minimum pins the (1, 1) endpoint and the merged maximum pins
    pfa = 0.
    """
    if h0.spec != h1.spec:
        raise ValueError("H0 and H1 samples come from different detectors")
    support = _rank_grid(np.sort(np.concatenate([h0.values, h1.values])))
    thresholds = np.concatenate([support[::-1], [np.nextafter(support[0], -np.inf)]])
    return RocCurve(pfa=empirical_pfa_curve(h0, thresholds).pfa,
                    pod=empirical_pfa_curve(h1, thresholds).pfa)

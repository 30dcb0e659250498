"""Harness contracts: determinism, curve construction, calibration, exclusions."""

import math

import numpy as np
import pytest

from robustsense import (
    DetectorSpec,
    ExclusionRateError,
    FixedPointOptions,
    NoiseModel,
    SimConfig,
    StatSample,
    calibrate_threshold,
    derive_seed,
    empirical_pfa_curve,
    ks_distance,
    pod_at_pfa,
    roc_curve,
    run_experiment,
    run_trials,
    threshold_grid,
)
from robustsense.sampling import Hypothesis

SIG2 = 1.0
SCM_R = DetectorSpec("rlrt", "scm", SIG2)
SCM_G = DetectorSpec("glrt", "scm")
TY_R = DetectorSpec("rlrt", "tyler", SIG2)
TY_G = DetectorSpec("glrt", "tyler")


def small_config(trials=500, noise=None, detectors=(SCM_G, TY_G), seed=42, rho=0.0, n=8, p=3):
    return SimConfig(p=p, n=n, trials=trials, noise=noise or NoiseModel.gaussian(),
                     detectors=tuple(detectors), master_seed=seed, rho=rho)


def h0_sample(values, spec=SCM_G):
    return StatSample(values=np.sort(np.asarray(values, dtype=float)), spec=spec,
                      hypothesis=Hypothesis.H0)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(rho=-1.0)
    with pytest.raises(ValueError):
        small_config(detectors=())
    with pytest.raises(ValueError, match="n > p"):
        small_config(n=3, p=3, detectors=(TY_G,))
    with pytest.raises(ValueError, match="gg"):
        small_config(detectors=(DetectorSpec("glrt", "gg_ml"),))
    # scm-only configs may have n <= p
    assert small_config(n=2, p=3, detectors=(SCM_G,)).n == 2


def test_derive_seed_is_deterministic_and_salted():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(8, 0) != derive_seed(7, 0)


# ---------------------------------------------------------------------------
# trial generation
# ---------------------------------------------------------------------------

def test_single_trial_produces_one_value_per_detector():
    out = run_trials(small_config(trials=1, detectors=(SCM_R, SCM_G, TY_R, TY_G)),
                     Hypothesis.H0)
    assert len(out) == 4
    assert all(s.values.shape == (1,) for s in out.values())


def test_worker_count_does_not_change_results():
    cfg = small_config(trials=9000, detectors=(SCM_G, TY_G))
    a = run_trials(cfg, Hypothesis.H0, threads=1)
    b = run_trials(cfg, Hypothesis.H0, threads=3)
    for spec in a:
        assert np.array_equal(a[spec].values, b[spec].values)


def test_shared_estimator_equals_isolated_computation():
    cfg_both = small_config(trials=300, detectors=(TY_R, TY_G))
    cfg_single = small_config(trials=300, detectors=(TY_G,))
    both = run_trials(cfg_both, Hypothesis.H0)
    single = run_trials(cfg_single, Hypothesis.H0)
    assert np.array_equal(both[TY_G].values, single[TY_G].values)


def test_values_are_sorted_ascending():
    out = run_trials(small_config(trials=400), Hypothesis.H0)
    for s in out.values():
        assert np.all(np.diff(s.values) >= 0)


def test_h1_shifts_statistics_up():
    cfg = small_config(trials=400, rho=4.0, detectors=(SCM_G,))
    h0 = run_trials(cfg, Hypothesis.H0)[SCM_G].values
    h1 = run_trials(cfg, Hypothesis.H1)[SCM_G].values
    assert np.median(h1) > np.median(h0)


def test_exclusion_rate_guard_trips():
    cfg = SimConfig(p=3, n=8, trials=64, noise=NoiseModel.gaussian(),
                    detectors=(TY_G,), master_seed=1,
                    options=FixedPointOptions(max_iterations=1))
    with pytest.raises(ExclusionRateError):
        run_trials(cfg, Hypothesis.H0)


def test_scm_depends_on_family_tyler_does_not():
    trials = 2000
    gauss = run_trials(small_config(trials=trials, seed=50), Hypothesis.H0)
    heavy = run_trials(small_config(trials=trials, seed=51,
                                    noise=NoiseModel.generalized_gaussian(0.1)),
                       Hypothesis.H0)
    assert ks_distance(gauss[SCM_G].values, heavy[SCM_G].values) > 0.2
    assert ks_distance(gauss[TY_G].values, heavy[TY_G].values) < 0.06


def test_run_experiment_diagnostics():
    cfg = small_config(trials=300, rho=1.0, detectors=(SCM_G, TY_G))
    res = run_experiment(cfg, with_h1=True, threads=1)
    assert res.wall_clock > 0
    assert set(res.iteration_stats) == {"scm", "tyler"}
    assert res.iteration_stats["scm"] == dict.fromkeys(("mean", "max", "p50", "p90", "p99"), 1.0)
    ty = res.iteration_stats["tyler"]
    assert 1 <= ty["p50"] <= ty["p90"] <= ty["p99"] <= ty["max"]
    assert 1 <= ty["mean"] <= ty["max"]
    assert res.h1 is not None and len(res.h1) == 2


# ---------------------------------------------------------------------------
# empirical exceedance curves
# ---------------------------------------------------------------------------

def test_pfa_curve_simple_counts():
    sample = h0_sample([1.0, 2.0, 3.0, 4.0])
    curve = empirical_pfa_curve(sample, np.array([2.5]))
    assert curve.pfa[0] == 0.5
    assert curve.cdf[0] == 0.5


def test_pfa_curve_endpoints():
    sample = h0_sample([1.0, 2.0, 3.0])
    curve = empirical_pfa_curve(sample, np.array([0.0, 5.0]))
    assert curve.pfa[0] == 1.0 and curve.pfa[-1] == 0.0
    assert curve.cdf[0] == 0.0 and curve.cdf[-1] == 1.0


def test_pfa_curve_matches_naive_counting():
    g = np.random.default_rng(3)
    values = np.sort(g.standard_normal(500))
    grid = np.sort(g.standard_normal(64))
    sample = h0_sample(values)
    curve = empirical_pfa_curve(sample, grid)
    naive = np.array([np.sum(values > t) / values.size for t in grid])
    assert np.array_equal(curve.pfa, naive)
    assert np.all(np.diff(curve.pfa) <= 0)


def test_threshold_grid_spans_support():
    sample = h0_sample(np.linspace(0, 1, 2000))
    grid = threshold_grid(sample, resolution=128)
    assert grid[0] == sample.values[0]
    assert grid[-1] == sample.values[-1]
    assert grid.size == 128


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------

def test_calibrate_order_statistic_rule():
    sample = h0_sample(np.arange(1.0, 101.0))
    t = calibrate_threshold(sample, 0.05)
    assert t == 95.0
    assert np.sum(sample.values > t) / 100 == 0.05


def test_calibrate_two_values():
    t = calibrate_threshold(h0_sample([1.0, 2.0]), 0.5)
    assert t == 1.0


def test_calibrate_guarantees_pfa_at_most_target():
    g = np.random.default_rng(4)
    sample = h0_sample(g.standard_normal(997))
    for alpha in (0.01, 0.1, 0.3, 0.77):
        t = calibrate_threshold(sample, alpha)
        assert np.sum(sample.values > t) / sample.values.size <= alpha


def test_calibrate_warns_on_unresolvable_quantile():
    sample = h0_sample(np.arange(1000.0))
    with pytest.warns(RuntimeWarning, match="unresolvable"):
        calibrate_threshold(sample, 0.999999)
    with pytest.warns(RuntimeWarning, match="unresolvable"):
        calibrate_threshold(sample, 1e-6)


def test_calibrate_rejects_bad_target():
    sample = h0_sample([1.0, 2.0])
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            calibrate_threshold(sample, alpha)


def test_calibrated_threshold_validates_on_holdout():
    alpha, trials = 0.1, 20_000
    cfg_a = small_config(trials=trials, seed=60, detectors=(SCM_G,))
    cfg_b = small_config(trials=trials, seed=61, detectors=(SCM_G,))
    t = calibrate_threshold(run_trials(cfg_a, Hypothesis.H0)[SCM_G], alpha)
    fresh = run_trials(cfg_b, Hypothesis.H0)[SCM_G].values
    achieved = np.sum(fresh > t) / fresh.size
    assert abs(achieved - alpha) < 3.0 * math.sqrt(alpha * (1 - alpha) / trials)


# ---------------------------------------------------------------------------
# ROC curves
# ---------------------------------------------------------------------------

def test_roc_identical_samples_lie_on_diagonal():
    values = np.random.default_rng(5).standard_normal(800)
    h0 = h0_sample(values)
    h1 = StatSample(values=np.sort(values), spec=SCM_G, hypothesis=Hypothesis.H1)
    curve = roc_curve(h0, h1)
    assert np.array_equal(curve.pfa, curve.pod)


def test_roc_perfect_separation():
    values = np.sort(np.random.default_rng(6).standard_normal(500))
    h0 = h0_sample(values)
    h1 = StatSample(values=values + 10.0, spec=SCM_G, hypothesis=Hypothesis.H1)
    curve = roc_curve(h0, h1)
    # full detection is achievable at every false-alarm level below one
    assert np.all(curve.pod[(curve.pfa > 0.0) & (curve.pfa < 1.0)] == 1.0)
    for target in (0.0, 0.1, 0.5, 0.99):
        assert pod_at_pfa(curve, target) == 1.0


def test_roc_endpoints_and_monotonicity():
    g = np.random.default_rng(7)
    h0 = h0_sample(g.standard_normal(600))
    h1 = StatSample(values=np.sort(g.standard_normal(600) + 0.7), spec=SCM_G,
                    hypothesis=Hypothesis.H1)
    curve = roc_curve(h0, h1)
    assert curve.pfa[0] == 0.0
    assert curve.pfa[-1] == 1.0 and curve.pod[-1] == 1.0
    assert np.all(np.diff(curve.pfa) >= 0)
    assert np.all(np.diff(curve.pod) >= 0)
    assert np.all((curve.pfa >= 0) & (curve.pfa <= 1))
    assert np.all((curve.pod >= 0) & (curve.pod <= 1))


def test_roc_rejects_mismatched_specs():
    h0 = h0_sample([1.0, 2.0], spec=SCM_G)
    h1 = StatSample(values=np.array([1.0, 2.0]), spec=TY_G, hypothesis=Hypothesis.H1)
    with pytest.raises(ValueError):
        roc_curve(h0, h1)


def test_tyler_rlrt_and_glrt_share_roc_points():
    cfg = small_config(trials=600, rho=1.0, detectors=(TY_R, TY_G))
    h0 = run_trials(cfg, Hypothesis.H0)
    h1 = run_trials(cfg, Hypothesis.H1)
    r = roc_curve(h0[TY_R], h1[TY_R])
    g = roc_curve(h0[TY_G], h1[TY_G])
    assert np.array_equal(r.pfa, g.pfa)
    assert np.array_equal(r.pod, g.pod)


def test_pod_at_pfa_interpolation():
    diag = np.linspace(0, 1, 11)
    curve_diag = roc_curve(h0_sample(diag), StatSample(values=diag, spec=SCM_G,
                                                       hypothesis=Hypothesis.H1))
    assert pod_at_pfa(curve_diag, 0.3) == pytest.approx(0.3, abs=1e-12)
    values = np.linspace(0, 1, 50)
    sep = roc_curve(h0_sample(values), StatSample(values=values + 10.0, spec=SCM_G,
                                                  hypothesis=Hypothesis.H1))
    assert pod_at_pfa(sep, 0.1) == 1.0
    with pytest.raises(ValueError):
        pod_at_pfa(sep, 1.5)
    with pytest.raises(ValueError):
        pod_at_pfa(sep, -0.1)


# ---------------------------------------------------------------------------
# ks distance helper
# ---------------------------------------------------------------------------

def test_ks_distance_basics():
    a = np.array([1.0, 2.0])
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, a + 100.0) == 1.0
    assert ks_distance(a, np.array([1.5, 2.5])) == 0.5

"""Test statistics: eigenvalue extraction, rlrt/glrt values, decision rule."""

import math

import numpy as np
import pytest

from robustsense import (
    DetectorSpec,
    NoiseModel,
    RngStream,
    decide,
    glrt,
    largest_eigenvalue,
    rlrt,
    sample_trial,
    scm,
    tyler_estimate,
)
from robustsense.sampling import Hypothesis


def noise(model, p, n, seed, trial):
    return sample_trial(model, p, n, 0.0, Hypothesis.H0, RngStream(seed, trial))


def random_hpd(p, seed):
    g = RngStream(seed, 0).generator()
    a = g.standard_normal((p, 2 * p)) + 1j * g.standard_normal((p, 2 * p))
    return (a @ a.conj().T) / (2 * p)


def charpoly_top_eigenvalue(a):
    """Faddeev-LeVerrier characteristic polynomial, then companion roots."""
    p = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros((p, p), dtype=complex)
    for k in range(1, p + 1):
        m = a @ m + coeffs[-1] * np.eye(p)
        coeffs.append(-np.trace(a @ m) / k)
    roots = np.roots(np.array(coeffs))
    return float(np.max(roots.real))


def test_largest_eigenvalue_diagonal():
    assert largest_eigenvalue(np.diag([3.0, 1.0, 1.0])) == pytest.approx(3.0, abs=1e-14)


def test_largest_eigenvalue_identity():
    assert largest_eigenvalue(np.eye(7)) == pytest.approx(1.0, abs=1e-14)


def test_largest_eigenvalue_against_charpoly_oracle():
    a = random_hpd(5, seed=31)
    lam = largest_eigenvalue(a)
    assert abs(lam - charpoly_top_eigenvalue(a)) < 1e-10 * lam


def test_largest_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError):
        largest_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_rlrt_values():
    assert rlrt(np.diag([2.0, 1.0]), 1.0) == pytest.approx(2.0, abs=1e-14)
    assert rlrt(0.25 * np.eye(3), 0.25) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        rlrt(np.eye(2), 0.0)


def test_rlrt_mean_matches_raw_normal_bruteforce():
    # same Wishart largest-eigenvalue mean from two independent pipelines
    p, n, trials = 5, 10, 4000
    ours = np.empty(trials)
    for i in range(trials):
        ours[i] = rlrt(scm(noise(NoiseModel.gaussian(), p, n, 32, i)), 1.0)
    g2 = RngStream(33, 0).generator()
    brute = np.empty(trials)
    for i in range(trials):
        z = (g2.standard_normal((p, n)) + 1j * g2.standard_normal((p, n))) / math.sqrt(2.0)
        brute[i] = np.linalg.eigvalsh(z @ z.conj().T / n)[-1]
    joint_se = math.sqrt(ours.var() / trials + brute.var() / trials)
    assert abs(ours.mean() - brute.mean()) < 3.0 * joint_se


def test_glrt_values():
    assert glrt(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    assert glrt(np.diag([3.0, 1.0])) == pytest.approx(1.5, abs=1e-14)
    with pytest.raises(ValueError):
        glrt(-np.eye(2))


def test_glrt_scale_invariance():
    a = random_hpd(4, seed=34)
    assert glrt(2.0 * a) == pytest.approx(glrt(a), rel=1e-12)
    assert glrt(0.001 * a) == pytest.approx(glrt(a), rel=1e-12)


def test_glrt_bounds():
    for seed in range(35, 45):
        t = glrt(random_hpd(5, seed))
        assert 1.0 <= t <= 5.0


def test_spec_evaluates_stacks_like_the_per_matrix_statistics():
    stack = [random_hpd(4, seed) for seed in range(50, 56)]
    lam = np.array([largest_eigenvalue(a) for a in stack])
    trace = np.array([np.trace(a).real for a in stack])
    rlrt_spec, glrt_spec = DetectorSpec("rlrt", "tyler", 2.0), DetectorSpec("glrt", "gg_ml")
    assert rlrt_spec.evaluate(lam, trace, 4).tolist() == [rlrt(a, 2.0) for a in stack]
    assert glrt_spec.evaluate(lam, trace, 4).tolist() == [glrt(a) for a in stack]


def test_decide_strict_threshold():
    assert decide(2.0, 1.5) is Hypothesis.H1
    assert decide(1.5, 1.5) is Hypothesis.H0
    assert decide(0.9, 1.0) is Hypothesis.H0


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec("rlrt", "scm")  # missing sigma2
    with pytest.raises(ValueError):
        DetectorSpec("glrt", "scm", sigma2=1.0)  # glrt is blind
    with pytest.raises(ValueError):
        DetectorSpec("energy", "scm", sigma2=1.0)
    with pytest.raises(ValueError):
        DetectorSpec("glrt", "mcd")
    assert DetectorSpec("glrt", "tyler").label == "tyler_glrt"


def test_tyler_statistics_proportional_every_trial():
    # trace pinning makes glrt = (p sigma2 / alpha) * rlrt per realization
    p, sigma2 = 4, 2.0
    for i in range(25):
        x = noise(NoiseModel.student_t(3.0, sigma2=sigma2), p, 20, 36, i)
        est = tyler_estimate(x).estimate
        assert glrt(est) == pytest.approx(p * sigma2 / p * rlrt(est, sigma2), rel=1e-12)


def test_scm_statistic_ratio_varies_across_trials():
    ratios = []
    for i in range(25):
        x = noise(NoiseModel.gaussian(), 4, 20, 37, i)
        s = scm(x)
        ratios.append(glrt(s) / rlrt(s, 1.0))
    assert np.std(ratios) > 0
    assert len(np.unique(np.round(ratios, 12))) > 1

"""Test statistics on the production path: sample stack -> ``m_estimate_batch``
-> ``DetectorSpec.evaluate``, as the Monte Carlo harness computes them."""

import math

import numpy as np
import pytest

from robustsense import (
    DetectorSpec,
    NoiseModel,
    RngStream,
    WeightFunction,
    m_estimate_batch,
    sample_chunk,
)
from robustsense.sampling import Hypothesis

from oracles import scm


def noise_stack(model, p, n, seed, trials):
    """H0 trials 0 .. trials-1 of ``seed``, one stream each."""
    return sample_chunk(model, p, n, 0.0, Hypothesis.H0, seed, 0, trials)


def random_data(p, seed):
    """A p x 2p complex Gaussian sample; its SCM is a generic HPD matrix."""
    g = RngStream(seed, 0).generator()
    return g.standard_normal((p, 2 * p)) + 1j * g.standard_normal((p, 2 * p))


def data_with_scm(a):
    """A p x p sample whose SCM is ``a`` up to rounding."""
    return math.sqrt(len(a)) * np.linalg.cholesky(np.asarray(a, dtype=complex))


def statistic(spec, stack, sigma2=1.0):
    """``spec``'s statistic per stack member: the estimate of ``spec``'s kind,
    its top eigenvalue and trace, then ``spec.evaluate`` at noise power
    ``sigma2``, as in ``montecarlo._chunk_stats`` and ``_collect_samples``."""
    p = stack.shape[1]
    res = m_estimate_batch(stack, WeightFunction(spec.estimator, p))
    assert res.ok.all()
    return spec.evaluate(res.eigenvalues[:, -1], np.einsum("kii->k", res.estimates).real, p,
                         sigma2)


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
    res = m_estimate_batch(data_with_scm(np.diag([3.0, 1.0, 1.0]))[None],
                           WeightFunction("scm", 3))
    assert res.eigenvalues[0, -1] == pytest.approx(3.0, abs=1e-14)


def test_largest_eigenvalue_identity():
    res = m_estimate_batch(data_with_scm(np.eye(7))[None], WeightFunction("scm", 7))
    assert res.eigenvalues[0, -1] == pytest.approx(1.0, abs=1e-14)


def test_largest_eigenvalue_against_charpoly_oracle():
    # the lam_max a chunk's trial record stores, against an eigensolver-free oracle
    stack = np.stack([random_data(5, seed) for seed in range(31, 37)])
    lam = m_estimate_batch(stack, WeightFunction("scm", 5)).eigenvalues[:, -1]
    for k, x in enumerate(stack):
        assert abs(lam[k] - charpoly_top_eigenvalue(scm(x))) < 1e-10 * lam[k]


def test_rlrt_values():
    assert statistic(DetectorSpec("rlrt", "scm"),
                     data_with_scm(np.diag([2.0, 1.0]))[None])[0] == pytest.approx(2.0, abs=1e-14)
    assert statistic(DetectorSpec("rlrt", "scm"), data_with_scm(0.25 * np.eye(3))[None],
                     0.25)[0] == pytest.approx(1.0, abs=1e-14)


def test_rlrt_mean_matches_raw_normal_bruteforce():
    # same Wishart largest-eigenvalue mean from two independent pipelines
    p, n, trials = 5, 10, 4000
    ours = statistic(DetectorSpec("rlrt", "scm"),
                     noise_stack(NoiseModel("gaussian"), p, n, 32, trials))
    g2 = RngStream(33, 0).generator()
    brute = np.empty(trials)
    for i in range(trials):
        z = (g2.standard_normal((p, n)) + 1j * g2.standard_normal((p, n))) / math.sqrt(2.0)
        brute[i] = np.linalg.eigvalsh(z @ z.conj().T / n)[-1]
    joint_se = math.sqrt(ours.var() / trials + brute.var() / trials)
    assert abs(ours.mean() - brute.mean()) < 3.0 * joint_se


def test_glrt_values():
    glrt = DetectorSpec("glrt", "scm")
    assert statistic(glrt, data_with_scm(np.eye(4))[None])[0] == pytest.approx(1.0, abs=1e-14)
    assert statistic(glrt, data_with_scm(np.diag([3.0, 1.0]))[None])[0] == pytest.approx(
        1.5, abs=1e-14)


def test_glrt_scale_invariance():
    # scaling the data by sqrt(c) scales the SCM by c
    x = random_data(4, seed=34)
    t = statistic(DetectorSpec("glrt", "scm"), np.stack([x, math.sqrt(2.0) * x,
                                                         math.sqrt(0.001) * x]))
    assert t[1] == pytest.approx(t[0], rel=1e-12)
    assert t[2] == pytest.approx(t[0], rel=1e-12)


def test_glrt_bounds():
    t = statistic(DetectorSpec("glrt", "scm"),
                  np.stack([random_data(5, seed) for seed in range(35, 45)]))
    assert np.all((1.0 <= t) & (t <= 5.0))


def test_spec_evaluates_stacks_like_scalars():
    res = m_estimate_batch(np.stack([random_data(4, seed) for seed in range(50, 56)]),
                           WeightFunction("scm", 4))
    lam, trace = res.eigenvalues[:, -1], np.einsum("kii->k", res.estimates).real
    for spec in (DetectorSpec("rlrt", "tyler"), DetectorSpec("glrt", "gg_ml")):
        assert spec.evaluate(lam, trace, 4, 2.0).tolist() == [
            spec.evaluate(float(a), float(b), 4, 2.0) for a, b in zip(lam, trace)]


def test_each_statistic_reads_only_its_own_inputs():
    # rlrt reads the noise power alone, glrt the trace and p alone
    rlrt, glrt = DetectorSpec("rlrt", "scm"), DetectorSpec("glrt", "scm")
    assert rlrt.evaluate(3.0, math.nan, 7, 1.5) == 2.0
    assert glrt.evaluate(3.0, 6.0, 4, math.nan) == 2.0


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec("energy", "scm")
    with pytest.raises(ValueError):
        DetectorSpec("glrt", "mcd")
    assert DetectorSpec("glrt", "tyler").label == "tyler_glrt"


def test_tyler_statistics_proportional_every_trial():
    # pinning the trace to p makes glrt = sigma2 * rlrt per realization
    p, sigma2 = 4, 2.0
    stack = noise_stack(NoiseModel("student_t", sigma2=sigma2, dof_nu=3.0), p, 20, 36, 25)
    rlrt = statistic(DetectorSpec("rlrt", "tyler"), stack, sigma2)
    glrt = statistic(DetectorSpec("glrt", "tyler"), stack)
    assert glrt == pytest.approx(p * sigma2 / p * rlrt, rel=1e-12)


def test_scm_statistic_ratio_varies_across_trials():
    stack = noise_stack(NoiseModel("gaussian"), 4, 20, 37, 25)
    ratios = (statistic(DetectorSpec("glrt", "scm"), stack)
              / statistic(DetectorSpec("rlrt", "scm"), stack))
    assert np.std(ratios) > 0
    assert len(np.unique(np.round(ratios, 12))) > 1

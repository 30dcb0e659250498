"""Fixed-point engine contracts: weights, convergence, invariances, residuals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from robustsense import (
    Hypothesis,
    NoiseModel,
    RngStream,
    WeightFunction,
    estimators,
    m_estimate_batch,
    sample_chunk,
    sample_trial,
)
from robustsense.sampling import gg_scale

from oracles import fixed_point_residual, scm
from stopping import stopping_rule


def gaussian_data(p, n, seed, stream=0):
    return sample_trial(NoiseModel("gaussian"), p, n, 0.0, Hypothesis.H0, RngStream(seed, stream))


def null_stack(model, trials, p, n, seed):
    """H0 trials 0 .. trials-1 of ``seed``, one stream each."""
    return sample_chunk(model, p, n, 0.0, Hypothesis.H0, seed, 0, trials)


def estimate(x, weight=None, initial=None):
    """The estimate of the one-member stack x[None] (Tyler by default), from
    the initial iterate ``initial`` (default: the identity); the member must
    be usable."""
    res = m_estimate_batch(x[None], weight or WeightFunction("tyler"),
                           None if initial is None else initial[None])
    assert res.ok[0]
    return res.estimates[0]


# ---------------------------------------------------------------------------
# sample covariance
# ---------------------------------------------------------------------------

def test_scm_scalar():
    x = np.array([[1.0, 1.0j]])
    assert np.allclose(scm(x), [[1.0]], atol=1e-15)


def test_scm_basis_columns():
    x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert np.allclose(scm(x), np.diag([0.5, 0.5]), atol=1e-15)


def test_scm_matches_triple_loop():
    x = gaussian_data(5, 50, seed=1)
    p, n = x.shape
    brute = np.zeros((p, p), dtype=complex)
    for a in range(p):
        for b in range(p):
            for i in range(n):
                brute[a, b] += x[a, i] * np.conj(x[b, i])
    brute /= n
    assert np.linalg.norm(scm(x) - brute) / np.linalg.norm(brute) < 1e-12


def test_scm_is_exactly_hermitian():
    s = scm(gaussian_data(4, 20, seed=2))
    assert np.array_equal(s, s.conj().T)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

def weight_values(weight, d, p):
    """The engine's u(d) of ``weight`` in dimension p."""
    return estimators._KINDS[weight.kind].weight(weight, d, p)


def test_weight_values():
    # scm is one exact step: the engine's table holds only the iterated kinds
    assert estimators.KINDS == ("scm", "tyler", "student_t", "gg_ml")
    assert "scm" not in estimators._KINDS
    d = np.array([0.5, 1.0, 2.5])
    assert np.allclose(weight_values(WeightFunction("tyler"), d, 5), 5.0 / d)
    student_t = WeightFunction("student_t", nu=3.0)
    assert weight_values(student_t, np.array([1.0]), 5)[0] == pytest.approx(13.0 / 5.0)
    # shape 1 collapses the gg weight to the constant Gaussian weight
    w = WeightFunction("gg_ml", shape_s=1.0)
    assert np.allclose(weight_values(w, d, 5), np.ones(3), rtol=1e-12)


def test_student_t_zero_dof_is_tyler_weight():
    d = np.abs(RngStream(3, 0).generator().standard_normal(100)) + 0.1
    assert np.array_equal(weight_values(WeightFunction("student_t", nu=0.0), d, 7),
                          weight_values(WeightFunction("tyler"), d, 7))


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction("huber")
    with pytest.raises(ValueError):
        WeightFunction("student_t", nu=-1.0)
    with pytest.raises(ValueError):
        WeightFunction("gg_ml", shape_s=0.0)
    # a kind's own parameter is required, and the gg_ml scale b is derived, not set
    with pytest.raises(ValueError, match="shape_s"):
        WeightFunction("gg_ml")
    with pytest.raises(ValueError, match="nu"):
        WeightFunction("student_t")
    with pytest.raises(TypeError):
        WeightFunction("gg_ml", shape_s=0.5, scale_b=math.nan)
    # the dimension is the data's, and the parameters are keyword-only
    with pytest.raises(TypeError):
        WeightFunction("tyler", 5)
    with pytest.raises(TypeError):
        WeightFunction("student_t", 3.0)


def test_weight_keeps_only_the_kinds_own_parameter():
    assert WeightFunction("scm", nu=3.0, shape_s=0.1) == WeightFunction("scm")
    assert WeightFunction("tyler", nu=3.0, shape_s=0.1) == WeightFunction("tyler")
    student_t = WeightFunction("student_t", nu=3, shape_s=0.1)
    assert (student_t.nu, student_t.shape_s) == (3.0, None)
    gg = WeightFunction("gg_ml", nu=3.0, shape_s=0.1)
    assert (gg.nu, gg.shape_s) == (None, 0.1)
    d = np.array([0.5, 1.0, 2.5])
    assert np.array_equal(weight_values(gg, d, 5), (0.1 / gg_scale(5, 0.1)) * d ** (0.1 - 1.0))
    # a parameter the kind does not read is dropped unchecked
    assert WeightFunction("tyler", nu=math.nan, shape_s=-1.0) == WeightFunction("tyler")


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def test_scm_kind_converges_in_one_iteration():
    x = gaussian_data(4, 9, seed=4)
    res = m_estimate_batch(x[None], WeightFunction("scm"))
    assert res.iterations[0] == 1
    assert res.converged[0]
    assert res.residuals[0] == 0.0
    assert np.array_equal(res.estimates[0], scm(x))


def test_scm_flags_an_all_zero_member_and_leaves_its_batch_mate_alone():
    zero = np.zeros((3, 4), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = m_estimate_batch(zero[None], WeightFunction("scm"))
        assert res.ok.tolist() == [False]
    x = gaussian_data(3, 4, seed=5)
    alone = m_estimate_batch(x[None], WeightFunction("scm"))
    both = m_estimate_batch(np.stack([x, zero]), WeightFunction("scm"))
    assert both.ok.tolist() == [True, False]
    for field in ("estimates", "iterations", "residuals", "converged", "ok", "eigenvalues"):
        assert getattr(both, field)[0].tobytes() == getattr(alone, field)[0].tobytes()


def test_scm_with_fewer_snapshots_than_antennas_stays_usable():
    res = m_estimate_batch(gaussian_data(4, 2, seed=6)[None], WeightFunction("scm"))
    assert res.ok.tolist() == [True]


def test_tyler_scalar_case_returns_trace_p():
    x = np.array([[0.3, -2.0 + 1.0j, 0.7j]])
    assert estimate(x)[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_tyler_trace_pinned():
    x = gaussian_data(5, 50, seed=5)
    assert abs(np.trace(estimate(x)).real - 5.0) < 1e-12


def test_tyler_global_scale_invariance_power_of_two():
    x = gaussian_data(3, 30, seed=6)
    res = m_estimate_batch(np.stack([x, 4.0 * x]), WeightFunction("tyler"))
    assert res.ok.all()
    assert np.array_equal(res.estimates[0], res.estimates[1])
    assert res.iterations[0] == res.iterations[1]


def test_tyler_global_scale_invariance_generic():
    x = gaussian_data(3, 30, seed=7)
    a, b = estimate(x), estimate(np.pi * x)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-12


def test_tyler_per_column_scale_invariance():
    x = gaussian_data(3, 30, seed=8)
    d = RngStream(8, 1).generator().uniform(0.1, 10.0, size=30)
    a, b = estimate(x), estimate(x * d[None, :])
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-10


def test_student_t_large_dof_approaches_scm():
    x = gaussian_data(5, 100, seed=9)
    est, s = estimate(x, WeightFunction("student_t", nu=1e6)), scm(x)
    assert np.linalg.norm(est - s) / np.linalg.norm(s) < 1e-3


def test_student_t_zero_dof_approaches_tyler():
    x = sample_trial(NoiseModel("student_t", dof_nu=3.0), 5, 50, 0.0, Hypothesis.H0,
                     RngStream(10, 0))
    with stopping_rule(epsilon=1e-12, max_iterations=500):
        raw = estimate(x, WeightFunction("student_t", nu=0.0))
        ty = estimate(x)
    raw = raw * (np.trace(ty).real / np.trace(raw).real)
    assert np.linalg.norm(raw - ty) / np.linalg.norm(ty) < 1e-8


# Tyler's estimator is scale-free and affine equivariant.  Each estimate is
# computed to epsilon 1e-10 and compared in the stopping rule's own metric,
# ||I - T^{-1} S||_F, against the default tolerance 1e-6; the gaps seen over
# 3000 random cases (p <= 5, n = p+1 .. p+30, three noise families) stay
# below 2e-9.
def tight(x):
    """Tyler's estimate of x to epsilon 1e-10."""
    with stopping_rule(epsilon=1e-10, max_iterations=1000):
        return estimate(x)


FAMILIES = [NoiseModel("gaussian"), NoiseModel("gg", shape_s=0.2),
            NoiseModel("student_t", dof_nu=3.0)]
tyler_cases = dict(
    p=st.integers(1, 5), extra=st.integers(1, 30), family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
)


def tyler_case(p, extra, family, seed):
    x = sample_trial(family, p, p + extra, 0.0, Hypothesis.H0, RngStream(seed, 0))
    return x, tight(x), RngStream(seed, 1).generator()


def metric_gap(s, t):
    return np.linalg.norm(np.eye(len(t)) - np.linalg.solve(t, s))


@settings(max_examples=30, deadline=None)
@given(**tyler_cases, log_scale=st.floats(-3.0, 3.0))
def test_tyler_is_invariant_to_global_rescaling(p, extra, family, seed, log_scale):
    x, sigma, _ = tyler_case(p, extra, family, seed)
    assert metric_gap(tight(10.0**log_scale * x), sigma) < 1e-6


@settings(max_examples=30, deadline=None)
@given(**tyler_cases)
def test_tyler_is_invariant_to_per_column_rescaling(p, extra, family, seed):
    x, sigma, g = tyler_case(p, extra, family, seed)
    scales = 10.0 ** g.uniform(-1.0, 1.0, size=x.shape[1])
    assert metric_gap(tight(x * scales), sigma) < 1e-6


@settings(max_examples=30, deadline=None)
@given(**tyler_cases)
def test_tyler_is_affine_equivariant(p, extra, family, seed):
    # Tyler(A X) = p A Sigma A^H / tr(A Sigma A^H), for A with condition
    # number at most 16
    x, sigma, g = tyler_case(p, extra, family, seed)
    u, _ = np.linalg.qr(g.standard_normal((p, p)) + 1j * g.standard_normal((p, p)))
    w, _ = np.linalg.qr(g.standard_normal((p, p)) + 1j * g.standard_normal((p, p)))
    a = u @ np.diag(2.0 ** g.uniform(-2.0, 2.0, size=p)) @ w
    target = a @ sigma @ a.conj().T
    target *= p / np.trace(target).real
    assert metric_gap(tight(a @ x), target) < 1e-6


@pytest.mark.parametrize("weight", [
    WeightFunction("student_t", nu=4.0),
    WeightFunction("gg_ml", shape_s=0.5),
])
def test_one_step_affine_equivariance(weight):
    # a single iteration commutes with any invertible congruence of data and start
    x = gaussian_data(3, 12, seed=11)
    g = RngStream(11, 1).generator()
    a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    with stopping_rule(epsilon=1e-300, max_iterations=1):
        plain = estimate(x, weight)
        moved = estimate(a @ x, weight, initial=a @ a.conj().T)
    target = a @ plain @ a.conj().T
    assert np.linalg.norm(moved - target) / np.linalg.norm(target) < 1e-10


def test_estimates_are_hermitian_positive_definite():
    x = sample_trial(NoiseModel("gg", shape_s=0.2), 4, 40, 0.0, Hypothesis.H0,
                     RngStream(12, 0))
    for w in (WeightFunction("tyler"), WeightFunction("student_t", nu=3.0),
              WeightFunction("gg_ml", shape_s=0.2)):
        e = estimate(x, w)
        assert np.array_equal(e, e.conj().T)
        assert np.linalg.eigvalsh(e)[0] > 0


def test_max_iterations_reported_as_not_converged():
    x = gaussian_data(3, 20, seed=13)
    with stopping_rule(max_iterations=2):
        res = m_estimate_batch(x[None], WeightFunction("tyler"))
    assert res.ok[0]
    assert not res.converged[0]
    assert res.iterations[0] == 2
    assert res.residuals[0] >= 1e-6


def gg_stack(trials, p, n, shape, seed):
    return null_stack(NoiseModel("gg", shape_s=shape), trials, p, n, seed)


def test_gg_ml_scale_step_converges_in_few_iterations():
    # the plain iteration needs about 100 steps here (max 122)
    res = m_estimate_batch(gg_stack(256, 5, 50, 0.1, seed=24),
                           WeightFunction("gg_ml", shape_s=0.1))
    assert res.ok.all() and res.converged.all()
    assert res.iterations.mean() <= 20
    assert res.iterations.max() <= 30


def test_gg_ml_estimate_solves_the_scale_equation():
    # the trace of the ML equation: s / (b n p) * sum_i d_i^s = 1
    p, n, s = 5, 50, 0.1
    weight = WeightFunction("gg_ml", shape_s=s)
    stack = gg_stack(1, p, n, s, seed=25)
    x = stack[0]

    def scale_gap(sigma, x=x):
        d = np.einsum("ji,ji->i", x.conj(), np.linalg.solve(sigma, x)).real
        return abs(s / (gg_scale(p, s) * n * p) * np.sum(d**s) - 1.0)

    with stopping_rule(epsilon=1e-10):
        res = m_estimate_batch(stack, weight)
    assert res.ok[0] and res.converged[0]
    assert scale_gap(res.estimates[0]) < 1e-9
    assert fixed_point_residual(res.estimates[0], x, weight) < 1e-8
    # at the engine's own stopping rule every converged estimate is on the
    # equation too
    many = gg_stack(256, p, n, s, seed=24)
    res = m_estimate_batch(many, weight)
    assert res.converged.any()
    assert max(scale_gap(res.estimates[k], many[k]) for k in np.flatnonzero(res.converged)) < 1e-12
    # the map is scale-free: one evaluation ignores the start's scale, so
    # the iteration cannot crawl along it
    with stopping_rule(max_iterations=1):
        one = estimate(x, weight)
        for a in (1e-3, 1e3):
            other = estimate(x, weight, a * np.eye(p, dtype=complex))
            assert np.linalg.norm(other - one) < 1e-12 * np.linalg.norm(one)


def test_tyler_squarem_needs_few_map_evaluations():
    # the plain iteration needs 34.3 evaluations on average here (max 72)
    p, n = 5, 10
    stack = np.stack([gaussian_data(p, n, seed=26, stream=t) for t in range(256)])
    res = m_estimate_batch(stack, WeightFunction("tyler"))
    assert res.ok.all() and res.converged.all()
    assert res.iterations.mean() <= 20
    assert res.iterations.max() <= 30
    with stopping_rule(epsilon=1e-12, max_iterations=500):
        ref = m_estimate_batch(stack, WeightFunction("tyler"))
    assert ref.converged.all()
    gap = np.linalg.norm(res.estimates - ref.estimates, axis=(1, 2))
    assert (gap / np.linalg.norm(ref.estimates, axis=(1, 2))).max() < 1e-5


# ---------------------------------------------------------------------------
# large-dimension oracle: Marchenko-Pastur
# ---------------------------------------------------------------------------

def marchenko_pastur_cdf(c, points=4001):
    """(x, F(x)) of the Marchenko-Pastur law of ratio c < 1 and unit
    variance, by trapezoid quadrature of its closed-form density
    sqrt((b - x)(x - a)) / (2 pi c x) on [a, b] = [(1 - sqrt c)^2, (1 + sqrt c)^2].

    The substitution x = (a + b)/2 - (b - a)/2 cos(theta) turns the density's
    square-root edges into the smooth integrand (b - a)^2/4 sin^2(theta) /
    (2 pi c x) on [0, pi]."""
    a, b = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2
    theta = np.linspace(0.0, np.pi, points)
    x = (a + b) / 2 - (b - a) / 2 * np.cos(theta)
    g = ((b - a) / 2 * np.sin(theta)) ** 2 / (2 * np.pi * c * x)
    return x, np.concatenate([[0.0], np.cumsum((g[1:] + g[:-1]) / 2 * np.diff(theta))])


# The bound rests on the Gaussian SCM, the case where the Marchenko-Pastur
# law is textbook: at p=40, n=400 and 24 trials its pooled eigenvalues lie
# 0.0077-0.0088 from MP(0.1) at seeds 11-13, which set the bound (the test
# runs seed 41).  That distance is the finite-size bias at p = 40 plus the
# trial-to-trial noise; the eigenvalues of one trial repel each other, so
# they are not independent draws and the DKW band of 960 values does not
# apply.  The bound is about 3 times the Gaussian SCM's distance, which
# leaves Tyler's own finite-n deviation (0.0089-0.0139 at seeds 11-13) room
# and still rejects the SCM under gg(0.1) noise (0.039-0.042) and under
# Student-t(3) noise (0.26-0.30).
MP_BOUND = 0.025


def test_tyler_spectrum_follows_marchenko_pastur_under_every_ces_noise():
    # Zhang, Cheng & Singer (J. Multivariate Anal. 2016): under H0, as p and
    # n grow with p/n -> c, the eigenvalues of Tyler's estimate (trace p)
    # follow MP(c) whatever the texture; the SCM's do so for Gaussian noise
    # only.  About 1.2 s on a 2-core Xeon VM (Tyler 11-16 ms per trial).
    p, n, trials, seed = 40, 400, 24, 41
    x_mp, cdf = marchenko_pastur_cdf(p / n)
    # the table is the law: all the mass, and mean 1
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.sum((x_mp[1:] + x_mp[:-1]) / 2 * np.diff(cdf)) == pytest.approx(1.0, abs=1e-6)

    def distance(eigenvalues):
        return kstest(eigenvalues.ravel(), lambda t: np.interp(t, x_mp, cdf)).statistic

    tyler, scm_distance = {}, {}
    for model in (NoiseModel("gaussian"), NoiseModel("gg", shape_s=0.1),
                  NoiseModel("student_t", dof_nu=3.0)):
        stack = null_stack(model, trials, p, n, seed)
        res = m_estimate_batch(stack, WeightFunction("tyler"))
        assert res.ok.all() and res.converged.all()
        tyler[model.family] = distance(res.eigenvalues)
        # the SCM at the same scale as Tyler: each trial's trace set to p
        lam = m_estimate_batch(stack, WeightFunction("scm")).eigenvalues
        scm_distance[model.family] = distance(lam * (p / lam.sum(axis=1, keepdims=True)))
    assert max(tyler.values()) < MP_BOUND, tyler
    # the reference the bound is built on, and the bound's power
    assert scm_distance["gaussian"] < MP_BOUND / 2, scm_distance
    assert scm_distance["gg"] > MP_BOUND, scm_distance
    assert scm_distance["student_t"] > 8 * MP_BOUND, scm_distance


def test_extrapolation_outside_the_cone_takes_theta2():
    # member 0: r = diag(1, -0.5), v = diag(-0.5, 0.1), step 2.19, so the
    # candidate's second diagonal entry is 1 - 2.19 + 0.48 < 0; member 1's
    # candidate diag(3.0, 0.18) is positive definite
    theta0 = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    theta1 = np.stack([np.diag([2.0, 0.5])] * 2).astype(complex)
    theta2 = np.stack([np.diag([2.5, 0.1]), np.diag([2.5, 0.3])]).astype(complex)
    q = estimators._outer_products(np.stack([gaussian_data(2, 6, seed=27)] * 2))
    bound = np.array([16.0, 16.0])
    nxt, wh, new_bound = estimators._extrapolate(theta0, theta1, theta2, q, bound)
    assert np.array_equal(nxt[0], theta2[0])
    assert new_bound.tolist() == [4.0, 16.0]
    assert np.linalg.eigvalsh(nxt[1])[0] > 0
    assert not np.allclose(nxt[1], theta2[1])
    alone = estimators._whiten(theta2[:1], q[:1])
    assert not wh.singular.any()
    assert np.array_equal(wh.inv[0], alone.inv[0])
    assert np.array_equal(wh.d[0], alone.d[0])


def test_non_finite_extrapolation_takes_theta2_and_shrinks_the_bound():
    # a = ||r|| / ||v|| is about 1e157, so a^2 v overflows: inf off the
    # diagonal and inf * 0 = nan on it
    off = np.array([[0.0, 1e-154], [1e-154, 0.0]])
    theta0 = np.eye(2, dtype=complex)[None]
    theta1 = 1000.0 * theta0
    theta2 = (1999.0 * np.eye(2) + off).astype(complex)[None]
    q = estimators._outer_products(gaussian_data(2, 6, seed=27)[None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nxt, wh, bound = estimators._extrapolate(theta0, theta1, theta2, q, np.array([1e200]))
    assert np.array_equal(nxt, theta2)
    assert bound.tolist() == [2.5e199]
    alone = estimators._whiten(theta2, q)
    assert not wh.singular.any()
    assert np.array_equal(wh.inv, alone.inv) and np.array_equal(wh.d, alone.d)


def test_members_whose_extrapolation_leaves_the_cone_still_converge(monkeypatch):
    # at n = p + 1 the extrapolation often overshoots out of the PD cone
    p, n = 5, 6
    stack = np.stack([gaussian_data(p, n, seed=28, stream=t) for t in range(64)])
    real = estimators._extrapolate
    outside = []

    def spy(theta0, theta1, theta2, q, bound):
        nxt, wh, new_bound = real(theta0, theta1, theta2, q, bound)
        r, v = theta1 - theta0, theta2 - 2 * theta1 + theta0
        a = np.clip(np.linalg.norm(r, axis=(1, 2)) / np.linalg.norm(v, axis=(1, 2)), 1.0, bound)
        cand = theta0 + 2 * a[:, None, None] * r + (a * a)[:, None, None] * v
        leaves = np.linalg.eigvalsh(cand)[:, 0] <= 0
        assert all(np.array_equal(nxt[i], theta2[i]) for i in np.flatnonzero(leaves))
        outside.append(int(leaves.sum()))
        return nxt, wh, new_bound

    monkeypatch.setattr(estimators, "_extrapolate", spy)
    weight = WeightFunction("tyler")
    res = m_estimate_batch(stack, weight)
    assert sum(outside) > 0
    assert res.ok.all() and res.converged.all()
    for k in range(len(stack)):
        assert fixed_point_residual(res.estimates[k], stack[k], weight) < 1e-5


@pytest.mark.parametrize("weight", [WeightFunction("tyler"), WeightFunction("student_t", nu=1.0),
                                    WeightFunction("gg_ml", shape_s=0.1)], ids=lambda w: w.kind)
def test_map_evaluation_factors_nothing(monkeypatch, weight):
    # only _whiten and _extrapolate factor an iterate; a map evaluation
    # and its post-step reuse the whitening they are given
    x = gg_stack(4, 5, 50, 0.1, seed=31)
    q = estimators._outer_products(x)
    wh = estimators._whiten(np.broadcast_to(np.eye(5, dtype=complex), (4, 5, 5)).copy(), q)
    calls = []
    real = estimators._whiten
    monkeypatch.setattr(estimators, "_whiten", lambda *a: calls.append(1) or real(*a))
    nxt, *_, bad = estimators._apply_map(estimators._KINDS[weight.kind], weight, wh, q)
    assert not bad.any() and np.isfinite(nxt).all()
    assert calls == []


def test_bounded_step_converges_where_an_unbounded_one_cycles():
    # gg_ml at n = p + 1: with the step length ||r|| / ||v|| alone these
    # members fall into a 4-evaluation cycle with residuals 1.6, 0.8, 0.7,
    # 0.6 and never converge; the plain iteration needs 47-81 evaluations
    model = NoiseModel("gg", shape_s=0.1)
    stack = np.concatenate([sample_chunk(model, 3, 4, 0.0, Hypothesis.H0, 3, t, t + 1)
                            for t in (753, 1308, 1456, 1461, 1505)])
    res = m_estimate_batch(stack, WeightFunction("gg_ml", shape_s=0.1))
    assert res.ok.all() and res.converged.all()
    assert res.iterations.max() <= 100


# ---------------------------------------------------------------------------
# preconditions and failure modes
# ---------------------------------------------------------------------------

def test_robust_kinds_need_more_snapshots_than_antennas():
    x = gaussian_data(4, 4, seed=15)
    with pytest.raises(ValueError, match="n > p"):
        m_estimate_batch(x[None], WeightFunction("tyler"))
    # the sample covariance is still defined there
    assert scm(x).shape == (4, 4)


@pytest.mark.parametrize("weight", [WeightFunction("scm"), WeightFunction("tyler"),
                                    WeightFunction("student_t", nu=3.0),
                                    WeightFunction("gg_ml", shape_s=0.5)], ids=lambda w: w.kind)
def test_malformed_stacks_are_rejected(weight):
    for shape in ((2, 3, 0), (2, 0, 4)):
        with pytest.raises(ValueError, match="p, n >= 1"):
            m_estimate_batch(np.ones(shape, dtype=complex), weight)
    # one non-finite entry in one member rejects the stack, not just that member
    for value in (np.nan, np.inf):
        x = null_stack(NoiseModel("gaussian"), 3, 3, 8, seed=19)
        x[1, 0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            m_estimate_batch(x, weight)
    # an empty stack is still valid
    res = m_estimate_batch(np.ones((0, 3, 8), dtype=complex), weight)
    assert res.estimates.shape == (0, 3, 3) and res.ok.shape == (0,)


def test_zero_column_rejected():
    # the member with a zero column, and the all-zero member, are flagged at
    # their first evaluation, also where the weight at d = 0 is finite
    # (student_t, gg_ml with s >= 1) or gg_ml's scale has no finite value
    # (all distances 0 at s > 1), and with no RuntimeWarning; their
    # stack-mates keep their solo results bit for bit
    stack = null_stack(NoiseModel("gaussian"), 4, 3, 10, seed=16)
    stack[1, :, 4] = 0.0
    stack[3] = 0.0
    for w in (WeightFunction("tyler"),
              WeightFunction("student_t", nu=3.0),
              WeightFunction("gg_ml", shape_s=0.5),
              WeightFunction("gg_ml", shape_s=1.0),
              WeightFunction("gg_ml", shape_s=2.0)):
        res = m_estimate_batch(stack, w)
        assert res.ok.tolist() == [True, False, True, False]
        assert res.converged.tolist() == [True, False, True, False]
        assert res.iterations[1] == res.iterations[3] == 1
        for k in (1, 3):
            alone = m_estimate_batch(stack[k:k + 1], w)
            assert alone.iterations.tolist() == [1] and not alone.ok[0]
        for i in (0, 2):
            solo = m_estimate_batch(stack[i:i + 1], w)
            assert np.array_equal(solo.estimates[0], res.estimates[i])
            assert solo.iterations[0] == res.iterations[i]
            assert solo.residuals[0] == res.residuals[i]


@pytest.mark.parametrize("hypothesis", list(Hypothesis), ids=lambda h: h.name)
def test_gg_ml_from_tyler_agrees_with_cold_start_in_fewer_evaluations(hypothesis):
    assert WeightFunction("gg_ml", shape_s=0.1).warm_start == "tyler"
    assert all(WeightFunction(kind, nu=3.0).warm_start is None
               for kind in ("scm", "tyler", "student_t"))
    x = sample_chunk(NoiseModel("gg", shape_s=0.1), 5, 50, 1.0, hypothesis, 2718, 0, 256)
    tyler = m_estimate_batch(x, WeightFunction("tyler"))
    assert tyler.ok.all() and tyler.converged.all()
    gg = WeightFunction("gg_ml", shape_s=0.1)
    cold = m_estimate_batch(x, gg)
    warm = m_estimate_batch(x, gg, initial=tyler.estimates)
    for res in (cold, warm):
        assert res.ok.all() and res.converged.all()
    gap = (np.linalg.norm(warm.estimates - cold.estimates, axis=(1, 2))
           / np.linalg.norm(cold.estimates, axis=(1, 2)))
    assert gap.max() < 1e-5
    assert warm.iterations.mean() < cold.iterations.mean()


def test_invalid_initial_iterate():
    x = gaussian_data(3, 10, seed=17)
    with pytest.raises(ValueError, match="positive definite"):
        m_estimate_batch(x[None], WeightFunction("tyler"),
                         initial=np.diag([1.0, 1.0, -1.0])[None])
    with pytest.raises(ValueError, match="stack"):
        m_estimate_batch(x[None], WeightFunction("tyler"),
                         initial=np.array([[1, 1], [0, 1]], dtype=complex)[None])
    # Cholesky reads the lower triangle only, so this one would factor
    with pytest.raises(ValueError, match="Hermitian"):
        m_estimate_batch(x[None], WeightFunction("tyler"),
                         initial=np.array([[2, 1, 0], [0, 2, 0], [0, 0, 2]], dtype=complex)[None])


def test_rank_deficient_data_is_flagged_unusable():
    g = RngStream(18, 0).generator()
    basis = g.standard_normal((3, 2)) + 1j * g.standard_normal((3, 2))
    x = basis @ (g.standard_normal((2, 8)) + 1j * g.standard_normal((2, 8)))
    assert not m_estimate_batch(x[None], WeightFunction("tyler")).ok[0]


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stack, weights, warm", [
    (null_stack(NoiseModel("gg", shape_s=0.3), 6, 4, 24, seed=19),
     (WeightFunction("tyler"), WeightFunction("student_t", nu=3.0),
      WeightFunction("gg_ml", shape_s=0.3)), False),
    # the fig3/fig4 geometry: 64 members at n = 50 make the engine's
    # temporaries larger than the 256 KiB above which numpy reuses an
    # operator's temporary operand as its output
    (sample_chunk(NoiseModel("gaussian"), 5, 50, 1.0, Hypothesis.H1, 3141, 0, 64),
     (WeightFunction("scm"), WeightFunction("tyler"), WeightFunction("gg_ml", shape_s=0.1)),
     False),
    # fig3: every member starts from its own Tyler estimate
    (sample_chunk(NoiseModel("gg", shape_s=0.1), 5, 50, 1.0, Hypothesis.H1, 3141, 0, 64),
     (WeightFunction("gg_ml", shape_s=0.1),), True),
], ids=["p4-n24", "p5-n50", "p5-n50-warm"])
def test_batch_matches_solo_bitwise(stack, weights, warm):
    starts = m_estimate_batch(stack, WeightFunction("tyler")).estimates if warm else None
    for w in weights:
        batch = m_estimate_batch(stack, w, initial=starts)
        for i in range(len(stack)):
            solo = m_estimate_batch(stack[i:i + 1], w,
                                    initial=None if starts is None else starts[i:i + 1])
            assert solo.ok[0] and batch.ok[i]
            assert np.array_equal(solo.estimates[0], batch.estimates[i])
            assert np.array_equal(solo.eigenvalues[0], batch.eigenvalues[i])
            assert solo.iterations[0] == batch.iterations[i]
            assert solo.residuals[0] == batch.residuals[i]


def test_whiten_verdict_does_not_depend_on_batch_mates():
    # diag(1, 1e-15) is positive definite with condition number 1e15: its
    # own Cholesky succeeds, so it is not singular, alone or stacked with an
    # indefinite member
    sigma = np.stack([np.diag([1.0, 1e-15]), np.diag([1.0, -1.0])]).astype(complex)
    q = estimators._outer_products(np.stack([gaussian_data(2, 6, seed=29)] * 2))
    alone = estimators._whiten(sigma[:1], q[:1])
    both = estimators._whiten(sigma, q)
    assert alone.singular.tolist() == [False]
    assert both.singular.tolist() == [False, True]
    assert np.array_equal(both.inv[0], alone.inv[0])
    assert np.array_equal(both.d[0], alone.d[0])


@pytest.mark.parametrize("p", [1, 2, 5, 40])
def test_tensor_distances_and_weighted_step_match_direct_formulas(p):
    # p = 1 has no off-diagonal pairs
    g = RngStream(30, p).generator()
    trials, n = 16, p + 7
    x = g.standard_normal((trials, p, n)) + 1j * g.standard_normal((trials, p, n))
    a = g.standard_normal((trials, p, p)) + 1j * g.standard_normal((trials, p, p))
    sigma = a @ a.conj().transpose(0, 2, 1) / p + np.eye(p)
    w = g.uniform(0.1, 2.0, size=(trials, n))
    q = estimators._outer_products(x)
    assert q.shape == (trials, p * p, n)
    # Q's bits are those of one gather of every upper-triangle pair
    iu, ju = np.triu_indices(p, 1)
    pairs = np.multiply(x[:, iu], x[:, ju].conj())
    gathered = np.concatenate([x.real**2 + x.imag**2, pairs.real, pairs.imag], axis=1)
    assert np.array_equal(q, gathered)

    wh = estimators._whiten(sigma, q)
    assert not wh.singular.any()
    chol_inv = np.linalg.inv(np.linalg.cholesky(sigma))
    d = np.sum(np.abs(chol_inv @ x) ** 2, axis=1)
    assert (np.abs(wh.d - d) / d).max() < 1e-12
    inv = np.linalg.inv(sigma)
    gap = np.linalg.norm(wh.inv - inv, axis=(1, 2)) / np.linalg.norm(inv, axis=(1, 2))
    assert gap.max() < 1e-12

    step = estimators._hermitian(np.matmul(q, w[:, :, None])[:, :, 0], p)
    direct = (x * w[:, None, :]) @ x.conj().transpose(0, 2, 1)
    gap = np.linalg.norm(step - direct, axis=(1, 2)) / np.linalg.norm(direct, axis=(1, 2))
    assert gap.max() < 1e-12
    assert np.array_equal(step, step.conj().transpose(0, 2, 1))


# Traced peak of the engine on this 4096-member stack, which it runs in
# blocks of 512 members (their Q fits the 5.12 MB block budget at p=5,
# n=50) and builds each block's Q by rows, whose two complex temporaries
# take at most 2 * 16*512*4*50 = 3.28 MB: 13.4 MB for Tyler, 13.6 MB for
# gg_ml from the identity and 11.1 MB for gg_ml from the members' Tyler
# estimates.  scm copies one block's X^H (2 MB), not the stack's, and
# peaks at 4.5 MB.  The bound adds about 15% to the largest; a whole-stack
# outer-product tensor alone would take 41 MB.
ENGINE_PEAK_MB = 16.0


@pytest.mark.parametrize("weight, warm", [(WeightFunction("tyler"), False),
                                          (WeightFunction("gg_ml", shape_s=0.1), False),
                                          (WeightFunction("gg_ml", shape_s=0.1), True),
                                          (WeightFunction("scm"), False)],
                         ids=["tyler", "gg_ml", "gg_ml-warm", "scm"])
def test_engine_peak_memory_on_a_full_chunk(traced_peak, weight, warm):
    x = sample_chunk(NoiseModel("gg", shape_s=0.1), 5, 50, 0.0, Hypothesis.H0, 7, 0, 4096)
    # the warm start is gg_ml from every member's own Tyler estimate
    starts = m_estimate_batch(x, WeightFunction("tyler")).estimates if warm else None
    res, peak = traced_peak(m_estimate_batch, x, weight, starts)
    assert res.ok.all() and res.converged.all()
    assert peak / 1e6 <= ENGINE_PEAK_MB


def test_batch_flags_bad_members_without_poisoning_others():
    stack = null_stack(NoiseModel("gaussian"), 3, 3, 12, seed=20)
    g = RngStream(20, 3).generator()
    basis = g.standard_normal((3, 1)) + 1j * g.standard_normal((3, 1))
    stack[1] = basis @ (g.standard_normal((1, 12)) + 1j * g.standard_normal((1, 12)))
    for w in (WeightFunction("tyler"), WeightFunction("student_t", nu=3.0),
              WeightFunction("gg_ml", shape_s=0.5)):
        res = m_estimate_batch(stack, w)
        assert res.ok.tolist() == [True, False, True]
        # the rank-1 member's first map output is singular; it leaves at the
        # next evaluation, the one that flags it, holding a scaled identity
        assert not res.converged[1] and res.iterations[1] == 2
        placeholder = res.estimates[1]
        assert np.array_equal(placeholder, placeholder[0, 0] * np.eye(3))
        for i in (0, 2):
            assert np.array_equal(estimate(stack[i], w), res.estimates[i])


# ---------------------------------------------------------------------------
# fixed-point residual oracle
# ---------------------------------------------------------------------------

def test_residual_of_scm_is_zero():
    x = gaussian_data(5, 50, seed=21)
    assert fixed_point_residual(scm(x), x, WeightFunction("scm")) < 1e-14


def test_residual_of_converged_tyler_is_small():
    x = gaussian_data(5, 50, seed=22)
    assert fixed_point_residual(estimate(x), x, WeightFunction("tyler")) < 10 * 1e-6


def test_residual_of_identity_on_anisotropic_data_is_large():
    x = np.diag([4.0, 1.0]) @ gaussian_data(2, 400, seed=23)  # scatter diag(16, 1)
    assert fixed_point_residual(np.eye(2), x, WeightFunction("tyler")) > 0.1

"""Fixed-point engine contracts: weights, convergence, invariances, residuals."""

import numpy as np
import pytest

from robustsense import (
    EstimationError,
    FixedPointOptions,
    NoiseModel,
    RngStream,
    WeightFunction,
    fixed_point_residual,
    m_estimate,
    m_estimate_batch,
    sample_ces,
    scm,
    tyler_estimate,
)


def gaussian_data(p, n, seed, stream=0, scatter=None):
    scatter = np.eye(p) if scatter is None else scatter
    return sample_ces(scatter, NoiseModel.gaussian(), n, RngStream(seed, stream).generator())


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

def test_weight_values():
    d = np.array([0.5, 1.0, 2.5])
    assert np.array_equal(WeightFunction.scm(5)(d), np.ones(3))
    assert np.allclose(WeightFunction.tyler(5)(d), 5.0 / d)
    assert WeightFunction.student_t(5, 3.0)(np.array([1.0]))[0] == pytest.approx(13.0 / 5.0)
    # shape 1 collapses the gg weight to the constant Gaussian weight
    w = WeightFunction.gg_ml(5, 1.0)
    assert np.allclose(w(d), np.ones(3), rtol=1e-12)


def test_student_t_zero_dof_is_tyler_weight():
    d = np.abs(RngStream(3, 0).generator().standard_normal(100)) + 0.1
    assert np.array_equal(WeightFunction.student_t(7, 0.0)(d), WeightFunction.tyler(7)(d))


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction("huber", 5)
    with pytest.raises(ValueError):
        WeightFunction.student_t(5, -1.0)
    with pytest.raises(ValueError):
        WeightFunction.gg_ml(5, 0.0)


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def test_scm_kind_converges_in_one_iteration():
    x = gaussian_data(4, 9, seed=4)
    res = m_estimate(x, WeightFunction.scm(4))
    assert res.iterations == 1
    assert res.converged
    assert res.final_residual == 0.0
    assert np.array_equal(res.estimate, scm(x))


def test_tyler_scalar_case_returns_alpha():
    x = np.array([[0.3, -2.0 + 1.0j, 0.7j]])
    res = tyler_estimate(x)
    assert res.estimate[0, 0].real == pytest.approx(1.0, abs=1e-12)
    res2 = tyler_estimate(x, FixedPointOptions(alpha=2.5))
    assert res2.estimate[0, 0].real == pytest.approx(2.5, abs=1e-12)


def test_tyler_trace_pinned():
    res = tyler_estimate(gaussian_data(5, 50, seed=5))
    assert abs(np.trace(res.estimate).real - 5.0) < 1e-12
    res1 = tyler_estimate(gaussian_data(5, 50, seed=5), FixedPointOptions(alpha=1.0))
    assert abs(np.trace(res1.estimate).real - 1.0) < 1e-12


def test_tyler_global_scale_invariance_power_of_two():
    x = gaussian_data(3, 30, seed=6)
    a = tyler_estimate(x)
    b = tyler_estimate(4.0 * x)
    assert np.array_equal(a.estimate, b.estimate)
    assert a.iterations == b.iterations


def test_tyler_global_scale_invariance_generic():
    x = gaussian_data(3, 30, seed=7)
    a = tyler_estimate(x)
    b = tyler_estimate(np.pi * x)
    assert np.linalg.norm(a.estimate - b.estimate) / np.linalg.norm(a.estimate) < 1e-12


def test_tyler_per_column_scale_invariance():
    x = gaussian_data(3, 30, seed=8)
    d = RngStream(8, 1).generator().uniform(0.1, 10.0, size=30)
    a = tyler_estimate(x)
    b = tyler_estimate(x * d[None, :])
    assert np.linalg.norm(a.estimate - b.estimate) / np.linalg.norm(a.estimate) < 1e-10


def test_student_t_large_dof_approaches_scm():
    x = gaussian_data(5, 100, seed=9)
    res = m_estimate(x, WeightFunction.student_t(5, 1e6))
    s = scm(x)
    assert np.linalg.norm(res.estimate - s) / np.linalg.norm(s) < 1e-3


def test_student_t_zero_dof_approaches_tyler():
    x = sample_ces(np.eye(5), NoiseModel.student_t(3.0), 50, RngStream(10, 0).generator())
    opts = FixedPointOptions(epsilon=1e-12, max_iterations=500)
    raw = m_estimate(x, WeightFunction.student_t(5, 0.0), opts).estimate
    ty = tyler_estimate(x, opts).estimate
    raw = raw * (np.trace(ty).real / np.trace(raw).real)
    assert np.linalg.norm(raw - ty) / np.linalg.norm(ty) < 1e-8


@pytest.mark.parametrize("weight", [
    WeightFunction.student_t(3, 4.0),
    WeightFunction.gg_ml(3, 0.5),
])
def test_one_step_affine_equivariance(weight):
    # a single iteration commutes with any invertible congruence of data and start
    x = gaussian_data(3, 12, seed=11)
    g = RngStream(11, 1).generator()
    a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    one_step = FixedPointOptions(epsilon=1e-300, max_iterations=1)
    plain = m_estimate(x, weight, one_step).estimate
    moved = m_estimate(
        a @ x, weight,
        FixedPointOptions(epsilon=1e-300, max_iterations=1, initial=a @ a.conj().T),
    ).estimate
    target = a @ plain @ a.conj().T
    assert np.linalg.norm(moved - target) / np.linalg.norm(target) < 1e-10


def test_estimates_are_hermitian_positive_definite():
    x = sample_ces(np.eye(4), NoiseModel.generalized_gaussian(0.2), 40,
                   RngStream(12, 0).generator())
    for w in (WeightFunction.tyler(4), WeightFunction.student_t(4, 3.0),
              WeightFunction.gg_ml(4, 0.2)):
        e = m_estimate(x, w).estimate
        assert np.array_equal(e, e.conj().T)
        assert np.linalg.eigvalsh(e)[0] > 0


def test_max_iterations_reported_as_not_converged():
    x = gaussian_data(3, 20, seed=13)
    res = m_estimate(x, WeightFunction.tyler(3), FixedPointOptions(max_iterations=2))
    assert not res.converged
    assert res.iterations == 2
    assert res.final_residual >= 1e-6


def gg_stack(trials, p, n, shape, seed):
    model = NoiseModel.generalized_gaussian(shape)
    return np.stack([sample_ces(np.eye(p), model, n, RngStream(seed, t).generator())
                     for t in range(trials)])


def test_gg_ml_scale_step_converges_in_few_iterations():
    # the plain iteration needs about 100 steps here (max 122)
    res = m_estimate_batch(gg_stack(256, 5, 50, 0.1, seed=24), WeightFunction.gg_ml(5, 0.1))
    assert res.ok.all() and res.converged.all()
    assert res.iterations.mean() <= 20
    assert res.iterations.max() <= 30


def test_gg_ml_estimate_solves_the_scale_equation():
    # the trace of the ML equation: s / (b n p) * sum_i d_i^s = 1
    p, n, s = 5, 50, 0.1
    weight = WeightFunction.gg_ml(p, s)
    x = gg_stack(1, p, n, s, seed=25)[0]

    def scale_gap(sigma):
        d = np.einsum("ji,ji->i", x.conj(), np.linalg.solve(sigma, x)).real
        return abs(s / (weight.scale_b * n * p) * np.sum(d**s) - 1.0)

    res = m_estimate(x, weight, FixedPointOptions(epsilon=1e-10))
    assert res.converged
    assert scale_gap(res.estimate) < 1e-9
    assert fixed_point_residual(res.estimate, x, weight) < 1e-8
    # the scale step puts every iterate on the equation, not just the limit
    one_step = m_estimate(x, weight, FixedPointOptions(max_iterations=1))
    assert scale_gap(one_step.estimate) < 1e-12


def test_spectral_norm_stopping_rule():
    x = gaussian_data(3, 20, seed=14)
    res = m_estimate(x, WeightFunction.tyler(3), FixedPointOptions(norm="spectral"))
    assert res.converged
    assert res.final_residual < 1e-6


# ---------------------------------------------------------------------------
# preconditions and failure modes
# ---------------------------------------------------------------------------

def test_robust_kinds_need_more_snapshots_than_antennas():
    x = gaussian_data(4, 4, seed=15)
    with pytest.raises(ValueError, match="n > p"):
        tyler_estimate(x)
    # the sample covariance is still defined there
    assert scm(x).shape == (4, 4)


def test_zero_column_rejected():
    x = gaussian_data(3, 10, seed=16)
    x[:, 4] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        tyler_estimate(x)


def test_invalid_initial_iterate():
    x = gaussian_data(3, 10, seed=17)
    with pytest.raises(ValueError):
        m_estimate(x, WeightFunction.tyler(3),
                   FixedPointOptions(initial=np.diag([1.0, 1.0, -1.0])))
    with pytest.raises(ValueError):
        m_estimate(x, WeightFunction.tyler(3),
                   FixedPointOptions(initial=np.array([[1, 1], [0, 1]], dtype=complex)))


def test_rank_deficient_data_raises_estimation_error():
    g = RngStream(18, 0).generator()
    basis = g.standard_normal((3, 2)) + 1j * g.standard_normal((3, 2))
    x = basis @ (g.standard_normal((2, 8)) + 1j * g.standard_normal((2, 8)))
    with pytest.raises(EstimationError):
        tyler_estimate(x)


def test_options_validation():
    with pytest.raises(ValueError):
        FixedPointOptions(epsilon=0.0)
    with pytest.raises(ValueError):
        FixedPointOptions(max_iterations=0)
    with pytest.raises(ValueError):
        FixedPointOptions(norm="nuclear")
    with pytest.raises(ValueError):
        FixedPointOptions(alpha=-1.0)


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

def test_batch_matches_solo_bitwise():
    g = RngStream(19, 0).generator()
    stack = np.empty((6, 4, 24), dtype=complex)
    for i in range(6):
        stack[i] = sample_ces(np.eye(4), NoiseModel.generalized_gaussian(0.3), 24, g)
    for w in (WeightFunction.tyler(4), WeightFunction.student_t(4, 3.0),
              WeightFunction.gg_ml(4, 0.3)):
        batch = m_estimate_batch(stack, w)
        for i in range(6):
            solo = m_estimate(stack[i], w)
            assert np.array_equal(solo.estimate, batch.estimates[i])
            assert solo.iterations == batch.iterations[i]
            assert solo.final_residual == batch.residuals[i]


def test_batch_flags_bad_members_without_poisoning_others():
    g = RngStream(20, 0).generator()
    stack = np.empty((3, 3, 12), dtype=complex)
    for i in range(3):
        stack[i] = sample_ces(np.eye(3), NoiseModel.gaussian(), 12, g)
    basis = g.standard_normal((3, 1)) + 1j * g.standard_normal((3, 1))
    stack[1] = basis @ (g.standard_normal((1, 12)) + 1j * g.standard_normal((1, 12)))
    for w in (WeightFunction.tyler(3), WeightFunction.gg_ml(3, 0.5)):
        res = m_estimate_batch(stack, w)
        assert res.ok.tolist() == [True, False, True]
        for i in (0, 2):
            solo = m_estimate(stack[i], w)
            assert np.array_equal(solo.estimate, res.estimates[i])


# ---------------------------------------------------------------------------
# fixed-point residual oracle
# ---------------------------------------------------------------------------

def test_residual_of_scm_is_zero():
    x = gaussian_data(5, 50, seed=21)
    assert fixed_point_residual(scm(x), x, WeightFunction.scm(5)) < 1e-14


def test_residual_of_converged_tyler_is_small():
    x = gaussian_data(5, 50, seed=22)
    res = tyler_estimate(x)
    assert fixed_point_residual(res.estimate, x, WeightFunction.tyler(5)) < 10 * 1e-6


def test_residual_of_identity_on_anisotropic_data_is_large():
    x = gaussian_data(2, 400, seed=23, scatter=np.diag([16.0, 1.0]))
    assert fixed_point_residual(np.eye(2), x, WeightFunction.tyler(2)) > 0.1

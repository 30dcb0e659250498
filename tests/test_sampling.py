"""Sampler contracts: sphere uniformity, texture laws, CES moments, signal model."""

import contextlib
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from robustsense import (
    ChannelVector,
    NoiseModel,
    RngStream,
    gg_scale,
    make_channel,
    sample_ces,
    sample_chunk,
    sample_complex_sphere,
    sample_hypothesis,
    sample_texture,
)
from robustsense import sampling
from robustsense.sampling import Hypothesis


def gen(seed, stream=0):
    return RngStream(seed, stream).generator()


# ---------------------------------------------------------------------------
# complex unit sphere
# ---------------------------------------------------------------------------

def test_sphere_scalar_is_unit_modulus():
    u = sample_complex_sphere(1, gen(1))
    assert abs(abs(complex(u[0] if u.ndim else u)) - 1.0) < 1e-12


def test_sphere_columns_unit_norm():
    u = sample_complex_sphere(3, gen(2), size=500)
    assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-12


def test_sphere_rejects_zero_dimension():
    with pytest.raises(ValueError):
        sample_complex_sphere(0, gen(3))


def test_sphere_second_moment_is_identity_over_p():
    # E[u u^H] = I/p by rotational symmetry
    p, draws = 2, 100_000
    u = sample_complex_sphere(p, gen(4), size=draws)
    second = (u @ u.conj().T) / draws
    assert np.max(np.abs(second - np.eye(p) / p)) < 0.01


def test_sphere_rotation_invariance():
    # |e1^H u| has the same law before and after a fixed unitary rotation
    p, draws = 4, 20_000
    u = sample_complex_sphere(p, gen(5), size=draws)
    z = gen(6).standard_normal((p, p)) + 1j * gen(7).standard_normal((p, p))
    q, _ = np.linalg.qr(z)
    s0 = np.sort(np.abs(u[0, :]))
    s1 = np.sort(np.abs((q @ u)[0, :]))
    grid = np.concatenate([s0, s1])
    ks = np.max(np.abs(np.searchsorted(s0, grid, side="right") / draws
                       - np.searchsorted(s1, grid, side="right") / draws))
    assert ks < 1.63 * math.sqrt(2.0 / draws)  # 99% two-sample KS band


# ---------------------------------------------------------------------------
# textures
# ---------------------------------------------------------------------------

def test_gaussian_texture_mean():
    q = sample_texture(NoiseModel.gaussian(), 5, gen(8), size=1_000_000)
    assert abs(q.mean() - 5.0) < 0.02


def test_gg_shape_one_is_gaussian():
    # symbolic check: b = p (p-1)! / p! = 1, so the generator is exp(-d)
    for p in (1, 2, 5, 9):
        b_exact = p * math.factorial(p - 1) / math.factorial(p)
        assert b_exact == 1.0
        assert abs(gg_scale(p, 1.0) - 1.0) < 1e-12
    q_gg = sample_texture(NoiseModel.generalized_gaussian(1.0), 5, gen(9), size=1000)
    q_ga = sample_texture(NoiseModel.gaussian(), 5, gen(9), size=1000)
    assert np.allclose(q_gg, q_ga, rtol=1e-12)


def test_gg_texture_mean_three_sigma():
    q = sample_texture(NoiseModel.generalized_gaussian(0.1), 5, gen(10), size=1_000_000)
    se = q.std() / math.sqrt(q.size)
    assert abs(q.mean() - 5.0) < 3.0 * se


def test_gg_radial_density_quadrature_oracle():
    # independent check of E[Q] = p against the radial density q^(p-1) exp(-q^s/b);
    # integrate in log space, recentered on the peak of each integrand
    p, s = 5, 0.1
    b = gg_scale(p, s)

    def log_mass(y, k):
        return (p + k) * y - math.exp(s * y) / b

    def moment(k):
        peak = math.log(b * (p + k) / s) / s
        top = log_mass(peak, k)
        val = quad(lambda y: math.exp(log_mass(y, k) - top),
                   peak - 80, peak + 50, limit=400,
                   points=[peak - 5, peak, peak + 5])[0]
        return top, val

    t1, i1 = moment(1)
    t0, i0 = moment(0)
    assert abs(math.exp(t1 - t0) * i1 / i0 - p) < 5e-4


def test_student_t_texture_mean():
    q = sample_texture(NoiseModel.student_t(5.0), 5, gen(11), size=1_000_000)
    se = q.std() / math.sqrt(q.size)
    assert abs(q.mean() - 5.0) < 3.0 * se


def test_student_t_low_dof_warns_and_proceeds():
    with pytest.warns(RuntimeWarning, match="covariance"):
        q = sample_texture(NoiseModel.student_t(2.0), 5, gen(12), size=100)
    assert np.all(q > 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("cauchy")
    with pytest.raises(ValueError):
        NoiseModel.gaussian(sigma2=0.0)
    with pytest.raises(ValueError):
        NoiseModel.generalized_gaussian(-0.1)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", shape_s=0.5)


# ---------------------------------------------------------------------------
# CES sampling
# ---------------------------------------------------------------------------

def test_ces_identity_gaussian_covariance():
    x = sample_ces(np.eye(2), NoiseModel.gaussian(), 100_000, gen(13))
    emp = (x @ x.conj().T) / x.shape[1]
    assert np.max(np.abs(emp - np.eye(2))) < 0.02


@pytest.mark.parametrize("model", [
    NoiseModel.gaussian(),
    NoiseModel.generalized_gaussian(0.5),
    NoiseModel.student_t(5.0),
])
def test_ces_anisotropic_covariance_proportional(model):
    scatter = np.diag([4.0, 1.0]).astype(complex)
    x = sample_ces(scatter, model, 100_000, gen(14))
    emp = (x @ x.conj().T).real / x.shape[1]
    target = scatter.real * model.sigma2
    assert np.max(np.abs(emp / np.trace(emp) - target / np.trace(target))) < 0.02


def test_ces_single_column():
    x = sample_ces(np.eye(3), NoiseModel.gaussian(), 1, gen(15))
    assert x.shape == (3, 1)
    assert np.linalg.norm(x) > 0


def test_ces_rejects_bad_scatter():
    with pytest.raises(np.linalg.LinAlgError):
        sample_ces(np.diag([1.0, -1.0]), NoiseModel.gaussian(), 4, gen(16))
    with pytest.raises(ValueError):
        sample_ces(np.array([[1.0, 1.0], [0.0, 1.0]]), NoiseModel.gaussian(), 4, gen(17))


def test_squared_norm_mean_per_family():
    # E|x|^2 = p sigma2 at scatter = I for every family (scaled-down gate version)
    p, draws = 5, 200_000
    for model in (NoiseModel.gaussian(sigma2=2.0),
                  NoiseModel.generalized_gaussian(0.1),
                  NoiseModel.student_t(3.0)):
        x = sample_ces(np.eye(p), model, draws, gen(18))
        sq = np.sum(np.abs(x) ** 2, axis=0)
        se = sq.std() / math.sqrt(draws)
        assert abs(sq.mean() - p * model.sigma2) < 3.0 * se


# ---------------------------------------------------------------------------
# channel and hypotheses
# ---------------------------------------------------------------------------

def test_channel_zero_snr_is_silent():
    ch = make_channel(4, 0.0, 1.0, gen(19))
    assert np.all(ch.h == 0)


def test_channel_norm_at_zero_db():
    ch = make_channel(5, 1.0, 1.0, gen(20))
    assert abs(np.sum(np.abs(ch.h) ** 2) - 5.0) < 1e-12


def test_channel_norm_formula():
    ch = make_channel(2, 2.0, 0.5, gen(21))
    assert abs(np.sum(np.abs(ch.h) ** 2) - 2.0) < 1e-12


def test_channel_invariant_enforced():
    with pytest.raises(ValueError):
        ChannelVector(h=np.ones(3, dtype=complex), rho=2.0, sigma2=1.0)


def test_h0_matches_plain_ces_draw():
    model = NoiseModel.generalized_gaussian(0.3)
    ch = ChannelVector.zero(4)
    a = sample_hypothesis(model, ch, Hypothesis.H0, 20, gen(22))
    b = sample_ces(np.eye(4), model, 20, gen(22))
    assert np.array_equal(a, b)


def test_h1_with_zero_channel_equals_h0():
    # noise is drawn before the symbols, so a silent channel reproduces H0 exactly
    model = NoiseModel.gaussian()
    ch = ChannelVector.zero(3)
    a = sample_hypothesis(model, ch, Hypothesis.H1, 15, gen(23))
    b = sample_hypothesis(model, ch, Hypothesis.H0, 15, gen(23))
    assert np.array_equal(a, b)


def test_h1_covariance_is_spiked():
    p, n = 2, 100_000
    ch = make_channel(p, 1.0, 1.0, gen(24))
    x = sample_hypothesis(NoiseModel.gaussian(), ch, Hypothesis.H1, n, gen(25))
    emp = (x @ x.conj().T) / n
    target = np.outer(ch.h, ch.h.conj()) + np.eye(p)
    assert np.max(np.abs(emp - target)) < 0.02 * np.max(np.abs(target))


def test_hypothesis_sigma2_consistency_check():
    ch = ChannelVector.zero(3, sigma2=2.0)
    with pytest.raises(ValueError):
        sample_hypothesis(NoiseModel.gaussian(sigma2=1.0), ch, Hypothesis.H0, 5, gen(26))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_stream_reproduces_bitwise():
    model = NoiseModel.student_t(3.0)
    a = sample_ces(np.eye(3), model, 50, RngStream(99, 7).generator())
    b = sample_ces(np.eye(3), model, 50, RngStream(99, 7).generator())
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = sample_ces(np.eye(3), NoiseModel.gaussian(), 50, RngStream(99, 7).generator())
    b = sample_ces(np.eye(3), NoiseModel.gaussian(), 50, RngStream(99, 8).generator())
    assert not np.array_equal(a, b)


def test_stream_rejects_negative_ids():
    with pytest.raises(ValueError):
        RngStream(-1, 0)


# ---------------------------------------------------------------------------
# chunk sampler: byte-equal to the per-trial stream contract
# ---------------------------------------------------------------------------

def reference_chunk(model, p, n, rho, hypothesis, seed, lo, hi):
    """The per-trial loop: one stream per trial, channel then sample matrix."""
    x = np.empty((hi - lo, p, n), dtype=np.complex128)
    for j, t in enumerate(range(lo, hi)):
        g = RngStream(seed, t).generator()
        if hypothesis is Hypothesis.H1:
            channel = make_channel(p, rho, model.sigma2, g)
        else:
            channel = ChannelVector.zero(p, model.sigma2)
        x[j] = sample_hypothesis(model, channel, hypothesis, n, g)
    return x


def warns_if_no_covariance(model):
    if model.family == "student_t" and model.dof_nu <= 2:
        return pytest.warns(RuntimeWarning, match="no covariance")
    return contextlib.nullcontext()


CHUNK_MODELS = [
    NoiseModel.gaussian(sigma2=2.5),
    NoiseModel.generalized_gaussian(0.1),
    NoiseModel.generalized_gaussian(0.5, sigma2=2.5),
    NoiseModel.student_t(3.0),
    NoiseModel.student_t(1.5, sigma2=2.5),
]


@pytest.mark.parametrize("model", CHUNK_MODELS, ids=lambda m: f"{m.family}-{m.sigma2}")
@pytest.mark.parametrize("hypothesis, rho", [
    (Hypothesis.H0, 0.0),
    (Hypothesis.H1, 0.0),  # snr_db = -inf still draws a channel direction
    (Hypothesis.H1, 1.0),
])
@pytest.mark.parametrize("p, n", [(5, 10), (5, 50), (9, 12), (1, 1)])
def test_chunk_sampler_is_bitwise_equal_to_per_trial_path(model, hypothesis, rho, p, n):
    lo, hi = 4090, 4130  # a chunk that does not start at trial 0
    with warns_if_no_covariance(model):
        batched = sample_chunk(model, p, n, rho, hypothesis, 31, lo, hi)
    with warns_if_no_covariance(model):
        expected = reference_chunk(model, p, n, rho, hypothesis, 31, lo, hi)
    assert batched.shape == (hi - lo, p, n)
    assert batched.tobytes() == expected.tobytes()


# sha256 of reference_chunk(model, 5, 10, 1.0, hypothesis, 2024, 0, 16),
# recorded before the chunk sampler existed: the per-trial path itself
# must not drift either
PER_TRIAL_SHA256 = {
    ("gaussian", "H0"): "054f6eb2291a07f3df988578a5a8a776a02fddafa15ff28e12569b0843a42261",
    ("gaussian", "H1"): "405d12bb13e310e7314a2fc07e50ace6bd16ec36a8451def7fb98dd88b3b22d9",
    ("gg", "H0"): "1d4a550a9cbdf5a43ee84ea76c94b9b79517ff34b54decf4afa098e550c32238",
    ("gg", "H1"): "b3039a3d4ff5b23c359c5ec3e57e8b4aad8676ed9873237f29435b701d09ed80",
    ("student_t", "H0"): "cec6de6a72f46b3c265e02248054032101a408d5c8e0f03951ac141b9052f709",
    ("student_t", "H1"): "17dbd1c6355f27fbf7a59e2690d5575d3e51fc7cfe90feff054789df0d431372",
}


@pytest.mark.parametrize("model", CHUNK_MODELS[:2] + CHUNK_MODELS[3:4], ids=lambda m: m.family)
@pytest.mark.parametrize("hypothesis", list(Hypothesis), ids=lambda h: h.name)
def test_per_trial_stream_bytes_are_pinned(model, hypothesis):
    x = reference_chunk(model, 5, 10, 1.0, hypothesis, 2024, 0, 16)
    key = (model.family, hypothesis.name)
    assert hashlib.sha256(x.tobytes()).hexdigest() == PER_TRIAL_SHA256[key]
    assert sample_chunk(model, 5, 10, 1.0, hypothesis, 2024, 0, 16).tobytes() == x.tobytes()


@pytest.mark.parametrize("hypothesis", list(Hypothesis), ids=lambda h: h.name)
def test_chunk_sampler_redraws_a_guard_trial_like_the_per_trial_path(monkeypatch, hypothesis):
    model, p, n, seed, lo, hi, forced = NoiseModel.generalized_gaussian(0.5), 3, 8, 11, 100, 124, 117
    law = sampling._texture_law
    seen = []

    def spy(model, p, g, w):
        seen.append(g.copy())
        return law(model, p, g, w)

    monkeypatch.setattr(sampling, "_texture_law", spy)
    unforced = sample_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    mark = seen[0][forced - lo, 0]  # the forced trial's first raw texture draw

    def zero_marked(model, p, g, w):
        # all-zero noise columns in the marked trial; redraws are unmarked
        return np.where(g[..., :1] == mark, 0.0, law(model, p, g, w))

    monkeypatch.setattr(sampling, "_texture_law", zero_marked)
    batched = sample_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    expected = reference_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    assert batched.tobytes() == expected.tobytes()
    changed = np.any(batched != unforced, axis=(1, 2))
    assert np.flatnonzero(changed).tolist() == [forced - lo]

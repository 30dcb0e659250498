"""Sampler contracts: sphere uniformity, texture laws, CES moments, signal
model, and the chunk sampler's byte equality with ``sample_trial``.

The sphere and texture laws are checked on the private draw steps that
``sample_trial`` and ``sample_chunk`` share; the rest on ``sample_trial``.
"""

import contextlib
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from robustsense import NoiseModel, RngStream, derive_seed, gg_scale, sample_chunk, sample_trial
from robustsense import sampling
from robustsense.sampling import Hypothesis

H0, H1 = Hypothesis.H0, Hypothesis.H1


def gen(seed, stream=0):
    return RngStream(seed, stream).generator()


def textures(model, p, g, size):
    """sigma2 * Q for ``size`` draws, through the samplers' own two steps."""
    t = np.empty((2, size))
    sampling._texture_draws(model, p, g, t)
    return sampling._texture_law(model, p, t)


def noise(model, p, n, seed):
    """An H0 trial: pure CES noise drawn from the stream (seed, 0)."""
    return sample_trial(model, p, n, 0.0, H0, RngStream(seed, 0))


# ---------------------------------------------------------------------------
# complex unit sphere
# ---------------------------------------------------------------------------

def test_sphere_scalar_is_unit_modulus():
    u = sampling._sphere(gen(1), 1, 1)
    assert u.shape == (1, 1)
    assert abs(abs(complex(u[0, 0])) - 1.0) < 1e-12


def test_sphere_columns_unit_norm():
    u = sampling._sphere(gen(2), 3, 500)
    assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-12


@pytest.mark.parametrize("p, n, rho, message", [
    (0, 4, 1.0, "require p >= 1"), (3, 0, 1.0, "require p >= 1"), (3, 4, -1.0, "require p >= 1"),
    (3, 4, math.nan, "require p >= 1"), (3, 4, math.inf, "require p >= 1"),
    (3.0, 4, 1.0, "p must be an integer"), (3, 4.0, 1.0, "n must be an integer"),
    (True, 4, 1.0, "p must be an integer"), (3, True, 1.0, "n must be an integer"),
])
def test_trial_rejects_bad_geometry(p, n, rho, message):
    with pytest.raises(ValueError, match=message):
        sample_trial(NoiseModel("gaussian"), p, n, rho, H1, RngStream(3))
    with pytest.raises(ValueError, match=message):
        sample_chunk(NoiseModel("gaussian"), p, n, rho, H1, 3, 0, 2)


@pytest.mark.parametrize("lo, hi, message", [
    (5, 2, "lo <= hi"), (-1, 2, "0 <= lo"), (0, 2**64 + 1, "hi <= 2\\*\\*64"),
    (0, True, "hi must be an integer"), (0, 2.5, "hi must be an integer"),
    (1.0, 3, "lo must be an integer"), (np.False_, 3, "lo must be an integer"),
], ids=["reversed", "negative-lo", "hi-past-2**64", "bool-hi", "float-hi", "float-lo",
        "numpy-bool-lo"])
def test_chunk_rejects_a_bad_trial_range(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        sample_chunk(NoiseModel("gaussian"), 3, 4, 1.0, H1, 3, lo, hi)


def test_sphere_second_moment_is_identity_over_p():
    # E[u u^H] = I/p by rotational symmetry
    p, draws = 2, 100_000
    u = sampling._sphere(gen(4), p, draws)
    second = (u @ u.conj().T) / draws
    assert np.max(np.abs(second - np.eye(p) / p)) < 0.01


def test_sphere_rotation_invariance():
    # |e1^H u| has the same law before and after a fixed unitary rotation
    p, draws = 4, 20_000
    u = sampling._sphere(gen(5), p, draws)
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
    q = textures(NoiseModel("gaussian"), 5, gen(8), size=1_000_000)
    assert abs(q.mean() - 5.0) < 0.02


def test_gg_shape_one_is_gaussian():
    # symbolic check: b = p (p-1)! / p! = 1, so the generator is exp(-d)
    for p in (1, 2, 5, 9):
        b_exact = p * math.factorial(p - 1) / math.factorial(p)
        assert b_exact == 1.0
        assert abs(gg_scale(p, 1.0) - 1.0) < 1e-12
    q_gg = textures(NoiseModel("gg", shape_s=1.0), 5, gen(9), size=1000)
    q_ga = textures(NoiseModel("gaussian"), 5, gen(9), size=1000)
    assert np.allclose(q_gg, q_ga, rtol=1e-12)


def test_gg_texture_mean_three_sigma():
    q = textures(NoiseModel("gg", shape_s=0.1), 5, gen(10), size=1_000_000)
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
    q = textures(NoiseModel("student_t", dof_nu=5.0), 5, gen(11), size=1_000_000)
    se = q.std() / math.sqrt(q.size)
    assert abs(q.mean() - 5.0) < 3.0 * se


def test_student_t_low_dof_warns_and_proceeds():
    with pytest.warns(RuntimeWarning, match="covariance"):
        q = textures(NoiseModel("student_t", dof_nu=2.0), 5, gen(12), size=100)
    assert np.all(q > 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("cauchy")
    with pytest.raises(ValueError):
        NoiseModel("gaussian", sigma2=0.0)
    with pytest.raises(ValueError):
        NoiseModel("gg", shape_s=-0.1)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", shape_s=0.5)
    for p, s in ((0, 1.0), (3, 0.0), (3, math.nan), (3, math.inf)):
        with pytest.raises(ValueError):
            gg_scale(p, s)


# ---------------------------------------------------------------------------
# CES noise
# ---------------------------------------------------------------------------

def test_ces_identity_gaussian_covariance():
    x = noise(NoiseModel("gaussian"), 2, 100_000, 13)
    emp = (x @ x.conj().T) / x.shape[1]
    assert np.max(np.abs(emp - np.eye(2))) < 0.02


def test_ces_single_column():
    x = noise(NoiseModel("gaussian"), 3, 1, 15)
    assert x.shape == (3, 1)
    assert np.linalg.norm(x) > 0


def test_squared_norm_mean_per_family():
    # E|x|^2 = p sigma2 at scatter = I for every family (scaled-down gate version)
    p, draws = 5, 200_000
    for model in (NoiseModel("gaussian", sigma2=2.0),
                  NoiseModel("gg", shape_s=0.1),
                  NoiseModel("student_t", dof_nu=3.0)):
        x = noise(model, p, draws, 18)
        sq = np.sum(np.abs(x) ** 2, axis=0)
        se = sq.std() / math.sqrt(draws)
        assert abs(sq.mean() - p * model.sigma2) < 3.0 * se


# ---------------------------------------------------------------------------
# channel and hypotheses
# ---------------------------------------------------------------------------

def channel(p, rho, sigma2, g):
    return sampling._channel(sampling._sphere(g, p, 1), rho, p, sigma2)


def test_channel_zero_snr_is_silent():
    assert np.all(channel(4, 0.0, 1.0, gen(19)) == 0)


def test_channel_norm_at_zero_db():
    h = channel(5, 1.0, 1.0, gen(20))
    assert abs(np.sum(np.abs(h) ** 2) - 5.0) < 1e-12


def test_channel_norm_formula():
    h = channel(2, 2.0, 0.5, gen(21))
    assert abs(np.sum(np.abs(h) ** 2) - 2.0) < 1e-12


def test_h0_matches_plain_ces_draw():
    model = NoiseModel("gg", shape_s=0.3)
    assert np.array_equal(noise(model, 4, 20, 22), sampling._noise(model, 4, gen(22), 20))


def test_h1_trial_at_zero_snr_is_its_noise_after_the_channel_draw():
    # the channel direction is drawn first and the symbols last, so a silent
    # channel leaves exactly the noise that follows the direction's draws
    model, p, n = NoiseModel("gaussian"), 3, 15
    g = gen(23)
    sampling._sphere(g, p, 1)
    expected = sampling._noise(model, p, g, n)
    assert np.array_equal(sample_trial(model, p, n, 0.0, H1, RngStream(23)), expected)


def test_h1_covariance_is_spiked():
    p, n = 2, 100_000
    h = channel(p, 1.0, 1.0, gen(25))  # the trial's own first draws
    x = sample_trial(NoiseModel("gaussian"), p, n, 1.0, H1, RngStream(25))
    emp = (x @ x.conj().T) / n
    target = h @ h.conj().T + np.eye(p)
    assert np.max(np.abs(emp - target)) < 0.02 * np.max(np.abs(target))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_stream_reproduces_bitwise():
    model = NoiseModel("student_t", dof_nu=3.0)
    a = sample_trial(model, 3, 50, 1.0, H1, RngStream(99, 7))
    b = sample_trial(model, 3, 50, 1.0, H1, RngStream(99, 7))
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = sample_trial(NoiseModel("gaussian"), 3, 50, 0.0, H0, RngStream(99, 7))
    b = sample_trial(NoiseModel("gaussian"), 3, 50, 0.0, H0, RngStream(99, 8))
    assert not np.array_equal(a, b)


def test_stream_rejects_negative_ids():
    with pytest.raises(ValueError, match="master_seed"):
        RngStream(-1, 0)
    with pytest.raises(ValueError, match="stream_id"):
        RngStream(0, -1)
    with pytest.raises(ValueError, match="stream_id must be below 2"):
        RngStream(0, 2**64)  # the id is one 64-bit counter word
    # a non-integer fails where it is owned, not in numpy's SeedSequence later
    for seed, stream, field in [(1.5, 0, "master_seed"), (0, 2.0, "stream_id"),
                                ("7", 0, "master_seed"), (True, 0, "master_seed"),
                                (0, False, "stream_id"), (0, np.True_, "stream_id")]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RngStream(seed, stream)
    # numpy integers still pass, and the stream is the same as for the Python int
    stream = RngStream(np.uint64(7), np.int32(3))
    assert stream == RngStream(7, 3)
    assert type(stream.master_seed) is int and type(stream.stream_id) is int
    assert stream.generator().random() == gen(7, 3).random()


# ---------------------------------------------------------------------------
# the stream is numpy's own Philox at counter (0, 0, 0, t)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, derive_seed(2718, 3)],
                         ids=["seed-0", "seed-2**32", "seed-2**64-1", "seed-derived"])
@pytest.mark.parametrize("t", [0, 2**32, 2**64 - 1], ids=["t-0", "t-2**32", "t-2**64-1"])
def test_stream_is_philox_keyed_by_the_seed_with_the_id_as_counter(seed, t):
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    # a uint64 array: numpy turns a list holding 2**64 - 1 into floats
    counter = np.array([0, 0, 0, t], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key, counter=counter))
    ours = RngStream(seed, t).generator()
    assert ours.standard_normal(11).tobytes() == expected.standard_normal(11).tobytes()
    assert ours.bit_generator.random_raw(9).tolist() == expected.bit_generator.random_raw(9).tolist()


def test_stream_is_philox_keyed_by_the_seed_on_random_pairs():
    draw = np.random.default_rng(20240517)
    model = NoiseModel("gaussian")
    for i in range(200):
        # seeds of 1-4 32-bit words (4 reach past the edge seeds), ids anywhere in 64 bits
        seed = int(draw.integers(0, 2**63)) >> int(draw.integers(0, 64)) << int(draw.integers(0, 40))
        t = int(draw.integers(0, 2**64, dtype=np.uint64)) >> int(draw.integers(0, 64))
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        counter = np.array([0, 0, 0, t], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key, counter=counter))
        assert RngStream(seed, t).generator().standard_normal(5).tobytes() == \
            expected.standard_normal(5).tobytes()
        if i % 20 == 0:  # the chunk path reads the key from its own generator
            hi = min(t + 2, 2**64)
            assert sample_chunk(model, 2, 3, 1.0, Hypothesis.H1, seed, t, hi).tobytes() == \
                reference_chunk(model, 2, 3, 1.0, Hypothesis.H1, seed, t, hi).tobytes()


def test_chunk_sampler_is_bitwise_equal_at_the_last_stream_ids():
    model, seed = NoiseModel("student_t", dof_nu=3.0), derive_seed(2718, 3)
    lo, hi = 2**64 - 3, 2**64
    for hypothesis in Hypothesis:
        batched = sample_chunk(model, 4, 9, 1.0, hypothesis, seed, lo, hi)
        expected = reference_chunk(model, 4, 9, 1.0, hypothesis, seed, lo, hi)
        assert batched.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# chunk sampler: byte-equal to the per-trial stream contract
# ---------------------------------------------------------------------------

def reference_chunk(model, p, n, rho, hypothesis, seed, lo, hi):
    """The per-trial loop: one ``sample_trial`` per trial, on its own stream."""
    return np.stack([sample_trial(model, p, n, rho, hypothesis, RngStream(seed, t))
                     for t in range(lo, hi)])


def warns_if_no_covariance(model):
    if model.family == "student_t" and model.dof_nu <= 2:
        return pytest.warns(RuntimeWarning, match="no covariance")
    return contextlib.nullcontext()


CHUNK_MODELS = [
    NoiseModel("gaussian", sigma2=2.5),
    NoiseModel("gg", shape_s=0.1),
    NoiseModel("gg", sigma2=2.5, shape_s=0.5),
    NoiseModel("student_t", dof_nu=3.0),
    NoiseModel("student_t", sigma2=2.5, dof_nu=1.5),
]


@pytest.mark.parametrize("model", CHUNK_MODELS, ids=lambda m: f"{m.family}-{m.sigma2}")
@pytest.mark.parametrize("hypothesis, rho", [
    (H0, 0.0),
    (H1, 0.0),  # snr_db = -inf still draws a channel direction
    (H1, 1.0),
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


@pytest.mark.parametrize("trials_per_piece", [1, 7])
@pytest.mark.parametrize("hypothesis", [H0, H1], ids=lambda h: h.name)
def test_chunk_sampler_does_not_depend_on_its_piece_size(monkeypatch, hypothesis, trials_per_piece):
    model, p, n, lo, hi = NoiseModel("student_t", dof_nu=3.0), 5, 10, 4090, 4130
    expected = reference_chunk(model, p, n, 1.0, hypothesis, 31, lo, hi)
    monkeypatch.setattr(sampling, "_PIECE_BYTES", trials_per_piece * 16 * p * n)
    assert sample_chunk(model, p, n, 1.0, hypothesis, 31, lo, hi).tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", [NoiseModel("gaussian"), NoiseModel("gg", shape_s=0.1),
                                   NoiseModel("student_t", dof_nu=3.0)], ids=lambda m: m.family)
@pytest.mark.parametrize("hypothesis", [H0, H1], ids=lambda h: h.name)
def test_chunk_sampler_peak_memory_is_within_twice_its_stack(traced_peak, model, hypothesis):
    # the stack plus one piece's draw buffers and temporaries: 1.3-1.4x
    x, peak = traced_peak(sample_chunk, model, 5, 50, 1.0, hypothesis, 3, 0, 2048)
    assert peak <= 2 * x.nbytes


# sha256 of reference_chunk(model, 5, 10, 1.0, hypothesis, 2024, 0, 16),
# recorded from the per-trial path when trial streams became Philox counter
# streams: the per-trial path itself must not drift either
PER_TRIAL_SHA256 = {
    ("gaussian", "H0"): "bcc491b295aec83bcd3e3d5faf7b1b1228f6132af8ec774918460eed22607cc5",
    ("gaussian", "H1"): "369541f12c71427bcf7815d2cc69be066ff090c567b7bfdc2a854250bb9c846c",
    ("gg", "H0"): "61b21f6b34f9d4c964da8dcd664c69fcec75fdb45a5a44b7bf5eca1348c10509",
    ("gg", "H1"): "991d5c13724b776aa8ac3c578446b231f6e097f7f10c015d9d1542febdd1cd47",
    ("student_t", "H0"): "22d82d66f659a08db09074a838f750dbeb09624d08ba78d1b24b089e91ed3b5c",
    ("student_t", "H1"): "41e859b01b61e6f95214ac836a9cc2e7272b1fcc5fa57a6f150fc82e97cb1359",
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
    model, p, n, seed, lo, hi, forced = NoiseModel("gg", shape_s=0.5), 3, 8, 11, 100, 124, 117
    law = sampling._texture_law
    seen = []

    def spy(model, p, t):
        seen.append(t[..., 0, :].copy())  # the Gamma draws
        return law(model, p, t)

    monkeypatch.setattr(sampling, "_texture_law", spy)
    unforced = sample_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    mark = seen[0][forced - lo, 0]  # the forced trial's first raw texture draw

    calls = []

    def zero_marked(model, p, t):
        # all-zero noise columns in the marked trial; redraws are unmarked
        g = t[..., 0, :]
        calls.append(g.shape)
        return np.where(g[..., :1] == mark, 0.0, law(model, p, t))

    monkeypatch.setattr(sampling, "_texture_law", zero_marked)
    batched = sample_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    assert calls == [(hi - lo, n), (n,), (n,)]  # the chunk, the forced trial, its redraw
    expected = reference_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    assert batched.tobytes() == expected.tobytes()
    changed = np.any(batched != unforced, axis=(1, 2))
    assert np.flatnonzero(changed).tolist() == [forced - lo]


@pytest.mark.parametrize("hypothesis, call", [(H0, 0), (H1, 0), (H1, 1)],
                         ids=["sphere-H0", "sphere-H1", "channel-H1"])
def test_chunk_sampler_redraws_a_zero_norm_trial_like_the_per_trial_path(
        monkeypatch, hypothesis, call):
    # the chunk is one piece at this size: call 0 of its sphere normalization
    # is the noise, call 1 the channel
    model, p, n, seed, lo, hi, forced = NoiseModel("student_t", dof_nu=3.0), 3, 8, 12, 100, 124, 109
    unit = sampling._unit_columns
    seen = []

    def spy(z):
        seen.append(z.copy())
        return unit(z)

    monkeypatch.setattr(sampling, "_unit_columns", spy)
    unforced = sample_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    assert len(seen) == 1 + (hypothesis is H1)
    mark = seen[call][forced - lo, 0, 0].real  # the forced trial's first raw draw

    def zero_marked(z):
        # zero-norm columns where the marked draw appears; redraws are unmarked
        z[...] = np.where(z[..., :1, :].real == mark, 0.0, z)
        return unit(z)

    monkeypatch.setattr(sampling, "_unit_columns", zero_marked)
    batched = sample_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    expected = reference_chunk(model, p, n, 1.0, hypothesis, seed, lo, hi)
    assert np.isfinite(batched).all()
    assert batched.tobytes() == expected.tobytes()
    changed = np.any(batched != unforced, axis=(1, 2))
    assert np.flatnonzero(changed).tolist() == [forced - lo]

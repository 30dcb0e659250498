"""Harness contracts: determinism, curve construction, calibration, exclusions."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, gammainc

from robustsense import (
    DetectorSpec,
    ExclusionRateError,
    NoiseModel,
    SimConfig,
    StatSample,
    WeightFunction,
    calibrate_threshold,
    derive_seed,
    empirical_pfa_curve,
    montecarlo,
    roc_curve,
    run_experiment,
    threshold_grid,
)
from robustsense import estimators, sampling
from robustsense.config import ConfigError, load_config
from robustsense.sampling import Hypothesis

from oracles import ks_distance, pod_at_pfa, tw2_cdf
from stopping import stopping_rule

SCM_R = DetectorSpec("rlrt", "scm")
SCM_G = DetectorSpec("glrt", "scm")
TY_R = DetectorSpec("rlrt", "tyler")
TY_G = DetectorSpec("glrt", "tyler")


def small_config(trials=500, noise=None, detectors=(SCM_G, TY_G), seed=42, rho=0.0, n=8, p=3):
    return SimConfig(p=p, n=n, trials=trials, noise=noise or NoiseModel("gaussian"),
                     detectors=tuple(detectors), master_seed=seed, rho=rho)


def sample_of(values, spec=SCM_G):
    return StatSample(values=np.sort(np.asarray(values, dtype=float)), spec=spec)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_validation(tmp_path):
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
    with pytest.raises(ValueError, match="master_seed"):
        small_config(seed=-1)
    # a config file's seed is checked where it is read, and the message names the key
    preset = Path(load_config("fig4").path).read_text(encoding="utf-8")
    text, count = re.subn(r"(?m)^seed = \d+$", "seed = -5", preset)
    assert count == 1
    config = tmp_path / "negative_seed.ini"
    config.write_text(text)
    with pytest.raises(ConfigError, match=r"\[experiment\] seed = -5 must be a non-negative integer"):
        load_config(str(config))
    # scm-only configs may have n <= p
    assert small_config(n=2, p=3, detectors=(SCM_G,)).n == 2


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda v: NoiseModel("gaussian", sigma2=v),
    lambda v: NoiseModel("gg", shape_s=v),
    lambda v: NoiseModel("student_t", dof_nu=v),
    lambda v: small_config(rho=v),
    lambda v: WeightFunction("student_t", nu=v),
    lambda v: WeightFunction("gg_ml", shape_s=v),
], ids=["sigma2", "shape_s", "dof_nu", "rho", "nu", "gg_ml-shape_s"])
def test_each_owner_rejects_non_finite_values(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


@pytest.mark.parametrize("field", ["p", "n", "trials", "master_seed"])
def test_config_rejects_non_integer_sizes_and_seed(field):
    fields = dict(p=3, n=8, trials=16, master_seed=42)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**{**fields, field: fields[field] + 0.5}, noise=NoiseModel("gaussian"),
                  detectors=(SCM_G,))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**{**fields, field: float(fields[field])}, noise=NoiseModel("gaussian"),
                  detectors=(SCM_G,))
    # a bool is not an integer here, although Python's int() would take it
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**{**fields, field: flag}, noise=NoiseModel("gaussian"), detectors=(SCM_G,))
    # numpy integers still pass and are stored as Python ints
    cfg = SimConfig(**{**fields, field: np.int64(fields[field])}, noise=NoiseModel("gaussian"),
                    detectors=(SCM_G,))
    assert getattr(cfg, field) == fields[field] and type(getattr(cfg, field)) is int


def test_derive_seed_is_deterministic_and_salted():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(8, 0) != derive_seed(7, 0)


# ---------------------------------------------------------------------------
# trial generation
# ---------------------------------------------------------------------------

def test_single_trial_produces_one_value_per_detector():
    out = run_experiment(small_config(trials=1, detectors=(SCM_R, SCM_G, TY_R, TY_G)),
                         with_h1=False).h0
    assert len(out) == 4
    assert all(s.values.shape == (1,) for s in out.values())


def test_worker_count_does_not_change_results():
    cfg = small_config(trials=9000, detectors=(SCM_G, TY_G))
    a = run_experiment(cfg, with_h1=False, threads=1).h0
    b = run_experiment(cfg, with_h1=False, threads=3).h0
    for spec in a:
        assert np.array_equal(a[spec].values, b[spec].values)


def chunk_bytes(cfg, trials):
    """A chunk byte budget that gives ``cfg`` chunks of ``trials`` trials."""
    return trials * 16 * cfg.p * cfg.n


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # with the fork start method the pool forks all max_workers processes at
    # its first submit, so a worker without a chunk is a wasted fork
    started = []

    class SerialExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures):
            pass

    merged = []
    run_chunks = montecarlo._run_chunks

    def recording(config, hypothesis, results=None):
        merged.append(run_chunks(config, hypothesis, results))
        return merged[-1]

    cfg = small_config(trials=8)
    serial = montecarlo._run_chunks(cfg, Hypothesis.H0)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes(cfg, 4))
    monkeypatch.setattr(montecarlo, "_run_chunks", recording)
    list(montecarlo.run_experiments([cfg], with_h1=False, threads=5))
    assert_chunks_equal(merged[0], serial)
    assert started == [2]
    # the cap counts the chunks of the whole call: 2 configs x 2 hypotheses x 2
    list(montecarlo.run_experiments([cfg, cfg], with_h1=True, threads=16))
    assert started == [2, 8]


def test_serial_runner_runs_each_simulation_when_asked(monkeypatch):
    # with one worker nothing is forked, a simulation's chunks run only when
    # its result is asked for, and closing the generator runs nothing more
    seeds = []
    chunk_stats = montecarlo._chunk_stats

    def counting(config, hypothesis, lo):
        seeds.append(config.master_seed)
        return chunk_stats(config, hypothesis, lo)

    first, second = small_config(trials=8, seed=1), small_config(trials=8, seed=2)
    monkeypatch.setattr(montecarlo, "_chunk_stats", counting)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes(first, 4))
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", None)
    results = montecarlo.run_experiments([first, second], with_h1=True, threads=1)
    assert seeds == []
    next(results)
    assert seeds == [1] * 4  # 2 chunks under each hypothesis
    results.close()
    assert seeds == [1] * 4


FAMILY_CONFIGS = {
    "gaussian": dict(noise=NoiseModel("gaussian", sigma2=2.5), detectors=(SCM_G, TY_G)),
    "gg": dict(noise=NoiseModel("gg", shape_s=0.2),
               detectors=(SCM_G, TY_G, DetectorSpec("glrt", "gg_ml"))),
    "student_t": dict(noise=NoiseModel("student_t", dof_nu=3.0), detectors=(SCM_G, TY_G)),
}


def assert_chunks_equal(a, b):
    assert a.keys() == b.keys()
    for kind in a:
        assert a[kind].tobytes() == b[kind].tobytes()


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
@pytest.mark.parametrize("hypothesis", list(Hypothesis), ids=lambda h: h.name)
def test_results_do_not_depend_on_chunk_boundaries(monkeypatch, family, hypothesis):
    # chunks of 7 trials end on a short chunk, and one of 23 holds exactly
    # every trial; 1-trial chunks are forced by the byte-budget test below
    cfg = small_config(trials=23, rho=1.0, **FAMILY_CONFIGS[family])
    default = montecarlo._run_chunks(cfg, hypothesis)
    for chunk in (7, 23):
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes(cfg, chunk))
        assert montecarlo._chunk_trials(cfg) == chunk
        assert_chunks_equal(montecarlo._run_chunks(cfg, hypothesis), default)


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
@pytest.mark.parametrize("hypothesis", list(Hypothesis), ids=lambda h: h.name)
def test_results_do_not_depend_on_byte_budgets(monkeypatch, family, hypothesis):
    # a budget of one byte gives 1-trial chunks, 1-trial sampler pieces or
    # 1-member engine blocks; each is forced alone, then all
    cfg = small_config(trials=23, rho=1.0, **FAMILY_CONFIGS[family])
    default = montecarlo._run_chunks(cfg, hypothesis)
    budgets = ((montecarlo, "_CHUNK_BYTES"), (sampling, "_PIECE_BYTES"),
               (estimators, "_BLOCK_BYTES"))
    for module, budget in budgets:
        with monkeypatch.context() as patch:
            patch.setattr(module, budget, 1)
            assert_chunks_equal(montecarlo._run_chunks(cfg, hypothesis), default)
    for module, budget in budgets:
        monkeypatch.setattr(module, budget, 1)
    assert montecarlo._chunk_trials(cfg) == 1
    assert_chunks_equal(montecarlo._run_chunks(cfg, hypothesis), default)


def test_chunk_and_block_sizes_follow_their_byte_budgets():
    # (p, n) -> trials per chunk, members per engine block
    sizes = {(5, 10): (4096, 512), (5, 50): (2048, 512), (40, 400): (32, 1)}
    for (p, n), (chunk, block) in sizes.items():
        cfg = small_config(p=p, n=n)
        assert montecarlo._chunk_trials(cfg) == chunk
        assert estimators._block_members(p, n) == block


# Traced peak of the run below, from the byte budgets at p=40, n=400:
#   a chunk takes min(8, 8_192_000 // (16*40*400) = 32) = 8 trials, a 2.05 MB
#   stack, and an engine block takes 5_120_000 // (8*40*40*400) = 1 member,
#   whose Q is 5.12 MB.  Q is built by rows; the first row's two complex
#   temporaries take 2 * 16*39*400 = 0.50 MB.  2.05 + 5.12 + 0.50 = 7.7 MB;
#   the traced peak is 8.7 MB (per-trial results and the sampler's pieces),
#   and the bound adds 1.3 MB.  A block of all 8 members would take 8 times
#   the engine's 5.6 MB.
LARGE_RUN_PEAK_MB = 10.0


def test_large_dimension_run_stays_within_its_byte_budgets(traced_peak):
    # runs in about 2 s
    cfg = SimConfig(p=40, n=400, trials=8, noise=NoiseModel("gg", shape_s=0.1), rho=1.0,
                    detectors=(TY_G, DetectorSpec("glrt", "gg_ml")), master_seed=11)
    result, peak = traced_peak(run_experiment, cfg, with_h1=True)
    assert result.h1[TY_G].values.size == cfg.trials
    assert peak / 1e6 <= LARGE_RUN_PEAK_MB


@settings(max_examples=20, deadline=None)
@given(trials=st.integers(1, 12), chunk=st.integers(1, 13))
def test_chunk_size_property(trials, chunk):
    cfg = small_config(trials=trials, rho=1.0, seed=trials)
    old = montecarlo._CHUNK_BYTES
    try:
        whole = montecarlo._run_chunks(cfg, Hypothesis.H1)
        montecarlo._CHUNK_BYTES = chunk_bytes(cfg, chunk)
        assert_chunks_equal(montecarlo._run_chunks(cfg, Hypothesis.H1), whole)
    finally:
        montecarlo._CHUNK_BYTES = old


@pytest.mark.parametrize("threads", [0, -3, 2.5, True])
def test_run_experiment_rejects_bad_thread_counts(threads):
    with pytest.raises(ValueError, match="threads must be"):
        run_experiment(small_config(trials=4), with_h1=False, threads=threads)


def test_gg_ml_starts_from_usable_tyler_estimates_only(monkeypatch):
    gg_g = DetectorSpec("glrt", "gg_ml")
    cfg = small_config(trials=6, noise=NoiseModel("gg", shape_s=0.2), detectors=(TY_G, gg_g),
                       rho=1.0, n=12)
    x = sampling.sample_chunk(cfg.noise, cfg.p, cfg.n, cfg.rho, Hypothesis.H1,
                              cfg.master_seed, 0, cfg.trials)
    engine = montecarlo.m_estimate_batch
    gg = cfg.weight_for("gg_ml")
    cold = engine(x, gg)
    warm = engine(x, gg, initial=engine(x, cfg.weight_for("tyler")).estimates)
    assert not np.array_equal(cold.iterations[2:], warm.iterations[2:])

    def spoiled(x, weight, initial=None):
        res = engine(x, weight, initial=initial)
        if weight.kind == "tyler":
            res.converged[0] = False  # hit max_iterations
            res.ok[1] = False  # singular: its estimate is a placeholder
            res.estimates[1] = np.nan
        return res

    monkeypatch.setattr(montecarlo, "m_estimate_batch", spoiled)
    # a chunk runs gg_ml's source kind first, whatever the detector order
    for detectors in ((TY_G, gg_g), (gg_g, TY_G)):
        cfg = small_config(trials=6, noise=cfg.noise, detectors=detectors, rho=1.0, n=12)
        got = montecarlo._chunk_stats(cfg, Hypothesis.H1, 0)["gg_ml"]
        for i, ref in enumerate((cold, cold, warm, warm, warm, warm)):
            assert got["lam"][i] == ref.eigenvalues[i, -1]
            assert got["trace"][i] == np.einsum("kii->k", ref.estimates).real[i]
            assert got["iterations"][i] == ref.iterations[i]


def test_shared_estimator_equals_isolated_computation():
    cfg_both = small_config(trials=300, detectors=(TY_R, TY_G))
    cfg_single = small_config(trials=300, detectors=(TY_G,))
    both = run_experiment(cfg_both, with_h1=False).h0
    single = run_experiment(cfg_single, with_h1=False).h0
    assert np.array_equal(both[TY_G].values, single[TY_G].values)


def test_values_are_sorted_ascending():
    out = run_experiment(small_config(trials=400), with_h1=False).h0
    for s in out.values():
        assert np.all(np.diff(s.values) >= 0)


def test_rlrt_divides_by_the_noise_models_sigma2():
    # the same draws at noise power 2.5 scale lam_max by 2.5, which rlrt divides out
    unit, loud = (run_experiment(small_config(trials=200, noise=NoiseModel("gaussian", sigma2=s2),
                                              detectors=(SCM_R,)), with_h1=False).h0[SCM_R].values
                  for s2 in (1.0, 2.5))
    assert loud == pytest.approx(unit, rel=1e-12)


def test_h1_shifts_statistics_up():
    cfg = small_config(trials=400, rho=4.0, detectors=(SCM_G,))
    result = run_experiment(cfg, with_h1=True)
    h0, h1 = result.h0[SCM_G].values, result.h1[SCM_G].values
    assert np.median(h1) > np.median(h0)


def test_exclusion_rate_guard_trips():
    cfg = SimConfig(p=3, n=8, trials=64, noise=NoiseModel("gaussian"),
                    detectors=(TY_G,), master_seed=1)
    with stopping_rule(max_iterations=1), pytest.raises(ExclusionRateError):
        run_experiment(cfg, with_h1=False)


def test_pool_workers_see_the_parents_patched_globals(monkeypatch):
    # CLI tests that omit --threads run on a 2-worker pool and monkeypatch
    # module globals; the patches reach the workers only because they are
    # forked.  Under forkserver or spawn the workers re-import the unpatched
    # one-evaluation limit, every trial converges and nothing is raised.
    made = []

    class CountingExecutor(montecarlo.ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingExecutor)
    monkeypatch.setattr(estimators, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 16)  # 4 chunks, so a pool starts
    cfg = SimConfig(p=3, n=8, trials=64, noise=NoiseModel("gaussian"),
                    detectors=(TY_G,), master_seed=1)
    with pytest.raises(ExclusionRateError):
        run_experiment(cfg, with_h1=False, threads=2)
    assert made == [2]


def test_run_experiment_counts_exclusions_by_cause(monkeypatch):
    monkeypatch.setattr(montecarlo, "_MAX_EXCLUSION_RATE", 1.0)
    cfg = SimConfig(p=3, n=8, trials=64, noise=NoiseModel("gaussian"), rho=1.0,
                    detectors=(SCM_G, TY_G), master_seed=1)
    capped = 0
    with stopping_rule(max_iterations=12):
        for hypothesis in Hypothesis:
            tyler = montecarlo._run_chunks(cfg, hypothesis)["tyler"]
            assert tyler["ok"].all()
            assert (tyler["iterations"][~tyler["converged"]] == 12).all()
            capped += int(np.count_nonzero(~tyler["converged"]))
        # pooled over both hypotheses; scm is exact in one step
        stats = run_experiment(cfg, with_h1=True).iteration_stats
    assert 0 < capped < 2 * 64
    assert stats["tyler"]["max_iterations"] == capped
    assert stats["tyler"]["singular"] == 0
    assert stats["scm"]["max_iterations"] == stats["scm"]["singular"] == 0


def zero_a_column_of(monkeypatch, trials):
    """Give the listed trials of every run an all-zero first snapshot column."""
    def sample_chunk(model, p, n, rho, hypothesis, master_seed, lo, hi):
        x = sampling.sample_chunk(model, p, n, rho, hypothesis, master_seed, lo, hi)
        for t in trials:
            if lo <= t < hi:
                x[t - lo, :, 0] = 0.0
        return x

    monkeypatch.setattr(montecarlo, "sample_chunk", sample_chunk)


def test_run_experiment_counts_a_zero_column_trial_as_singular(monkeypatch):
    # trial 0 of each run loses one snapshot: Tyler flags it, scm keeps it
    zero_a_column_of(monkeypatch, [0])
    cfg = SimConfig(p=3, n=8, trials=64, noise=NoiseModel("gaussian"), rho=1.0,
                    detectors=(SCM_G, TY_G), master_seed=1)
    with pytest.raises(ExclusionRateError, match=re.escape(
            "tyler_glrt: 1 of 64 trials have no usable estimate "
            "(1 singular, 0 hit max_iterations; limit 0.1%)")):
        run_experiment(cfg, with_h1=False)
    monkeypatch.setattr(montecarlo, "_MAX_EXCLUSION_RATE", 1.0)
    result = run_experiment(cfg, with_h1=True)
    assert result.iteration_stats["tyler"]["singular"] == 2
    assert result.iteration_stats["scm"]["singular"] == 0
    assert result.h0[TY_G].n_excluded == 1 and result.h0[SCM_G].n_excluded == 0


def test_exclusion_guard_allows_exactly_its_limit(monkeypatch):
    # 0.1% of 1000 trials is one: one zero-column trial runs, two stop the run
    cfg = SimConfig(p=3, n=8, trials=1000, noise=NoiseModel("gaussian"),
                    detectors=(SCM_G, TY_G), master_seed=1)
    zero_a_column_of(monkeypatch, [0])
    h0 = run_experiment(cfg, with_h1=False).h0
    assert h0[TY_G].n_excluded == 1 and h0[SCM_G].n_excluded == 0
    zero_a_column_of(monkeypatch, [0, 999])
    with pytest.raises(ExclusionRateError, match=re.escape(
            "tyler_glrt: 2 of 1000 trials have no usable estimate "
            "(2 singular, 0 hit max_iterations; limit 0.1%)")):
        run_experiment(cfg, with_h1=False)


def test_scm_depends_on_family_tyler_does_not():
    trials = 2000
    gauss = run_experiment(small_config(trials=trials, seed=50), with_h1=False).h0
    heavy = run_experiment(small_config(trials=trials, seed=51,
                                        noise=NoiseModel("gg", shape_s=0.1)),
                           with_h1=False).h0
    assert ks_distance(gauss[SCM_G].values, heavy[SCM_G].values) > 0.2
    assert ks_distance(gauss[TY_G].values, heavy[TY_G].values) < 0.06


def ks_critical(a: int, b: int, alpha: float) -> float:
    """Large-sample critical value of the two-sample KS distance for sample
    sizes a and b at level alpha: sqrt(-ln(alpha/2)/2 * (a + b)/(a b))."""
    return math.sqrt(-math.log(alpha / 2) / 2 * (a + b) / (a * b))


@pytest.mark.slow
def test_tyler_glrt_null_is_cfar_at_large_dimension():
    # The paper's CFAR claim at p=40, n=400: Tyler's glrt null law does not
    # depend on the CES texture.  Pairwise two-sample KS over 1000 trials per
    # family stays below the alpha = 0.001 critical value (0.087); the SCM's
    # glrt (means about 1.66 Gaussian, 5.6 Student-t(3)) shows the test has
    # power.  About 30 s, serial: forked workers run slower at this size.
    models = (NoiseModel("gaussian"), NoiseModel("gg", shape_s=0.1),
              NoiseModel("student_t", dof_nu=3.0))
    runs = {}
    for i, model in enumerate(models):
        cfg = SimConfig(p=40, n=400, trials=1000, noise=model, detectors=(SCM_G, TY_G),
                        master_seed=derive_seed(4040, i))
        runs[model.family] = run_experiment(cfg, with_h1=False, threads=1).h0

    def ks(spec, a, b):
        x, y = runs[a][spec].values, runs[b][spec].values
        return ks_distance(x, y), ks_critical(x.size, y.size, 1e-3)

    for a, b in (("gaussian", "gg"), ("gaussian", "student_t"), ("gg", "student_t")):
        distance, critical = ks(TY_G, a, b)
        assert distance < critical, (a, b, distance, critical)
    distance, critical = ks(SCM_G, "gaussian", "student_t")
    assert distance > critical, (distance, critical)


@pytest.mark.slow
def test_gg_ml_trails_tyler_under_an_additive_spike():
    # ROADMAP item 1(b), at fig3's geometry, noise and seed: with a Gaussian
    # signal added to gg(0.1) noise at a -8 dB spike, gg_ml's glrt detects
    # less often than Tyler's at pfa 0.1, by more than 3 paired SE (about
    # -0.10 vs SE 0.0035).  The same pair under an elliptical spike of the
    # noise itself, where gg_ml is the ML estimate, is printed, not gated.
    trials, p, omega = 8192, 5, 10.0 ** (-8.0 / 10.0)
    kinds = ("tyler", "gg_ml")
    specs = {kind: DetectorSpec("glrt", kind) for kind in kinds}

    def config(seed, rho):
        return SimConfig(p=p, n=50, trials=trials, noise=NoiseModel("gg", shape_s=0.1),
                         detectors=tuple(specs.values()), master_seed=seed, rho=rho)

    def glrt(records):
        usable = np.logical_and.reduce([montecarlo._usable(records[k]) for k in kinds])
        return usable, {k: specs[k].evaluate(records[k]["lam"], records[k]["trace"], p, 1.0)
                        for k in kinds}

    usable, h0 = glrt(montecarlo._run_chunks(config(2718, 0.0), Hypothesis.H0))
    thresholds = {k: calibrate_threshold(sample_of(h0[k][usable], specs[k]), 0.1)
                  for k in kinds}

    def paired_gap(records):
        usable, h1 = glrt(records)
        detected = {k: h1[k][usable] > thresholds[k] for k in kinds}
        diff = detected["gg_ml"].astype(float) - detected["tyler"]
        return diff.mean(), diff.std() / math.sqrt(diff.size)

    # under _channel's convention the spike is ||h||^2 / sigma2 = rho p
    additive = paired_gap(montecarlo._run_chunks(config(2718, omega / p), Hypothesis.H1))

    # x' = (I + (sqrt(1 + omega) - 1) v v^H) x for H0 noise x from another
    # seed and a uniform unit vector v per trial
    gen = np.random.default_rng(derive_seed(2718, 2))
    v = gen.standard_normal((trials, p)) + 1j * gen.standard_normal((trials, p))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sample_chunk = montecarlo.sample_chunk

    def spiked(model, p, n, rho, hypothesis, master_seed, lo, hi):
        x = sample_chunk(model, p, n, rho, hypothesis, master_seed, lo, hi)
        u = v[lo:hi, :, None]
        return x + (math.sqrt(1.0 + omega) - 1.0) * u * (u.conj().transpose(0, 2, 1) @ x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "sample_chunk", spiked)
        elliptical = paired_gap(montecarlo._run_chunks(config(derive_seed(2718, 1), 0.0),
                                                       Hypothesis.H0))
    print(f"\npod gg_ml - tyler at pfa 0.1, -8 dB: additive {additive[0]:+.4f} "
          f"(paired SE {additive[1]:.4f}), elliptical {elliptical[0]:+.4f} "
          f"(paired SE {elliptical[1]:.4f})")
    assert additive[0] < -3.0 * additive[1], additive


def test_run_experiment_diagnostics():
    cfg = small_config(trials=300, rho=1.0, detectors=(SCM_G, TY_G))
    res = run_experiment(cfg, with_h1=True, threads=1)
    assert set(res.iteration_stats) == {"scm", "tyler"}
    assert res.iteration_stats["scm"] == dict(
        dict.fromkeys(("mean", "max", "p50", "p90", "p99"), 1.0), singular=0, max_iterations=0)
    ty = res.iteration_stats["tyler"]
    assert 1 <= ty["p50"] <= ty["p90"] <= ty["p99"] <= ty["max"]
    assert 1 <= ty["mean"] <= ty["max"]
    assert res.h1 is not None and len(res.h1) == 2


def sup_gap(exact):
    """sup |ECDF - F| of a sorted sample, given F at its points."""
    ecdf = np.arange(exact.size + 1) / exact.size  # ecdf[k]: just right of point k-1
    return max((ecdf[1:] - exact).max(), (exact - ecdf[:-1]).max())


def khatri_cdf(x, p, n):
    """P(lam_max(X X^H) <= x) for p x n X with i.i.d. CN(0, 1) entries, n >= p.

    Khatri (1964): det[gamma(n-p+i+j+1, x)] / det[Gamma(n-p+i+j+1)] over
    i, j = 0..p-1, with gamma the lower incomplete Gamma function.
    """
    a = n - p + 1 + np.add.outer(np.arange(p), np.arange(p))
    full = gamma(a)
    lower = gammainc(a, np.asarray(x, dtype=float)[..., None, None]) * full
    return np.linalg.det(lower) / np.linalg.det(full)


def test_gaussian_scm_rlrt_null_follows_the_khatri_law():
    # rlrt = lam_max(X X^H / n) / sigma2 with sigma2 = 1, so P(rlrt <= t) = Khatri(n t)
    p, n, trials = 5, 10, 50_000
    x = np.linspace(0.5, 40, 9)
    assert np.allclose(khatri_cdf(x, 1, n), gammainc(n, x))  # p = 1: |x|^2 ~ Gamma(n, 1)
    config = SimConfig(p=p, n=n, trials=trials, noise=NoiseModel("gaussian"),
                       detectors=(SCM_R,), master_seed=99)
    values = run_experiment(config, with_h1=False).h0[SCM_R].values
    assert values.size == trials
    gap = sup_gap(khatri_cdf(n * values, p, n))
    dkw_99 = math.sqrt(math.log(2 / 0.01) / (2 * trials))
    assert gap < dkw_99, f"sup-gap {gap:.4f} outside the 99% DKW band {dkw_99:.4f}"


@pytest.mark.parametrize("p, n, trials", [(5, 10, 50_000), (5, 50, 20_000)])
def test_gaussian_scm_glrt_null_moments_follow_the_khatri_law(p, n, trials):
    # r^2 = tr(X X^H) ~ Gamma(pn, 1) is independent of U = X / r, and
    # glrt = p lam_max(U U^H), so E[glrt^k] = p^k E[lam_max(X X^H)^k] Gamma(pn) / Gamma(pn + k)
    config = SimConfig(p=p, n=n, trials=trials, noise=NoiseModel("gaussian"),
                       detectors=(SCM_G,), master_seed=98)
    values = run_experiment(config, with_h1=False).h0[SCM_G].values
    assert values.size == trials
    for k in (1, 2):
        # E[lam_max^k] = integral of k x^(k-1) (1 - F(x)), F the Khatri CDF
        tail, _ = quad(lambda x: k * x ** (k - 1) * (1 - khatri_cdf(x, p, n)), 0, np.inf)
        exact = p**k * tail * math.exp(math.lgamma(p * n) - math.lgamma(p * n + k))
        moment = values**k
        se = moment.std() / math.sqrt(trials)
        assert abs(moment.mean() - exact) < 4 * se, (k, moment.mean(), exact, se)


def test_tw2_oracle_has_the_tracy_widom_mean_and_variance():
    s = np.linspace(-10.0, 6.0, 1601)
    density = np.gradient(tw2_cdf(s), s)
    mean = np.trapezoid(s * density, s)
    variance = np.trapezoid((s - mean) ** 2 * density, s)
    assert abs(mean + 1.7711) < 5e-4 and abs(variance - 0.8132) < 5e-4, (mean, variance)


@pytest.mark.slow
@pytest.mark.parametrize("p, n", [(40, 400), (20, 200)])
def test_gaussian_scm_rlrt_null_follows_tw2(p, n):
    # n rlrt = lam_max(X X^H) for CN(0, 1) entries; centred and scaled as in
    # Johnstone (Ann. Stat. 2001), complex case, it tends to TW2
    trials = 4000
    config = SimConfig(p=p, n=n, trials=trials, noise=NoiseModel("gaussian"),
                       detectors=(SCM_R, SCM_G), master_seed=11)
    h0 = run_experiment(config, with_h1=False, threads=1).h0
    mu = (math.sqrt(n) + math.sqrt(p)) ** 2
    sigma = (math.sqrt(n) + math.sqrt(p)) * (1 / math.sqrt(n) + 1 / math.sqrt(p)) ** (1 / 3)
    gaps = {}
    for spec in (SCM_R, SCM_G):
        values = h0[spec].values
        assert values.size == trials
        gaps[spec.statistic] = sup_gap(tw2_cdf((n * values - mu) / sigma))
    # glrt = lam_max p / trace is narrower than TW2, since lam_max and the
    # trace move together; reported only
    print(f"\n(p, n) = ({p}, {n}): sup-gap to TW2 rlrt {gaps['rlrt']:.4f}, glrt {gaps['glrt']:.4f}")
    dkw_99 = math.sqrt(math.log(2 / 0.01) / (2 * trials))
    assert gaps["rlrt"] < dkw_99, f"sup-gap {gaps['rlrt']:.4f} outside the 99% DKW band {dkw_99:.4f}"


# ---------------------------------------------------------------------------
# empirical exceedance curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values", [[], [2.0, 1.0, 3.0]], ids=["empty", "unsorted"])
def test_stat_sample_needs_sorted_values(values):
    # the curves and the calibration read order statistics off the values
    with pytest.raises(ValueError, match="scm_glrt: a sample needs at least one value, sorted"):
        StatSample(values=np.asarray(values, dtype=float), spec=SCM_G)


def test_pfa_curve_simple_counts():
    sample = sample_of([1.0, 2.0, 3.0, 4.0])
    curve = empirical_pfa_curve(sample, np.array([2.5]))
    assert curve.pfa[0] == 0.5
    assert curve.cdf[0] == 0.5
    # a threshold equal to a sample value is not exceeded by it: P(T > t) is strict
    tie = empirical_pfa_curve(sample_of([1.0, 2.0, 2.0, 3.0]), np.array([2.0]))
    assert tie.pfa[0] == 0.25
    assert tie.cdf[0] == 0.75


def test_pfa_curve_endpoints():
    sample = sample_of([1.0, 2.0, 3.0])
    curve = empirical_pfa_curve(sample, np.array([0.0, 5.0]))
    assert curve.pfa[0] == 1.0 and curve.pfa[-1] == 0.0
    assert curve.cdf[0] == 0.0 and curve.cdf[-1] == 1.0


def test_pfa_curve_matches_naive_counting():
    g = np.random.default_rng(3)
    values = np.sort(g.standard_normal(500))
    grid = np.sort(g.standard_normal(64))
    sample = sample_of(values)
    curve = empirical_pfa_curve(sample, grid)
    naive = np.array([np.sum(values > t) / values.size for t in grid])
    assert np.array_equal(curve.pfa, naive)
    assert np.all(np.diff(curve.pfa) <= 0)


def test_threshold_grid_spans_support():
    sample = sample_of(np.linspace(0, 1, 2000))
    grid = threshold_grid(sample)
    assert grid[0] == sample.values[0]
    assert grid[-1] == sample.values[-1]
    assert grid.size == 512


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------

def test_calibrate_order_statistic_rule():
    sample = sample_of(np.arange(1.0, 101.0))
    t = calibrate_threshold(sample, 0.05)
    assert t == 95.0
    assert np.sum(sample.values > t) / 100 == 0.05


def test_calibrate_two_values():
    t = calibrate_threshold(sample_of([1.0, 2.0]), 0.5)
    assert t == 1.0


def test_calibrate_guarantees_pfa_at_most_target():
    g = np.random.default_rng(4)
    sample = sample_of(g.standard_normal(997))
    for alpha in (0.01, 0.1, 0.3, 0.77):
        t = calibrate_threshold(sample, alpha)
        assert np.sum(sample.values > t) / sample.values.size <= alpha


def test_calibrate_warns_on_unresolvable_quantile():
    sample = sample_of(np.arange(1000.0))
    with pytest.warns(RuntimeWarning, match="unresolvable"):
        calibrate_threshold(sample, 0.999999)
    with pytest.warns(RuntimeWarning, match="unresolvable"):
        calibrate_threshold(sample, 1e-6)


def test_calibrate_rejects_bad_target():
    sample = sample_of([1.0, 2.0])
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            calibrate_threshold(sample, alpha)


def test_calibrated_threshold_validates_on_holdout():
    alpha, trials = 0.1, 20_000
    cfg_a = small_config(trials=trials, seed=60, detectors=(SCM_G,))
    cfg_b = small_config(trials=trials, seed=61, detectors=(SCM_G,))
    t = calibrate_threshold(run_experiment(cfg_a, with_h1=False).h0[SCM_G], alpha)
    fresh = run_experiment(cfg_b, with_h1=False).h0[SCM_G].values
    achieved = np.sum(fresh > t) / fresh.size
    assert abs(achieved - alpha) < 3.0 * math.sqrt(alpha * (1 - alpha) / trials)


# ---------------------------------------------------------------------------
# ROC curves
# ---------------------------------------------------------------------------

def test_roc_identical_samples_lie_on_diagonal():
    values = np.random.default_rng(5).standard_normal(800)
    h0 = sample_of(values)
    h1 = sample_of(values)
    curve = roc_curve(h0, h1)
    assert np.array_equal(curve.pfa, curve.pod)


def test_roc_perfect_separation():
    values = np.sort(np.random.default_rng(6).standard_normal(500))
    h0 = sample_of(values)
    h1 = sample_of(values + 10.0)
    curve = roc_curve(h0, h1)
    # full detection is achievable at every false-alarm level below one
    assert np.all(curve.pod[(curve.pfa > 0.0) & (curve.pfa < 1.0)] == 1.0)
    for target in (0.0, 0.1, 0.5, 0.99):
        assert pod_at_pfa(curve, target) == 1.0


def test_roc_endpoints_and_monotonicity():
    g = np.random.default_rng(7)
    h0 = sample_of(g.standard_normal(600))
    h1 = sample_of(g.standard_normal(600) + 0.7)
    curve = roc_curve(h0, h1)
    assert curve.pfa[0] == 0.0
    assert curve.pfa[-1] == 1.0 and curve.pod[-1] == 1.0
    assert np.all(np.diff(curve.pfa) >= 0)
    assert np.all(np.diff(curve.pod) >= 0)
    assert np.all((curve.pfa >= 0) & (curve.pfa <= 1))
    assert np.all((curve.pod >= 0) & (curve.pod <= 1))


def test_roc_rejects_mismatched_specs():
    h0 = sample_of([1.0, 2.0], spec=SCM_G)
    h1 = sample_of([1.0, 2.0], spec=TY_G)
    with pytest.raises(ValueError):
        roc_curve(h0, h1)


def test_tyler_rlrt_and_glrt_share_roc_points():
    cfg = small_config(trials=600, rho=1.0, detectors=(TY_R, TY_G))
    result = run_experiment(cfg, with_h1=True)
    h0, h1 = result.h0, result.h1
    r = roc_curve(h0[TY_R], h1[TY_R])
    g = roc_curve(h0[TY_G], h1[TY_G])
    assert np.array_equal(r.pfa, g.pfa)
    assert np.array_equal(r.pod, g.pod)


def test_pod_at_pfa_interpolation():
    diag = np.linspace(0, 1, 11)
    curve_diag = roc_curve(sample_of(diag), sample_of(diag))
    assert pod_at_pfa(curve_diag, 0.3) == pytest.approx(0.3, abs=1e-12)
    values = np.linspace(0, 1, 50)
    sep = roc_curve(sample_of(values), sample_of(values + 10.0))
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
    for empty in ((a, a[:0]), (a[:0], a)):
        with pytest.raises(ValueError, match="non-empty"):
            ks_distance(*empty)

"""Acceptance gate: the eight build criteria at their stated tolerances.

Heavy simulations are shared across criteria through session fixtures; the
impulsive-noise ROC experiment runs through the installed CLI so the same
artifacts serve the ordering, equivalence and determinism criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every test here is marked ``slow``, so ``pytest -m "not slow"``
runs the unit suites alone.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from robustsense import (
    DetectorSpec,
    NoiseModel,
    RngStream,
    RocCurve,
    SimConfig,
    WeightFunction,
    derive_seed,
    gg_scale,
    m_estimate_batch,
    run_experiment,
    sample_chunk,
    sample_trial,
)
from robustsense.cli import main
from robustsense.sampling import Hypothesis

from oracles import fixed_point_residual, ks_distance, pod_at_pfa, scm
from stopping import stopping_rule

pytestmark = pytest.mark.slow

TRIALS = 100_000
P, SIGMA2 = 5, 1.0
THREADS = 2

FAMILIES = {
    "gaussian": NoiseModel("gaussian", sigma2=SIGMA2),
    "gg": NoiseModel("gg", sigma2=SIGMA2, shape_s=0.1),
    "student_t": NoiseModel("student_t", sigma2=SIGMA2, dof_nu=3.0),
}
FOUR_DETECTORS = (
    DetectorSpec("rlrt", "scm"),
    DetectorSpec("glrt", "scm"),
    DetectorSpec("rlrt", "tyler"),
    DetectorSpec("glrt", "tyler"),
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def load_roc_csv(path) -> RocCurve:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return RocCurve(pfa=data[:, 0], pod=data[:, 1])


def three_se_margin(pod_a: float, pod_b: float, trials: int = TRIALS) -> float:
    var = (pod_a * (1 - pod_a) + pod_b * (1 - pod_b)) / trials
    return 3.0 * math.sqrt(var)


def tie_notes(pods: dict[str, float], clauses, trials: int = TRIALS) -> str:
    """Detail text naming each detector whose pod lies within 3 binomial SE
    of 1 (pod = 1 counts), and each clause ``(text, holds, detectors)`` that
    holds only because all of its detectors sit there: a tie at 1 shows no
    ordering."""
    tied = {name for name, pod in pods.items()
            if 1.0 - pod <= 3.0 * math.sqrt(pod * (1.0 - pod) / trials)}
    notes = [f"pod within 3 SE of 1: {', '.join(sorted(tied)) or 'none'}"]
    notes += [f"{text} holds only as a tie at 1"
              for text, holds, detectors in clauses if holds and tied >= set(detectors)]
    return "; " + "; ".join(notes)


# ---------------------------------------------------------------------------
# shared experiment runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def null_cdf_runs():
    """H0 statistic samples at p=5, n=10 for all three families, with timing."""
    start = time.perf_counter()
    runs = {}
    for i, (name, model) in enumerate(FAMILIES.items()):
        cfg = SimConfig(p=P, n=10, trials=TRIALS, noise=model,
                        detectors=FOUR_DETECTORS, master_seed=derive_seed(1729, i))
        runs[name] = run_experiment(cfg, with_h1=False, threads=THREADS).h0
    return runs, time.perf_counter() - start


@pytest.fixture(scope="session")
def impulsive_roc_dirs(tmp_path_factory):
    """The bundled impulsive-noise ROC preset, run twice with different worker counts."""
    out1 = tmp_path_factory.mktemp("fig3_serial")
    out2 = tmp_path_factory.mktemp("fig3_parallel")
    assert main(["roc", "--config", "fig3", "--out", str(out1), "--threads", "1"]) == 0
    assert main(["roc", "--config", "fig3", "--out", str(out2), "--threads", str(THREADS)]) == 0
    return out1, out2


@pytest.fixture(scope="session")
def gaussian_roc_pods():
    """pod at pfa = 0.1 for the four detectors under Gaussian noise, fig4 geometry."""
    from robustsense import roc_curve

    cfg = SimConfig(p=P, n=50, trials=TRIALS, noise=FAMILIES["gaussian"],
                    detectors=FOUR_DETECTORS, master_seed=3141, rho=1.0)
    result = run_experiment(cfg, with_h1=True, threads=THREADS)
    return {spec.label: pod_at_pfa(roc_curve(result.h0[spec], result.h1[spec]), 0.1)
            for spec in FOUR_DETECTORS}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_constant_false_alarm(null_cdf_runs):
    runs, elapsed = null_cdf_runs
    pairs = [("gaussian", "gg"), ("gaussian", "student_t"), ("gg", "student_t")]
    tyler_ks, scm_ks = {}, {}
    for stat in ("rlrt", "glrt"):
        ty = DetectorSpec(stat, "tyler")
        sc = DetectorSpec(stat, "scm")
        for a, b in pairs:
            tyler_ks[(stat, a, b)] = ks_distance(runs[a][ty].values, runs[b][ty].values)
            scm_ks[(stat, a, b)] = ks_distance(runs[a][sc].values, runs[b][sc].values)
    worst_tyler = max(tyler_ks.values())
    best_scm = {stat: max(v for k, v in scm_ks.items() if k[0] == stat)
                for stat in ("rlrt", "glrt")}
    ok = (worst_tyler < 0.01
          and all(v > 0.05 for v in best_scm.values())
          and elapsed < 120.0)
    report("criterion 1 constant-false-alarm",
           ok,
           f"tyler worst KS {worst_tyler:.4f} < 0.01; scm max KS "
           f"rlrt {best_scm['rlrt']:.3f}, glrt {best_scm['glrt']:.3f} > 0.05; "
           f"runtime {elapsed:.0f}s < 120s")


def test_criterion_2_tyler_statistic_equivalence(null_cdf_runs, impulsive_roc_dirs):
    # per-trial proportionality at non-trivial sigma2, on the statistics a
    # chunk computes
    sigma2, trials = 2.0, 2000
    stack = sample_chunk(NoiseModel("student_t", sigma2=sigma2, dof_nu=3.0), P, 10, 0.0,
                         Hypothesis.H0, 6021, 0, trials)
    res = m_estimate_batch(stack, WeightFunction("tyler"))
    lam, trace = res.eigenvalues[:, -1], np.einsum("kii->k", res.estimates).real
    expected = sigma2 * DetectorSpec("rlrt", "tyler").evaluate(lam, trace, P, sigma2)
    glrt = DetectorSpec("glrt", "tyler").evaluate(lam, trace, P, sigma2)
    worst = float(np.max(np.abs(glrt - expected) / expected))
    usable = int(res.ok.sum())

    # the sorted 100k-trial samples obey the same constant (sigma2 = 1 here)
    runs, _ = null_cdf_runs
    ty_r = runs["gg"][DetectorSpec("rlrt", "tyler")].values
    ty_g = runs["gg"][DetectorSpec("glrt", "tyler")].values
    worst_sorted = float(np.max(np.abs(ty_g - ty_r) / ty_r))

    # identical ROC point sets on shared trials
    out1, _ = impulsive_roc_dirs
    roc_r = load_roc_csv(out1 / "roc_tyler_rlrt.csv")
    roc_g = load_roc_csv(out1 / "roc_tyler_glrt.csv")
    same_points = (np.array_equal(roc_r.pfa, roc_g.pfa)
                   and np.array_equal(roc_r.pod, roc_g.pod))

    ok = usable == trials and worst < 1e-12 and worst_sorted < 1e-12 and same_points
    report("criterion 2 tyler rlrt/glrt equivalence",
           ok,
           f"{usable}/{trials} usable; per-trial rel dev {worst:.2e} < 1e-12; "
           f"sorted-sample dev {worst_sorted:.2e}; "
           f"roc point sets identical: {same_points}")


def test_criterion_3_impulsive_noise_ordering(impulsive_roc_dirs):
    out1, _ = impulsive_roc_dirs
    pods = {name: pod_at_pfa(load_roc_csv(out1 / f"roc_{name}.csv"), 0.1)
            for name in ("gg_ml_glrt", "tyler_glrt", "scm_glrt", "scm_rlrt")}
    m_glrt = three_se_margin(pods["tyler_glrt"], pods["scm_glrt"])
    m_rlrt = three_se_margin(pods["tyler_glrt"], pods["scm_rlrt"])
    ml_first = pods["gg_ml_glrt"] >= pods["tyler_glrt"]
    ok = (ml_first
          and pods["tyler_glrt"] - pods["scm_glrt"] > m_glrt
          and pods["tyler_glrt"] - pods["scm_rlrt"] > m_rlrt)
    report("criterion 3 impulsive-noise ordering at pfa=0.1",
           ok,
           f"pod: gg_ml {pods['gg_ml_glrt']:.5f} >= tyler {pods['tyler_glrt']:.5f}; "
           f"tyler - scm_glrt = {pods['tyler_glrt'] - pods['scm_glrt']:.5f} vs 3se {m_glrt:.5f}; "
           f"tyler - scm_rlrt = {pods['tyler_glrt'] - pods['scm_rlrt']:.5f} vs 3se {m_rlrt:.5f}"
           + tie_notes(pods, [("gg_ml >= tyler", ml_first, ("gg_ml_glrt", "tyler_glrt"))]))


def test_criterion_4_gaussian_ordering(gaussian_roc_pods):
    pods = gaussian_roc_pods
    rlrt_is_max = all(pods["scm_rlrt"] >= v for v in pods.values())
    robustness_price = abs(pods["tyler_glrt"] - pods["scm_glrt"])
    ok = rlrt_is_max and robustness_price < 0.1
    clauses = [(f"scm_rlrt >= {name}", pods["scm_rlrt"] >= pod, ("scm_rlrt", name))
               for name, pod in pods.items() if name != "scm_rlrt"]
    clauses.append(("|tyler_glrt - scm_glrt| < 0.1", robustness_price < 0.1,
                    ("tyler_glrt", "scm_glrt")))
    report("criterion 4 gaussian ordering at pfa=0.1",
           ok,
           f"scm_rlrt {pods['scm_rlrt']:.5f} is max of {sorted(pods.values())}; "
           f"|tyler_glrt - scm_glrt| = {robustness_price:.5f} < 0.1"
           + tie_notes(pods, clauses))


def test_criterion_5_fixed_point_correctness():
    eps, n, per_family = 1e-6, 50, 100
    weights = {
        "tyler": WeightFunction("tyler"),
        "student_t": WeightFunction("student_t", nu=3.0),
        "gg_ml": WeightFunction("gg_ml", shape_s=0.1),
    }
    worst_resid, worst_scm, worst_trace = 0.0, 0.0, 0.0
    converged_count, total = 0, 0
    for fi, model in enumerate(FAMILIES.values()):
        stack = sample_chunk(model, P, n, 0.0, Hypothesis.H0, 9100 + fi, 0, per_family)
        for name, w in weights.items():
            batch = m_estimate_batch(stack, w)
            for k in range(per_family):
                total += 1
                if not (batch.ok[k] and batch.converged[k]):
                    continue
                converged_count += 1
                worst_resid = max(worst_resid,
                                  fixed_point_residual(batch.estimates[k], stack[k], w))
                if name == "tyler":
                    worst_trace = max(worst_trace,
                                      abs(np.trace(batch.estimates[k]).real - P))
        for k in range(per_family):
            worst_scm = max(worst_scm,
                            fixed_point_residual(scm(stack[k]), stack[k],
                                                 WeightFunction("scm")))
    ok = (worst_resid < 10 * eps and worst_scm < 1e-14 and worst_trace < 1e-12
          and converged_count == total)
    report("criterion 5 fixed-point correctness",
           ok,
           f"{converged_count}/{total} converged; worst residual {worst_resid:.2e} < 1e-5; "
           f"scm residual {worst_scm:.2e} < 1e-14; tyler trace dev {worst_trace:.2e} < 1e-12")


def test_criterion_6_student_t_weight_limits():
    x = sample_trial(NoiseModel("gaussian"), P, 100, 0.0, Hypothesis.H0, RngStream(6200, 0))
    s = scm(x)
    near = m_estimate_batch(x[None], WeightFunction("student_t", nu=1e6))
    dev_scm = np.linalg.norm(near.estimates[0] - s) / np.linalg.norm(s)

    x2 = sample_trial(NoiseModel("student_t", dof_nu=3.0), P, 50, 0.0, Hypothesis.H0,
                      RngStream(6200, 1))
    with stopping_rule(epsilon=1e-12, max_iterations=500):
        zero_dof = m_estimate_batch(x2[None], WeightFunction("student_t", nu=0.0))
        tyler = m_estimate_batch(x2[None], WeightFunction("tyler"))
    raw, ty = zero_dof.estimates[0], tyler.estimates[0]
    raw = raw * (np.trace(ty).real / np.trace(raw).real)
    dev_tyler = np.linalg.norm(raw - ty) / np.linalg.norm(ty)

    usable = near.ok[0] and zero_dof.ok[0] and tyler.ok[0]
    ok = usable and dev_scm < 1e-3 and dev_tyler < 1e-8
    report("criterion 6 student-t weight limits",
           ok,
           f"estimates usable: {usable}; nu=1e6 vs scm {dev_scm:.2e} < 1e-3; "
           f"nu=0 vs tyler {dev_tyler:.2e} < 1e-8")


def test_criterion_7_sampler_normalization():
    draws = 1_000_000
    details, ok = [], True
    for i, (name, model) in enumerate(FAMILIES.items()):
        x = sample_trial(model, P, draws, 0.0, Hypothesis.H0, RngStream(7100, i))
        sq = np.sum(np.abs(x) ** 2, axis=0)
        se = sq.std() / math.sqrt(draws)
        dev = abs(sq.mean() - P * SIGMA2)
        ok &= dev < 3.0 * se
        details.append(f"{name} |mean-5|={dev:.4f} (3se={3 * se:.4f})")

    # quadrature oracle for the gg radial law, integrated in recentered log space
    s = 0.1
    b = gg_scale(P, s)

    def log_mass(y, k):
        return (P + k) * y - math.exp(s * y) / b

    def moment(k):
        peak = math.log(b * (P + k) / s) / s
        top = log_mass(peak, k)
        val = quad(lambda y: math.exp(log_mass(y, k) - top),
                   peak - 80, peak + 50, limit=400,
                   points=[peak - 5, peak, peak + 5])[0]
        return top, val

    t1, i1 = moment(1)
    t0, i0 = moment(0)
    quad_mean = math.exp(t1 - t0) * i1 / i0
    ok &= abs(quad_mean - P) < 5e-4
    report("criterion 7 sampler normalization",
           ok,
           "; ".join(details) + f"; gg quadrature mean {quad_mean:.6f} vs 5")


def test_criterion_8_thread_count_determinism(impulsive_roc_dirs):
    out1, out2 = impulsive_roc_dirs
    names = sorted(p.name for p in out1.glob("*.csv"))
    identical = bool(names) and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names
    )
    report("criterion 8 thread-count determinism",
           identical,
           f"{len(names)} csv files byte-identical across worker counts: {identical}")

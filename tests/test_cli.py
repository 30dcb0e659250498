"""Command-line surface: presets, CSV schemas, manifests, determinism, exits."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustsense
from robustsense.cli import main
from robustsense.config import PRESETS, ConfigError, load_config, preset_path

POF_TEMPLATE = """\
[experiment]
kind = pof-curve
p = 3
n = 8
trials = {trials}
seed = {seed}

[noise]
families = gaussian, gg, student_t
sigma2 = 1.0
gg_shape = 0.5
student_t_dof = 3.0

[detectors]
estimators = scm, tyler
statistics = rlrt, glrt
"""

ROC_TEMPLATE = """\
[experiment]
kind = roc
p = 3
n = 8
trials = {trials}
seed = {seed}
snr_db = {snr_db}

[noise]
family = gg
sigma2 = 1.0
gg_shape = 0.5

[detectors]
estimators = scm, tyler, gg_ml
statistics = rlrt, glrt
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_presets_exist_and_parse():
    for name in PRESETS:
        assert preset_path(name) is not None
        cfg = load_config(name)
        assert cfg.trials == 100_000
        assert cfg.p == 5


def test_preset_parameters():
    fig1 = load_config("fig1")
    assert (fig1.kind, fig1.n) == ("pof-curve", 10)
    assert set(fig1.families) == {"gaussian", "gg", "student_t"}
    assert fig1.gg_shape == 0.1 and fig1.student_t_dof == 3.0
    assert len(fig1.detector_specs()) * len(fig1.families) == 12

    fig3 = load_config("fig3")
    assert (fig3.kind, fig3.n, fig3.snr_db) == ("roc", 50, 0.0)
    assert fig3.families == ("gg",) and fig3.gg_shape == 0.1
    assert len(fig3.detector_specs()) == 6

    fig4 = load_config("fig4")
    assert fig4.families == ("gaussian",)
    assert len(fig4.detector_specs()) == 4


def test_fig2_is_an_alias_of_fig1():
    assert preset_path("fig2") == preset_path("fig1")
    assert load_config("fig2") == load_config("fig1")


def test_unknown_preset_or_path():
    with pytest.raises(ConfigError, match="presets"):
        load_config("fig9")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

POF = POF_TEMPLATE.format(trials=10, seed=1)
ROC = ROC_TEMPLATE.format(trials=10, seed=1, snr_db=0.0)


@pytest.mark.parametrize("text, old, new, bad_value", [
    (POF, "families = gaussian, gg, student_t", "families = gaussian, cauchy", "cauchy"),
    (POF, "estimators = scm, tyler", "estimators = scm, huber", "huber"),
    (POF, "statistics = rlrt, glrt", "statistics = rlrt, lmpit", "lmpit"),
    (POF, "estimators = scm, tyler", "estimators =", "detector"),
    (ROC, "family = gg", "family = gaussian", "gg_ml"),
    (POF, "families = gaussian, gg, student_t", "families = gaussian, gg, gaussian",
     "families lists 'gaussian' more than once"),
    (POF, "estimators = scm, tyler", "estimators = scm, tyler, scm",
     "estimators lists 'scm' more than once"),
    (POF, "statistics = rlrt, glrt", "statistics = glrt, glrt", "statistics lists 'glrt' more than once"),
    (POF, "sigma2 = 1.0", "sigma = 4.0", "[noise] unknown key 'sigma'"),
    (POF, "student_t_dof = 3.0", "student_t_df = 1.5", "[noise] unknown key 'student_t_df'"),
    (ROC, "family = gg", "family = gg\nfamilies = gaussian", "[noise] needs exactly one of"),
    (POF, "[detectors]", "[detector]", "unknown section [detector]"),
    (POF, "[experiment]", "[DEFAULT]\nsigma2 = 2.0\n[experiment]", "unknown section [DEFAULT]"),
], ids=["family", "estimator", "statistic", "no-estimators", "gg_ml-gaussian",
        "repeated-family", "repeated-estimator", "repeated-statistic",
        "unknown-key", "misspelt-key", "family-and-families", "unknown-section", "default-section"])
def test_config_error_messages_are_anchored(tmp_path, text, old, new, bad_value):
    # the model object that owns the value rejects it; the message names the file
    bad = write_config(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert str(err.value).startswith(f"{bad}: ")
    assert bad_value in str(err.value)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write_config(tmp_path, example))
    assert (cfg.kind, cfg.families, cfg.gg_shape) == ("roc", ("gg",), 0.1)


@pytest.mark.parametrize("key, value", [
    (key, value)
    for key in ("snr_db", "sigma2", "gg_shape", "student_t_dof", "student_t_nu")
    for value in ("nan", "inf")
] + [("snr_db", "4000")])  # 10^400 overflows a float
def test_non_finite_values_are_rejected_at_load(tmp_path, capsys, key, value):
    text = ROC_TEMPLATE.format(trials=16, seed=1, snr_db=0.0)
    if key == "student_t_dof":
        text = POF_TEMPLATE.format(trials=16, seed=1)
    elif key == "student_t_nu":
        text = text.replace("estimators = scm, tyler, gg_ml", "estimators = student_t")
        text += "student_t_nu = 3.0\n"
    assert f"{key} = " in text
    text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line
                     for line in text.splitlines()) + "\n"
    config = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="finite") as err:
        load_config(config)
    assert str(err.value).startswith(f"{config}: ")
    command = "roc" if "kind = roc" in text else "pof-curve"
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert config in stderr and "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("nu", ["-1", "nan"])
def test_bad_weight_parameter_is_rejected_at_load(tmp_path, capsys, nu):
    text = POF_TEMPLATE.format(trials=16, seed=1).replace(
        "estimators = scm, tyler", "estimators = scm, student_t") + f"student_t_nu = {nu}\n"
    config = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="student_t weight requires a finite nu >= 0"):
        load_config(config)
    out = tmp_path / "o"
    assert main(["pof-curve", "--config", config, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_config_requires_gg_shape(tmp_path):
    text = POF_TEMPLATE.format(trials=10, seed=1).replace("gg_shape = 0.5\n", "")
    with pytest.raises(ConfigError, match="gg_shape"):
        load_config(write_config(tmp_path, text))


def test_config_gg_ml_needs_gg_noise(tmp_path):
    text = ROC_TEMPLATE.format(trials=10, seed=1, snr_db=0.0).replace(
        "family = gg", "family = gaussian")
    with pytest.raises(ConfigError, match="gg_ml"):
        load_config(write_config(tmp_path, text))


def test_config_roc_requires_snr(tmp_path):
    text = "\n".join(line for line in ROC_TEMPLATE.format(
        trials=10, seed=1, snr_db=0.0).splitlines() if not line.startswith("snr_db"))
    with pytest.raises(ConfigError, match="snr_db"):
        load_config(write_config(tmp_path, text))


def test_config_robust_estimator_needs_n_greater_p(tmp_path):
    text = POF_TEMPLATE.format(trials=10, seed=1).replace("n = 8", "n = 3")
    with pytest.raises(ConfigError, match="n > p"):
        load_config(write_config(tmp_path, text))


def test_db_conversion():
    cfg = load_config("fig3")
    assert cfg.rho == 1.0


# ---------------------------------------------------------------------------
# pof-curve command
# ---------------------------------------------------------------------------

def test_pof_curve_emits_one_csv_per_detector_family_pair(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=200, seed=3))
    out = tmp_path / "out"
    assert main(["pof-curve", "--config", config, "--out", str(out)]) == 0
    csvs = sorted(out.glob("pof_*.csv"))
    assert len(csvs) == 12  # 4 statistics x 3 families
    header, rows = read_csv(csvs[0])
    assert header == ["threshold", "pfa", "cdf"]
    pfa = np.array([float(r[1]) for r in rows])
    cdf = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(pfa) <= 0)
    assert np.allclose(pfa + cdf, 1.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "pof-curve"
    assert manifest["master_seed"] == 3
    assert "gaussian/tyler_glrt" in manifest["detectors"]
    tyler = manifest["estimator_iterations"]["gg/tyler"]
    assert set(tyler) == {"mean", "max", "p50", "p90", "p99", "singular", "max_iterations"}
    assert tyler["singular"] == tyler["max_iterations"] == 0
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert "scipy" not in manifest and "worker_blas_pinned" not in manifest


def test_pof_curve_single_trial_degenerate(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=1, seed=4))
    out = tmp_path / "out"
    assert main(["pof-curve", "--config", config, "--out", str(out)]) == 0
    _, rows = read_csv(next(iter(sorted(out.glob("pof_*.csv")))))
    assert len(rows) == 1


def test_pof_curve_reruns_byte_identical(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=300, seed=5))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pof-curve", "--config", config, "--out", str(out1)]) == 0
    assert main(["pof-curve", "--config", config, "--out", str(out2), "--threads", "2"]) == 0
    for f1 in sorted(out1.glob("*.csv")):
        assert f1.read_bytes() == (out2 / f1.name).read_bytes()


def test_seed_override_changes_output(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=300, seed=5))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["pof-curve", "--config", config, "--out", str(out1)])
    main(["pof-curve", "--config", config, "--out", str(out2), "--seed", "77"])
    name = "pof_gaussian_scm_glrt.csv"
    assert (out1 / name).read_bytes() != (out2 / name).read_bytes()


def test_csv_floats_round_trip(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=128, seed=6))
    out = tmp_path / "out"
    main(["pof-curve", "--config", config, "--out", str(out)])
    path = out / "pof_gaussian_tyler_glrt.csv"
    _, rows = read_csv(path)
    values = np.array([float(r[0]) for r in rows])
    rewritten = np.array([float(f"{v:.17g}") for v in values])
    assert np.array_equal(values, rewritten)


# ---------------------------------------------------------------------------
# roc command
# ---------------------------------------------------------------------------

def test_roc_emits_one_csv_per_detector(tmp_path):
    config = write_config(tmp_path, ROC_TEMPLATE.format(trials=400, seed=7, snr_db=0.0))
    out = tmp_path / "out"
    assert main(["roc", "--config", config, "--out", str(out)]) == 0
    csvs = sorted(out.glob("roc_*.csv"))
    assert [c.name for c in csvs] == [
        "roc_gg_ml_glrt.csv", "roc_gg_ml_rlrt.csv", "roc_scm_glrt.csv",
        "roc_scm_rlrt.csv", "roc_tyler_glrt.csv", "roc_tyler_rlrt.csv",
    ]
    header, rows = read_csv(csvs[0])
    assert header == ["pfa", "pod"]
    pod = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(pod) >= 0)


def test_roc_zero_snr_collapses_to_diagonal(tmp_path):
    config = write_config(tmp_path, ROC_TEMPLATE.format(trials=2000, seed=8, snr_db="-inf"))
    out = tmp_path / "out"
    assert main(["roc", "--config", config, "--out", str(out)]) == 0
    _, rows = read_csv(out / "roc_tyler_glrt.csv")
    pfa = np.array([float(r[0]) for r in rows])
    pod = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(pod - pfa)) < 0.05


def test_roc_command_rejects_pof_config(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=10, seed=9))
    assert main(["roc", "--config", config, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# calibrate command
# ---------------------------------------------------------------------------

def test_calibrate_writes_thresholds_with_holdout_rates(tmp_path, capsys):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=4000, seed=10))
    out = tmp_path / "out"
    assert main(["calibrate", "--config", config, "--out", str(out), "--pfa", "0.1"]) == 0
    header, rows = read_csv(out / "calibration.csv")
    assert header == ["detector", "threshold", "achieved_pfa"]
    assert [r[0] for r in rows] == ["scm_rlrt", "scm_glrt", "tyler_rlrt", "tyler_glrt"]
    for r in rows:
        assert abs(float(r[2]) - 0.1) < 0.03


def test_calibrate_is_reproducible(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=500, seed=11))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["calibrate", "--config", config, "--out", str(out1), "--pfa", "0.2"])
    main(["calibrate", "--config", config, "--out", str(out2), "--pfa", "0.2"])
    assert (out1 / "calibration.csv").read_bytes() == (out2 / "calibration.csv").read_bytes()


def test_calibrate_rejects_bad_target(tmp_path, capsys):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=10, seed=12))
    assert main(["calibrate", "--config", config, "--out", str(tmp_path / "o"),
                 "--pfa", "1.5"]) == 2
    assert "--pfa" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error surface
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["pof-curve", "roc"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_is_rejected_at_parse_time(tmp_path, capsys, command, seed):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "fig4", "--out", str(out), "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --seed: must be a non-negative integer" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3", "x"])
def test_bad_thread_count_is_rejected_at_parse_time(tmp_path, capsys, threads):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["roc", "--config", "fig4", "--out", str(out), "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --threads: must be a positive integer" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["roc", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "nope.ini" in capsys.readouterr().err


def test_malformed_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment\nkind = roc\n")
    assert main(["pof-curve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad.ini" in err


# ---------------------------------------------------------------------------
# runtime footprint
# ---------------------------------------------------------------------------

def test_cli_run_imports_numpy_alone(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already
    config = write_config(tmp_path, ROC_TEMPLATE.format(trials=64, seed=1, snr_db=0.0))
    script = (
        "import sys\n"
        "from robustsense.cli import main\n"
        f"assert main(['roc', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in ('scipy', 'threadpoolctl') if m in sys.modules))\n"
    )
    src = str(Path(robustsense.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"

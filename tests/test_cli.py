"""Command-line surface: presets, CSV schemas, manifests, determinism, exits."""

import dataclasses
import importlib.util
import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustsense
from robustsense import cli, montecarlo
from robustsense.cli import main
from robustsense.config import (
    _KEYS, PRESETS, ConfigError, ExperimentConfig, load_config, preset_path,
)

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
families = gg
sigma2 = 1.0
gg_shape = 0.5

[detectors]
estimators = scm, tyler, gg_ml
statistics = rlrt, glrt
"""

CHECK = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fresh_python(script, **kwargs):
    """Run ``script`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(robustsense.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, **kwargs)


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


def test_directory_named_like_a_preset_does_not_shadow_it(tmp_path, monkeypatch):
    # an earlier `--out fig4` leaves such a directory in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig4").mkdir()
    assert load_config("fig4").path == str(preset_path("fig4"))


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
    (ROC, "families = gg", "families = gaussian", "gg_ml"),
    (POF, "families = gaussian, gg, student_t", "families = gaussian, gg, gaussian",
     "families lists 'gaussian' more than once"),
    (POF, "estimators = scm, tyler", "estimators = scm, tyler, scm",
     "estimators lists 'scm' more than once"),
    (POF, "statistics = rlrt, glrt", "statistics = glrt, glrt", "statistics lists 'glrt' more than once"),
    (POF, "sigma2 = 1.0", "sigma = 4.0", "[noise] unknown key 'sigma'"),
    (POF, "student_t_dof = 3.0", "student_t_df = 1.5", "[noise] unknown key 'student_t_df'"),
    (ROC, "families = gg", "family = gg", "[noise] unknown key 'family'"),
    (ROC, "families = gg", "families = gg, gaussian", "roc experiments take exactly one family"),
    (ROC, "families = gg\n", "", "[noise] missing required key 'families'"),
    (POF, "[detectors]", "[detector]", "unknown section [detector]"),
    (POF, "[experiment]", "[DEFAULT]\nsigma2 = 2.0\n[experiment]", "unknown section [DEFAULT]"),
    (POF, "sigma2 = 1.0", "sigma2 = big", "[noise] sigma2 = 'big' is not a number"),
    (POF, "[detectors]\nestimators = scm, tyler\nstatistics = rlrt, glrt\n", "",
     "missing required section [detectors]"),
    (POF, "kind = pof-curve", "kind = scan", "[experiment] kind = 'scan' is not one of"),
    (POF, "families = gaussian, gg, student_t", "families =", "at least one family is required"),
], ids=["family", "estimator", "statistic", "no-estimators", "gg_ml-gaussian",
        "repeated-family", "repeated-estimator", "repeated-statistic",
        "unknown-key", "misspelt-key", "family-alias", "roc-two-families", "no-families",
        "unknown-section", "default-section", "non-numeric", "no-section", "unknown-kind",
        "empty-families"])
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


@pytest.mark.parametrize("key, value", [
    ("gg_shape", "nan"), ("student_t_dof", "-inf"), ("student_t_nu", "nan"),
])
def test_non_finite_values_nothing_reads_are_rejected_at_load(tmp_path, capsys, key, value):
    # a gaussian-only config with scm and tyler reads none of these keys
    text = POF_TEMPLATE.format(trials=16, seed=1).replace(
        "families = gaussian, gg, student_t", "families = gaussian") + "student_t_nu = 3.0\n"
    text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line
                     for line in text.splitlines()) + "\n"
    config = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=f"{key} = {value} must be finite") as err:
        load_config(config)
    assert str(err.value).startswith(f"{config}: ")
    out = tmp_path / "o"
    assert main(["pof-curve", "--config", config, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_key_table_matches_the_config_fields_and_the_readme():
    keys = {key for section in _KEYS.values() for key in section}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"path"}
    assert keys == fields
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    listed = {line.split("=", 1)[0].strip() for line in example.splitlines() if "=" in line}
    assert listed == keys


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    x = robustsense.sample_trial(robustsense.NoiseModel("gg", shape_s=0.1), 5, 10, 0.0,
                                 robustsense.Hypothesis.H0, robustsense.RngStream(11, 0))
    np.save(tmp_path / "snapshots.npy", x)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert isinstance(namespace["signal_present"], bool)


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


def test_percent_in_a_value_is_plain_text(tmp_path, capsys):
    # configparser's default interpolation would raise on '%' outside load_config's checks
    text = Path(load_config("fig4").path).read_text()
    text, count = re.subn(r"(?m)^seed = \d+$", "seed = 5%", text)
    assert count == 1
    config = write_config(tmp_path, text, "pct.ini")
    out = tmp_path / "o"
    assert main(["roc", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {config}: [experiment] seed = '5%' is not an integer"]
    assert not out.exists()


def test_config_requires_gg_shape(tmp_path):
    text = POF_TEMPLATE.format(trials=10, seed=1).replace("gg_shape = 0.5\n", "")
    with pytest.raises(ConfigError, match="gg_shape"):
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

def test_pof_curve_emits_one_csv_per_detector_family_pair(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
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
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "scipy" not in manifest and "worker_blas_pinned" not in manifest


def test_pof_curve_single_trial_degenerate(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=1, seed=4))
    out = tmp_path / "out"
    assert main(["pof-curve", "--config", config, "--out", str(out)]) == 0
    _, rows = read_csv(next(iter(sorted(out.glob("pof_*.csv")))))
    assert len(rows) == 1


@pytest.mark.parametrize("command, text, extra", [
    ("pof-curve", POF_TEMPLATE.format(trials=300, seed=5), ()),
    ("roc", ROC_TEMPLATE.format(trials=200, seed=13, snr_db=0.0), ()),
    ("calibrate", POF_TEMPLATE.format(trials=200, seed=13), ("--pfa", "0.1")),
], ids=["pof-curve", "roc", "calibrate"])
def test_worker_count_leaves_csv_bytes_alone(tmp_path, monkeypatch, command, text, extra):
    # 64-trial chunks: four or five per run, shared out between the workers
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 64 * 16 * 3 * 8)
    config = write_config(tmp_path, text)
    outs = {threads: tmp_path / f"t{threads}" for threads in ("1", "2")}
    for threads, out in outs.items():
        argv = [command, "--config", config, "--out", str(out), "--threads", threads, *extra]
        assert main(argv) == 0
    csvs = sorted(p.name for p in outs["1"].glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in outs["2"].glob("*.csv"))
    for name in csvs:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs.values()]
    for key in ("detectors", "estimator_iterations"):
        assert manifests[0][key] == manifests[1][key]


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
    # strict JSON has no -Infinity; the silent primary keeps the config file's spelling
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=lambda name: pytest.fail(f"{name} is not strict JSON"))
    assert manifest["config"]["snr_db"] == "-inf"


def test_roc_command_rejects_pof_config(tmp_path):
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=10, seed=9))
    assert main(["roc", "--config", config, "--out", str(tmp_path / "o")]) == 2


def test_pof_curve_command_rejects_roc_config(tmp_path, capsys):
    config = write_config(tmp_path, ROC_TEMPLATE.format(trials=10, seed=9, snr_db=0.0))
    out = tmp_path / "o"
    assert main(["pof-curve", "--config", config, "--out", str(out)]) == 2
    assert "does not match command 'pof-curve'" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_accepts_roc_config(tmp_path, monkeypatch):
    # calibrate takes either kind: the first family, H0 trials only
    runs = []

    def recording(sims, with_h1, threads):
        runs.extend((sim.noise.family, with_h1) for sim in sims)
        return montecarlo.run_experiments(sims, with_h1, threads)

    monkeypatch.setattr(cli, "run_experiments", recording)
    config = write_config(tmp_path, ROC_TEMPLATE.format(trials=200, seed=9, snr_db=0.0))
    out = tmp_path / "out"
    assert main(["calibrate", "--config", config, "--out", str(out), "--pfa", "0.1"]) == 0
    assert runs == [("gg", False), ("gg", False)]
    _, rows = read_csv(out / "calibration.csv")
    assert [r[0] for r in rows] == [s.label for s in load_config(config).detector_specs()]


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
    # both runs' iteration counts and exclusion reasons, keyed as pof-curve keys its families
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["estimator_iterations"]) == {
        f"{run}/{kind}" for run in ("calibration", "holdout") for kind in ("scm", "tyler")}


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


def test_exclusion_rate_error_exits_without_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(montecarlo, "_MAX_EXCLUSION_RATE", -1.0)  # any count exceeds it
    config = write_config(tmp_path, ROC_TEMPLATE.format(trials=16, seed=1, snr_db=0.0))
    out = tmp_path / "out"
    assert main(["roc", "--config", config, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: scm_rlrt: ")
    assert not (out / "manifest.json").exists()


FAILURES = {  # how the gg family fails, and the error line it gives
    "exclusions": "error: scm_rlrt: ",  # every estimate unusable: ExclusionRateError
    "worker": "error: worker failed",  # an exception in the worker that samples it
    "csv": "error: [Errno 21] Is a directory",  # its first CSV cannot be written
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failed_command_stops_the_pool_and_keeps_finished_csvs(tmp_path, monkeypatch, capsys,
                                                               failure):
    sample_chunk = montecarlo.sample_chunk

    def failing(noise, *args):
        x = sample_chunk(noise, *args)
        if noise.family != "gg" or failure == "csv":
            return x
        if failure == "worker":
            raise RuntimeError("worker failed on a gg chunk")
        return np.zeros_like(x)

    monkeypatch.setattr(montecarlo, "sample_chunk", failing)  # forked workers inherit it
    config = write_config(tmp_path, POF_TEMPLATE.format(trials=40, seed=14))
    out = tmp_path / "out"
    if failure == "csv":
        (out / "pof_gg_scm_rlrt.csv").mkdir(parents=True)
    assert main(["pof-curve", "--config", config, "--out", str(out), "--threads", "2"]) == 2
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err.startswith(FAILURES[failure])
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == [
        "pof_gaussian_scm_glrt.csv", "pof_gaussian_scm_rlrt.csv",
        "pof_gaussian_tyler_glrt.csv", "pof_gaussian_tyler_rlrt.csv"]


@pytest.mark.parametrize("command, text, extra", [
    ("pof-curve", POF_TEMPLATE.format(trials=40, seed=15), ()),
    ("roc", ROC_TEMPLATE.format(trials=40, seed=15, snr_db=0.0), ()),
    ("calibrate", POF_TEMPLATE.format(trials=40, seed=15), ("--pfa", "0.1")),
], ids=["pof-curve", "roc", "calibrate"])
def test_command_starts_one_pool(tmp_path, monkeypatch, command, text, extra):
    made = []

    class CountingExecutor(montecarlo.ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingExecutor)
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out"),
            "--threads", "2", *extra]
    assert main(argv) == 0
    assert made == [2]


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


def test_undecodable_config_exits_nonzero(tmp_path, capsys):
    # a Latin-1 'café' in a comment is not UTF-8
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"# caf\xe9\n" + ROC.encode())
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(bad))
    out = tmp_path / "o"
    assert main(["roc", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad.ini" in err and "cannot read config" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, text, named", [
    ("pof-curve", POF.replace("sigma2 = 1.0", "sigma2 = 1e308"), "sigma2=1e+308"),
    # chi-square draws underflow to 0, and the texture divides by them
    ("pof-curve", POF.replace("student_t_dof = 3.0", "student_t_dof = 0.01"), "dof_nu=0.01"),
    ("roc", ROC_TEMPLATE.format(trials=10, seed=1, snr_db=3080), "rho=1e+308"),
    # the smallest subnormal: some textures underflow to all-zero noise columns
    ("pof-curve", POF_TEMPLATE.format(trials=40, seed=1).replace("sigma2 = 1.0", "sigma2 = 5e-324"),
     "sigma2=5e-324"),
], ids=["sigma2", "student_t_dof", "snr_db", "sigma2-underflow"])
def test_finite_value_that_overflows_the_sampler_exits_2(tmp_path, command, text, named):
    run, errors, warned = run_fresh_cli(tmp_path, command, text)
    assert run.returncode == 2, run.stderr
    assert len(errors) == 1 and named in errors[0], run.stderr
    # the one warning left is the notice for a student_t dof <= 2
    assert all("has no covariance" in line for line in warned), run.stderr


def run_fresh_cli(tmp_path, command, text):
    """Run the CLI on ``text`` in a fresh interpreter, so stderr shows any
    traceback and every warning; the run, its error lines, its warning lines."""
    config = write_config(tmp_path, text)
    argv = [command, "--config", config, "--out", str(tmp_path / "out"), "--threads", "1"]
    run = fresh_python(f"import sys\nfrom robustsense.cli import main\nsys.exit(main({argv!r}))\n")
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    return run, [line for line in lines if line.startswith("error: ")], \
        [line for line in lines if "Warning" in line]


POF_ALL_KINDS = POF_TEMPLATE.format(trials=40, seed=1).replace(
    "estimators = scm, tyler", "estimators = scm, tyler, student_t")
ROC_40 = ROC_TEMPLATE.format(trials=40, seed=1, snr_db=0.0)


@pytest.mark.parametrize("command, text, code", [
    ("pof-curve", POF_ALL_KINDS.replace("sigma2 = 1.0", "sigma2 = 1e307"), 2),
    ("pof-curve", POF_ALL_KINDS.replace("sigma2 = 1.0", "sigma2 = 1e-310"), 2),
    ("roc", ROC_40.replace("sigma2 = 1.0", "sigma2 = 1e-318"), 2),
    ("roc", ROC_40.replace("sigma2 = 1.0", "sigma2 = 1e250"), 0),
], ids=["pof-1e307", "pof-1e-310", "roc-1e-318", "roc-1e250"])
def test_extreme_finite_scale_warns_nothing(tmp_path, command, text, code):
    # the engine flags or counts every member such a scale breaks (exit 2 is
    # the exclusion guard); numpy's overflow and invalid warnings stay inside
    run, errors, warned = run_fresh_cli(tmp_path, command, text)
    assert run.returncode == code, run.stderr
    assert len(errors) <= 1 and not warned, run.stderr


def test_config_with_byte_order_mark_loads(tmp_path):
    # some editors save UTF-8 with a leading BOM
    fig4 = load_config("fig4")
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(fig4.path).read_bytes())
    assert load_config(str(bom)) == dataclasses.replace(fig4, path=str(bom))


# ---------------------------------------------------------------------------
# manifest contract
# ---------------------------------------------------------------------------

def load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command, text", [
    ("pof-curve", POF_TEMPLATE.format(trials=40, seed=2)),
    ("roc", ROC_TEMPLATE.format(trials=40, seed=2, snr_db=0.0)),
], ids=["pof-curve", "roc"])
def test_benchmark_reads_usable_counts_of_every_csv(tmp_path, monkeypatch, command, text):
    # every 5th trial of the (single) chunk loses its estimate: 8 of 40 excluded
    estimate = montecarlo.m_estimate_batch

    def lossy(x, weight, initial=None):
        res = estimate(x, weight, initial=initial)
        converged = res.converged.copy()
        converged[::5] = False
        return dataclasses.replace(res, converged=converged)

    monkeypatch.setattr(montecarlo, "m_estimate_batch", lossy)
    monkeypatch.setattr(montecarlo, "_MAX_EXCLUSION_RATE", 1.0)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    counts = load_check().usable_counts(json.loads((out / "manifest.json").read_text()))
    assert sorted(counts) == sorted(p.name for p in out.glob("*.csv"))
    assert set(counts.values()) == {(32, 32 if command == "roc" else None)}


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("command, text, extra", [
    ("pof-curve", POF_TEMPLATE.format(trials=64, seed=2), ()),
    ("roc", ROC_TEMPLATE.format(trials=64, seed=2, snr_db=0.0), ()),
    ("calibrate", POF_TEMPLATE.format(trials=64, seed=2), ("--pfa", "0.1")),
], ids=["pof-curve", "roc", "calibrate"])
def test_manifest_lists_outputs_command_and_threads(tmp_path, command, text, extra, threads):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out), *extra]
    assert main(argv + (["--threads", threads] if threads else [])) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(str(p) for p in out.glob("*.csv"))
    assert manifest["command"] == command
    # the worker cap that ran; without --threads, the cores this process may use
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert manifest["threads"] == (2 if threads else usable)


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
    run = fresh_python(script, check=True)
    assert run.stdout.strip() == "[]"


def test_cli_roc_runs_with_scipy_unimportable(tmp_path):
    # a fresh interpreter in which every import of scipy fails
    config = write_config(tmp_path, ROC_TEMPLATE.format(trials=64, seed=1, snr_db=0.0))
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from robustsense.cli import main\n"
        f"sys.exit(main(['roc', '--config', {config!r}, '--out', {str(out)!r}]))\n"
    )
    run = fresh_python(script)
    assert run.returncode == 0, run.stderr
    assert sorted(c.name for c in out.glob("roc_*.csv")) == [
        f"roc_{kind}_{stat}.csv" for kind in ("gg_ml", "scm", "tyler") for stat in ("glrt", "rlrt")]

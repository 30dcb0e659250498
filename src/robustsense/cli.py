"""Command-line front end: run experiments from config files and emit CSV
curve data plus a JSON run manifest."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .montecarlo import (
    calibrate_threshold,
    derive_seed,
    empirical_pfa_curve,
    roc_curve,
    run_experiment,
    threshold_grid,
)


def _fmt(x: float) -> str:
    # 17 significant digits: parses back to the identical float
    return f"{x:.17g}"


def _write_csv(path: Path, header: tuple[str, ...], columns) -> None:
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, seed: int,
                    threads: int | None, detectors: dict, iterations: dict,
                    outputs: list[Path], t0: float) -> None:
    """Write ``manifest.json``: everything needed to reproduce the run and audit its health."""
    manifest = {
        "command": command,
        "version": __version__,
        "config_path": cfg.path,
        "config": {**asdict(cfg), "seed": seed},
        "master_seed": seed,
        "threads": threads,
        # versions the output bytes rest on: numpy's Generator algorithms define
        # every draw, its SeedSequence mixing and PCG64 seeding every trial's
        # stream (sample_chunk reproduces both as array arithmetic), and
        # Python's math.lgamma the gg texture scale
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "detectors": detectors,
        "estimator_iterations": iterations,
        "outputs": sorted(str(o) for o in outputs),
        "wall_clock_s": time.perf_counter() - t0,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_pof_curve(cfg: ExperimentConfig, out_dir: Path, seed: int, threads: int | None) -> list[Path]:
    """One (threshold, pfa, cdf) CSV per detector and noise family, plus manifest."""
    if cfg.kind != "pof-curve":
        raise ConfigError(f"{cfg.path}: config kind {cfg.kind!r} does not match command 'pof-curve'")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs: list[Path] = []
    detectors: dict = {}
    iteration_stats: dict = {}
    for i, family in enumerate(cfg.families):
        sim = cfg.sim_config(family, derive_seed(seed, i))
        result = run_experiment(sim, with_h1=False, threads=threads)
        for spec, sample in result.h0.items():
            curve = empirical_pfa_curve(sample, threshold_grid(sample))
            path = out_dir / f"pof_{family}_{spec.label}.csv"
            _write_csv(path, ("threshold", "pfa", "cdf"),
                       (curve.thresholds.tolist(), curve.pfa.tolist(), curve.cdf.tolist()))
            outputs.append(path)
            detectors[f"{family}/{spec.label}"] = {
                "trials": sim.trials,
                "h0_excluded": sample.n_excluded,
            }
        for kind, entry in result.iteration_stats.items():
            iteration_stats[f"{family}/{kind}"] = entry
    _write_manifest(out_dir, "pof-curve", cfg, seed, threads, detectors, iteration_stats, outputs, t0)
    return outputs


def cmd_roc(cfg: ExperimentConfig, out_dir: Path, seed: int, threads: int | None) -> list[Path]:
    """One (pfa, pod) CSV per detector, plus manifest."""
    if cfg.kind != "roc":
        raise ConfigError(f"{cfg.path}: config kind {cfg.kind!r} does not match command 'roc'")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    sim = cfg.sim_config(cfg.families[0], seed)
    result = run_experiment(sim, with_h1=True, threads=threads)
    outputs: list[Path] = []
    detectors: dict = {}
    for spec in sim.detectors:
        curve = roc_curve(result.h0[spec], result.h1[spec])
        path = out_dir / f"roc_{spec.label}.csv"
        _write_csv(path, ("pfa", "pod"), (curve.pfa.tolist(), curve.pod.tolist()))
        outputs.append(path)
        detectors[spec.label] = {
            "trials": sim.trials,
            "h0_excluded": result.h0[spec].n_excluded,
            "h1_excluded": result.h1[spec].n_excluded,
        }
    _write_manifest(out_dir, "roc", cfg, seed, threads, detectors, result.iteration_stats, outputs, t0)
    return outputs


def cmd_calibrate(
    cfg: ExperimentConfig,
    target_pfa: float,
    out_dir: Path,
    seed: int,
    threads: int | None,
) -> Path:
    """Calibrate per-detector thresholds on H0 trials; report holdout false-alarm rates.

    The threshold comes from one H0 run and the achieved rate from an
    independent H0 run with a different derived seed.  Multi-family configs
    calibrate under their first listed family.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ConfigError(f"--pfa must lie strictly between 0 and 1, got {target_pfa}")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    family = cfg.families[0]
    sim_cal = cfg.sim_config(family, derive_seed(seed, 0))
    sim_holdout = cfg.sim_config(family, derive_seed(seed, 1))
    result_cal = run_experiment(sim_cal, with_h1=False, threads=threads)
    result_holdout = run_experiment(sim_holdout, with_h1=False, threads=threads)
    labels, thresholds, achieved = [], [], []
    for spec in sim_cal.detectors:
        t = calibrate_threshold(result_cal.h0[spec], target_pfa)
        labels.append(spec.label)
        thresholds.append(t)
        achieved.append(float(empirical_pfa_curve(result_holdout.h0[spec], [t]).pfa[0]))
    path = out_dir / "calibration.csv"
    _write_csv(path, ("detector", "threshold", "achieved_pfa"), (labels, thresholds, achieved))
    detectors = {
        spec.label: {
            "trials": sim_cal.trials,
            "calibration_excluded": result_cal.h0[spec].n_excluded,
            "holdout_excluded": result_holdout.h0[spec].n_excluded,
        }
        for spec in sim_cal.detectors
    }
    _write_manifest(out_dir, "calibrate", cfg, seed, threads, detectors,
                    result_cal.iteration_stats, [path], t0)
    return path


def _seed(raw: str) -> int:
    # rejected here, not deep inside a chunk: trial streams need seeds >= 0
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")
    return int(raw)


def _threads(raw: str) -> int:
    # zero or a negative count would silently run serially
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustsense",
        description="Eigenvalue-based spectrum sensing experiments with robust scatter estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd):
        cmd.add_argument("--config", required=True,
                         help="config file path or bundled preset name (fig1..fig4)")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=_seed, default=None,
                         help="master seed override (default: the config's seed)")
        cmd.add_argument("--threads", type=_threads, default=None,
                         help="worker cap; never affects numerical results")

    common(sub.add_parser("pof-curve", help="threshold vs false-alarm curves under H0"))
    common(sub.add_parser("roc", help="detection vs false-alarm curves"))
    cal = sub.add_parser("calibrate", help="thresholds at a target false-alarm rate")
    common(cal)
    cal.add_argument("--pfa", type=float, required=True, help="target false-alarm probability")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = cfg.seed if args.seed is None else args.seed
        out_dir = Path(args.out)
        if args.command == "pof-curve":
            cmd_pof_curve(cfg, out_dir, seed, args.threads)
        elif args.command == "roc":
            cmd_roc(cfg, out_dir, seed, args.threads)
        else:
            cmd_calibrate(cfg, args.pfa, out_dir, seed, args.threads)
    except (ConfigError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

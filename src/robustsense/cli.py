"""Command-line front end: run experiments from config files and emit CSV
curve data plus a JSON run manifest.

Each ``cmd_*`` function runs its simulations in one ``run_experiments`` or
``run_experiment`` call, so a command starts at most one worker pool, hands
every CSV to ``emit(name, header, columns)`` as soon as it is computed and
returns the manifest's ``(detectors, iteration_stats)``; ``main`` owns the
kind rule, the output directory, the CSV writes and the manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import closing
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
    run_experiments,
    threshold_grid,
)


def cmd_pof_curve(cfg: ExperimentConfig, seed: int, threads: int, emit):
    """One (threshold, pfa, cdf) CSV per detector and noise family."""
    detectors, iteration_stats = {}, {}
    sims = [cfg.sim_config(family, derive_seed(seed, i)) for i, family in enumerate(cfg.families)]
    with closing(run_experiments(sims, with_h1=False, threads=threads)) as results:
        for family, sim, result in zip(cfg.families, sims, results):
            for spec, sample in result.h0.items():
                curve = empirical_pfa_curve(sample, threshold_grid(sample))
                emit(f"pof_{family}_{spec.label}.csv", ("threshold", "pfa", "cdf"),
                     (curve.thresholds.tolist(), curve.pfa.tolist(), curve.cdf.tolist()))
                detectors[f"{family}/{spec.label}"] = {"trials": sim.trials,
                                                       "h0_excluded": sample.n_excluded}
            for kind, entry in result.iteration_stats.items():
                iteration_stats[f"{family}/{kind}"] = entry
    return detectors, iteration_stats


def cmd_roc(cfg: ExperimentConfig, seed: int, threads: int, emit):
    """One (pfa, pod) CSV per detector."""
    sim = cfg.sim_config(cfg.families[0], seed)
    result = run_experiment(sim, with_h1=True, threads=threads)
    detectors = {}
    for spec in sim.detectors:
        curve = roc_curve(result.h0[spec], result.h1[spec])
        emit(f"roc_{spec.label}.csv", ("pfa", "pod"), (curve.pfa.tolist(), curve.pod.tolist()))
        detectors[spec.label] = {"trials": sim.trials, "h0_excluded": result.h0[spec].n_excluded,
                                 "h1_excluded": result.h1[spec].n_excluded}
    return detectors, result.iteration_stats


def cmd_calibrate(cfg: ExperimentConfig, seed: int, threads: int, emit, target_pfa: float):
    """Calibrate per-detector thresholds on H0 trials; report holdout false-alarm rates.

    The threshold comes from one H0 run and the achieved rate from an
    independent H0 run with a different derived seed.  Either config kind
    is accepted; multi-family configs calibrate under their first listed
    family.
    """
    family = cfg.families[0]
    sim_cal = cfg.sim_config(family, derive_seed(seed, 0))
    sim_holdout = cfg.sim_config(family, derive_seed(seed, 1))
    result_cal, result_holdout = run_experiments((sim_cal, sim_holdout), with_h1=False,
                                                 threads=threads)
    specs = sim_cal.detectors
    thresholds = [calibrate_threshold(result_cal.h0[spec], target_pfa) for spec in specs]
    achieved = [float(empirical_pfa_curve(result_holdout.h0[spec], [t]).pfa[0])
                for spec, t in zip(specs, thresholds)]
    emit("calibration.csv", ("detector", "threshold", "achieved_pfa"),
         ([spec.label for spec in specs], thresholds, achieved))
    detectors = {spec.label: {"trials": sim_cal.trials,
                              "calibration_excluded": result_cal.h0[spec].n_excluded,
                              "holdout_excluded": result_holdout.h0[spec].n_excluded}
                 for spec in specs}
    runs = {"calibration": result_cal, "holdout": result_holdout}
    iteration_stats = {f"{run}/{kind}": entry for run, result in runs.items()
                       for kind, entry in result.iteration_stats.items()}
    return detectors, iteration_stats


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


# the CLI's default worker cap: the cores this process may run on
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
        cmd.add_argument("--threads", type=_threads, default=_CORES,
                         help=f"worker cap (default: the {_CORES} usable cores); "
                              "never affects numerical results")

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
        if args.command == "calibrate":
            if not 0.0 < args.pfa < 1.0:
                raise ConfigError(f"--pfa must lie strictly between 0 and 1, got {args.pfa}")
        elif cfg.kind != args.command:
            raise ConfigError(
                f"{cfg.path}: config kind {cfg.kind!r} does not match command {args.command!r}")
        seed = cfg.seed if args.seed is None else args.seed
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        outputs: list[str] = []

        def emit(name: str, header: tuple[str, ...], columns) -> None:
            # floats with 17 significant digits parse back to the identical float
            path = out_dir / name
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                for row in zip(*columns):
                    fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                      for v in row) + "\n")
            outputs.append(str(path))

        if args.command == "pof-curve":
            detectors, iterations = cmd_pof_curve(cfg, seed, args.threads, emit)
        elif args.command == "roc":
            detectors, iterations = cmd_roc(cfg, seed, args.threads, emit)
        else:
            detectors, iterations = cmd_calibrate(cfg, seed, args.threads, emit, args.pfa)
        # everything needed to reproduce the run and audit its health; strict
        # JSON has no infinities, so a silent primary keeps its config spelling
        snr_db = "-inf" if cfg.snr_db == -math.inf else cfg.snr_db
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        manifest = {
            "command": args.command,
            "version": __version__,
            "config_path": cfg.path,
            "config": {**asdict(cfg), "seed": seed, "snr_db": snr_db},
            "master_seed": seed,
            "threads": args.threads,
            # what the output bytes rest on: numpy's Generator and Philox
            # algorithms define every draw, Python's math.lgamma the gg
            # texture scale, and the BLAS library and its thread settings the
            # estimates' arithmetic
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "thread_env": {key: value for key, value in os.environ.items()
                           if key.endswith("_NUM_THREADS")},
            "detectors": detectors,
            "estimator_iterations": iterations,
            "outputs": sorted(outputs),
            "wall_clock_s": time.perf_counter() - t0,
        }
        with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (ValueError, RuntimeError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

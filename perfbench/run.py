"""robustsense benchmark: end-to-end CLI cost and a traced per-layer breakdown.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Each workload is a bundled preset with only its trial count
changed (``--trials``, default two 4096-trial chunks); ``--seed`` goes to the
CLI as ``--seed``.  Every CLI invocation runs in a fresh interpreter, as a
CLI user pays it.

``--trace 0`` measures the end-to-end metrics: it times a few set-up-only
interpreters, repeats the workload's CLI run while another run still fits in
``--seconds`` (at least once), then times a few set-up-only interpreters
again.  ``--trace 1`` repeats a single-process CLI run with spans recorded
around each layer instead (see ``spans.py``); for a multi-worker workload it
first times one untraced run at one worker and one at the workload's worker
count.

Every run's outputs are checked against the golden curves (``check.py``);
runs with the same seed must also write byte-identical CSVs whatever the
worker count or tracing.  Human-readable lines go to stdout, then the last
line is one JSON object; the full record, environment included, goes to
``perfbench/out/<workload>-<seed>-t<trace>/result.json``.  Exit code 0 iff
every output check passed.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRESETS = ROOT / "src" / "robustsense" / "presets"
OUT = HERE / "out"

TRIALS = 8192  # two 4096-trial chunks, so the worker pool gets two tasks
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    command: str
    preset: str
    threads: int


# Why each workload was chosen is in BENCHMARK.json, with the metrics.
WORKLOADS = {
    "fig1_null_t2": Workload("pof-curve", "fig1", 2),
    "fig3_roc_gg": Workload("roc", "fig3", 1),
    "fig4_roc_gauss": Workload("roc", "fig4", 1),
}


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


# ROADMAP open item 1: single-run layer costs (us per trial, iterations),
# midpoints of the quoted ranges, keyed by the workload and hypothesis with
# the same geometry and noise.  Its eigvalsh figure is for one call; a trial
# makes one call per estimator kind (2 in fig1, 3 in fig3).
ROADMAP_LAYERS = {
    ("fig1_null_t2", "h0"): {
        "sampling.h0_us_per_trial": 128, "estimators.scm.us_per_trial.h0": 2,
        "estimators.tyler.us_per_trial.h0": 225, "estimators.tyler.iters_mean.h0": 35,
        "detectors.eig_us_per_trial.h0": 3.5 * 2},
    ("fig3_roc_gg", "h0"): {
        "sampling.h0_us_per_trial": 160, "estimators.scm.us_per_trial.h0": 13,
        "estimators.tyler.us_per_trial.h0": 195, "estimators.tyler.iters_mean.h0": 13,
        "estimators.gg_ml.us_per_trial.h0": 1253, "estimators.gg_ml.iters_mean.h0": 97,
        "detectors.eig_us_per_trial.h0": 4.5 * 3},
    ("fig3_roc_gg", "h1"): {
        "sampling.h1_us_per_trial": 290.5, "estimators.scm.us_per_trial.h1": 12,
        "estimators.tyler.us_per_trial.h1": 285, "estimators.tyler.iters_mean.h1": 17,
        "estimators.gg_ml.us_per_trial.h1": 1846, "estimators.gg_ml.iters_mean.h1": 118,
        "detectors.eig_us_per_trial.h1": 4.5 * 3},
}


def preset_info(workload: Workload) -> tuple[str, int, int]:
    """(preset text, preset seed, noise families) of a workload's preset."""
    text = (PRESETS / f"{workload.preset}.ini").read_text(encoding="utf-8")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    families = parser.get("noise", "families", fallback=None) or parser.get("noise", "family")
    return text, parser.getint("experiment", "seed"), len([f for f in families.split(",") if f.strip()])


def write_config(workload: Workload, trials: int, path: Path) -> None:
    """The preset with its trial count replaced; nothing else changes."""
    text, count = re.subn(r"(?m)^trials\s*=\s*\d+\s*$", f"trials = {trials}", preset_info(workload)[0])
    if count != 1:
        raise SystemExit(f"{workload.preset}.ini: expected one 'trials =' line, found {count}")
    path.write_text(text, encoding="utf-8")


def environment() -> dict:
    """Versions, BLAS and threading state, machine and source identity."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo", encoding="utf-8")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k in ("OMP_THREAD_LIMIT", "OPENBLAS_CORETYPE")},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Bench:
    """One benchmark run: a workload, a seed, a config file and a deadline."""

    def __init__(self, name: str, seed: int, seconds: float, trials: int, out_dir: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.config = out_dir / f"{name}.ini"
        write_config(self.workload, trials, self.config)
        _, self.preset_seed, families = preset_info(self.workload)
        hyps = 1 if self.workload.command == "pof-curve" else 2
        self.work = trials * families * hyps  # trials x families x hypotheses
        self.deadline = time.monotonic() + DEADLINE_S
        self.reference_hashes: dict[str, str] | None = None
        self.report: dict | None = None  # output check of the first invocation
        self.invocations: list[dict] = []

    def spawn(self, mode: str, cli_args: list[str]) -> dict:
        """Start child.py in a fresh interpreter; its JSON plus ``setup_s``."""
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.config), *cli_args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.deadline - t0, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"{mode}: timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"{mode}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - t0
        out["elapsed_s"] = time.monotonic() - t0
        if out.get("rc", 0) != 0:
            out["error"] = f"{mode}: CLI exit {out['rc']}: {proc.stderr.strip()[-2000:]}"
        return out

    def invoke(self, mode: str, threads: int) -> dict:
        """One checked CLI run of the workload."""
        run_dir = self.out_dir / f"cli{len(self.invocations)}"
        shutil.rmtree(run_dir, ignore_errors=True)
        args = [self.workload.command, "--config", str(self.config), "--out", str(run_dir),
                "--seed", str(self.seed), "--threads", str(threads)]
        res = self.spawn(mode, args)
        res.update(mode=mode, threads=threads)
        if "error" not in res:
            self._check(res, run_dir)
        self.invocations.append(res)
        return res

    def _check(self, res: dict, run_dir: Path) -> None:
        if not (run_dir / "manifest.json").is_file():
            res["error"] = "manifest.json missing"
            return
        manifest = json.loads((run_dir / "manifest.json").read_text())
        res["excluded"], res["attempted"] = check.exclusions(manifest)
        hashes = {p.name: check.sha256(p) for p in sorted(run_dir.glob("*.csv"))}
        res["csv_bytes"] = sum(p.stat().st_size for p in run_dir.glob("*.csv"))
        if self.reference_hashes is None:
            self.reference_hashes = hashes
            self.report = check.check_outputs(self.name, run_dir)
            if not self.report["ok"]:
                res["error"] = "output check failed: " + "; ".join(self.report["errors"])
        elif hashes != self.reference_hashes:
            res["error"] = (f"CSVs differ from the first run of this seed "
                            f"({res['mode']}, threads {res['threads']})")

    def time_left(self, last: dict) -> bool:
        """Whether another invocation as long as ``last`` fits in ``--seconds``."""
        return time.monotonic() - self.start + last.get("elapsed_s", self.seconds) <= self.seconds

    def end_to_end(self) -> tuple[dict, dict]:
        self.spawn("setup", [])  # warm-up: byte-compiles the package on a fresh checkout
        # probes before and after the CLI runs sample more of the machine's
        # slow speed swings than one burst would
        setups = [self.spawn("setup", []) for _ in range(SETUP_PROBES)]
        self.start = time.monotonic()
        runs = [self.invoke("run", self.workload.threads)]
        while self.time_left(runs[-1]):
            runs.append(self.invoke("run", self.workload.threads))
        setups += [self.spawn("setup", []) for _ in range(SETUP_PROBES)]
        ok = [r for r in runs if r.get("rc") == 0]  # timed, whatever the output check said
        samples = {
            "wall_s": [r["wall_s"] for r in ok],
            "trials_per_s": [self.work / r["wall_s"] for r in ok],
            "setup_s": [r["setup_s"] for r in setups + runs if "error" not in r],
            "peak_rss_mb": [(r["rss_self_kb"] + self.workload.threads * r["rss_worker_kb"]
                             if r["rss_worker_kb"] else r["rss_self_kb"]) / 1024 for r in ok],
        }
        excluded = sum(r.get("excluded", self.work) for r in runs)
        attempted = sum(r.get("attempted", self.work) for r in runs)
        samples["usable_frac"] = [1.0 - excluded / attempted]
        samples["excluded_frac"] = [excluded / attempted]
        return samples, {"errors": [s["error"] for s in setups if "error" in s]}

    def traced(self) -> tuple[dict, dict]:
        self.start = time.monotonic()
        extra: dict = {}
        efficiency = 0.0
        if self.workload.threads > 1:
            one = self.invoke("run", 1)
            many = self.invoke("run", self.workload.threads)
            if one.get("rc") == 0 and many.get("rc") == 0:
                efficiency = one["wall_s"] / (self.workload.threads * many["wall_s"])
                extra["untraced_wall_s"] = {"1": one["wall_s"], str(self.workload.threads): many["wall_s"]}
        runs = [self.invoke("trace", 1)]
        while self.time_left(runs[-1]):
            runs.append(self.invoke("trace", 1))
        ok = [r for r in runs if r.get("rc") == 0]
        samples = {name: [r["metrics"][name] for r in ok] for name in (ok[0]["metrics"] if ok else {})}
        samples["montecarlo.parallel_efficiency"] = [efficiency]
        samples["cli.csv_bytes"] = [r["csv_bytes"] for r in ok]
        if ok:
            extra["accounting_ms"] = {k: statistics.median(r["accounting"][k] for r in ok)
                                      for k in ok[0]["accounting"]}
            extra["traced_wall_s"] = statistics.median(r["wall_s"] for r in ok)
            extra["spans"] = ok[0]["spans"]
            extra["missing_hooks"] = ok[0]["missing_hooks"]
        return samples, extra


def median(values):
    return statistics.median(values) if values else 0.0


def print_metrics(declared, samples: dict) -> None:
    for name, unit in declared:
        v = samples[name]
        spread = f"  min {min(v):.6g}  max {max(v):.6g}" if len(v) > 1 else ""
        print(f"  {name:<36} {median(v):>12.6g} {unit:<5} median of {len(v)}{spread}")


def print_trace(name: str, samples: dict, extra: dict) -> None:
    if extra.get("missing_hooks"):
        print(f"  hooks not found (their time counts in the parent layer): {extra['missing_hooks']}")
    acc = extra.get("accounting_ms", {})
    wall = median(samples.get("trace.wall_ms", []))
    if acc and wall:
        print(f"  self-time accounting of the traced wall ({wall:.1f} ms, {extra['spans']} spans):")
        for bucket, ms in acc.items():
            print(f"    {bucket:<28} {ms:>10.1f} ms {100 * ms / wall:6.2f}%")
        print(f"    {'sum':<28} {sum(acc.values()):>10.1f} ms")
    if "untraced_wall_s" in extra and "traced_wall_s" in extra:
        plain, traced = extra["untraced_wall_s"]["1"], extra["traced_wall_s"]
        print(f"  traced 1-worker run {traced:.2f} s vs untraced {plain:.2f} s: "
              f"{100 * (traced / plain - 1):+.1f}% (includes run-to-run noise; "
              f"trace.overhead_frac is the calibrated span cost)")
    for (wl, h), ref in ROADMAP_LAYERS.items():
        if wl != name:
            continue
        print(f"  cross-check against ROADMAP open item 1 ({h}):")
        for metric, expected in ref.items():
            got = median(samples.get(metric, []))
            ratio = got / expected if expected else float("inf")
            flag = "  DIFFERS >2x" if not 0.5 <= ratio <= 2.0 else ""
            print(f"    {metric:<36} {got:>10.4g} vs {expected:<8g} x{ratio:.2f}{flag}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="CLI --seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=TRIALS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "robustsense" / "cli.py").is_file():
        print(f"error: {ROOT / 'src/robustsense'} not found; run from a robustsense checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = preset_info(workload)[1] if args.seed is None else args.seed
    out_dir = OUT / f"{args.workload}-{seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = Bench(args.workload, seed, args.seconds, args.trials, out_dir)
    env = environment()
    samples, extra = bench.traced() if args.trace else bench.end_to_end()

    failed = [r for r in bench.invocations if "error" in r]
    correct = not failed and not extra.get("errors")
    print(f"workload {args.workload}: {workload.command} --config {workload.preset} "
          f"(trials {args.trials}, seed {seed}, threads {workload.threads}), trace {args.trace}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          f"threadpoolctl {'present' if env['threadpoolctl'] else 'absent'}, nproc {env['nproc']}")
    declared = declared_metrics(args.trace)
    missing = [m for m, _ in declared if not samples.get(m)]
    if missing:
        extra.setdefault("errors", []).append(f"no samples for {missing}")
        correct = False
    else:
        print_metrics(declared + ([] if args.trace else [("excluded_frac", "frac")]), samples)
    if args.trace:
        print_trace(args.workload, samples, extra)
    report = bench.report
    if report is not None:
        print(f"  golden: {report['identical']} of {report['files']} CSVs byte-identical "
              f"(golden seed {bench.preset_seed}, trials {TRIALS}; this run seed {seed}, "
              f"trials {args.trials}); statistical check {'passed' if report['ok'] else 'FAILED'}")
        if report["pod_at_0.1"]:
            print(f"  {check.pod_report(report['pod_at_0.1'], args.trials)}")
    for r in failed:
        print(f"  FAILED: {r['error']}", file=sys.stderr)
    for e in extra.get("errors", []):
        print(f"  FAILED: {e}", file=sys.stderr)

    metrics = {m: {"value": median(samples.get(m, [])), "unit": u} for m, u in declared}
    result = {"correct": correct, "attempted": len(bench.invocations), "failed": len(failed),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=seed, trials=args.trials, trace=args.trace,
                  seconds=args.seconds, environment=env, samples=samples, extra=extra,
                  check=report, invocations=bench.invocations)
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

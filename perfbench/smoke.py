"""Smoke test of the benchmark itself, at tiny trial counts.

usage: python3 perfbench/smoke.py

For every workload, runs ``run.py`` with and without tracing and checks that
the output check passed and that every metric BENCHMARK.json declares is
printed, in the human-readable lines and in the final JSON line, with its
unit.  fig1_null_t2 runs at 4100 trials, just over one 4096-trial chunk, so
its worker pool really starts and ``run.py`` compares the CSVs written at one
and at two workers byte for byte.  Last, the benchmark must refuse to run,
without printing a result, in a directory holding only BENCHMARK.json and the
benchmark.  Exit code 0 iff every check passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {"fig1_null_t2": 4100, "fig3_roc_gg": 300, "fig4_roc_gauss": 300}


def bench(root: Path, workload: str, trace: int, trials: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--trials", str(trials)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            before = len(failures)
            proc = bench(ROOT, workload, trace, TINY[workload] if trace else 300)
            label = f"{workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: result not correct")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{label}: metrics/units {sorted(set(got.items()) ^ set(wanted.items()))}")
            printed = {tuple(line.split()[:1] + line.split()[2:3]) for line in lines[:-1]}
            names = list(wanted.items()) + ([("excluded_frac", "frac")] if trace == 0 else [])
            unprinted = [n for n in names if n not in printed]
            if unprinted:
                failures.append(f"{label}: not printed with its unit: {unprinted}")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}")
    record = json.loads((HERE / "out" / "fig1_null_t2-5-t1" / "result.json").read_text())
    if set(record["extra"].get("untraced_wall_s", {})) != {"1", "2"}:
        failures.append("fig1_null_t2: the 1- and 2-worker runs did not both complete")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "fig4_roc_gauss", 0, 300)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}")
    shutil.rmtree(bare)

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("smoke: " + ("passed" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the golden curves and hashes the output check compares against.

usage: python3 perfbench/golden.py [WORKLOAD ...]

Runs each workload's CLI command once at its preset's seed and the
benchmark's trial count, copies the CSVs to ``golden/<workload>/`` and
records their sha256 and usable trial counts in ``golden/golden.json``.
Only rerun it when a change is meant to alter the curves, and say so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run


def main(names: list[str]) -> int:
    path = check.GOLDEN / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        seed = run.preset_info(run.WORKLOADS[name])[1]
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            bench = run.Bench(name, seed, 0.0, run.TRIALS, Path(tmp))
            res = bench.spawn("run", [bench.workload.command, "--config", str(bench.config),
                                      "--out", tmp + "/cli", "--seed", str(seed), "--threads", "1"])
            if "error" in res:
                print(res["error"], file=sys.stderr)
                return 1
            out = Path(tmp) / "cli"
            target = check.GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            csvs = sorted(out.glob("*.csv"))
            for csv in csvs:
                shutil.copy(csv, target / csv.name)
            counts = check.usable_counts(json.loads((out / "manifest.json").read_text()))
            golden[name] = {
                "seed": seed,
                "trials": run.TRIALS,
                "sha256": {p.name: check.sha256(p) for p in csvs},
                "usable": {p.name: counts[p.name] for p in csvs},
            }
        print(f"{name}: {len(csvs)} CSVs at seed {seed}")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Output checks for benchmark runs, valid for any seed.

Each run's CSVs are compared with the golden curves stored under
``golden/<workload>/`` (written at the preset's own seed):

* ``pof_*.csv``: the run's and the golden empirical CDF must agree within the
  sum of the two Dvoretzky-Kiefer-Wolfowitz bands at level ``DKW_ALPHA``.
* ``roc_*.csv``: pod at fixed pfa points and pfa at fixed pod points must
  agree within ``Z`` standard errors of the binomial estimates, including
  the threshold's own sampling error (the ROC slope times the other axis'
  binomial error).

The CSVs hold rank-down-sampled curves, so between two stored points a curve
can take any value between theirs; gaps are measured between those ranges.

Byte identity with the golden CSVs is counted and reported, not required:
changes that alter the arithmetic (for example a new estimator step) change
bytes by design while the statistics must still agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
DKW_ALPHA = 1e-6
Z = 5.0
FLOOR = 3.0  # least binomial variance, in counts, of a proportion near 0 or 1
PFA_POINTS = (0.01, 0.05, 0.1, 0.2, 0.5)
POD_POINTS = (0.5, 0.9, 0.99)
POF_HEADER = ["threshold", "pfa", "cdf"]
ROC_HEADER = ["pfa", "pod"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def usable_counts(manifest: dict) -> dict[str, tuple[int, int | None]]:
    """Usable trials (H0, H1 or None) behind each CSV the manifest lists."""
    out = {}
    for key, entry in manifest["detectors"].items():
        n0 = entry["trials"] - entry["h0_excluded"]
        n1 = entry["trials"] - entry["h1_excluded"] if "h1_excluded" in entry else None
        name = f"pof_{key.replace('/', '_')}.csv" if "/" in key else f"roc_{key}.csv"
        out[name] = (n0, n1)
    return out


def exclusions(manifest: dict) -> tuple[int, int]:
    """(excluded, attempted) trials summed over detectors and hypotheses."""
    excluded = attempted = 0
    for entry in manifest["detectors"].values():
        for h in ("h0_excluded", "h1_excluded"):
            if h in entry:
                excluded += entry[h]
                attempted += entry["trials"]
    return excluded, attempted


def _dkw(n: int) -> float:
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * n))


def _cdf_gap(grid_a, cdf_a, grid_b, cdf_b) -> float:
    """Largest distance of curve a's points from the band curve b allows there.

    Between two of its grid points an empirical CDF can take any value between
    theirs, so b's value at a threshold is an interval.
    """
    k = np.searchsorted(grid_b, grid_a, side="right")
    lo = np.where(k > 0, cdf_b[np.maximum(k - 1, 0)], 0.0)
    hi = np.where(k < grid_b.size, cdf_b[np.minimum(k, grid_b.size - 1)], 1.0)
    return float(np.max(np.maximum(0.0, np.maximum(cdf_a - hi, lo - cdf_a))))


def check_pof(run: np.ndarray, gold: np.ndarray, n_run: int, n_gold: int) -> tuple[float, float]:
    """(sup CDF gap, allowed gap) between two threshold/pfa/cdf curves."""
    gap = max(_cdf_gap(run[:, 0], run[:, 2], gold[:, 0], gold[:, 2]),
              _cdf_gap(gold[:, 0], gold[:, 2], run[:, 0], run[:, 2]))
    allowed = _dkw(n_run) + _dkw(n_gold)
    return gap, allowed


def _interval_at(x, y, a) -> tuple[float, float]:
    """Range of y a monotone curve through the points (x, y) can take at x = a."""
    left = y[x <= a]
    right = y[x >= a]
    lo = left.max() if left.size else y.min()
    hi = right.min() if right.size else y.max()
    return min(lo, hi), max(lo, hi)


def _mid(x, y, a) -> float:
    lo, hi = _interval_at(x, y, a)
    return 0.5 * (lo + hi)


def _axis_gaps(x_run, y_run, x_gold, y_gold, n_x, n_y, levels):
    """Per level: (level, gap between the curves' y at x = level, allowed gap).

    The run's y at a fixed x is a binomial proportion on the y sample, read at a
    threshold estimated from the x sample, so its variance is
    y(1-y)/n_y + slope^2 x(1-x)/n_x, summed over the two independent curves;
    y is pooled from both curves and the slope taken from the golden one.
    """
    out = []
    for a in levels:
        lo_r, hi_r = _interval_at(x_run, y_run, a)
        lo_g, hi_g = _interval_at(x_gold, y_gold, a)
        gap = max(0.0, lo_r - hi_g, lo_g - hi_r)
        y = 0.5 * (_mid(x_run, y_run, a) + _mid(x_gold, y_gold, a))
        lo, hi = max(a - 0.02, 0.0), min(a + 0.02, 1.0)
        slope = (_mid(x_gold, y_gold, hi) - _mid(x_gold, y_gold, lo)) / (hi - lo)
        # near 0 or 1 a proportion seen in n trials is uncertain by a few counts
        var = max(y * (1 - y), FLOOR / n_y) / n_y + slope**2 * max(a * (1 - a), FLOOR / n_x) / n_x
        out.append((a, gap, Z * math.sqrt(2.0 * var)))
    return out


def check_roc(run, gold, n0: int, n1: int) -> list[tuple[str, float, float, float]]:
    """(axis, level, gap, allowed) for pod at fixed pfa and pfa at fixed pod."""
    rows = [("pod@pfa", *g) for g in _axis_gaps(run[:, 0], run[:, 1], gold[:, 0], gold[:, 1],
                                                n0, n1, PFA_POINTS)]
    rows += [("pfa@pod", *g) for g in _axis_gaps(run[:, 1], run[:, 0], gold[:, 1], gold[:, 0],
                                                 n1, n0, POD_POINTS)]
    return rows


def _structure_errors(name: str, header: list[str], rows: np.ndarray) -> list[str]:
    errors = []
    expected = POF_HEADER if name.startswith("pof_") else ROC_HEADER
    if header != expected:
        errors.append(f"{name}: header {header} != {expected}")
        return errors
    if rows.shape[0] < 2 or not np.isfinite(rows).all():
        return errors + [f"{name}: fewer than two rows or non-finite values"]
    probs = rows[:, 1:] if name.startswith("pof_") else rows
    if probs.min() < 0.0 or probs.max() > 1.0:
        errors.append(f"{name}: probabilities outside [0, 1]")
    if name.startswith("pof_"):
        if np.any(np.diff(rows[:, 0]) <= 0) or np.any(np.diff(rows[:, 1]) > 0):
            errors.append(f"{name}: thresholds not increasing or pfa increasing")
        if np.max(np.abs(rows[:, 1] + rows[:, 2] - 1.0)) > 1e-12:
            errors.append(f"{name}: pfa + cdf != 1")
    elif np.any(np.diff(rows, axis=0) < 0) or tuple(rows[-1]) != (1.0, 1.0):
        errors.append(f"{name}: ROC not monotone or not ending at (1, 1)")
    return errors


def check_outputs(workload: str, out_dir: Path) -> dict:
    """Check one run's outputs against the golden curves of its workload.

    Returns ``ok``, a list of ``errors``, the byte-identity count, the
    per-curve statistical comparisons, and pod at pfa 0.1 per ROC detector.
    """
    golden = json.loads((GOLDEN / "golden.json").read_text())[workload]
    report = {"ok": False, "errors": [], "identical": 0, "files": len(golden["sha256"]),
              "curves": {}, "pod_at_0.1": {}}
    counts = usable_counts(json.loads((out_dir / "manifest.json").read_text()))
    produced = sorted(p.name for p in out_dir.glob("*.csv"))
    if produced != sorted(golden["sha256"]):
        report["errors"].append(f"CSV set {produced} != golden {sorted(golden['sha256'])}")
        return report
    for name in produced:
        path = out_dir / name
        report["identical"] += sha256(path) == golden["sha256"][name]
        header, rows = read_csv(path)
        errors = _structure_errors(name, header, rows)
        if errors:
            report["errors"] += errors
            continue
        gold = read_csv(GOLDEN / workload / name)[1]
        n0, n1 = counts[name]
        g0, g1 = golden["usable"][name]
        if name.startswith("pof_"):
            gap, allowed = check_pof(rows, gold, n0, g0)
            report["curves"][name] = {"gap": gap, "allowed": allowed}
            if gap > allowed:
                report["errors"].append(f"{name}: CDF gap {gap:.4f} > DKW band {allowed:.4f}")
        else:
            report["pod_at_0.1"][name] = _mid(rows[:, 0], rows[:, 1], 0.1)
            rows_cmp = check_roc(rows, gold, min(n0, g0), min(n1, g1))
            report["curves"][name] = [
                {"axis": axis, "level": a, "gap": gap, "allowed": allowed}
                for axis, a, gap, allowed in rows_cmp
            ]
            for axis, a, gap, allowed in rows_cmp:
                if gap > allowed:
                    report["errors"].append(
                        f"{name}: {axis} {a}: gap {gap:.4f} > binomial band {allowed:.4f}")
    report["ok"] = not report["errors"]
    return report


def pod_report(pods: dict[str, float], n1: int) -> str:
    """pod at pfa 0.1 per ROC detector, flagging those within 3 SE of 1."""
    parts = []
    for name, p in sorted(pods.items()):
        flag = " (within 3 SE of 1)" if 1.0 - p <= 3.0 * math.sqrt(max(p * (1 - p), 1.0 / n1) / n1) else ""
        parts.append(f"{name[4:-4]}={p:.5f}{flag}")
    text = "pod at pfa 0.1: " + ", ".join(parts)
    if min(pods.values()) >= 0.99:
        text += ("; every pod is >= 0.99, so this ROC cannot tell the detectors apart "
                 "at the preset's SNR (ROADMAP item 4)")
    return text

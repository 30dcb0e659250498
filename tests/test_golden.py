"""Golden hashes: short CLI runs of every preset must keep their CSV bytes.

Each case runs one preset at its own seed with ``trials`` lowered to 2048
(``calibrate`` runs fig2 at ``--pfa 0.1``; the ``_m13db`` cases run fig3
and fig4 at ``snr_db = -13``) and compares the sha256 of every CSV with
``golden_hashes.json``.  A change meant to be byte-neutral (a refactor or a
speed-up) must leave them all equal.

The ROC CSVs of fig3 and fig4 are saturated at their 0 dB operating point
(every robust pod is 1 on most of the curve): 8 of their 10 CSVs share one
hash, so they are weak witnesses.  At -13 dB no curve saturates (pod at
pfa 0.1 is 0.09-0.79 on fig3 and 0.16-0.32 on fig4), and only each run's
Tyler rlrt/glrt pair shares a hash, as it must: with sigma^2 = 1 and trace
p the two statistics are equal (criterion 2).  Those two cases and fig1's
pof curves carry the signal.

Regenerate only when a change is meant to alter the curves, and say so:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

Without arguments every case is rerun; naming cases reruns only those and
keeps the others' hashes.  Before rewriting ``golden_hashes.json`` the
script prints, per case and CSV, whether its hash is unchanged, changed,
new or removed, so the record shows which curves a change moved.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from robustsense.cli import main
from robustsense.config import load_config

HASHES = Path(__file__).with_name("golden_hashes.json")
TRIALS = 2048
CASES = {
    "pof-curve_fig1": ("pof-curve", "fig1", (), None),
    "roc_fig3": ("roc", "fig3", (), None),
    "roc_fig4": ("roc", "fig4", (), None),
    "roc_fig3_m13db": ("roc", "fig3", (), -13),
    "roc_fig4_m13db": ("roc", "fig4", (), -13),
    "calibrate_fig2": ("calibrate", "fig2", ("--pfa", "0.1"), None),
}


def run_case(name: str, work: Path) -> dict[str, str]:
    """Run one case in ``work``; return {csv name: sha256}."""
    command, preset, extra, snr_db = CASES[name]
    path = Path(load_config(preset).path)
    text, count = re.subn(r"(?m)^trials = \d+$", f"trials = {TRIALS}", path.read_text())
    assert count == 1, f"{path}: expected one trials line"
    if snr_db is not None:
        text, count = re.subn(r"(?m)^snr_db = \S+$", f"snr_db = {snr_db}", text)
        assert count == 1, f"{path}: expected one snr_db line"
    config = work / f"{preset}.ini"
    config.write_text(text)
    out = work / "out"
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def diff_report(old: dict[str, dict[str, str]], new: dict[str, dict[str, str]]) -> list[str]:
    """One line per case and CSV: unchanged, changed (old -> new), new or removed."""
    lines = []
    for case in sorted(set(old) | set(new)):
        before, after = old.get(case, {}), new.get(case, {})
        for name in sorted(set(before) | set(after)):
            if name not in after:
                status = f"removed (was {before[name]})"
            elif name not in before:
                status = f"new {after[name]}"
            elif before[name] == after[name]:
                status = "unchanged"
            else:
                status = f"changed {before[name]} -> {after[name]}"
            lines.append(f"{case}/{name}: {status}")
    return lines


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden_hashes(name, tmp_path):
    golden = json.loads(HASHES.read_text())[name]
    assert run_case(name, tmp_path) == golden


def test_diff_report_names_every_status():
    old = {"a": {"x.csv": "1", "y.csv": "2", "z.csv": "3"}}
    new = {"a": {"x.csv": "1", "y.csv": "9", "w.csv": "4"}, "b": {"v.csv": "5"}}
    assert diff_report(old, new) == [
        "a/w.csv: new 4",
        "a/x.csv: unchanged",
        "a/y.csv: changed 2 -> 9",
        "a/z.csv: removed (was 3)",
        "b/v.csv: new 5",
    ]


if __name__ == "__main__":
    import tempfile

    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; expected from {sorted(CASES)}")
    old = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    hashes = dict(old) if sys.argv[1:] else {}
    for case in sorted(sys.argv[1:] or CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[case] = run_case(case, Path(tmp))
    for line in diff_report(old, hashes):
        print(line)
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")

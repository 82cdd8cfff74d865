"""Smoke tests: each experiment script runs end to end and prints its expected tallies."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    # the child inherits this environment: PYTHONPATH finds the package
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sigma_fiber_sweep():
    out = run_script("sigma_fiber_sweep.py", "--chords", "10", "--tangents", "4")
    assert "chord    -> count 3: 10" in out
    assert "tangent  -> count 2: 4" in out
    assert "flex     -> count 1: 9" in out


def test_wall_crossing_scan_default_counts():
    out = run_script("wall_crossing_scan.py")
    assert "('Stable', 'Stable', 'Stable'): 350" in out
    assert "('Unstable', 'Stable', 'StrictlySemistable'): 150" in out
    assert "Ugen: 350" in out
    assert "SigmaPlus: 150" in out


def test_universal_family_grid():
    out = run_script("universal_family_grid.py", "--size", "5")
    assert "label counts: {'T1': 20, 'T21': 4, 'T31': 1}" in out

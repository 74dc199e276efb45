"""Smoke test of the scripts under scripts/: each runs to completion on
tiny arguments, so a change to the API they import fails here."""

import os
import subprocess
import sys

import pytest

import torhom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(torhom.__file__)))


@pytest.mark.parametrize("script, args, expected", [
    ("benchmark.py", ["--max-n", "4"], "T( 4, 4)"),
    ("torus_table.py", ["--max-m", "2", "--max-n", "3"], "T(2,3) = "),
    ("identity_scan.py", ["--samples", "5", "--r-max", "2", "--n-max", "3"], " 0 failures"),
])
def test_script_runs(script, args, expected):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout

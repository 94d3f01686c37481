"""The example scripts run end to end against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["demo.py"],
    ["size_study.py", "--runs", "20", "--repetitions", "500"],
    ["size_study.py", "--test", "correlation", "--method", "TAY",
     "--runs", "20", "--repetitions", "500"],
    ["size_study.py", "--test", "combined", "--runs", "20", "--repetitions", "500"],
])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ["--runs", "0"],
    ["--n", "50,x"],
    ["--n", "0,5"],
    ["--repetitions", "0"],
    ["--d", "0"],
    ["--test", "combined", "--n", "50"],
    ["--repetitions", "1000000000000000"],  # petabytes: the allocation fails at once
    ["--scale2", "inf"],
    ["--design", "cs", "--rho", "inf"],
    ["--scale2", "-1"],
    ["--scale2", "0"],  # a constant second group
    ["--d", "x"],
    ["--scale2", "1e300"],  # finite, but the fourth moments overflow
    ["--design", "ar", "--rho", "1e300"],
])
def test_size_study_rejects_bad_numbers_in_one_line(args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "size_study.py"), *args],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("size_study.py: error: ")
    assert proc.stderr.count("\n") == 1

"""Smoke tests: every experiment script and every CLI subcommand parses --help,
and the census script runs end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"usage" in proc.stdout


def test_census_smoke_run():
    # builds every connected catalog to e = 3 and runs the pairing-sum check
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "census.py"),
                           "--max-edges", "3"], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    assert b"-> True" in proc.stdout


@pytest.mark.parametrize("sub", ["graphs", "expand", "mu", "oracle", "penner", "charpoly",
                                 "clt", "duality"])
def test_cli_subcommand_help(sub):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "mobex", sub, "--help"], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"usage: mobex " + sub.encode())
    for flag in (b"--threads", b"--format", b"--half-edge-budget", b"--mu-budget",
                 b"--oracle-budget"):
        assert flag in proc.stdout

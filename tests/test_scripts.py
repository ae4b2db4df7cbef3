"""Smoke tests: every experiment script and every CLI subcommand parses --help,
and the census script runs end to end."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from mobex.cli import build_parser

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


def test_census_exits_4_on_a_pairing_sum_mismatch(monkeypatch, capsys):
    from mobex import catalog
    from mobex.cli import EXIT_VERIFY
    from mobex.npoly import NPoly

    real = catalog.labeled_pairing_sum
    monkeypatch.setattr(catalog, "labeled_pairing_sum",
                        lambda profile, *args, **kwargs: real(profile) + NPoly.N(1))
    monkeypatch.setattr(sys, "argv", ["census.py", "--max-edges", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / "census.py"), run_name="__main__")
    assert exit_info.value.code == EXIT_VERIFY
    assert "-> False" in capsys.readouterr().out


# each parser's shared options: exactly those its runner reads
SUBCOMMAND_OPTIONS = {
    "graphs": {"--format", "--half-edge-budget"},
    "expand": {"--format", "--half-edge-budget", "--threads"},
    "mu": {"--mu-budget"},
    "oracle": {"--format", "--half-edge-budget", "--oracle-budget"},
    "oracle mc": set(),
    "penner": {"--format"},
    "penner euler": set(),
    "charpoly": {"--format", "--half-edge-budget"},
    "charpoly verify": set(),
    "clt": {"--format", "--half-edge-budget"},
    "duality": {"--half-edge-budget"},
}
SHARED_OPTIONS = set().union(*SUBCOMMAND_OPTIONS.values())


# every parser build_parser makes, so a new one cannot skip the check
PARSERS = sorted(build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("sub", PARSERS)
def test_cli_subcommand_help(sub):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "mobex", *sub.split(), "--help"], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"usage: mobex " + sub.encode())
    listed = {flag for flag in SHARED_OPTIONS
              if re.search(r"(?<![\w-])%s(?![\w-])" % flag, proc.stdout.decode())}
    assert listed == SUBCOMMAND_OPTIONS[sub]


# every option of expand, shared or its own: each one is read by its runner
EXPAND_OPTIONS = {"--format", "--half-edge-budget", "--threads", "--beta", "--tag",
                  "--max-degree"}


def test_expand_accepts_exactly_the_options_it_reads():
    expand = build_parser()._subparsers._group_actions[0].choices["expand"]
    flags = {flag for action in expand._actions for flag in action.option_strings}
    assert flags - {"-h", "--help"} == EXPAND_OPTIONS

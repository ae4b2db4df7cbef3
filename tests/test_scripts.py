"""Smoke tests: every experiment script and every CLI subcommand parses --help,
and every experiment script runs end to end."""

import json
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


def _run(*args) -> str:
    """stdout of ``python *args`` run from the checkout's src, after exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    assert "usage" in _run(str(script), "--help")


def test_census_smoke_run():
    # builds every connected catalog to e = 3 and runs the pairing-sum and Wick checks
    out = _run(str(ROOT / "scripts" / "census.py"), "--max-edges", "3")
    assert out.strip()
    assert "-> True" in out


def test_duality_report_runs():
    out = _run(str(ROOT / "scripts" / "duality_report.py"), "--max-degree", "4")
    rows = [line for line in out.splitlines() if line.startswith("  t_")]
    assert rows and all(line.endswith("== dual") for line in rows)
    assert "self-dual: True" in out


def test_penner_tables_runs():
    out = _run(str(ROOT / "scripts" / "penner_tables.py"), "--order", "3")
    sides = [line.split(":", 1)[1].strip() for line in out.splitlines()
             if line.startswith(("graph sum at order z", "closed form at order z"))]
    assert len(sides) == 2 and sides[0] == sides[1]
    gaps = [line for line in out.splitlines() if line.startswith("duality gap")]
    assert gaps and all(line.endswith(": 0") for line in gaps)


def test_graph_examples_agree_under_mu(tmp_path):
    _run(str(ROOT / "scripts" / "make_graph_examples.py"), "--out-dir", str(tmp_path))
    examples = sorted(tmp_path.glob("*.json"))
    assert examples
    for path in examples:
        report = json.loads(_run("-m", "mobex", "mu", "--graph", str(path), "--beta", "4"))
        assert report["agree"] is True, path.name


def test_census_exits_4_on_a_pairing_sum_mismatch(monkeypatch, capsys):
    # the pairing sum shifted off the catalog, then Wick's moment off the
    # other two (zero: a shifted real one would fill its cache wrongly)
    from mobex import catalog, oracle
    from mobex.cli import EXIT_VERIFY
    from mobex.npoly import NPoly

    real = catalog.labeled_pairing_sum
    breaks = [(catalog, "labeled_pairing_sum",
               lambda profile, *args, **kwargs: real(profile) + NPoly.N(1)),
              (oracle, "_loop_moment", lambda *args: NPoly.zero())]
    for module, name, broken in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            patch.setattr(sys, "argv", ["census.py", "--max-edges", "1"])
            with pytest.raises(SystemExit) as exit_info:
                runpy.run_path(str(ROOT / "scripts" / "census.py"), run_name="__main__")
        assert exit_info.value.code == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "-> False" in out and ("Wick check on" in out) == (module is oracle), name


def _exit_code(monkeypatch, script: str, *args) -> int:
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    return exit_info.value.code


def test_duality_report_exits_4_when_a_term_is_not_self_dual(monkeypatch, capsys):
    from mobex import series
    from mobex.cli import EXIT_VERIFY

    real = series.apply_duality

    def broken(inv):  # doubles the first term of the image
        dual = real(inv).copy()
        key = min(dual.terms)
        dual.terms[key] = dual.terms[key] + dual.terms[key]
        return dual

    monkeypatch.setattr(series, "apply_duality", broken)
    assert _exit_code(monkeypatch, "duality_report.py", "--max-degree", "2") == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "!= dual" in out and "self-dual: False" in out


@pytest.mark.parametrize("broken", ["graph side", "duality gap"])
def test_penner_tables_exits_4_on_a_failed_check(monkeypatch, capsys, broken):
    from mobex import penner
    from mobex.cli import EXIT_VERIFY
    from mobex.npoly import NPoly

    def shifted(fn):  # adds N to the z coefficient of fn's series
        def wrapper(*args):
            zs = fn(*args)
            return zs + penner.ZSeries(zs.order, {1: NPoly.N(1)})
        return wrapper

    name = {"graph side": "gse_penner_zseries", "duality gap": "extended_duality_gap"}[broken]
    monkeypatch.setattr(penner, name, shifted(getattr(penner, name)))
    assert _exit_code(monkeypatch, "penner_tables.py", "--order", "2") == EXIT_VERIFY
    assert capsys.readouterr().out.strip()


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
    out = _run("-m", "mobex", *sub.split(), "--help")
    assert out.startswith("usage: mobex " + sub)
    listed = {flag for flag in SHARED_OPTIONS
              if re.search(r"(?<![\w-])%s(?![\w-])" % flag, out)}
    assert listed == SUBCOMMAND_OPTIONS[sub]


# every option of expand, shared or its own: each one is read by its runner
EXPAND_OPTIONS = {"--format", "--half-edge-budget", "--threads", "--beta", "--tag",
                  "--max-degree"}


def test_expand_accepts_exactly_the_options_it_reads():
    expand = build_parser()._subparsers._group_actions[0].choices["expand"]
    flags = {flag for action in expand._actions for flag in action.option_strings}
    assert flags - {"-h", "--help"} == EXPAND_OPTIONS

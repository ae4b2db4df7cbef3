"""Self-test of the benchmark, at tiny operation sizes.

    python3 -m pytest perfbench/selftest -q

Checks that every metric is printed by name with its unit, that a corrupted
golden digest is counted as a failure, that traced and untraced rounds give
identical operation outputs, and that the benchmark refuses to run without
the sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    report = tmp_path / ("%s-%d.json" % (workload, trace))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--report", str(report), *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), json.loads(report.read_text())


def printed(lines, name: str) -> re.Match:
    return re.search(r"^%s\s+(\S+)\s+(\S+)" % re.escape(name), "\n".join(lines), re.M)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(tmp_path, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result, _ = bench(tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in list(expected.items()) + [("fail_ratio", "ratio")]:
            match = printed(lines[:-1], name)
            assert match and match.group(2) == unit, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_golden_counts_as_failure(tmp_path, workload):
    golden = json.loads((BENCH / "golden.json").read_text())
    ids = [op["id"] for op in workloads.operations(workload, 3, "tiny") if op["id"] in golden]
    assert ids
    golden[ids[0]]["sha256"] = "0" * 64
    corrupt = tmp_path / "golden.json"
    corrupt.write_text(json.dumps(golden))
    lines, result, _ = bench(tmp_path, workload, 0, "--golden", str(corrupt))
    assert not result["correct"] and result["failed"] > 0
    assert float(printed(lines[:-1], "fail_ratio").group(1)) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_agree(tmp_path, workload):
    _, result, rounds = bench(tmp_path, workload, 1)
    assert {r["traced"] for r in rounds} == {True, False}
    outputs = defaultdict(set)
    for r in rounds:
        for op in r["results"]:
            outputs[op["id"]].add((op["exit"], op["sha256"]))
    assert outputs and all(len(seen) == 1 for seen in outputs.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

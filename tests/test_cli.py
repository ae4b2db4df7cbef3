import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mobex import cli, oracle, series, sprinkle
from mobex.dualchar import CharpolyReport
from mobex.errors import TAGS
from mobex.graphs import MoebiusGraph, graph_to_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graphs_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "graphs", "--profile", "3:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 7
    for record in data:
        g = MoebiusGraph(record["rotations"], record["edges"], record["twists"])
        assert graph_to_json(g)  # structurally valid
        assert record["aut_moebius"] >= 1


def test_graphs_budget_violation_exit_code(capsys):
    code, _, err = run_cli(capsys, "graphs", "--profile", "3:20")
    assert code == cli.EXIT_BUDGET
    assert json.loads(err)["code"] == cli.EXIT_BUDGET


def test_expand_json_schema(capsys):
    code, out, _ = run_cli(capsys, "expand", "--beta", "4", "--tag", "master",
                           "--max-degree", "4")
    assert code == 0
    data = json.loads(out)
    t2 = next(rec for rec in data if rec["monomial"] == [2])
    assert t2["coeff"] == {"2": "1", "1": "-1/2"}


def test_expand_threads_do_not_change_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "expand", "--beta", "1", "--tag", "master",
                             "--max-degree", "6", "--threads", "1")
    code2, out2, _ = run_cli(capsys, "expand", "--beta", "1", "--tag", "master",
                             "--max-degree", "6", "--threads", "3")
    assert code1 == code2 == 0
    assert out1 == out2


# golden_cli/<name>.json -> argv; the files were written by an earlier commit
GOLDEN_CASES = {"expand_master_b4_d6": ["expand", "--beta", "4", "--tag", "master",
                                        "--max-degree", "6"]}
for _tag in TAGS:
    for _beta in {"master": (1, 2, 4), "rescaled": (1, 2, 4)}.get(_tag, (None,)):
        GOLDEN_CASES["expand_%s%s_d8" % (_tag, "" if _beta is None else "_b%d" % _beta)] = (
            ["expand", "--tag", _tag, "--max-degree", "8"]
            + ([] if _beta is None else ["--beta", str(_beta)]))
for _which in ("BHC", "BHQ"):
    GOLDEN_CASES["charpoly_verify_%s_N4_k2" % _which] = [
        "charpoly", "verify", "--which", _which, "--N", "4", "--k", "2"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_expand_matches_golden_file(capsys, name):
    golden = Path(__file__).parent / "golden_cli" / (name + ".json")
    code, out, _ = run_cli(capsys, *GOLDEN_CASES[name])
    assert code == 0
    assert out == golden.read_text()


def test_expand_usage_error(capsys):
    code, _, err = run_cli(capsys, "expand", "--beta", "3", "--max-degree", "4")
    assert code == cli.EXIT_USAGE
    assert "beta" in json.loads(err)["error"]


def test_mu_subcommand(tmp_path, capsys):
    klein = MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [True, True])
    path = tmp_path / "klein.json"
    path.write_text(graph_to_json(klein))
    code, out, _ = run_cli(capsys, "mu", "--graph", str(path), "--beta", "4")
    assert code == 0
    data = json.loads(out)
    assert data["mu_bruteforce"] == data["mu_closed"] == 4
    assert data["agree"] is True


def test_mu_mismatch_exits_4_with_its_report(tmp_path, monkeypatch, capsys):
    real = sprinkle.mu_closed_form
    monkeypatch.setattr(sprinkle, "mu_closed_form",
                        lambda profile, beta: real(profile, beta) + 1)
    klein = MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [True, True])
    path = tmp_path / "klein.json"
    path.write_text(graph_to_json(klein))
    code, out, err = run_cli(capsys, "mu", "--graph", str(path), "--beta", "4")
    assert code == cli.EXIT_VERIFY
    data = json.loads(out)
    assert data["agree"] is False
    assert (data["mu_bruteforce"], data["mu_closed"]) == (4, 5)
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["code"] == cli.EXIT_VERIFY
    assert record["payload"] == data


def test_mu_structural_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"rotations\": [[0]], \"edges\": [[0, 0]], \"twists\": [false]}")
    code, _, err = run_cli(capsys, "mu", "--graph", str(path), "--beta", "2")
    assert code == cli.EXIT_STRUCTURAL


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--beta", "4", "--n", "2",
                           "--max-degree", "4", "--tag", "master")
    assert code == 0
    data = json.loads(out)
    assert data and all(rec["equal"] for rec in data)


def test_oracle_mc_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "mc", "--beta", "1", "--n", "2",
                           "--powers", "2", "--samples", "2000", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert abs(data["mean"] - 6) < 4 * data["stderr"]


def test_penner_series_and_euler(capsys):
    code, out, _ = run_cli(capsys, "penner", "--model", "K", "--alpha", "2",
                           "--order", "2")
    assert code == 0
    data = json.loads(out)
    assert data["1"] == {"1": "-1/12", "2": "-1/2", "3": "2/3"}

    code, out, _ = run_cli(capsys, "penner", "euler", "--q", "1", "--n", "1")
    assert code == 0
    assert json.loads(out)["euler_characteristic"] == "1/24"


def test_charpoly_sides_and_verify(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--ensemble", "goe", "--side",
                           "lhs", "--max-degree", "4")
    assert code == 0
    lhs = json.loads(out)
    code, out, _ = run_cli(capsys, "charpoly", "--ensemble", "gse", "--side",
                           "rhs", "--max-degree", "4")
    assert code == 0
    assert json.loads(out) == lhs

    code, out, _ = run_cli(capsys, "charpoly", "verify", "--which", "BHQ",
                           "--N", "1", "--k", "1")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_clt_subcommand(capsys):
    code, out, _ = run_cli(capsys, "clt", "--alpha", "2", "--jmax", "3",
                           "--verify", "--max-degree", "6")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert dict((tuple(p), v) for p, v in data["quadratic_form"])[(1, 1)] == "1"


def test_duality_subcommand(capsys):
    code, out, _ = run_cli(capsys, "duality", "--alpha", "2", "--max-degree", "6")
    assert code == 0
    data = json.loads(out)
    assert data["involution_holds"] and data["self_dual_graph_by_graph"]


def test_verification_failure_exit_code(monkeypatch, capsys):
    def corrupt(series):
        out = series.copy()
        key = next(iter(out.terms))
        out.terms[key] = out.terms[key] * 2
        return out

    monkeypatch.setattr(series, "apply_duality", corrupt)
    code, out, err = run_cli(capsys, "duality", "--alpha", "2", "--max-degree", "4")
    assert code == cli.EXIT_VERIFY
    record = json.loads(err)
    assert record["code"] == cli.EXIT_VERIFY
    assert record["payload"] == json.loads(out)
    assert record["payload"]["self_dual_graph_by_graph"] is False


def test_oracle_mismatch_prints_its_report(monkeypatch, capsys):
    real = oracle._loop_moment
    monkeypatch.setattr(oracle, "_loop_moment", lambda *args: real(*args) + 1)
    try:
        code, out, err = run_cli(capsys, "oracle", "--beta", "1", "--n", "2",
                                 "--max-degree", "2")
    finally:
        real.cache_clear()  # its recursion went through the +1, so it cached wrong moments
    assert code == cli.EXIT_VERIFY and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])["payload"]
    assert payload["monomial"] == [1, 1] and payload["equal"] is False
    assert (payload["beta"], payload["n"], payload["tag"]) == (1, 2, "master")
    assert Fraction(payload["exact"]) != Fraction(payload["predicted"])


class _Unprintable:
    def __str__(self):
        raise RuntimeError("no")

    __repr__ = __str__


def test_payload_rendering_never_raises():
    report = CharpolyReport(which="BHC", n=1, k=1, lhs=(((1,), Fraction(1, 2)),),
                            rhs=(), equal=False)
    payload = {"report": report, "im": {(0, 2): Fraction(-1, 3)}, "raw": b"ab\xff",
               "x": float("nan"), "odd": _Unprintable()}
    rendered = cli._jsonable(payload)
    json.dumps(rendered, allow_nan=False)
    assert rendered["report"] == {"which": "BHC", "n": 1, "k": 1, "lhs": [[[1], "1/2"]],
                                  "rhs": [], "equal": False}
    assert rendered["im"] == {"[0, 2]": "-1/3"}
    assert rendered["raw"] == "ab\ufffd" and rendered["x"] == "nan"
    assert rendered["odd"] == "<unrenderable _Unprintable>"


def test_env_budget_override(monkeypatch, capsys):
    monkeypatch.setenv("MOBEX_HALF_EDGE_BUDGET", "4")
    code, _, err = run_cli(capsys, "graphs", "--profile", "3:2")
    assert code == cli.EXIT_BUDGET
    # the error names the predicted cost: 5!! = 15 matchings of 6 half-edges
    assert json.loads(err)["error"] == "profile {3: 2} needs 6 half-edges (15 matchings), budget is 4"
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "graphs", "--profile", "3:2",
                           "--half-edge-budget", "16")
    assert code == 0


def test_table_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "graphs", "--profile", "2:1", "--format", "table")
    assert code == 0 and "orientable" in out
    code, out, _ = run_cli(capsys, "graphs", "--profile", "2:1", "--format", "csv")
    assert code == 0 and out.splitlines()[0].startswith("v,e,f")


def test_csv_quotes_json_cells(capsys):
    code, out, _ = run_cli(capsys, "expand", "--beta", "1", "--max-degree", "4",
                           "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["monomial", "coefficient"]
    terms = series.expand_logZ("master", 4, 1).terms
    assert len(rows) == len(terms)
    for row, (monomial, coeff) in zip(rows, terms.items()):
        assert len(row) == len(header)
        assert row[0] == " ".join("t%d" % j for j in monomial)
        assert json.loads(row[1]) == coeff.to_json()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tag", TAGS)
def test_expand_output_is_expand_logZ(capsys, tag, threads):
    beta = {"master": 1, "rescaled": 4}.get(tag)
    argv = ["expand", "--tag", tag, "--max-degree", "6", "--threads", str(threads)]
    if beta is not None:
        argv += ["--beta", str(beta)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    terms = series.expand_logZ(tag, 6, beta).terms
    assert json.loads(out) == [{"monomial": list(m), "coeff": c.to_json()}
                               for m, c in terms.items()]


def test_expand_negative_degree_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "expand", "--beta", "1", "--max-degree", "-3")
    assert code == cli.EXIT_USAGE and out == ""
    assert json.loads(err)["code"] == cli.EXIT_USAGE


def test_expand_over_budget_names_half_edges(capsys):
    code, out, err = run_cli(capsys, "expand", "--beta", "1", "--max-degree", "6",
                             "--half-edge-budget", "4")
    assert code == cli.EXIT_BUDGET and out == ""
    record = json.loads(err)
    assert record["code"] == cli.EXIT_BUDGET
    assert "needs 6 half-edges" in record["error"]


def test_oracle_over_degree_budget_skips_the_graph_side(monkeypatch, capsys):
    def no_graph_side(*args, **kwargs):
        raise AssertionError("the graph side was built before the budget check")

    monkeypatch.setattr(oracle, "expand_logZ", no_graph_side)
    code, out, err = run_cli(capsys, "oracle", "--beta", "1", "--n", "2", "--max-degree", "10")
    assert code == cli.EXIT_BUDGET and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "degree 10 exceeds oracle budget 8: it would compute 82 eigenvalue moments,"
                 " one per coupling monomial of tag 'master'",
        "code": cli.EXIT_BUDGET}


# each budget variable -> a subcommand that reads it; "{tmp}" holds klein.json
ENV_BUDGET_READERS = {
    "MOBEX_HALF_EDGE_BUDGET": "graphs --profile 2:1",
    "MOBEX_MU_BUDGET": "mu --graph {tmp}/klein.json --beta 2",
    "MOBEX_ORACLE_BUDGET": "oracle --beta 1 --n 2 --max-degree 2",
}


@pytest.mark.parametrize("name", sorted(ENV_BUDGET_READERS))
def test_non_integer_env_budget_is_usage_error(tmp_path, monkeypatch, capsys, name):
    (tmp_path / "klein.json").write_text(
        graph_to_json(MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [True, True])))
    monkeypatch.setenv(name, "abc")
    code, out, err = run_cli(capsys, *ENV_BUDGET_READERS[name].format(tmp=tmp_path).split())
    assert code == cli.EXIT_USAGE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["code"] == cli.EXIT_USAGE and name in record["error"]


def test_env_budget_is_read_only_under_its_flag(monkeypatch, capsys):
    # graphs has no --mu-budget, so a malformed MOBEX_MU_BUDGET is not its input
    monkeypatch.setenv("MOBEX_MU_BUDGET", "abc")
    code, out, err = run_cli(capsys, "graphs", "--profile", "2:1")
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("name,line", [
    ("MOBEX_HALF_EDGE_BUDGET", "oracle mc --beta 1 --n 2 --samples 10"),
    ("MOBEX_ORACLE_BUDGET", "oracle mc --beta 1 --n 2 --samples 10"),
    ("MOBEX_HALF_EDGE_BUDGET", "charpoly verify"),
])
def test_a_mode_reads_no_budget_variable(monkeypatch, capsys, name, line):
    monkeypatch.setenv(name, "abc")
    code, out, err = run_cli(capsys, *line.split())
    assert code == 0 and out and err == ""


def test_penner_at_a_rational_parameter(capsys):
    from mobex.penner import J_series, K_series

    code, out, _ = run_cli(capsys, "penner", "--alpha", "3/2", "--order", "3")
    assert code == 0 and json.loads(out) == K_series(3, Fraction(3, 2)).to_json()
    code, out, _ = run_cli(capsys, "penner", "--model", "J", "--gamma", "2/3", "--order", "3")
    assert code == 0 and json.loads(out) == J_series(3, Fraction(2, 3)).to_json()


@pytest.mark.parametrize("twists", ['["false"]', '[0]', '"x"'])
def test_mu_rejects_non_boolean_twists(tmp_path, capsys, twists):
    path = tmp_path / "petal.json"
    path.write_text('{"rotations": [[0, 1]], "edges": [[0, 1]], "twists": %s}' % twists)
    code, out, err = run_cli(capsys, "mu", "--graph", str(path), "--beta", "2")
    assert code == cli.EXIT_STRUCTURAL and out == ""
    assert json.loads(err)["code"] == cli.EXIT_STRUCTURAL


@pytest.mark.parametrize("samples", ["0", "1", "-1"])
def test_mc_needs_two_samples(capsys, samples):
    code, out, err = run_cli(capsys, "oracle", "mc", "--beta", "1", "--n", "2",
                             "--samples", samples)
    assert code == cli.EXIT_USAGE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == cli.EXIT_USAGE


@pytest.mark.parametrize("bad", ["--n=0", "--n=-1", "--scale=0", "--scale=-1/4",
                                 "--powers=0"])
def test_mc_rejects_out_of_range_inputs(capsys, bad):
    code, out, err = run_cli(capsys, "oracle", "mc", "--beta", "1", "--n", "2",
                             "--samples", "10", bad)
    assert code == cli.EXIT_USAGE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == cli.EXIT_USAGE


def test_closed_stdout_pipe_exits_141():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "mobex", "graphs", "--profile", "2:1"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PIPE == 141
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == cli.EXIT_PIPE


def test_missing_input_file_is_structural(tmp_path, capsys):
    code, out, err = run_cli(capsys, "mu", "--graph", str(tmp_path / "none.json"),
                             "--beta", "1")
    assert code == cli.EXIT_STRUCTURAL and out == ""
    assert json.loads(err)["code"] == cli.EXIT_STRUCTURAL


# argv -> the documented exit code; "{tmp}" holds klein.json, garbled.json and,
# where a line names it, cycle.json.
# Failures that other tests here pin one by one are not repeated.
FAILURE_CONTRACT = [
    ("graphs --profile 3:x", cli.EXIT_USAGE),
    ("expand --tag hermitian --beta 1 --max-degree 4", cli.EXIT_USAGE),
    ("expand --beta 1 --max-degree 4 --threads 0", cli.EXIT_USAGE),
    ("expand --beta 1 --max-degree 4 --threads -3", cli.EXIT_USAGE),
    ("oracle --beta 3 --n 2", cli.EXIT_USAGE),
    ("oracle --beta 1 --n 0 --max-degree 1", cli.EXIT_USAGE),
    ("oracle --beta 1 --n -3 --max-degree 0", cli.EXIT_USAGE),
    ("oracle --beta 3 --n 2 --tag invariant --max-degree 1", cli.EXIT_USAGE),
    # invariant's beta is checked before the degree budget, as master's is
    ("oracle --beta 7 --n 1 --tag invariant --max-degree 10", cli.EXIT_USAGE),
    # invariant's graph side is symbolic in r and reads no beta
    ("expand --tag invariant --beta 1 --max-degree 2", cli.EXIT_USAGE),
    ("expand --tag invariant --beta 7 --max-degree 2", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --powers x", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --powers 2,", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --seed -1", cli.EXIT_USAGE),
    ("penner --model I --r x", cli.EXIT_USAGE),
    ("charpoly --max-degree -1", cli.EXIT_USAGE),
    ("charpoly --ensemble goe --side rhs", cli.EXIT_USAGE),
    ("clt --alpha x", cli.EXIT_USAGE),
    ("duality --alpha 0", cli.EXIT_USAGE),
    ("duality --alpha 1/0", cli.EXIT_USAGE),
    ("charpoly verify --which BHQ --N 4 --k 3", cli.EXIT_USAGE),
    ("charpoly --max-degree 40", cli.EXIT_BUDGET),
    ("mu --graph {tmp}/klein.json --beta 4 --mu-budget 1", cli.EXIT_BUDGET),
    ("clt --jmax 9", cli.EXIT_BUDGET),
    # refused before any list or exact (n-1)!! is built, at any size
    ("graphs --profile 3000:2", cli.EXIT_BUDGET),
    ("graphs --profile 1:20000", cli.EXIT_BUDGET),
    ("graphs --profile 2:100000000000", cli.EXIT_BUDGET),
    ("clt --jmax 100000", cli.EXIT_BUDGET),
    ("clt --jmax 10000000", cli.EXIT_BUDGET),
    ("expand --beta 1 --max-degree 40", cli.EXIT_BUDGET),
    ("expand --beta 1 --max-degree 70", cli.EXIT_BUDGET),
    ("mu --graph {tmp}/garbled.json --beta 1", cli.EXIT_STRUCTURAL),
    # argument errors: one JSON record, not argparse's usage text
    ("expand --max-degree x", cli.EXIT_USAGE),
    ("expand --tag foo --max-degree 2", cli.EXIT_USAGE),
    ("graphs", cli.EXIT_USAGE),
    ("nosuch", cli.EXIT_USAGE),
    # a subcommand refuses an option it does not read
    ("graphs --profile 3:2 --threads 2", cli.EXIT_USAGE),
    ("expand --beta 1 --max-degree 2 --no-t1", cli.EXIT_USAGE),
    ("mu --graph {tmp}/klein.json --beta 2 --format json", cli.EXIT_USAGE),
    # a mode that prints one JSON record has no table
    ("oracle mc --beta 1 --n 2 --samples 10 --format csv", cli.EXIT_USAGE),
    ("penner euler --format table", cli.EXIT_USAGE),
    ("charpoly verify --format csv", cli.EXIT_USAGE),
    # the oracle's graph side honours the half-edge budget, as expand does
    ("oracle --beta 1 --n 2 --max-degree 6 --half-edge-budget 4", cli.EXIT_BUDGET),
    # the mu budget names beta^e to two figures past 30 digits, at any size
    ("mu --graph {tmp}/cycle.json --beta 4", cli.EXIT_BUDGET),
    # the sampler refuses a scale or a mean that is not a finite float
    ("oracle mc --beta 1 --n 2 --samples 10 --scale 1e-400", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --samples 10 --scale 1e400", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --samples 10 --powers 1000", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --samples 10 --powers 200 --scale 1/1000", cli.EXIT_USAGE),
    # each mode is a parser of its own: no option of another mode is accepted
    ("oracle mc --beta 1 --n 2 --samples 10 --tag invariant", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --samples 10 --max-degree 50", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --samples 10 --half-edge-budget 4", cli.EXIT_USAGE),
    ("oracle mc --beta 1 --n 2 --samples 10 --oracle-budget 4", cli.EXIT_USAGE),
    ("oracle --beta 1 --n 2 --max-degree 2 --scale 1/4", cli.EXIT_USAGE),
    ("oracle --beta 1 --n 2 --max-degree 2 --powers 2", cli.EXIT_USAGE),
    ("oracle --beta 1 --n 2 --max-degree 2 --samples 10", cli.EXIT_USAGE),
    ("oracle --beta 1 --n 2 --max-degree 2 --seed 7", cli.EXIT_USAGE),
    ("penner euler --order 3", cli.EXIT_USAGE),
    ("penner euler --model J", cli.EXIT_USAGE),
    ("penner euler --alpha 2", cli.EXIT_USAGE),
    ("penner euler --gamma 2", cli.EXIT_USAGE),
    ("penner euler --r 2", cli.EXIT_USAGE),
    ("penner --q 1", cli.EXIT_USAGE),
    ("penner --n 1", cli.EXIT_USAGE),
    ("charpoly verify --half-edge-budget 4", cli.EXIT_USAGE),
    ("charpoly verify --ensemble gse", cli.EXIT_USAGE),
    ("charpoly verify --side rhs", cli.EXIT_USAGE),
    ("charpoly verify --max-degree 40", cli.EXIT_USAGE),
    ("charpoly --which BHQ", cli.EXIT_USAGE),
    ("charpoly --N 4", cli.EXIT_USAGE),
    ("charpoly --k 2", cli.EXIT_USAGE),
    # a Penner model reads only its own parameter; clt reads --max-degree only with --verify
    ("penner --model K --gamma 2", cli.EXIT_USAGE),
    ("penner --model K --r 2", cli.EXIT_USAGE),
    ("penner --model J --alpha 2", cli.EXIT_USAGE),
    ("penner --model J --r 2", cli.EXIT_USAGE),
    ("penner --model I --alpha 2", cli.EXIT_USAGE),
    ("penner --model I --gamma 2", cli.EXIT_USAGE),
    ("clt --max-degree 6", cli.EXIT_USAGE),
    # the four-sum holds at every rational parameter > 0, and only there
    ("penner --model K --alpha 0", cli.EXIT_USAGE),
    ("penner --model J --gamma 0", cli.EXIT_USAGE),
    ("penner --model I --r=-1/2", cli.EXIT_USAGE),
    # output past Python's 4,300-digit int-to-string limit is refused before it is computed
    ("penner --alpha 1e5000 --order 1", cli.EXIT_BUDGET),
    ("penner --alpha 1e600 --order 8", cli.EXIT_BUDGET),
    ("penner --model I --r 1e5000 --order 1", cli.EXIT_BUDGET),
    ("penner --alpha 1e5000 --order 30", cli.EXIT_BUDGET),
    ("duality --alpha 1e5000 --max-degree 2", cli.EXIT_BUDGET),
    # a rational past 100,000 implied digits is refused before it is built
    ("clt --alpha 1e3000000", cli.EXIT_USAGE),
    ("penner --alpha 1e3000000 --order 1", cli.EXIT_USAGE),
    ("penner --alpha 1e-3000000 --order 1", cli.EXIT_USAGE),
]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-string limit")
def test_unprintable_output_refusal_follows_the_interpreter_limit(capsys):
    code, _, err = run_cli(capsys, "duality", "--alpha", "1e5000", "--max-degree", "2")
    assert code == cli.EXIT_BUDGET
    limit = sys.get_int_max_str_digits()
    assert json.loads(err)["error"] == ("duality --alpha would print integers of about 5001"
                                        " digits, past Python's %d-digit limit" % limit)
    sys.set_int_max_str_digits(0)  # no limit: nothing is refused
    try:
        code, out, _ = run_cli(capsys, "penner", "--alpha", "1e5000", "--order", "1")
        assert code == 0
        assert max(len(c) for c in json.loads(out)["1"].values()) > 10000
        code, out, _ = run_cli(capsys, "duality", "--alpha", "1e5000", "--max-degree", "2")
        assert code == 0 and json.loads(out)["alpha"] == "%d" % 10 ** 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_rational_is_refused_by_its_implied_digits_before_it_is_built(capsys, monkeypatch):
    def no_conversion(text):
        raise AssertionError("Fraction(%r) was built" % text)

    monkeypatch.setattr(cli, "Fraction", no_conversion)
    code, _, err = run_cli(capsys, "penner", "--alpha", "1e3000000", "--order", "1")
    assert code == cli.EXIT_USAGE
    assert json.loads(err)["error"] == ("mobex penner: argument --alpha: '1e3000000' implies"
                                        " about 3000001 digits, past the 100000-digit limit"
                                        " on a rational")


@pytest.mark.parametrize("line,expected", FAILURE_CONTRACT)
def test_failure_contract(tmp_path, capsys, line, expected):
    (tmp_path / "klein.json").write_text(
        graph_to_json(MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [True, True])))
    (tmp_path / "garbled.json").write_text("not json")
    if "cycle.json" in line:  # a connected cycle of 8,000 edges: 4^e has 4,817 digits
        e = 8000
        (tmp_path / "cycle.json").write_text(graph_to_json(MoebiusGraph(
            [(2 * i, 2 * i + 1) for i in range(e)],
            [(2 * i + 1, (2 * i + 2) % (2 * e)) for i in range(e)], [False] * e)))
    code, out, err = run_cli(capsys, *line.format(tmp=tmp_path).split())
    assert code == expected and out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == expected

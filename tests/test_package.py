"""The package's public names, and which layers a cold CLI process loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobex

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exports, by the layer module that defines it
EXPORTS = {
    "graphs": ["MoebiusGraph", "TopologyProfile", "contract_edge", "flip_vertex",
               "graph_from_json", "graph_to_json", "orientability", "topology", "trace_faces"],
    "catalog": ["GraphCatalogEntry", "automorphism_count", "canonical_code",
                "enumerate_graphs", "labeled_pairing_sum", "ribbon_classes"],
    "sprinkle": ["MuReport", "calibrate_irreducibles", "mu_bruteforce", "mu_closed_form",
                 "mu_report"],
    "series": ["CouplingSeries", "apply_duality", "expand_logZ", "expand_Z"],
    "oracle": ["MomentQuery", "OracleReport", "eigenvalue_moment", "mc_estimate",
               "oracle_compare", "wick_trace_moment"],
    "penner": ["ZSeries", "I_series", "J_series", "K1_series", "K2_series", "K_series",
               "bernoulli", "penner_substitute", "real_moduli_euler", "real_moduli_graph_sum"],
    "dualchar": ["charpoly_lhs", "charpoly_rhs", "poincare_dual", "verify_polynomial_identity"],
    "clt": ["CLTResult", "clt_limit", "verify_clt"],
}
PUBLIC = [(layer, name) for layer, names in EXPORTS.items() for name in names]


def test_all_lists_every_export():
    assert len(PUBLIC) == 47
    assert sorted(mobex.__all__) == sorted(name for _, name in PUBLIC)


@pytest.mark.parametrize("layer, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_export_is_the_layer_object(layer, name):
    held = getattr(importlib.import_module("mobex." + layer), name)
    assert getattr(mobex, name) is held
    namespace = {}
    exec("from mobex import %s" % name, namespace)
    assert namespace[name] is held


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mobex.no_such_name
    with pytest.raises(ImportError):
        exec("from mobex import no_such_name", {})


# what a fresh interpreter has loaded after importing the CLI and running argv
FOOTPRINT = """
import contextlib, io, json, sys
from mobex.cli import main
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] in ("mobex", "numpy", "multiprocessing"))))
"""
BASE = ["mobex", "mobex.cli", "mobex.errors"]
CATALOG = BASE + ["mobex.catalog", "mobex.graphs", "mobex.npoly"]


@pytest.mark.parametrize("argv, loaded", [
    ([], BASE),
    (["graphs", "--profile", "3:2"], CATALOG),
    (["expand", "--beta", "1", "--max-degree", "4"],
     CATALOG + ["mobex.parallel", "mobex.series", "mobex.sprinkle"]),
    (["penner", "--order", "3"], BASE + ["mobex.npoly", "mobex.penner"]),
    (["oracle", "mc", "--beta", "1", "--n", "2", "--powers", "2", "--samples", "100"],
     BASE + ["mobex.npoly", "mobex.oracle"]),
], ids=["import", "graphs", "expand", "penner", "oracle-mc"])
def test_cli_loads_only_the_layers_it_runs(argv, loaded):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    names = json.loads(proc.stdout)
    if argv[:2] == ["oracle", "mc"]:  # the sampler loads numpy, whose submodules vary
        names = [name for name in names if name.split(".")[0] == "mobex"]
    assert names == sorted(loaded)


def test_dualchar_loads_the_oracle_only_where_it_runs():
    # poincare_dual and the lambda-series read no moment; the finite-N identities
    # import the oracle when they run
    code = ("import sys, mobex.dualchar\n"
            "print('mobex.oracle' in sys.modules)\n"
            "mobex.dualchar.verify_polynomial_identity(1, 1, 'BHC')\n"
            "print('mobex.oracle' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["False", "True"]


def test_cold_import_loads_no_heavy_stdlib():
    # dataclasses alone cost about 10 ms per cold process; inspect,
    # multiprocessing and numpy load only where a run needs them
    code = ("import sys, mobex.cli, mobex.series, mobex.catalog\n"
            "print(' '.join(sorted({'dataclasses', 'inspect', 'multiprocessing', 'numpy'}"
            " & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == []

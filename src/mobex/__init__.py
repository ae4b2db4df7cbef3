"""Exact Moebius-graph expansions of Gaussian matrix integrals.

Graph sums over twisted ribbon graphs for the orthogonal, unitary and
symplectic ensembles, the alpha <-> 1/alpha duality, characteristic
polynomial dualities through Poincare-dual graphs, Penner-model closed
forms, and an eigenvalue-integral oracle that cross-checks everything in
exact rational arithmetic.

The public names below resolve on first access (PEP 562): importing the
package loads no layer, and importing one layer loads only what it uses.
"""

from importlib import import_module

_EXPORTS = {
    "graphs": ("MoebiusGraph", "TopologyProfile", "contract_edge", "flip_vertex",
               "graph_from_json", "graph_to_json", "orientability", "topology",
               "trace_faces"),
    "catalog": ("GraphCatalogEntry", "automorphism_count", "canonical_code",
                "enumerate_graphs", "labeled_pairing_sum", "ribbon_classes"),
    "sprinkle": ("MuReport", "calibrate_irreducibles", "mu_bruteforce", "mu_closed_form",
                 "mu_report"),
    "series": ("CouplingSeries", "apply_duality", "expand_logZ", "expand_Z"),
    "oracle": ("MomentQuery", "OracleReport", "eigenvalue_moment", "mc_estimate",
               "oracle_compare", "wick_trace_moment"),
    "penner": ("ZSeries", "I_series", "J_series", "K1_series", "K2_series",
               "K_series", "bernoulli", "penner_substitute", "real_moduli_euler",
               "real_moduli_graph_sum"),
    "dualchar": ("charpoly_lhs", "charpoly_rhs", "poincare_dual",
                 "verify_polynomial_identity"),
    "clt": ("CLTResult", "clt_limit", "verify_clt"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + layer, __name__), name)

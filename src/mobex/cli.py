"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 budget exceeded, 4 verification
failure (its "payload" joins the stderr record), 5 malformed structural
input, 141 stdout closed.  All exact output is JSON with rationals
rendered "p/q"; --threads never changes a byte.

Each subcommand imports the layers it runs when it runs, so a process
pays to load only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import (HALF_EDGE_BUDGET, MU_ASSIGNMENT_BUDGET, ORACLE_DEGREE_BUDGET, TAGS,
                     BudgetError, StructuralError, UsageError, VerificationError)

EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4
EXIT_STRUCTURAL = 5
EXIT_PIPE = 141  # 128 + SIGPIPE

_EXIT_CODES = {UsageError: EXIT_USAGE, BudgetError: EXIT_BUDGET, VerificationError: EXIT_VERIFY,
               StructuralError: EXIT_STRUCTURAL, OSError: EXIT_STRUCTURAL}


def _budget(flag: Optional[int], name: str, fallback: int) -> int:
    """The flag wins over the environment variable, which wins over the fallback.

    The variable is read even under a flag, so a malformed one always fails.
    """
    text = os.environ.get(name)
    try:
        value = fallback if text is None else int(text)
    except ValueError as exc:
        raise UsageError("%s must be an integer, got %r" % (name, text)) from exc
    return value if flag is None else flag


@dataclass
class Budgets:
    half_edges: int
    mu_assignments: int
    oracle_degree: int

    @staticmethod
    def from_args(args: argparse.Namespace) -> "Budgets":
        return Budgets(
            _budget(args.half_edge_budget, "MOBEX_HALF_EDGE_BUDGET", HALF_EDGE_BUDGET),
            _budget(args.mu_budget, "MOBEX_MU_BUDGET", MU_ASSIGNMENT_BUDGET),
            _budget(args.oracle_budget, "MOBEX_ORACLE_BUDGET", ORACLE_DEGREE_BUDGET))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("not a rational: %r" % text) from exc


def _parse_profile(text: str) -> dict:
    profile = {}
    try:
        for chunk in text.split(","):
            j, count = chunk.split(":")
            profile[int(j)] = profile.get(int(j), 0) + int(count)
    except ValueError as exc:
        raise UsageError("profile must look like '3:2,4:1'") from exc
    return profile


def _parse_powers(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError("powers must look like '2' or '1,3', got %r" % text) from exc


def _jsonable(obj):
    """A JSON-safe rendering of a failure payload; never raises."""
    try:
        if obj is None or isinstance(obj, (bool, int, str)):
            return obj
        if isinstance(obj, bytes):
            return obj.decode(errors="replace")
        if dataclasses.is_dataclass(obj):
            obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if isinstance(obj, dict):
            pairs = [(_jsonable(k), _jsonable(v)) for k, v in obj.items()]
            return {k if isinstance(k, str) else json.dumps(k): v for k, v in pairs}
        if isinstance(obj, (list, tuple)):
            return [_jsonable(x) for x in obj]
        return str(obj)  # Fraction as "p/q"; floats, NaN included, as text
    except Exception:  # a payload must never mask the failure it reports
        return "<unrenderable %s>" % type(obj).__name__


def _emit(data, fmt: str, table_rows=None) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    elif fmt == "csv" and table_rows is not None:
        header, rows = table_rows
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    elif fmt == "table" and table_rows is not None:
        header, rows = table_rows
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows] or [h])
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _topology_json(topo) -> dict:
    return {
        "v": topo.v, "e": topo.e, "f": topo.f,
        "v_profile": {str(j): c for j, c in topo.v_profile},
        "f_profile": {str(j): c for j, c in topo.f_profile},
        "chi": topo.chi, "orientable": topo.natural == 1,
        "sigma": topo.sigma, "genus": topo.genus,
    }


# -- subcommands -------------------------------------------------------------------

def _cmd_graphs(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import catalog

    entries = catalog.enumerate_graphs(
        _parse_profile(args.profile), connected_only=args.connected,
        half_edge_budget=budgets.half_edges)
    data = []
    rows = []
    for entry in entries:
        record = {
            "code": entry.code.decode(),
            "aut_moebius": entry.aut_moebius,
            "aut_ribbon": entry.aut_ribbon,
            "topology": _topology_json(entry.topology),
            "rotations": [list(r) for r in entry.graph.rotations],
            "edges": [list(e) for e in entry.graph.edges],
            "twists": [bool(t) for t in entry.graph.twists],
        }
        data.append(record)
        topo = entry.topology
        rows.append([topo.v, topo.e, topo.f, topo.chi,
                     "yes" if topo.natural == 1 else "no",
                     entry.aut_moebius, entry.aut_ribbon or "-"])
    _emit(data, args.format,
          (["v", "e", "f", "chi", "orientable", "aut", "aut_ribbon"], rows))
    return 0


def _cmd_expand(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import series

    logz = series.expand_logZ(args.tag, args.max_degree, args.beta, args.t1, args.t2,
                              half_edge_budget=budgets.half_edges, threads=args.threads)
    # expansion order, as the monomials are generated, not sorted
    data = [{"monomial": list(m), "coeff": c.to_json()} for m, c in logz.terms.items()]
    rows = [[" ".join("t%d" % j for j in rec["monomial"]),
             json.dumps(rec["coeff"], sort_keys=True)] for rec in data]
    _emit(data, args.format, (["monomial", "coefficient"], rows))
    return 0


def _cmd_mu(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import sprinkle
    from .graphs import graph_from_json, topology

    with open(args.graph) as handle:
        graph = graph_from_json(handle.read())
    report = sprinkle.mu_report(graph, args.beta, assignment_budget=budgets.mu_assignments)
    data = {
        "graph_id": report.graph_id,
        "beta": report.beta,
        "mu_bruteforce": report.mu_bruteforce,
        "mu_closed": report.mu_closed,
        "configurations_counted": report.configurations_counted,
        "topology": _topology_json(topology(graph)),
        "agree": report.mu_bruteforce == report.mu_closed,
    }
    _emit(data, args.format)
    if report.mu_bruteforce != report.mu_closed:
        raise VerificationError("mu bruteforce disagrees with the closed form",
                                payload=data)
    return 0


def _cmd_oracle(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import oracle

    scale = _parse_fraction(args.scale)
    if args.mode == "mc":
        powers = _parse_powers(args.powers)
        mean, err = oracle.mc_estimate(args.beta, args.n, powers, args.samples,
                                       args.seed, scale=scale)
        _emit({"mean": mean, "stderr": err, "beta": args.beta, "n": args.n,
               "powers": list(powers), "samples": args.samples,
               "seed": args.seed, "scale": str(scale)}, args.format)
        return 0
    reports = oracle.oracle_compare(args.beta, args.tag, args.max_degree, [args.n],
                                    budget=budgets.oracle_degree)
    data = [{"monomial": list(r.monomial), "n": r.n,
             "graph_sum": str(r.predicted), "oracle": str(r.exact),
             "equal": r.equal} for r in reports]
    rows = [[" ".join("t%d" % j for j in r.monomial), r.n,
             str(r.predicted), str(r.exact), r.equal] for r in reports]
    _emit(data, args.format, (["monomial", "n", "graph_sum", "oracle", "equal"], rows))
    return 0


def _cmd_penner(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import penner

    if args.mode == "euler":
        value = penner.real_moduli_euler(args.q, args.n)
        _emit({"q": args.q, "n": args.n, "euler_characteristic": str(value)}, args.format)
        return 0
    if args.model == "K":
        zs = penner.K_series(args.order, args.alpha)
    elif args.model == "J":
        zs = penner.J_series(args.order, args.gamma)
    else:
        zs = penner.I_series(args.order, _parse_fraction(args.r))
    _emit(zs.to_json(), args.format,
          (["z^m", "coefficient"],
           [["z^%d" % m, json.dumps(zs.coeffs[m].to_json(), sort_keys=True)]
            for m in sorted(zs.coeffs)]))
    return 0


def _cmd_charpoly(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import dualchar

    if args.mode == "verify":
        report = dualchar.verify_polynomial_identity(args.N, args.k, args.which)
        _emit({"which": report.which, "N": report.n, "k": report.k,
               "equal": report.equal,
               "lhs": [[list(key), str(val)] for key, val in report.lhs],
               "rhs": [[list(key), str(val)] for key, val in report.rhs]},
              args.format)
        return 0
    side = dualchar.charpoly_lhs if args.side == "lhs" else dualchar.charpoly_rhs
    lam = side(args.ensemble, args.max_degree, half_edge_budget=budgets.half_edges)
    _emit(lam.to_json(), args.format,
          (["monomial", "coefficient"],
           [[" ".join("tau%d" % j for j in key), json.dumps(val.to_json(), sort_keys=True)]
            for key, val in sorted(lam.terms.items())]))
    return 0


def _cmd_clt(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import clt

    alpha = _parse_fraction(args.alpha)
    result = clt.clt_limit(alpha, args.jmax, half_edge_budget=budgets.half_edges)
    data = {"alpha": str(result.alpha),
            "quadratic_form": [[list(pair), str(val)]
                               for pair, val in result.quadratic_form]}
    if args.verify:
        report = clt.verify_clt(alpha, args.jmax, args.max_degree,
                                half_edge_budget=budgets.half_edges)
        data["verified"] = report.equal
        data["matched_pairs"] = report.matched
    _emit(data, args.format,
          (["j1 j2", "coefficient"],
           [["%d %d" % pair, str(val)] for pair, val in result.quadratic_form]))
    return 0


def _cmd_duality(args: argparse.Namespace, budgets: Budgets) -> int:
    from . import series

    alpha = _parse_fraction(args.alpha)
    inv = series.expand_logZ("invariant", args.max_degree, half_edge_budget=budgets.half_edges)
    dual = series.apply_duality(inv)
    involution = series.apply_duality(dual) == inv
    pointwise = dual == inv
    reduced_equal = dual.reduce_root(alpha) == inv.reduce_root(alpha)
    data = {"alpha": str(alpha), "degree": args.max_degree,
            "involution_holds": involution,
            "self_dual_graph_by_graph": pointwise,
            "reduced_at_alpha_equal": reduced_equal,
            "monomials": len(inv.terms)}
    _emit(data, args.format)
    if not (involution and pointwise and reduced_equal):
        raise VerificationError("duality check failed", payload=data)
    return 0


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table", "csv"], default="json")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--half-edge-budget", type=int, default=None)
    common.add_argument("--mu-budget", type=int, default=None)
    common.add_argument("--oracle-budget", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="mobex",
        description="Exact Moebius-graph expansions of GOE/GUE/GSE matrix integrals")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("graphs", help="enumerate graph classes for a valence profile")
    p.add_argument("--profile", required=True, help="e.g. 3:2,4:1")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--connected", dest="connected", action="store_true", default=True)
    group.add_argument("--all", dest="connected", action="store_false")

    p = add_parser("expand", help="graph-sum expansion of log Z")
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--tag", choices=list(TAGS), default="master")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--no-t1", dest="t1", action="store_false", default=True)
    p.add_argument("--no-t2", dest="t2", action="store_false", default=True)

    p = add_parser("mu", help="signed unit-configuration count of a graph")
    p.add_argument("--graph", required=True, help="path to graph JSON")
    p.add_argument("--beta", type=int, required=True)

    p = add_parser("oracle", help="eigenvalue-integral cross-check")
    p.add_argument("mode", nargs="?", choices=["mc"], default=None)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tag", choices=list(TAGS), default="master")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--powers", default="2")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", default="1/4")

    p = add_parser("penner", help="Penner closed forms and moduli Euler numbers")
    p.add_argument("mode", nargs="?", choices=["euler"], default=None)
    p.add_argument("--model", choices=["K", "J", "I"], default="K")
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--r", default="1")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--n", type=int, default=2)

    p = add_parser("charpoly", help="characteristic-polynomial duality series")
    p.add_argument("mode", nargs="?", choices=["verify"], default=None)
    p.add_argument("--ensemble", choices=["gue", "goe", "gse"], default="gue")
    p.add_argument("--side", choices=["lhs", "rhs"], default="lhs")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--which", choices=["BHC", "BHQ"], default="BHC")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--k", type=int, default=1)

    p = add_parser("clt", help="central-limit quadratic form")
    p.add_argument("--alpha", default="1")
    p.add_argument("--jmax", type=int, default=4)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-degree", type=int, default=6)

    p = add_parser("duality", help="alpha -> 1/alpha, N -> -alpha N involution check")
    p.add_argument("--alpha", default="2")
    p.add_argument("--max-degree", type=int, default=6)

    return parser


_DISPATCH = {
    "graphs": _cmd_graphs,
    "expand": _cmd_expand,
    "mu": _cmd_mu,
    "oracle": _cmd_oracle,
    "penner": _cmd_penner,
    "charpoly": _cmd_charpoly,
    "clt": _cmd_clt,
    "duality": _cmd_duality,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _DISPATCH[args.subcommand](args, Budgets.from_args(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: keep the exit-time flush off the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(json.dumps({"error": "stdout closed", "code": EXIT_PIPE}), file=sys.stderr)
        return EXIT_PIPE
    except tuple(_EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
        record = {"error": str(exc), "code": code}
        if isinstance(exc, VerificationError):
            record["payload"] = _jsonable(exc.payload)
        print(json.dumps(record), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 budget exceeded, 4 verification
failure (its "payload" joins the stderr record), 5 malformed structural
input, 141 stdout closed.  All exact output is JSON with rationals
rendered "p/q"; --threads never changes a byte.

Each subcommand, and each mode of one ("oracle mc", ...), is a parser that
accepts and parses only the options its runner reads; a runner imports the
layers it runs when it runs, so a process pays to load only those.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import lgamma, log, log10, pi
from typing import List, Optional

from .errors import (HALF_EDGE_BUDGET, MU_ASSIGNMENT_BUDGET, ORACLE_DEGREE_BUDGET, TAGS,
                     BudgetError, StructuralError, UsageError, VerificationError, figure)

EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4
EXIT_STRUCTURAL = 5
EXIT_PIPE = 141  # 128 + SIGPIPE

_EXIT_CODES = {UsageError: EXIT_USAGE, BudgetError: EXIT_BUDGET, VerificationError: EXIT_VERIFY,
               StructuralError: EXIT_STRUCTURAL, OSError: EXIT_STRUCTURAL}


_BUDGETS = {"half_edge_budget": ("MOBEX_HALF_EDGE_BUDGET", HALF_EDGE_BUDGET),
            "mu_budget": ("MOBEX_MU_BUDGET", MU_ASSIGNMENT_BUDGET),
            "oracle_budget": ("MOBEX_ORACLE_BUDGET", ORACLE_DEGREE_BUDGET)}


def _budget(args: argparse.Namespace, dest: str) -> int:
    """The flag wins over the environment variable, which wins over the fallback.

    The variable is read even under a flag, so a malformed one always fails.
    """
    name, fallback = _BUDGETS[dest]
    try:
        value = int(os.environ.get(name, fallback))
    except ValueError as exc:
        raise UsageError("%s must be an integer, got %r" % (name, os.environ[name])) from exc
    flag = getattr(args, dest)
    return value if flag is None else flag


class _Parser(argparse.ArgumentParser):
    """Argument errors fail like every other usage error: exit 2, one JSON record."""

    def error(self, message: str):
        raise UsageError("%s: %s" % (self.prog, message))


# the most digits Python reads or prints as one integer; 0: no limit, as before Python 3.10.7
_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# argparse types: the parser reports their errors as usage errors

# Fraction("1e1000000") takes 0.4 s to build on a 2-vCPU VM, "1e100000" 0.01 s
_FRACTION_DIGITS = 100000


def _parse_fraction(text: str) -> Fraction:
    """A rational from its text, refused past _FRACTION_DIGITS implied digits.

    Fraction builds 10**exponent before any check, so the text's digit
    count plus its exponent's size, and each run of digits, is bounded first.
    """
    limit = _int_digit_limit()
    run = max((len(digits) for digits in re.findall(r"\d+", text)), default=0)
    if limit and run > limit:
        raise argparse.ArgumentTypeError("%r... holds %d digits in a row, past Python's %d-digit"
                                         " limit on reading an integer" % (text[:10], run, limit))
    mantissa, _, exponent = text.lower().partition("e")
    try:
        digits = len(mantissa) + abs(int(exponent or 0))
        if digits > _FRACTION_DIGITS:
            raise argparse.ArgumentTypeError("%r implies about %d digits, past the %d-digit"
                                             " limit on a rational" % (text, digits,
                                                                      _FRACTION_DIGITS))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational: %r" % text) from exc


def _parse_profile(text: str) -> dict:
    profile = {}
    try:
        for chunk in text.split(","):
            j, count = chunk.split(":")
            profile[int(j)] = profile.get(int(j), 0) + int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("profile must look like '3:2,4:1'") from exc
    return profile


def _parse_powers(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("powers must look like '1,3', got %r" % text) from exc


def _refuse_unprintable(what: str, value: Fraction, power: int, allowance: float = 0) -> None:
    """Refuse, before computing, output that Python could not print.

    The largest integer printed is predicted as the larger of ``value``'s
    numerator and denominator to ``power``, times what ``allowance``
    digits hold.  Python refuses to print an integer of more digits than
    sys.get_int_max_str_digits(), unless that is 0.
    """
    limit = _int_digit_limit()
    digits = int(power * log10(max(abs(value.numerator), value.denominator)) + allowance) + 1
    if limit and digits > limit:
        raise BudgetError("%s would print integers of about %s digits, past Python's %d-digit"
                          " limit" % (what, figure(log10(digits), lambda: digits), limit))


def _jsonable(obj):
    """A JSON-safe rendering of a failure payload; never raises."""
    try:
        if obj is None or isinstance(obj, (bool, int, str)):
            return obj
        if isinstance(obj, bytes):
            return obj.decode(errors="replace")
        if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a NamedTuple record
            obj = obj._asdict()
        if isinstance(obj, dict):
            pairs = [(_jsonable(k), _jsonable(v)) for k, v in obj.items()]
            return {k if isinstance(k, str) else json.dumps(k): v for k, v in pairs}
        if isinstance(obj, (list, tuple)):
            return [_jsonable(x) for x in obj]
        return str(obj)  # Fraction as "p/q"; floats, NaN included, as text
    except Exception:  # a payload must never mask the failure it reports
        return "<unrenderable %s>" % type(obj).__name__


def _emit(data, fmt: str = "json", header=(), rows=()) -> None:
    """Print ``data`` as JSON, or ``rows`` under ``header`` as a table or CSV.

    A top-level list, or any iterator of records, is written one record at
    a time: each is encoded alone and indented one level, so the document
    is never held whole, and the bytes are those of
    ``print(json.dumps(list(data), indent=2, sort_keys=True))``.  ``data``
    and ``rows`` may be generators: only the one printed is run.
    """
    if fmt == "json":
        if isinstance(data, (dict, str)) or not hasattr(data, "__iter__"):
            print(json.dumps(data, indent=2, sort_keys=True))
            return
        write, encode = sys.stdout.write, json.JSONEncoder(indent=2, sort_keys=True).encode
        opening = "[\n  "
        for record in data:
            write(opening)
            write(encode(record).replace("\n", "\n  "))
            opening = ",\n  "
        write("[]\n" if opening == "[\n  " else "\n]\n")
        return
    if fmt == "csv":  # quoted where a cell holds a comma or a quote, as JSON cells do
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    rows = list(rows)
    widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows] or [h])
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def _topology_json(topo) -> dict:
    return {
        "v": topo.v, "e": topo.e, "f": topo.f,
        "v_profile": {str(j): c for j, c in topo.v_profile},
        "f_profile": {str(j): c for j, c in topo.f_profile},
        "chi": topo.chi, "orientable": topo.natural == 1,
        "sigma": topo.sigma, "genus": topo.genus,
    }


# -- subcommands -------------------------------------------------------------------

def _cmd_graphs(args: argparse.Namespace) -> None:
    from . import catalog

    entries = catalog.enumerate_graphs(
        args.profile, connected_only=args.connected,
        half_edge_budget=_budget(args, "half_edge_budget"))
    records = ({"code": entry.code.decode(), "aut_moebius": entry.aut_moebius,
                "aut_ribbon": entry.aut_ribbon, "topology": _topology_json(entry.topology),
                "rotations": [list(r) for r in entry.graph.rotations],
                "edges": [list(e) for e in entry.graph.edges],
                "twists": [bool(t) for t in entry.graph.twists]} for entry in entries)
    rows = ([entry.topology.v, entry.topology.e, entry.topology.f, entry.topology.chi,
             "yes" if entry.topology.natural == 1 else "no",
             entry.aut_moebius, entry.aut_ribbon or "-"] for entry in entries)
    _emit(records, args.format, ["v", "e", "f", "chi", "orientable", "aut", "aut_ribbon"], rows)


def _cmd_expand(args: argparse.Namespace) -> None:
    from . import series

    logz = series.expand_logZ(args.tag, args.max_degree, args.beta,
                              half_edge_budget=_budget(args, "half_edge_budget"),
                              threads=args.threads)
    # expansion order, as the monomials are generated, not sorted
    records = ({"monomial": list(m), "coeff": c.to_json()} for m, c in logz.terms.items())
    rows = ([" ".join("t%d" % j for j in m), json.dumps(c.to_json(), sort_keys=True)]
            for m, c in logz.terms.items())
    _emit(records, args.format, ["monomial", "coefficient"], rows)


def _cmd_mu(args: argparse.Namespace) -> None:
    from . import sprinkle
    from .graphs import graph_from_json, topology

    with open(args.graph) as handle:
        graph = graph_from_json(handle.read())
    report = sprinkle.mu_report(graph, args.beta,
                                assignment_budget=_budget(args, "mu_budget"))
    data = {
        "graph_id": report.graph_id,
        "beta": report.beta,
        "mu_bruteforce": report.mu_bruteforce,
        "mu_closed": report.mu_closed,
        "configurations_counted": report.configurations_counted,
        "topology": _topology_json(topology(graph)),
        "agree": report.mu_bruteforce == report.mu_closed,
    }
    _emit(data)
    if report.mu_bruteforce != report.mu_closed:
        raise VerificationError("mu bruteforce disagrees with the closed form",
                                payload=data)


def _cmd_oracle(args: argparse.Namespace) -> None:
    from . import oracle

    reports = oracle.oracle_compare(args.beta, args.tag, args.max_degree, [args.n],
                                    budget=_budget(args, "oracle_budget"),
                                    half_edge_budget=_budget(args, "half_edge_budget"))
    records = ({"monomial": list(r.monomial), "n": r.n,
                "graph_sum": str(r.predicted), "oracle": str(r.exact),
                "equal": r.equal} for r in reports)
    rows = ([" ".join("t%d" % j for j in r.monomial), r.n,
             str(r.predicted), str(r.exact), r.equal] for r in reports)
    _emit(records, args.format, ["monomial", "n", "graph_sum", "oracle", "equal"], rows)


def _cmd_oracle_mc(args: argparse.Namespace) -> None:
    from . import oracle

    if "numpy" not in sys.modules:
        # OpenBLAS reads this once, at numpy's import.  Its thread pool only
        # spins beside the sampler's small eigensolves: one thread prints the
        # same bytes at half the CPU, and a user's own setting still wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    mean, err = oracle.mc_estimate(args.beta, args.n, args.powers, args.samples,
                                   args.seed, scale=args.scale)
    _emit({"mean": mean, "stderr": err, "beta": args.beta, "n": args.n,
           "powers": list(args.powers), "samples": args.samples,
           "seed": args.seed, "scale": str(args.scale)})


def _cmd_penner(args: argparse.Namespace) -> None:
    from . import penner

    # each model reads one parameter, 1 unless given
    own, closed_form = {"K": ("alpha", penner.K_series), "J": ("gamma", penner.J_series),
                   "I": ("r", penner.I_series)}[args.model]
    for name in ("alpha", "gamma", "r"):
        if name != own and getattr(args, name) is not None:
            raise UsageError("penner --model %s reads --%s, not --%s" % (args.model, own, name))
    value = getattr(args, own)
    if value is None:
        value = Fraction(1)
    if args.order >= 1:  # a smaller order is refused by the closed form
        # the z^m coefficient holds a^0 .. a^(m+1), and model I divides it by a^m;
        # the factorials and Bernoulli numbers add under power * log10(power) + 2
        # digits (measured to order 60)
        power = args.order + (1 if args.model != "I" else args.order % 2)
        _refuse_unprintable("penner --model %s --order %d" % (args.model, args.order),
                            value, power, power * log10(power) + 2)
    zs = closed_form(args.order, value)
    _emit(zs.to_json(), args.format, ["z^m", "coefficient"],
          (["z^%d" % m, json.dumps(zs.coeffs[m].to_json(), sort_keys=True)]
           for m in sorted(zs.coeffs)))


def _cmd_penner_euler(args: argparse.Namespace) -> None:
    from . import penner

    q, n = args.q, args.n
    what = "penner euler --q %d --n %d" % (q, n)
    if q == 0 and n > 1:  # chi = -1/(4n(n-1))
        _refuse_unprintable(what, Fraction(1), 0, log10(4 * n * n))
    elif q > 0 and n > 0:
        # chi = (2**(2q-1) - 1) B_2q C(2q+n-2, n) / (4q(2q-1)) with |B_2q| < 4 (2q)! / (2 pi)**2q;
        # q is capped at 10**100, below lgamma's float overflow and past every digit limit
        m = 2 * min(q, 10 ** 100)
        head = log10(2) + lgamma(m + 1) / log(10) - m * log10(pi)
        _refuse_unprintable(what, Fraction(1), 0, head)
        # von Staudt-Clausen: B_2q's denominator divides prod (d + 1) over the divisors d of 2q
        tail = sum(log10(d + 1) for d in range(1, m + 1) if m % d == 0)
        tail += sum(log10(n + k) - log10(k) for k in range(1, m - 1))  # C(2q+n-2, n)
        _refuse_unprintable(what, Fraction(1), 0, max(head, log10(4 * q * m)) + tail)
    value = penner.real_moduli_euler(q, n)
    _emit({"q": q, "n": n, "euler_characteristic": str(value)})


def _cmd_charpoly(args: argparse.Namespace) -> None:
    from . import dualchar

    side = dualchar.charpoly_lhs if args.side == "lhs" else dualchar.charpoly_rhs
    lam = side(args.ensemble, args.max_degree,
               half_edge_budget=_budget(args, "half_edge_budget"))
    _emit(lam.to_json(), args.format, ["monomial", "coefficient"],
          ([" ".join("tau%d" % j for j in key), json.dumps(val.to_json(), sort_keys=True)]
           for key, val in sorted(lam.terms.items())))


def _cmd_charpoly_verify(args: argparse.Namespace) -> None:
    from . import dualchar

    report = dualchar.verify_polynomial_identity(args.N, args.k, args.which)
    _emit({"which": report.which, "N": report.n, "k": report.k,
           "equal": report.equal,
           "lhs": [[list(key), str(val)] for key, val in report.lhs],
           "rhs": [[list(key), str(val)] for key, val in report.rhs]})


def _cmd_clt(args: argparse.Namespace) -> None:
    if args.max_degree is not None and not args.verify:
        raise UsageError("clt reads --max-degree only with --verify")
    from . import clt

    half_edges = _budget(args, "half_edge_budget")
    result = clt.clt_limit(args.alpha, args.jmax, half_edge_budget=half_edges)
    data = {"alpha": str(result.alpha),
            "quadratic_form": [[list(pair), str(val)]
                               for pair, val in result.quadratic_form]}
    if args.verify:
        report = clt.verify_clt(args.alpha, args.jmax,
                                6 if args.max_degree is None else args.max_degree,
                                half_edge_budget=half_edges)
        data["verified"] = report.equal
        data["matched_pairs"] = report.matched
    _emit(data, args.format, ["j1 j2", "coefficient"],
          (["%d %d" % pair, str(val)] for pair, val in result.quadratic_form))


def _cmd_duality(args: argparse.Namespace) -> None:
    _refuse_unprintable("duality --alpha", args.alpha, 1)
    from . import series

    inv = series.expand_logZ("invariant", args.max_degree,
                             half_edge_budget=_budget(args, "half_edge_budget"))
    dual = series.apply_duality(inv)
    involution = series.apply_duality(dual) == inv
    pointwise = dual == inv
    reduced_equal = dual.reduce_root(args.alpha) == inv.reduce_root(args.alpha)
    data = {"alpha": str(args.alpha), "degree": args.max_degree,
            "involution_holds": involution,
            "self_dual_graph_by_graph": pointwise,
            "reduced_at_alpha_equal": reduced_equal,
            "monomials": len(inv.terms)}
    _emit(data)
    if not (involution and pointwise and reduced_equal):
        raise VerificationError("duality check failed", payload=data)


# -- parser -------------------------------------------------------------------------

# the options several parsers share: flag -> add_argument keywords
_SHARED = {"--format": {"choices": ["json", "table", "csv"], "default": "json"},
           "--threads": {"type": int, "default": 1, "metavar": "K",
                         "help": "at most K worker processes; small expansions use one"},
           "--half-edge-budget": {"type": int},
           "--mu-budget": {"type": int},
           "--oracle-budget": {"type": int}}

# every subcommand, and each "<subcommand> <mode>" with a parser of its own, in the
# order the full parser lists them
_SUBCOMMANDS = ("graphs", "expand", "mu", "oracle", "oracle mc", "penner", "penner euler",
                "charpoly", "charpoly verify", "clt", "duality")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves a parser unchanged."""
    return _parser(None)


@lru_cache(maxsize=None)
def _parser(only: Optional[str]) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only the one named ``only``.

    A subcommand's own parser, and so its usage, help and errors, is the
    same in both, so a process that runs one subcommand builds only that one.
    """
    parser = _Parser(prog="mobex", description="Exact Moebius-graph expansions of"
                     " GOE/GUE/GSE matrix integrals")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, run, shared, about):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        return p

    p = add_parser("graphs", _cmd_graphs, ["--format", "--half-edge-budget"],
                   "enumerate graph classes for a valence profile")
    if p:
        p.add_argument("--profile", type=_parse_profile, required=True, help="e.g. 3:2,4:1")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--connected", dest="connected", action="store_true", default=True)
        group.add_argument("--all", dest="connected", action="store_false")

    p = add_parser("expand", _cmd_expand, ["--format", "--half-edge-budget", "--threads"],
                   "graph-sum expansion of log Z")
    if p:
        p.add_argument("--beta", type=int, default=None)
        p.add_argument("--tag", choices=list(TAGS), default="master")
        p.add_argument("--max-degree", type=int, required=True)

    p = add_parser("mu", _cmd_mu, ["--mu-budget"], "signed unit-configuration count of a graph")
    if p:
        p.add_argument("--graph", required=True, help="path to graph JSON")
        p.add_argument("--beta", type=int, required=True)

    p = add_parser("oracle", _cmd_oracle, ["--format", "--half-edge-budget", "--oracle-budget"],
                   "eigenvalue-integral cross-check")
    if p:
        p.add_argument("--beta", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--tag", choices=list(TAGS), default="master")
        p.add_argument("--max-degree", type=int, default=4)

    p = add_parser("oracle mc", _cmd_oracle_mc, [], "Monte Carlo estimate of an eigenvalue moment")
    if p:
        p.add_argument("--beta", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--powers", type=_parse_powers, default="2")
        p.add_argument("--samples", type=int, default=100000)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--scale", type=_parse_fraction, default="1/4")

    p = add_parser("penner", _cmd_penner, ["--format"], "Penner closed forms")
    if p:
        p.add_argument("--model", choices=["K", "J", "I"], default="K")
        p.add_argument("--alpha", type=_parse_fraction, help="model K's parameter, default 1")
        p.add_argument("--gamma", type=_parse_fraction, help="model J's parameter, default 1")
        p.add_argument("--r", type=_parse_fraction, help="model I's parameter, default 1")
        p.add_argument("--order", type=int, default=8)

    p = add_parser("penner euler", _cmd_penner_euler, [], "real moduli Euler characteristics")
    if p:
        p.add_argument("--q", type=int, default=0)
        p.add_argument("--n", type=int, default=2)

    p = add_parser("charpoly", _cmd_charpoly, ["--format", "--half-edge-budget"],
                   "characteristic-polynomial duality series")
    if p:
        p.add_argument("--ensemble", choices=["gue", "goe", "gse"], default="gue")
        p.add_argument("--side", choices=["lhs", "rhs"], default="lhs")
        p.add_argument("--max-degree", type=int, default=6)

    p = add_parser("charpoly verify", _cmd_charpoly_verify, [],
                   "finite-N characteristic-polynomial duality check")
    if p:
        p.add_argument("--which", choices=["BHC", "BHQ"], default="BHC")
        p.add_argument("--N", type=int, default=1)
        p.add_argument("--k", type=int, default=1)

    p = add_parser("clt", _cmd_clt, ["--format", "--half-edge-budget"],
                   "central-limit quadratic form")
    if p:
        p.add_argument("--alpha", type=_parse_fraction, default="1")
        p.add_argument("--jmax", type=int, default=4)
        p.add_argument("--verify", action="store_true")
        p.add_argument("--max-degree", type=int, help="with --verify, default 6")

    p = add_parser("duality", _cmd_duality, ["--half-edge-budget"],
                   "alpha -> 1/alpha, N -> -alpha N involution check")
    if p:
        p.add_argument("--alpha", type=_parse_fraction, default="2")
        p.add_argument("--max-degree", type=int, default=6)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if " ".join(argv[:2]) in _SUBCOMMANDS:  # "oracle mc ..." runs the parser "oracle mc"
        argv[:2] = [" ".join(argv[:2])]
    try:
        # a known subcommand's parser alone; the full one for anything else, and for --help
        args = _parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
        args.run(args)
        sys.stdout.flush()
        return 0
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

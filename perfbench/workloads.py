"""The benchmark's workloads: fixed operation lists and the seeded inputs.

An operation is a dict with an ``id`` (also the key of its golden record)
and a ``kind``:

- ``cli``: ``mobex.cli.main(argv)`` with stdout captured; checked by exit
  code and stdout SHA-256 against ``golden.json``.
- ``mc``: a ``cli`` Monte Carlo run, checked statistically against the
  exact eigenvalue moment, so a sampler that draws in another order with
  the same seed is still judged correct.
- ``mu``, ``code``: library self-checks on seeded random graphs; each
  carries its own verification flag.
- ``orbit``, ``ribbon-orbit``: orbit-stabilizer self-checks on fixed
  profiles; checked by their flag and by golden digest.

``expand-cold`` runs each operation in its own fresh process; the two warm
workloads run a whole round of operations in one process.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

WORKLOADS = ("expand-cold", "verify-warm", "selfcheck-warm")
COLD = {"expand-cold"}

# Monte Carlo runs keep fixed sampler seeds: the workload seed reorders
# operations, and a 3-sigma check on a fresh seed would fail now and then.
MC_ARGS = {
    "full": [("1", "2,2", "20000"), ("4", "2", "4000")],
    "tiny": [("1", "2", "500"), ("4", "2", "200")],
}

CLI_ARGS = {
    ("expand-cold", "full"): [
        "expand --beta 1 --max-degree 8",
        "expand --tag invariant --max-degree 8 --threads 2",
        "graphs --profile 5:2",
        "graphs --profile 4:1,3:2 --all",
    ],
    ("expand-cold", "tiny"): [
        "expand --beta 1 --max-degree 4",
        "expand --tag invariant --max-degree 4 --threads 2",
        "graphs --profile 3:2",
        "graphs --profile 2:1,1:2 --all",
    ],
    ("verify-warm", "full"): [
        "oracle --beta 1 --n 4 --max-degree 8",
        "oracle --beta 2 --n 3 --max-degree 8",
        "oracle --beta 4 --n 3 --max-degree 8",
        "oracle --beta 2 --n 2 --max-degree 8 --tag hermitian",
        "oracle --beta 4 --n 2 --max-degree 8 --tag gse-penner",
        "charpoly verify --which BHC --N 4 --k 2",
        "charpoly verify --which BHQ --N 4 --k 2",
        "duality --max-degree 8",
        "clt --verify --max-degree 8",
        "charpoly --ensemble gue --side rhs --max-degree 8",
        "charpoly --ensemble goe --side lhs --max-degree 8",
        "penner --model I --order 30",
        "penner --model J --order 30",
    ],
    ("verify-warm", "tiny"): [
        "oracle --beta 1 --n 2 --max-degree 4",
        "charpoly verify --which BHC --N 2 --k 1",
        "duality --max-degree 4",
        "clt --verify --max-degree 4",
        "charpoly --ensemble goe --side lhs --max-degree 4",
        "penner --model I --order 6",
    ],
}

# selfcheck-warm: e = 10 valence profiles of the seeded graphs (beta**e = 4**10
# is the default mu budget), the betas of the mu checks, how many random
# flip/relabel variants each canonical code must survive, and the profiles of
# the two orbit-stabilizer identities.
SELFCHECK = {
    "full": {"graphs": [(3, 3, 3, 3, 4, 4), (4, 4, 4, 4, 4), (3, 3, 3, 3, 3, 5)],
             "betas": (2, 4), "variants": 4,
             "orbit": ["3:2,4:1"], "ribbon-orbit": ["4:3"]},
    "tiny": {"graphs": [(3, 3, 2), (4, 2, 2)],
             "betas": (2, 4), "variants": 2,
             "orbit": ["3:2"], "ribbon-orbit": ["4:1"]},
}


def operations(workload: str, seed: int, size: str = "full") -> List[Dict]:
    """The workload's operations, in an order drawn from ``seed``."""
    if workload == "selfcheck-warm":
        spec = SELFCHECK[size]
        ops = [{"id": "mu g%d b%d" % (i, beta), "kind": "mu", "graph": i, "beta": beta}
               for i in range(len(spec["graphs"])) for beta in spec["betas"]]
        ops += [{"id": "code g%d" % i, "kind": "code", "graph": i}
                for i in range(len(spec["graphs"]))]
        ops += [{"id": "%s %s" % (kind, p), "kind": kind, "valences": valences(p)}
                for kind in ("orbit", "ribbon-orbit") for p in spec[kind]]
    else:
        ops = [{"id": line, "kind": "cli", "argv": line.split()}
               for line in CLI_ARGS[(workload, size)]]
        if workload == "verify-warm":
            for beta, powers, samples in MC_ARGS[size]:
                argv = ["oracle", "mc", "--beta", beta, "--n", "2", "--powers", powers,
                        "--samples", samples, "--seed", "7"]
                ops.append({"id": " ".join(argv), "kind": "mc", "argv": argv,
                            "beta": int(beta), "n": 2,
                            "powers": [int(p) for p in powers.split(",")]})
    random.Random(seed).shuffle(ops)
    return ops


def valences(profile: str) -> List[int]:
    """'3:2,4:1' -> [3, 3, 4]."""
    out = []
    for chunk in profile.split(","):
        j, count = chunk.split(":")
        out += [int(j)] * int(count)
    return out


# -- seeded inputs of selfcheck-warm --------------------------------------------

def random_graph(valences: Sequence[int], rng: random.Random) -> Dict:
    """A connected graph with the given valences: random pairing and twists."""
    rotations, base = [], 0
    for j in valences:
        rotations.append(list(range(base, base + j)))
        base += j
    vertex_of = {h: v for v, rot in enumerate(rotations) for h in rot}
    while True:
        half_edges = list(range(base))
        rng.shuffle(half_edges)
        edges = [sorted(half_edges[i:i + 2]) for i in range(0, base, 2)]
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    w = vertex_of[y]
                    if vertex_of[x] == v and w not in seen:
                        seen.add(w)
                        stack.append(w)
        if len(seen) == len(valences):
            twists = [rng.random() < 0.5 for _ in edges]
            return {"rotations": rotations, "edges": edges, "twists": twists}


def random_variant(graph: Dict, rng: random.Random) -> Dict:
    """Random vertex flips, then a random relabelling of half-edges and vertices."""
    n_vertices = len(graph["rotations"])
    n_half = sum(len(r) for r in graph["rotations"])
    half_perm = list(range(n_half))
    rng.shuffle(half_perm)
    vertex_order = list(range(n_vertices))
    rng.shuffle(vertex_order)
    return {"flips": [v for v in range(n_vertices) if rng.random() < 0.5],
            "half_perm": half_perm, "vertex_order": vertex_order,
            "shifts": [rng.randrange(len(r)) for r in graph["rotations"]]}


def selfcheck_inputs(seed: int, size: str = "full") -> Dict:
    """Graphs and their flip/relabel variants, all drawn from ``seed``."""
    spec = SELFCHECK[size]
    rng = random.Random(seed)
    graphs = [random_graph(valences, rng) for valences in spec["graphs"]]
    variants = [[random_variant(g, rng) for _ in range(spec["variants"])] for g in graphs]
    return {"graphs": graphs, "variants": variants}

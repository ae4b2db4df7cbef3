"""The mobex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs rounds of the workload's operations (see ``workloads.py``) one after
another for about T seconds, in fresh ``python3`` processes started from
the checkout's ``src``, and checks every output.  ``expand-cold`` starts
one process per operation; the warm workloads run a round in one process.
A round is one closed-loop pass: each operation starts when the previous
one has finished.

With ``--trace 0`` it prints the end-to-end metrics: the times sum each
part of a round (a process's set-up, an operation, the rest) at its
fastest over the rounds, and the memory is the median round's.  With
``--trace 1`` rounds alternate untraced and traced; the traced ones
install the wrappers of ``tracer.py`` and give the per-layer metrics, and
the pair gives the tracing overhead.  Every metric is printed
by name with its unit, then an environment record, and as the last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Maintenance: ``--write-golden`` records the exit code and stdout SHA-256 of
every exact operation into ``golden.json``; run it only on a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
GOLDEN = BENCH / "golden.json"
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"]

# Per-layer metrics of the traced run that go into the final JSON line.  The
# traced run prints more (every layer, every named self time); these are the
# counts and the times that are non-zero on every workload.
PER_LAYER_JSON = [
    "catalog.enumerate.self_s", "catalog.enumerate.calls", "catalog.cache_hits",
    "catalog.classes", "catalog.matchings", "catalog.labelled_gluings",
    "graphs.topology.calls", "graphs.topology.self_s",
    "graphs.trace_faces.calls", "graphs.trace_faces.self_s",
    "sprinkle.assignments", "oracle.moment.calls", "oracle.mc.samples",
    "parallel.pmap.items", "cli.stdout_bytes",
] + [layer + ".errors" for layer in tracer.LAYERS] + [
    "catalog.classes_per_matching", "catalog.self_s", "graphs.self_s", "sprinkle.self_s",
    "bench.op.self_s", "trace.wall_s", "trace.attributed_s", "trace.unattributed_s",
    "trace.spans", "trace.overhead_ratio",
]

COMPUTED = {"catalog.matchings", "catalog.classes", "catalog.classes_per_matching",
            "catalog.labelled_gluings", "sprinkle.assignments", "oracle.mc.samples"}


@dataclass
class Round:
    traced: bool
    wall: float
    rss_mb: float
    setups: List[float]
    results: List[dict]
    failed: List[str]
    wall_parts: Dict[str, float]  # set-up, each operation, the rest: they sum to wall
    cpu_parts: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int, size: str, golden: dict, workdir: Path):
        self.size = size
        self.golden = golden
        self.workdir = workdir
        self.ops = workloads.operations(workload, seed, size)
        self.kinds = {op["id"]: op for op in self.ops}
        self.groups = ([[op] for op in self.ops] if workload in workloads.COLD
                       else [self.ops])
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("MOBEX_")}
        self.env["PYTHONHASHSEED"] = "0"
        self.exact = self._exact_moments()
        self.inputs = self._write_inputs(seed) if workload == "selfcheck-warm" else None

    # -- set-up, outside any timed region ------------------------------------------

    def _exact_moments(self) -> Dict[str, Fraction]:
        from mobex.oracle import MomentQuery, eigenvalue_moment
        return {op["id"]: eigenvalue_moment(MomentQuery(op["beta"], op["n"],
                                                        tuple(op["powers"]), Fraction(1, 4)))
                for op in self.ops if op["kind"] == "mc"}

    def _write_inputs(self, seed: int) -> str:
        """Seeded graphs as graph JSON, read back through graph_from_json."""
        from mobex.graphs import MoebiusGraph, graph_from_json, graph_to_json
        data = workloads.selfcheck_inputs(seed, self.size)
        texts = []
        for g in data["graphs"]:
            graph = MoebiusGraph(g["rotations"], g["edges"], g["twists"])
            text = graph_to_json(graph)
            if graph_from_json(text) != graph:
                raise RuntimeError("graph JSON does not round-trip")
            texts.append(text)
        path = self.workdir / "inputs.json"
        path.write_text(json.dumps({"graphs": texts, "variants": data["variants"]}))
        return str(path)

    # -- one round -----------------------------------------------------------------

    def run_round(self, index: int, traced: bool) -> Round:
        prefix = str(self.workdir / ("r%d" % index))
        specs = []
        for i, group in enumerate(self.groups):
            spec = {"src": str(SRC), "ops": group, "inputs": self.inputs,
                    "record": "%s-p%d.record.json" % (prefix, i),
                    "trace_prefix": prefix if traced else None}
            path = "%s-p%d.spec.json" % (prefix, i)
            with open(path, "w") as handle:
                json.dump(spec, handle)
            specs.append((path, spec))

        start = time.monotonic()
        setups, results, rss = [], [], 0
        wall_parts: Dict[str, float] = {}
        cpu_parts: Dict[str, float] = {}
        for (path, spec), group in zip(specs, self.groups):
            spawned = time.monotonic()
            status, usage = self._spawn(path)
            process_cpu = usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss)
            if status == 0 and os.path.exists(spec["record"]):
                with open(spec["record"]) as handle:
                    record = json.load(handle)
                setups.append(record["setup_done"] - spawned)
                results.extend(record["results"])
                process = group[0]["id"] if len(self.groups) > 1 else "round"
                wall_parts["setup " + process] = setups[-1]
                cpu_parts["rest " + process] = process_cpu
                for r in record["results"]:
                    wall_parts["op " + r["id"]] = r["wall"]
                    cpu_parts["op " + r["id"]] = r["cpu"]
                    cpu_parts["rest " + process] -= r["cpu"]
            else:
                results.extend({"id": op["id"], "exit": None,
                                "error": "process exit status %s" % status} for op in group)
        failed = [r["id"] for r in results if not self.verify(r)]
        wall = time.monotonic() - start
        wall_parts["rest"] = wall - sum(wall_parts.values())

        rnd = Round(traced, wall, rss / 1024.0, setups, results, failed,
                    wall_parts, cpu_parts)
        if traced:
            rnd.layers = self._layer_metrics(rnd, glob.glob(prefix + "-*.spans"))
        return rnd

    def _spawn(self, spec_path: str):
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), spec_path],
                                cwd=str(ROOT), env=self.env, stdout=sys.stderr)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def verify(self, result: dict) -> bool:
        """An operation passes only if every check that applies to it passes."""
        if result.get("exit") is None:
            return False
        op = self.kinds[result["id"]]
        if op["kind"] == "mc":
            exact = float(self.exact[op["id"]])
            return (result["exit"] == 0
                    and abs(result["mean"] - exact) <= 3 * result["stderr"])
        gold = self.golden.get(op["id"])
        if op["kind"] != "cli" and not (result["exit"] == 0 and result["ok"]):
            return False
        if gold is None:
            return op["kind"] in ("mu", "code")  # seeded inputs: self-verified only
        return result["exit"] == gold["exit"] and result["sha256"] == gold["sha256"]

    # -- per-layer metrics of a traced round ---------------------------------------------

    def _layer_metrics(self, rnd: Round, paths: List[str]) -> Dict[str, float]:
        spans, counts = tracer.load(paths)
        self_s, total_s, calls = tracer.self_times(spans)

        def own(*names):
            return sum(self_s.get(name, 0.0) for name in names)

        def layer(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

        enum = ("catalog.enumerate_graphs", "catalog.ribbon_classes")
        m = {
            "catalog.enumerate.self_s": own(*enum),
            "catalog.enumerate.calls": sum(calls.get(n, 0) for n in enum),
            "catalog.canonical_code.self_s": own("catalog.canonical_code"),
            "graphs.topology.calls": calls.get("graphs.topology", 0),
            "graphs.topology.self_s": own("graphs.topology"),
            "graphs.trace_faces.calls": calls.get("graphs.trace_faces", 0),
            "graphs.trace_faces.self_s": own("graphs.trace_faces"),
            "sprinkle.bruteforce.self_s": own("sprinkle.mu_bruteforce"),
            "sprinkle.report.self_s": own("sprinkle.mu_report"),
            # The CLI reaches the weight table only through private names; its
            # time shows as self time of the nearest public callers.
            "series.weights.self_s": own("series.expand_logZ", "parallel.pmap"),
            "series.exp_log.self_s": own("series.CouplingSeries.exp",
                                         "series.CouplingSeries.log"),
            "series.duality.self_s": own("series.apply_duality"),
            "oracle.moment.calls": calls.get("oracle.eigenvalue_moment", 0),
            "oracle.moment.self_s": own("oracle.eigenvalue_moment"),
            "oracle.mc.self_s": own("oracle.mc_estimate"),
            "dualchar.verify.self_s": own("dualchar.verify_polynomial_identity"),
            "dualchar.charpoly.self_s": own("dualchar.charpoly_lhs", "dualchar.charpoly_rhs",
                                            "dualchar.charpoly_sides_by_edges"),
            "dualchar.dual.self_s": own("dualchar.poincare_dual"),
            "penner.zseries.self_s": layer("penner"),
            "clt.verify.self_s": own("clt.verify_clt"),
            "parallel.pmap.wall_s": total_s.get("parallel.pmap", 0.0),
            "cli.stdout_bytes": sum(r.get("bytes", 0) for r in rnd.results
                                    if self.kinds[r["id"]]["kind"] in ("cli", "mc")),
            "bench.op.self_s": own("bench.op"),
            # wall = setup + attributed - parallel + unattributed
            "trace.wall_s": rnd.wall,
            "trace.setup_s": sum(rnd.setups),
            "trace.attributed_s": sum(self_s.values()),
            "trace.parallel_s": sum(self_s.values()) - total_s.get("bench.op", 0.0),
            "trace.unattributed_s": (rnd.wall - sum(rnd.setups)
                                     - total_s.get("bench.op", 0.0)),
            "trace.spans": len(spans),
        }
        for name in ("catalog.cache_hits", "catalog.classes", "catalog.matchings",
                     "catalog.labelled_gluings", "sprinkle.assignments",
                     "oracle.mc.samples", "parallel.pmap.items",
                     "parallel.pmap.child_cpu_s"):
            m[name] = counts.get(name, 0)
        m["catalog.classes_per_matching"] = (m["catalog.classes"] / m["catalog.matchings"]
                                             if m["catalog.matchings"] else 0.0)
        m["sprinkle.assignments_per_s"] = _rate(m["sprinkle.assignments"],
                                                m["sprinkle.bruteforce.self_s"])
        m["oracle.mc.samples_per_s"] = _rate(m["oracle.mc.samples"], m["oracle.mc.self_s"])
        for name in tracer.LAYERS:
            m[name + ".self_s"] = layer(name)
            m[name + ".errors"] = counts.get(name + ".errors", 0)
        return m


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "cli.stdout_bytes":
        return "B"
    if name in ("trace.overhead_ratio", "catalog.classes_per_matching"):
        return "ratio"
    return "count"


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "commit": git_commit()}


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_rounds(bench: Bench, seconds: float, trace: bool) -> List[Round]:
    """Rounds until the next one would end after ``seconds`` (at least one of each kind)."""
    start = time.monotonic()
    rounds: List[Round] = []
    while True:
        rounds.append(bench.run_round(len(rounds), trace and len(rounds) % 2 == 1))
        elapsed = time.monotonic() - start
        longest = max(r.wall for r in rounds)
        if len(rounds) >= (2 if trace else 1) and elapsed + longest > seconds:
            return rounds


def summarize(rounds: List[Round], trace: bool) -> Dict[str, tuple]:
    """Every metric of the run as name -> (value, unit)."""
    plain = [r for r in rounds if not r.traced]
    attempted = sum(len(r.results) for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    metrics = {
        "wall_s": (_sum_of_minimums([r.wall_parts for r in plain]), "s"),
        "setup_s": (_sum_of_minimums([r.wall_parts for r in plain], "setup "), "s"),
        "cpu_s": (_sum_of_minimums([r.cpu_parts for r in plain]), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in plain), "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    if trace:
        traced = [r for r in rounds if r.traced]
        for name in traced[0].layers:
            value = statistics.median(r.layers[name] for r in traced)
            metrics[name] = (value, _unit(name))
        metrics["trace.overhead_ratio"] = (statistics.median(r.wall for r in traced)
                                           / statistics.median(r.wall for r in plain), "ratio")
    return metrics


def _sum_of_minimums(parts: List[Dict[str, float]], prefix: str = "") -> float:
    """A round's cost when nothing interferes: each part's fastest time, summed.

    The parts of a round (each process's set-up, each operation, the rest)
    add up to its total.  On a shared machine the same work runs up to
    1.7 times slower for seconds to minutes at a time, and that noise only
    ever adds time, so the fastest sample of each part over the rounds is
    the steadiest estimate of its cost.
    """
    names = {name for p in parts for name in p if name.startswith(prefix)}
    return sum(min(p[name] for p in parts if name in p) for name in names)


def write_golden(seed: int) -> int:
    """Record exit code and SHA-256 of every exact operation at this commit."""
    golden = {}
    for size in ("full", "tiny"):
        for workload in workloads.WORKLOADS:
            with scratch_dir(workload) as workdir:
                bench = Bench(workload, seed, size, {}, workdir)
                rnd = bench.run_round(0, traced=False)
            for result in rnd.results:
                op = bench.kinds[result["id"]]
                if op["kind"] in ("cli", "orbit", "ribbon-orbit"):
                    if result["exit"] is None or not result.get("ok", True):
                        print("not recording failed operation %s" % op["id"], file=sys.stderr)
                        return 1
                    golden[op["id"]] = {"exit": result["exit"], "sha256": result["sha256"]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote %d golden records to %s" % (len(golden), GOLDEN))
    return 0


@contextlib.contextmanager
def scratch_dir(workload: str):
    """A per-run directory under .perfbench_run, removed on exit."""
    path = RUN_DIR / ("%s-%d" % (workload, os.getpid()))
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny operation sizes, for the benchmark's self-test")
    parser.add_argument("--golden", default=str(GOLDEN),
                        help="golden digests to check against")
    parser.add_argument("--report", help="write every operation's result here")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mobex" / "cli.py").is_file():
        print("perfbench: no mobex sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden(args.seed)
    with open(args.golden) as handle:
        golden = json.load(handle)

    with scratch_dir(args.workload) as workdir:
        bench = Bench(args.workload, args.seed, "tiny" if args.tiny else "full",
                      golden, workdir)
        rounds = run_rounds(bench, args.seconds, bool(args.trace))
    metrics = summarize(rounds, bool(args.trace))

    attempted = sum(len(r.results) for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    for r in rounds:
        for op_id in r.failed:
            print("FAILED %s%s" % (op_id, " (traced)" if r.traced else ""))
    print("workload %s: %d rounds (%d traced), %d operations each, %d attempted, %d failed"
          % (args.workload, len(rounds), sum(r.traced for r in rounds),
             len(bench.ops), attempted, failed))
    print("round walls (s): " + " ".join("%.3f%s" % (r.wall, "t" if r.traced else "")
                                         for r in rounds))
    for name, (value, unit) in metrics.items():
        print("%-34s %16.6f %-6s%s" % (name, value, unit,
                                       "  (computed)" if name in COMPUTED else ""))
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump([{"traced": r.traced, "results": r.results, "failed": r.failed,
                        "wall_parts": r.wall_parts, "cpu_parts": r.cpu_parts}
                       for r in rounds], handle)

    names = PER_LAYER_JSON if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

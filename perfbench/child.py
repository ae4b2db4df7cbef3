"""One benchmark process: import the CLI, run operations, write a record.

Run as ``python3 perfbench/child.py SPEC.json``.  The set-up mark is taken
right after ``import mobex.cli``.  The record holds that mark and, per
operation, the exit code, the SHA-256 and size of what it printed, and its
verification flag or Monte Carlo estimate.  With a trace prefix in the spec
the tracer is installed after the mark, and the spans are written at the end.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time


def run_cli(op: dict) -> dict:
    cli = sys.modules["mobex.cli"]
    buffer = io.StringIO()
    result = {"id": op["id"]}
    try:
        with contextlib.redirect_stdout(buffer):
            result["exit"] = cli.main(op["argv"])
    except SystemExit as exc:
        result["exit"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is a failed operation
        result["exit"] = None
        result["error"] = repr(exc)
    text = buffer.getvalue().encode()
    result["sha256"] = hashlib.sha256(text).hexdigest()
    result["bytes"] = len(text)
    if op["kind"] == "mc" and result["exit"] == 0:
        data = json.loads(text)
        result["mean"], result["stderr"] = data["mean"], data["stderr"]
    return result


def run_selfcheck(op: dict, inputs: dict) -> dict:
    import selfcheck

    result = {"id": op["id"]}
    try:
        if op["kind"] == "mu":
            ok, record = selfcheck.mu_check(inputs["graphs"][op["graph"]], op["beta"])
        elif op["kind"] == "code":
            ok, record = selfcheck.code_check(inputs["graphs"][op["graph"]],
                                              inputs["variants"][op["graph"]])
        elif op["kind"] == "orbit":
            ok, record = selfcheck.orbit_check(op["valences"])
        else:
            ok, record = selfcheck.ribbon_orbit_check(op["valences"])
    except Exception as exc:  # an escaped exception is a failed operation
        return dict(result, exit=None, error=repr(exc))
    text = json.dumps(record, sort_keys=True).encode()
    return dict(result, exit=0, ok=ok, sha256=hashlib.sha256(text).hexdigest(),
                bytes=len(text))


def cpu_now() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_op(op: dict, inputs) -> dict:
    start, cpu = time.monotonic(), cpu_now()
    if op["kind"] in ("cli", "mc"):
        result = run_cli(op)
    else:
        result = run_selfcheck(op, inputs)
    result["wall"] = time.monotonic() - start
    result["cpu"] = cpu_now() - cpu
    return result


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import mobex.cli  # noqa: F401  (the set-up being measured)
    setup_done = time.monotonic()

    inputs = None
    if spec.get("inputs"):
        from mobex.graphs import graph_from_json
        with open(spec["inputs"]) as handle:
            inputs = json.load(handle)
        inputs["graphs"] = [graph_from_json(text) for text in inputs["graphs"]]

    tracer = None
    if spec.get("trace_prefix"):
        from tracer import Tracer
        tracer = Tracer(spec["trace_prefix"])
        tracer.install()

    results = []
    for op in spec["ops"]:
        call = functools.partial(run_op, op, inputs)
        results.append(tracer.call(op["id"], call) if tracer else call())
    if tracer:
        tracer.flush()
    with open(spec["record"], "w") as handle:
        json.dump({"setup_done": setup_done, "results": results}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
